"""Edge-label monoids.

Every interaction in a network template carries one commutative monoid that
says how parallel edge labels merge when operations are overlaid or composed.
Four kinds are supported:

* ``BOOLEAN_OR``  -- {0, 1} under inclusive or; an edge is present or absent.
* ``NAT_SUM``     -- naturals under +; edge multiplicities accumulate.
* ``NAT_MAX``     -- naturals under max; multiset-union semantics.
* ``MOD2``        -- Z/2Z under xor; overlaying an edge twice cancels it.

The monoid unit is 0 for all four kinds, and labels equal to the unit are
never stored on an operation.
"""

from __future__ import annotations

import enum

from .dialect import InputError


class MonoidError(InputError):
    """An edge value outside the monoid's carrier."""


class MonoidKind(enum.Enum):
    BOOLEAN_OR = "boolean_or"
    NAT_SUM = "nat_sum"
    NAT_MAX = "nat_max"
    MOD2 = "mod2"

    @property
    def unit(self) -> int:
        return 0

    def validate(self, value: int) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise MonoidError(f"{self.value}: edge value must be an int, got {value!r}")
        if self in (MonoidKind.BOOLEAN_OR, MonoidKind.MOD2):
            if value not in (0, 1):
                raise MonoidError(f"{self.value}: value must be 0 or 1, got {value}")
        elif value < 0:
            raise MonoidError(f"{self.value}: value must be >= 0, got {value}")
        return value

    def combine(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        if self is MonoidKind.BOOLEAN_OR:
            return a | b
        if self is MonoidKind.NAT_SUM:
            return a + b
        if self is MonoidKind.NAT_MAX:
            return max(a, b)
        return a ^ b

    @property
    def idempotent(self) -> bool:
        """Whether x . x == x for every carrier element."""
        return self in (MonoidKind.BOOLEAN_OR, MonoidKind.NAT_MAX)
