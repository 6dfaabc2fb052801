"""One typed reader for the JSON input dialects.

Every dialect parser reads its document header, keys and JSON value kinds
through a ``Reader`` bound to the dialect's own exception type, a subclass
of ``InputError``, so a malformed input ends in that error (exit 1 with an
envelope at the command line), never in a raw ``KeyError``, ``ValueError``
or ``TypeError``.  A
boolean is neither a number nor an integer, and an integer kind rejects
``2.5``, ``2.0`` and ``"2"``; only the boolean kind reads ``true`` and
``false``.  A number must be finite and fit a float: Python's ``json``
reads ``NaN``, ``Infinity`` and ``-Infinity`` (and ``1e400`` as infinity),
but JSON has no such values, and every number is used as a float.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

_JSON_KINDS = {
    "object": Mapping,
    "list": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


class InputError(ValueError):
    """A malformed input; every layer's input error derives from it, and the
    command line answers it with an exit-1 envelope."""


class Reader:
    """Typed reads that raise ``error`` with the path of the bad value."""

    def __init__(self, error: type[Exception]) -> None:
        self.error = error

    def document(self, what: str, data: Mapping | str) -> Mapping:
        """Decode JSON text if given, and check for an object with ``"version": 1``."""
        if isinstance(data, str):
            data = json.loads(data)
        data = self.typed(what, data, "object")
        version = data.get("version")
        if type(version) is not int or version != 1:  # not true, not 1.0
            raise self.error(f"{what}: expected \"version\": 1, got {version!r}")
        return data

    def only(self, where: str, raw: Mapping, keys: Iterable[str]) -> None:
        """Reject keys of ``raw`` outside ``keys``."""
        unknown = set(raw) - set(keys)
        if unknown:
            raise self.error(f"{where}: unknown keys {sorted(unknown)}")

    def typed(self, where: str, value, kind: str):
        """Return ``value`` if it has the JSON ``kind``."""
        if isinstance(value, _JSON_KINDS[kind]) and (kind == "boolean") == isinstance(value, bool):
            if kind == "number":
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an integer beyond the range of a float
                    raise self.error(
                        f"{where}: expected finite number, got an integer too large for a float"
                    ) from None
                if not finite:
                    raise self.error(f"{where}: expected finite number, got {value!r}")
            return value
        raise self.error(f"{where}: expected {kind}, got {type(value).__name__}")

    def key(self, where: str, raw: Mapping, key: str, kind: str, default=None):
        """Read ``raw[key]`` as a ``kind``; required unless a ``default`` is given."""
        if key not in raw:
            if default is None:
                raise self.error(f"{where}: missing key {key!r}")
            return default
        return self.typed(f"{where}.{key}", raw[key], kind)

    def numbers(self, where: str, raw: Mapping, key: str, default=None) -> dict[str, float]:
        """Read ``raw[key]`` as an object of numbers, made floats; required
        unless a ``default`` is given."""
        values = self.key(where, raw, key, "object", default)
        return {k: float(self.typed(f"{where}.{key}.{k}", v, "number")) for k, v in values.items()}

    def strings(self, where: str, raw: Mapping, key: str, default=None) -> list[str]:
        """Read ``raw[key]`` as a list of strings; required unless a ``default`` is given."""
        values = self.key(where, raw, key, "list", default)
        return [self.typed(f"{where}.{key}[{i}]", v, "string") for i, v in enumerate(values)]
