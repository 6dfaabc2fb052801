"""Monoid-labeled network operations and their composition calculus.

An operation is a finite labeled graph over the nodes of its output word,
together with a record of how those nodes partition into input slots.  The
five combinators -- identity, parallel, overlay, permute, compose -- obey the
usual operad laws (unit, associativity, equivariance), which the test suite
checks on randomized instances rather than assuming.

Representation choices:

* Node order follows the output word and is part of the data; canonical form
  sorts edges and prunes unit labels but does not quotient by permutation.
* ``placement[p] == (s, j)`` records that output position ``p`` holds the
  ``j``-th element of input slot ``s``; it is a bijection onto the slot
  positions and the words must agree color-for-color.
* For a directed interaction the key ``(i, j)`` reads "node i attached to
  node j" (in carrying templates: i is carried by j).  Undirected keys store
  the smaller index first; loops store a single index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .dialect import InputError
from .monoid import MonoidKind


class OperadError(InputError):
    """Base class for malformed operations or illegal combinations."""


class TypeMismatchError(OperadError):
    pass


class SignatureMismatchError(OperadError):
    pass


class PermutationError(OperadError):
    pass


@dataclass(frozen=True, order=True)
class Color:
    """A node type; the name is an identifier-like non-empty string."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise OperadError(f"color name must be a non-empty string, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class NetType:
    """A finite word of colors; the boundary type of an operation."""

    word: tuple[Color, ...] = ()

    @classmethod
    def of(cls, *names: str) -> "NetType":
        return cls(tuple(Color(n) for n in names))

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[Color]:
        return iter(self.word)

    def __getitem__(self, i: int) -> Color:
        return self.word[i]

    def __add__(self, other: "NetType") -> "NetType":
        return NetType(self.word + other.word)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.word)

    def __str__(self) -> str:
        return "[" + ", ".join(self.names()) + "]"


@dataclass(frozen=True)
class Interaction:
    """Declaration of one edge relation: its direction, monoid and loop policy."""

    name: str
    directed: bool
    monoid: MonoidKind = MonoidKind.BOOLEAN_OR
    loops: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise OperadError("interaction name must be non-empty")


class Signature:
    """Immutable set of interaction declarations shared by combinable operations.

    Operations may be combined when their signatures are equal or one contains
    the other; the empty signature acts as a unit so bare identities compose
    with anything.
    """

    __slots__ = ("_by_name",)

    def __init__(self, interactions: Iterable[Interaction] = ()):
        by_name: dict[str, Interaction] = {}
        for inter in interactions:
            prev = by_name.get(inter.name)
            if prev is not None and prev != inter:
                raise SignatureMismatchError(
                    f"conflicting declarations for interaction {inter.name!r}"
                )
            by_name[inter.name] = inter
        self._by_name = dict(sorted(by_name.items()))

    @classmethod
    def empty(cls) -> "Signature":
        return cls()

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._by_name == other._by_name

    def __hash__(self) -> int:
        return hash(tuple(self._by_name.values()))

    def __repr__(self) -> str:
        return f"Signature({list(self._by_name)})"

    def get(self, name: str) -> Interaction:
        try:
            return self._by_name[name]
        except KeyError:
            raise SignatureMismatchError(f"unknown interaction {name!r}") from None

    def monoid_of(self, name: str) -> MonoidKind:
        return self.get(name).monoid

    def issubset(self, other: "Signature") -> bool:
        return all(
            name in other._by_name and other._by_name[name] == inter
            for name, inter in self._by_name.items()
        )

    def merge(self, other: "Signature") -> "Signature":
        if self.issubset(other):
            return other
        if other.issubset(self):
            return self
        raise SignatureMismatchError(
            f"template mismatch: {sorted(self._by_name)} vs {sorted(other._by_name)}"
        )

    def edge(self, name: str, i: int, j: int | None = None) -> "EdgeKey":
        """Build the canonical key for an edge of interaction ``name``.

        A single index, or ``i == j`` on a loop-permitting interaction, yields
        a loop key.
        """
        inter = self.get(name)
        if j is None or i == j:
            if not inter.loops:
                raise OperadError(f"interaction {name!r} does not permit loops (node {i})")
            return EdgeKey(name, (i,), False)
        return EdgeKey(name, (i, j), inter.directed)


@dataclass(frozen=True)
class EdgeKey:
    """Identity of one labeled edge: interaction name plus endpoints.

    ``endpoints`` is ``(i, j)`` for a pair (sorted ascending when undirected)
    or ``(i,)`` for a loop.  Construct via :meth:`Signature.edge` so that the
    directionality and loop policy of the interaction are respected.
    """

    interaction: str
    endpoints: tuple[int, ...]
    directed: bool = False

    def __post_init__(self) -> None:
        n = len(self.endpoints)
        if n not in (1, 2):
            raise OperadError(f"edge must have 1 or 2 endpoints, got {self.endpoints}")
        if any(not isinstance(e, int) or e < 0 for e in self.endpoints):
            raise OperadError(f"edge endpoints must be non-negative ints: {self.endpoints}")
        if n == 2:
            i, j = self.endpoints
            if i == j:
                raise OperadError(f"self-pair ({i}, {j}); use a loop key instead")
            if not self.directed and i > j:
                object.__setattr__(self, "endpoints", (j, i))

    @property
    def is_loop(self) -> bool:
        return len(self.endpoints) == 1

    def shifted(self, offset: int) -> "EdgeKey":
        return EdgeKey(self.interaction, tuple(e + offset for e in self.endpoints), self.directed)

    def mapped(self, index_map: Sequence[int]) -> "EdgeKey":
        return EdgeKey(self.interaction, tuple(index_map[e] for e in self.endpoints), self.directed)

    def sort_key(self) -> tuple:
        return (self.interaction, len(self.endpoints), self.endpoints, self.directed)


def _normalize_edges(
    edges: Mapping[EdgeKey, int] | Iterable[tuple[EdgeKey, int]],
    signature: Signature,
    node_count: int,
) -> tuple[tuple[EdgeKey, int], ...]:
    items = edges.items() if isinstance(edges, Mapping) else edges
    merged: dict[EdgeKey, int] = {}
    for key, value in items:
        inter = signature.get(key.interaction)
        if key.is_loop and not inter.loops:
            raise OperadError(f"interaction {key.interaction!r} does not permit loops")
        if not key.is_loop and key.directed != inter.directed:
            raise OperadError(
                f"edge {key.endpoints} direction disagrees with interaction {key.interaction!r}"
            )
        if any(e >= node_count for e in key.endpoints):
            raise OperadError(
                f"edge {key.endpoints} out of range for {node_count} nodes"
            )
        inter.monoid.validate(value)
        if key in merged:
            value = inter.monoid.combine(merged[key], value)
        merged[key] = value
    pruned = {k: v for k, v in merged.items() if v != signature.get(k.interaction).monoid.unit}
    return tuple(sorted(pruned.items(), key=lambda kv: kv[0].sort_key()))


@dataclass(frozen=True)
class NetOperation:
    """A labeled network over the output word, partitioned into input slots.

    Instances are canonical by construction: edges sorted, unit labels pruned.
    Structural equality therefore coincides with operation equality.
    """

    inputs: tuple[NetType, ...]
    output: NetType
    placement: tuple[tuple[int, int], ...]
    edges: tuple[tuple[EdgeKey, int], ...] = ()
    signature: Signature = field(default_factory=Signature.empty)

    def __post_init__(self) -> None:
        n = len(self.output)
        if len(self.placement) != n:
            raise OperadError(f"placement length {len(self.placement)} != node count {n}")
        seen: set[tuple[int, int]] = set()
        for p, (s, j) in enumerate(self.placement):
            if not (0 <= s < len(self.inputs)):
                raise OperadError(f"placement[{p}] refers to missing slot {s}")
            if not (0 <= j < len(self.inputs[s])):
                raise OperadError(f"placement[{p}] position {j} out of range in slot {s}")
            if (s, j) in seen:
                raise OperadError(f"placement is not injective at slot position ({s}, {j})")
            seen.add((s, j))
            if self.output[p] != self.inputs[s][j]:
                raise TypeMismatchError(
                    f"output node {p} has color {self.output[p]} but slot {s} "
                    f"position {j} has {self.inputs[s][j]}"
                )
        if len(seen) != sum(len(t) for t in self.inputs):
            raise OperadError("placement does not cover every input position")
        object.__setattr__(self, "edges", _normalize_edges(dict(self.edges), self.signature, n))

    @classmethod
    def create(
        cls,
        inputs: Sequence[NetType],
        output: NetType,
        placement: Sequence[tuple[int, int]],
        edges: Mapping[EdgeKey, int] | Iterable[tuple[EdgeKey, int]] = (),
        signature: Signature = Signature.empty(),
    ) -> "NetOperation":
        edge_items = tuple(edges.items() if isinstance(edges, Mapping) else edges)
        return cls(tuple(inputs), output, tuple(tuple(p) for p in placement), edge_items, signature)

    @classmethod
    def endo(
        cls,
        typ: NetType,
        edges: Mapping[EdgeKey, int] | Iterable[tuple[EdgeKey, int]] = (),
        signature: Signature = Signature.empty(),
    ) -> "NetOperation":
        """A single-slot operation whose output equals its one input."""
        placement = tuple((0, p) for p in range(len(typ)))
        return cls.create([typ], typ, placement, edges, signature)

    @property
    def node_count(self) -> int:
        return len(self.output)

    @property
    def arity(self) -> int:
        return len(self.inputs)

    def edge_map(self) -> dict[EdgeKey, int]:
        return dict(self.edges)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "inputs": [list(t.names()) for t in self.inputs],
            "output": list(self.output.names()),
            "slot_map": [list(sj) for sj in self.placement],
            "edges": [
                {
                    "interaction": k.interaction,
                    "endpoints": list(k.endpoints),
                    "directed": k.directed,
                    "value": v,
                }
                for k, v in self.edges
            ],
        }

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization; equal operations agree byte-for-byte."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def identity(typ: NetType, signature: Signature = Signature.empty()) -> NetOperation:
    """The edgeless single-slot operation on ``typ``; unit for compose."""
    return NetOperation.endo(typ, (), signature)


def parallel(f: NetOperation, g: NetOperation) -> NetOperation:
    """Disjoint union; g's nodes and slots are shifted after f's."""
    signature = f.signature.merge(g.signature)
    offset = f.node_count
    placement = f.placement + tuple((s + f.arity, j) for s, j in g.placement)
    edges = list(f.edges) + [(k.shifted(offset), v) for k, v in g.edges]
    return NetOperation(f.inputs + g.inputs, f.output + g.output, placement, tuple(edges), signature)


def overlay(f: NetOperation, g: NetOperation) -> NetOperation:
    """Merge edge labels of two structurally identical operations pointwise."""
    signature = f.signature.merge(g.signature)
    if f.inputs != g.inputs or f.output != g.output or f.placement != g.placement:
        raise TypeMismatchError(
            f"overlay requires identical boundaries: {f.output} vs {g.output}"
        )
    merged = f.edge_map()
    for key, value in g.edges:
        if key in merged:
            merged[key] = signature.monoid_of(key.interaction).combine(merged[key], value)
        else:
            merged[key] = value
    return NetOperation(f.inputs, f.output, f.placement, tuple(merged.items()), signature)


def _check_permutation(sigma: Sequence[int], n: int) -> tuple[int, ...]:
    image = tuple(sigma)
    if sorted(image) != list(range(n)):
        raise PermutationError(f"{image} is not a permutation of range({n})")
    return image


def permute(f: NetOperation, sigma: Sequence[int]) -> NetOperation:
    """Relabel nodes; node i moves to position sigma[i]."""
    image = _check_permutation(sigma, f.node_count)
    word: list[Color | None] = [None] * f.node_count
    placement: list[tuple[int, int] | None] = [None] * f.node_count
    for i, target in enumerate(image):
        word[target] = f.output[i]
        placement[target] = f.placement[i]
    edges = [(k.mapped(image), v) for k, v in f.edges]
    return NetOperation(
        f.inputs, NetType(tuple(word)), tuple(placement), tuple(edges), f.signature
    )


def slot_permute(f: NetOperation, pi: Sequence[int]) -> NetOperation:
    """Reorder input slots; slot s moves to position pi[s].  Nodes stay put."""
    image = _check_permutation(pi, f.arity)
    inputs: list[NetType | None] = [None] * f.arity
    for s, target in enumerate(image):
        inputs[target] = f.inputs[s]
    placement = tuple((image[s], j) for s, j in f.placement)
    return NetOperation(tuple(inputs), f.output, placement, f.edges, f.signature)


def compose(f: NetOperation, gs: Sequence[NetOperation]) -> NetOperation:
    """Substitute operation ``gs[s]`` into slot ``s`` of ``f``.

    Each g's output word must equal the corresponding input word of f; the
    composite keeps f's output and node order, concatenates the gs' input
    slots, and overlays the gs' edges pushed forward along f's slot placement.
    """
    if len(gs) != f.arity:
        raise TypeMismatchError(f"compose expects {f.arity} arguments, got {len(gs)}")
    signature = f.signature
    for s, g in enumerate(gs):
        if g.output != f.inputs[s]:
            raise TypeMismatchError(
                f"slot {s}: expected output {f.inputs[s]}, got {g.output}"
            )
        signature = signature.merge(g.signature)

    # node_in[s][j] = composite node holding slot s position j
    node_in: list[list[int]] = [[-1] * len(t) for t in f.inputs]
    for p, (s, j) in enumerate(f.placement):
        node_in[s][j] = p

    slot_offsets: list[int] = []
    total = 0
    for g in gs:
        slot_offsets.append(total)
        total += g.arity

    placement: list[tuple[int, int] | None] = [None] * f.node_count
    for p, (s, j) in enumerate(f.placement):
        inner_s, inner_j = gs[s].placement[j]
        placement[p] = (slot_offsets[s] + inner_s, inner_j)

    edges: list[tuple[EdgeKey, int]] = list(f.edges)
    for s, g in enumerate(gs):
        edges.extend((k.mapped(node_in[s]), v) for k, v in g.edges)

    inputs = tuple(t for g in gs for t in g.inputs)
    return NetOperation(inputs, f.output, tuple(placement), tuple(edges), signature)


def canonical_form(f: NetOperation) -> NetOperation:
    """Return the canonical representative (sorted, unit-pruned edges).

    Operations are normalized at construction, so this is idempotent and
    mostly useful as an explicit checkpoint before hashing or serialization.
    """
    return NetOperation(f.inputs, f.output, f.placement, f.edges, f.signature)
