"""Wiring diagrams: typed boundaries, wire partitions, nesting, requirements.

A wiring operation connects the ports of inner boundaries to each other and
to an outer boundary; the connections form a partition of all ports into
wire classes, each carrying a single value space.  Nesting substitutes a
diagram into an inner boundary and flattens: wire classes are merged through
the shared intermediate ports, which then disappear.

The requirements layer works over finite grids only: a requirement restricts
the values of some boundary's ports to unions of closed intervals, joint
validity enumerates internal states (one value per wire class) satisfying
all component requirements, and the soundness check asks whether every
jointly valid state also satisfies the outer requirements.  Each interval
test reads one port, hence one wire, so requirements are unary on wires:
the jointly valid states are the product of each wire's admitted grid
values, and the full grid product is never walked.  Soundness is decided
per wire as well: the number of states checked is a product of per-wire
counts, a sound bundle builds no state at all, and an unsound one lists
every counterexample, uncapped and in grid order, completing to whole
states only the partial states that already break an outer requirement.

Port direction is carried and linted (an all-``in`` wire is suspicious) but
never enforced; the LSI-style diagrams this models treat wires as shared
variables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .dialect import InputError, Reader

PortRef = tuple[str, str]  # (boundary name, port name)


class WiringError(InputError):
    pass


@dataclass(frozen=True)
class Port:
    name: str
    space: str
    direction: str = "bi"

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out", "bi"):
            raise WiringError(f"port {self.name!r}: bad direction {self.direction!r}")
        if not self.name or not self.space:
            raise WiringError("port name and space must be non-empty")


@dataclass(frozen=True)
class Boundary:
    name: str
    ports: tuple[Port, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.ports]
        if len(set(names)) != len(names):
            raise WiringError(f"boundary {self.name!r}: duplicate port names")

    def port(self, name: str) -> Port:
        for p in self.ports:
            if p.name == name:
                return p
        raise WiringError(f"boundary {self.name!r} has no port {name!r}")

    def port_signature(self) -> frozenset[tuple[str, str]]:
        return frozenset((p.name, p.space) for p in self.ports)


def _canon_wires(wires: Iterable[Iterable[PortRef]]) -> tuple[frozenset[PortRef], ...]:
    classes = [frozenset(tuple(ref) for ref in wire) for wire in wires]
    classes = [w for w in classes if w]
    return tuple(sorted(classes, key=lambda w: sorted(w)))


@dataclass(frozen=True)
class WiringOp:
    """One layer of wiring between an outer boundary and inner boundaries."""

    outer: Boundary
    inner: tuple[Boundary, ...]
    wires: tuple[frozenset[PortRef], ...]

    def __post_init__(self) -> None:
        names = [b.name for b in self.inner]
        if len(set(names)) != len(names):
            raise WiringError(f"duplicate inner boundary names: {names}")
        if self.outer.name in names:
            raise WiringError(f"outer boundary name {self.outer.name!r} reused inside")
        object.__setattr__(self, "wires", _canon_wires(self.wires))

        all_ports: dict[PortRef, Port] = {}
        for b in (self.outer, *self.inner):
            for p in b.ports:
                all_ports[(b.name, p.name)] = p
        seen: set[PortRef] = set()
        for wire in self.wires:
            for ref in wire:
                if ref not in all_ports:
                    raise WiringError(f"wire references unknown port {ref[0]}.{ref[1]}")
                if ref in seen:
                    raise WiringError(f"port {ref[0]}.{ref[1]} appears in two wires")
                seen.add(ref)
            spaces = {all_ports[ref].space for ref in wire}
            if len(spaces) > 1:
                raise WiringError(
                    f"wire {sorted(wire)} mixes value spaces {sorted(spaces)}"
                )
        missing = set(all_ports) - seen
        if missing:
            raise WiringError(
                "ports not covered by any wire: "
                + ", ".join(f"{b}.{p}" for b, p in sorted(missing))
            )

    def boundary(self, name: str) -> Boundary:
        if name == self.outer.name:
            return self.outer
        for b in self.inner:
            if b.name == name:
                return b
        raise WiringError(f"no boundary named {name!r} in this diagram")

    def port_of(self, ref: PortRef) -> Port:
        return self.boundary(ref[0]).port(ref[1])

    def wire_of(self, ref: PortRef) -> frozenset[PortRef]:
        for wire in self.wires:
            if ref in wire:
                return wire
        raise WiringError(f"no wire contains {ref[0]}.{ref[1]}")

    def wire_space(self, wire: frozenset[PortRef]) -> str:
        return self.port_of(next(iter(wire))).space

    def wire_label(self, wire: frozenset[PortRef]) -> str:
        owner, port = min(wire)
        return f"{owner}.{port}"

    def lint(self) -> list[str]:
        """Direction advisories; wiring is not rejected on their account."""
        notes = []
        for wire in self.wires:
            directions = {self.port_of(ref).direction for ref in wire}
            if len(wire) > 1 and directions == {"in"}:
                notes.append(f"wire {self.wire_label(wire)} connects only 'in' ports")
        return notes


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def nest(f: WiringOp, gs: Sequence[WiringOp]) -> WiringOp:
    """Substitute ``gs[i]`` into ``f``'s i-th inner boundary and flatten.

    Each g's outer boundary must expose the same (port name, space) set as
    the boundary it replaces.  Wire classes of the result are the union-find
    closure of all layers' wires through the shared intermediate ports, with
    those ports dropped.
    """
    if len(gs) != len(f.inner):
        raise WiringError(f"nest expects {len(f.inner)} diagrams, got {len(gs)}")
    for i, g in enumerate(gs):
        want = f.inner[i].port_signature()
        got = g.outer.port_signature()
        if want != got:
            raise WiringError(
                f"slot {i}: boundary {f.inner[i].name!r} has ports "
                f"{sorted(want)} but {g.outer.name!r} exposes {sorted(got)}"
            )
    inner_names = [b.name for g in gs for b in g.inner]
    if len(set(inner_names)) != len(inner_names):
        raise WiringError(f"inner boundary names collide across slots: {inner_names}")
    if f.outer.name in inner_names:
        raise WiringError(f"outer name {f.outer.name!r} collides with a nested boundary")

    slot_of = {f.inner[i].name: i for i in range(len(f.inner))}
    uf = _UnionFind()

    def f_node(ref: PortRef):
        if ref[0] in slot_of:
            return ("mid", slot_of[ref[0]], ref[1])
        return ("keep", ref)

    for wire in f.wires:
        refs = sorted(wire)
        for other in refs[1:]:
            uf.union(f_node(refs[0]), f_node(other))
    for i, g in enumerate(gs):

        def g_node(ref: PortRef, i=i, g=g):
            if ref[0] == g.outer.name:
                return ("mid", i, ref[1])
            return ("keep", ref)

        for wire in g.wires:
            refs = sorted(wire)
            for other in refs[1:]:
                uf.union(g_node(refs[0]), g_node(other))
            uf.find(g_node(refs[0]))

    # make sure isolated singleton wires still register
    for wire in f.wires:
        for ref in wire:
            uf.find(f_node(ref))

    classes: dict = {}
    for node in list(uf.parent):
        root = uf.find(node)
        classes.setdefault(root, set()).add(node)
    flat_wires = []
    for members in classes.values():
        kept = {ref for kind, *rest in members if kind == "keep" for ref in [rest[0]]}
        if kept:
            flat_wires.append(frozenset(kept))
    inner = tuple(b for g in gs for b in g.inner)
    return WiringOp(f.outer, inner, tuple(flat_wires))


@dataclass(frozen=True)
class WiringComparison:
    equal: bool
    witness: str | None = None


def diagrams_equal(a: WiringOp, b: WiringOp) -> WiringComparison:
    """Structural equality with inner boundaries matched by name."""
    if a.outer.name != b.outer.name or a.outer.port_signature() != b.outer.port_signature():
        return WiringComparison(False, f"outer boundary differs: {a.outer.name} vs {b.outer.name}")
    a_inner = {x.name: x for x in a.inner}
    b_inner = {x.name: x for x in b.inner}
    if set(a_inner) != set(b_inner):
        only = set(a_inner) ^ set(b_inner)
        return WiringComparison(False, f"inner boundaries differ: {sorted(only)}")
    for name in a_inner:
        if a_inner[name].port_signature() != b_inner[name].port_signature():
            return WiringComparison(False, f"ports of {name!r} differ")
    wa, wb = set(a.wires), set(b.wires)
    if wa != wb:
        diff = sorted(wa ^ wb, key=lambda w: sorted(w))
        wire = diff[0]
        side = "first" if wire in wa else "second"
        label = "|".join(f"{o}.{p}" for o, p in sorted(wire))
        return WiringComparison(False, f"wire {{{label}}} only in {side} diagram")
    return WiringComparison(True, None)


# ---------------------------------------------------------------------------
# requirements over finite grids


@dataclass(frozen=True)
class Requirement:
    """Closed-interval constraints on some ports of one boundary.

    ``intervals`` maps a port name to a non-empty list of (lo, hi) pairs; a
    value is admissible when it falls in at least one of them.
    """

    boundary: str
    name: str
    intervals: Mapping[str, tuple[tuple[float, float], ...]]

    def __post_init__(self) -> None:
        norm = {}
        for port, spans in self.intervals.items():
            spans = tuple((float(lo), float(hi)) for lo, hi in spans)
            if not spans:
                raise WiringError(f"requirement {self.name!r}: empty interval list for {port!r}")
            for lo, hi in spans:
                if lo > hi:
                    raise WiringError(f"requirement {self.name!r}: interval [{lo}, {hi}] is empty")
            norm[port] = spans
        object.__setattr__(self, "intervals", norm)


def _in_spans(value: float, spans: Sequence[tuple[float, float]]) -> bool:
    return any(lo <= value <= hi for lo, hi in spans)


@dataclass(frozen=True)
class ValidityResult:
    labels: tuple[str, ...]
    states: tuple[tuple[float, ...], ...]

    @property
    def count(self) -> int:
        return len(self.states)


def _resolve_requirements(op: WiringOp, reqs: Sequence[Requirement]) -> list[tuple[Requirement, dict[str, int]]]:
    """Map each requirement's ports to wire indices; errors name the culprit."""
    index_of = {wire: i for i, wire in enumerate(op.wires)}
    resolved = []
    for req in reqs:
        boundary = op.boundary(req.boundary)
        port_to_wire = {}
        for port in req.intervals:
            boundary.port(port)  # raises if absent
            port_to_wire[port] = index_of[op.wire_of((boundary.name, port))]
        resolved.append((req, port_to_wire))
    return resolved


def _wire_samples(
    op: WiringOp,
    reqs: Sequence[Requirement],
    grid: Mapping[str, Sequence[float]],
) -> list[tuple[float, ...]]:
    """Each wire's grid samples, in grid order, that every requirement admits.

    Every wire's space must be in ``grid`` and have samples; these errors
    come before any requirement is resolved.
    """
    samples = []
    for wire in op.wires:
        space = op.wire_space(wire)
        if space not in grid:
            raise WiringError(
                f"no grid for value space {space!r} (wire {op.wire_label(wire)})"
            )
        if not grid[space]:
            raise WiringError(f"grid for {space!r} is empty")
        samples.append(tuple(grid[space]))
    for req, port_to_wire in _resolve_requirements(op, reqs):
        for port, w in port_to_wire.items():
            samples[w] = tuple(v for v in samples[w] if _in_spans(v, req.intervals[port]))
    return samples


def joint_validity(
    op: WiringOp,
    reqs: Sequence[Requirement],
    grid: Mapping[str, Sequence[float]],
) -> ValidityResult:
    """Enumerate internal states (one value per wire) meeting every requirement.

    ``grid`` supplies the finite sample set per value space; every wire's
    space must be present.  Each requirement port constrains one wire only,
    so the valid states are the product of each wire's admitted samples, in
    the lexicographic order of the full grid.
    """
    labels = tuple(op.wire_label(w) for w in op.wires)
    return ValidityResult(labels, tuple(itertools.product(*_wire_samples(op, reqs, grid))))


@dataclass(frozen=True)
class SoundnessReport:
    sound: bool
    checked: int
    counterexamples: tuple[tuple[dict[str, float], str], ...]

    def to_dict(self) -> dict:
        return {
            "sound": self.sound,
            "checked": self.checked,
            "counterexamples": [
                {"state": state, "violated": name} for state, name in self.counterexamples
            ],
        }


def soundness_check(
    op: WiringOp,
    component_reqs: Sequence[Requirement],
    outer_reqs: Sequence[Requirement],
    grid: Mapping[str, Sequence[float]],
) -> SoundnessReport:
    """Do the component requirements entail the outer ones on the grid?

    The jointly valid states are the product of each wire's admitted
    samples, and every outer port tests one wire, so the check is decided
    per wire: ``checked`` is the product of the per-wire counts, and the
    bundle is sound when no outer port rejects a value of its wire.  No
    state is built for a sound bundle.  Otherwise a state breaks an outer
    requirement when any of its wire values does, and every (state,
    violated requirement) pair is listed, uncapped: states in grid order,
    then requirements in the order given.  The walk takes every choice of
    values up to the last wire that has a breaking value, and completes to
    whole states only the choices that break something.
    """
    for req in outer_reqs:
        if req.boundary != op.outer.name:
            raise WiringError(
                f"outer requirement {req.name!r} names boundary {req.boundary!r}, "
                f"expected {op.outer.name!r}"
            )
    samples = _wire_samples(op, component_reqs, grid)
    resolved = _resolve_requirements(op, outer_reqs)
    checked = math.prod(len(values) for values in samples)
    # breaks[w][i]: bit r is set when samples[w][i] breaks outer requirement r
    breaks = [[0] * len(values) for values in samples]
    for r, (req, port_to_wire) in enumerate(resolved):
        for port, w in port_to_wire.items():
            for i, v in enumerate(samples[w]):
                if not _in_spans(v, req.intervals[port]):
                    breaks[w][i] |= 1 << r
    breaking = [w for w, masks in enumerate(breaks) if any(masks)]
    if not checked or not breaking:
        return SoundnessReport(True, checked, ())

    # past the last breaking wire a state's mask is fixed, so a head whose
    # values break nothing is skipped with its whole tail; every tail is a
    # counterexample of some head, so the list costs no more than the report
    split = breaking[-1] + 1
    labels = tuple(op.wire_label(w) for w in op.wires)
    tail = list(itertools.product(*samples[split:]))
    counterexamples = []
    heads = zip(itertools.product(*samples[:split]), itertools.product(*breaks[:split]))
    for values, masks in heads:
        mask = functools.reduce(operator.or_, masks)
        if not mask:
            continue
        violated = [req.name for r, (req, _) in enumerate(resolved) if mask >> r & 1]
        for rest in tail:
            state = values + rest
            counterexamples.extend((dict(zip(labels, state)), name) for name in violated)
    return SoundnessReport(False, checked, tuple(counterexamples))


# ---------------------------------------------------------------------------
# JSON bundles


_read = Reader(WiringError)


def _parse_ref(text: str) -> PortRef:
    if text.count(".") != 1:
        raise WiringError(f"port reference must be 'boundary.port': {text!r}")
    owner, port = text.split(".")
    return (owner, port)


def _named(table: Mapping, name: str, what: str, owner: str):
    if name not in table:
        raise WiringError(f"{owner}: unknown {what} {name!r}")
    return table[name]


def parse_wiring_bundle(data: Mapping | str) -> dict[str, WiringOp]:
    """Parse a bundle of named wiring operations and their compositions.

    Shape::

        {"version": 1,
         "boundaries": {"LSI": {"ports": [{"name": ..., "space": ...}, ...]}},
         "operations": {"f": {"outer": "LSI", "inner": ["LengthSys", ...],
                              "wires": [["LengthSys.laser", "TempSys.laser"]]}},
         "compositions": {"flat": {"op": "f", "args": ["l", "t"]}}}

    Compositions may reference operations or earlier compositions by name.
    """
    data = _read.document("wiring bundle", data)
    _read.only("wiring bundle", data, ("version", "boundaries", "operations", "compositions"))

    def entries(section: str):
        for name, raw in _read.key("wiring bundle", data, section, "object", {}).items():
            where = f"wiring bundle.{section}.{name}"
            yield name, where, _read.typed(where, raw, "object")

    boundaries: dict[str, Boundary] = {}
    for name, where, raw in entries("boundaries"):
        _read.only(where, raw, ("ports",))
        ports = []
        for i, port in enumerate(_read.key(where, raw, "ports", "list")):
            at = f"{where}.ports[{i}]"
            port = _read.typed(at, port, "object")
            _read.only(at, port, ("name", "space", "direction"))
            ports.append(Port(
                _read.key(at, port, "name", "string"),
                _read.key(at, port, "space", "string"),
                _read.key(at, port, "direction", "string", "bi"),
            ))
        boundaries[name] = Boundary(name, tuple(ports))

    diagrams: dict[str, WiringOp] = {}
    for name, where, raw in entries("operations"):
        _read.only(where, raw, ("outer", "inner", "wires"))
        owner = f"operation {name!r}"
        outer = _named(boundaries, _read.key(where, raw, "outer", "string"), "boundary", owner)
        inner = tuple(
            _named(boundaries, b, "boundary", owner) for b in _read.strings(where, raw, "inner")
        )
        wires = []
        for i, wire in enumerate(_read.key(where, raw, "wires", "list")):
            at = f"{where}.wires[{i}]"
            wires.append([
                _parse_ref(_read.typed(f"{at}[{j}]", ref, "string"))
                for j, ref in enumerate(_read.typed(at, wire, "list"))
            ])
        diagrams[name] = WiringOp(outer, inner, _canon_wires(wires))

    for name, where, raw in entries("compositions"):
        _read.only(where, raw, ("op", "args"))
        owner = f"composition {name!r}"
        op = _named(diagrams, _read.key(where, raw, "op", "string"), "diagram", owner)
        args = [_named(diagrams, a, "diagram", owner) for a in _read.strings(where, raw, "args")]
        diagrams[name] = nest(op, args)
    return diagrams


def load_wiring_bundle(path: str | Path) -> dict[str, WiringOp]:
    return parse_wiring_bundle(Path(path).read_text())


def parse_requirements_bundle(
    data: Mapping | str,
) -> tuple[list[Requirement], list[Requirement], dict[str, list[float]]]:
    """Parse ``{"version": 1, "components": [...], "outer": [...], "grid": {...}}``.

    Each requirement is ``{"boundary": B, "name": N, "intervals": {port:
    [[lo, hi], ...]}}``; the grid maps a value space to a list of numbers.
    """
    data = _read.document("requirements", data)
    _read.only("requirements", data, ("version", "components", "outer", "grid"))

    def parse_span(where: str, span) -> tuple[float, float]:
        span = _read.typed(where, span, "list")
        if len(span) != 2:
            raise WiringError(f"{where}: an interval is a [lo, hi] pair, got {span!r}")
        return (_read.typed(where, span[0], "number"), _read.typed(where, span[1], "number"))

    def parse_reqs(key: str) -> list[Requirement]:
        out = []
        for i, raw in enumerate(_read.key("requirements", data, key, "list", [])):
            where = f"{key}[{i}]"
            raw = _read.typed(where, raw, "object")
            _read.only(where, raw, ("boundary", "name", "intervals"))
            intervals = {}
            for port, spans in _read.key(where, raw, "intervals", "object").items():
                at = f"{where}.intervals.{port}"
                intervals[port] = tuple(parse_span(at, span) for span in _read.typed(at, spans, "list"))
            out.append(
                Requirement(
                    boundary=_read.key(where, raw, "boundary", "string"),
                    name=_read.key(where, raw, "name", "string"),
                    intervals=intervals,
                )
            )
        return out

    grid = {
        space: [float(_read.typed(f"grid.{space}", v, "number"))
                for v in _read.typed(f"grid.{space}", values, "list")]
        for space, values in _read.key("requirements", data, "grid", "object", {}).items()
    }
    return parse_reqs("components"), parse_reqs("outer"), grid


def load_requirements_bundle(path: str | Path):
    return parse_requirements_bundle(Path(path).read_text())
