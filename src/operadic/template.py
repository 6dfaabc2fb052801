"""Network and tasking templates.

A network template fixes the vocabulary of a design space: the node colors,
the edge interactions (direction, label monoid, loop policy) and, per
interaction, which ordered color pairs may be connected.  Every template
induces a family of operations closed under the core combinators; the
:class:`NetworkOperad` handle enumerates its generators and polices edge
legality.

A tasking template is a colored Petri net: places, token colors and
transitions with integer durations, used by the planner.

JSON dialects
-------------
Network template::

    {"version": 1,
     "colors": ["port", "cut", ...],
     "directed": {"carrying": {"cut": ["port"], "boat": ["port", "cut"]}},
     "undirected": {"comm": {"cut": ["boat"]}}}

For a directed interaction the entry ``"x": ["y", ...]`` reads "x may be
attached to (carried by) y"; the edge key orientation is (x-node, y-node).
Undirected adjacency is symmetrized at load time.  An interaction value may
also be the extended form ``{"monoid": "nat_sum", "loops": true, "pairs":
{...}}``; the monoid defaults to ``boolean_or`` and loops default to off.

Tasking template::

    {"version": 1,
     "colors": ["uh60", "hc130"],
     "places": ["a", "b", "c", "d"],
     "transitions": [
         {"name": "t1", "duration": 2,
          "inputs":  [{"color": "uh60", "place": "a", "count": 1}],
          "outputs": [{"color": "uh60", "place": "c", "count": 1}]}]}

Transitions must preserve token counts per color; ``duration`` is a positive
integer and defaults to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .core import (
    EdgeKey,
    Interaction,
    NetOperation,
    NetType,
    OperadError,
    Signature,
    identity,
)
from .dialect import InputError, Reader
from .monoid import MonoidKind


class TemplateError(InputError):
    """Malformed template data or an edge the template does not allow."""


_read = Reader(TemplateError)


@dataclass(frozen=True)
class InteractionRule:
    """One interaction plus the set of ordered color pairs it allows.

    ``pairs`` holds (attached, host) color-name pairs; for undirected
    interactions it is closed under swapping.
    """

    interaction: Interaction
    pairs: frozenset[tuple[str, str]]

    def allows(self, attached: str, host: str) -> bool:
        return (attached, host) in self.pairs


@dataclass(frozen=True)
class NetworkTemplate:
    colors: tuple[str, ...]
    rules: tuple[InteractionRule, ...]

    def __post_init__(self) -> None:
        if len(set(self.colors)) != len(self.colors):
            raise TemplateError("duplicate colors in template")
        for c in self.colors:
            if not c or not isinstance(c, str):
                raise TemplateError(f"bad color name {c!r}")
        names = [r.interaction.name for r in self.rules]
        if len(set(names)) != len(names):
            raise TemplateError("duplicate interaction names in template")
        color_set = set(self.colors)
        for rule in self.rules:
            for a, b in rule.pairs:
                if a not in color_set or b not in color_set:
                    raise TemplateError(
                        f"interaction {rule.interaction.name!r} references "
                        f"undeclared color in pair ({a!r}, {b!r})"
                    )

    @property
    def signature(self) -> Signature:
        return Signature(r.interaction for r in self.rules)

    def rule(self, name: str) -> InteractionRule:
        for r in self.rules:
            if r.interaction.name == name:
                return r
        raise TemplateError(f"unknown interaction {name!r}")

    def type_of(self, *names: str) -> NetType:
        for n in names:
            if n not in self.colors:
                raise TemplateError(f"color {n!r} not declared in template")
        return NetType.of(*names)

    def to_dict(self) -> dict:
        directed: dict = {}
        undirected: dict = {}
        for rule in self.rules:
            inter = rule.interaction
            adjacency: dict[str, list[str]] = {}
            pairs = rule.pairs
            if not inter.directed:
                # store each unordered pair once, smaller name first
                pairs = frozenset((min(a, b), max(a, b)) for a, b in rule.pairs)
            for a, b in sorted(pairs):
                adjacency.setdefault(a, []).append(b)
            for a in adjacency:
                adjacency[a].sort()
            entry: dict = adjacency
            if inter.monoid is not MonoidKind.BOOLEAN_OR or inter.loops:
                entry = {"pairs": adjacency}
                if inter.monoid is not MonoidKind.BOOLEAN_OR:
                    entry["monoid"] = inter.monoid.value
                if inter.loops:
                    entry["loops"] = True
            (directed if inter.directed else undirected)[inter.name] = entry
        out: dict = {"version": 1, "colors": list(self.colors)}
        if directed:
            out["directed"] = directed
        if undirected:
            out["undirected"] = undirected
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _parse_interaction(
    name: str, where: str, raw, directed: bool, colors: set[str]
) -> InteractionRule:
    adjacency = raw = _read.typed(where, raw, "object")
    monoid = MonoidKind.BOOLEAN_OR.value
    loops = False
    if "pairs" in raw:
        _read.only(where, raw, ("pairs", "monoid", "loops"))
        monoid = _read.key(where, raw, "monoid", "string", monoid)
        loops = _read.key(where, raw, "loops", "boolean", False)
        adjacency = _read.key(where, raw, "pairs", "object")
    try:
        kind = MonoidKind(monoid)
    except ValueError:
        raise TemplateError(f"{where}: unknown monoid {monoid!r}") from None
    pairs: set[tuple[str, str]] = set()
    for attached in adjacency:
        if attached not in colors:
            raise TemplateError(f"{where}: unknown color {attached!r}")
        for host in _read.strings(where, adjacency, attached):
            if host not in colors:
                raise TemplateError(f"{where}: unknown color {host!r}")
            pairs.add((attached, host))
            if not directed:
                pairs.add((host, attached))
    inter = Interaction(name, directed=directed, monoid=kind, loops=loops)
    return InteractionRule(inter, frozenset(pairs))


def parse_network_template(data: Mapping | str) -> NetworkTemplate:
    """Parse the network-template JSON dialect (object or JSON text)."""
    what = "network template"
    data = _read.document(what, data)
    _read.only(what, data, ("version", "colors", "directed", "undirected"))
    colors = _read.strings(what, data, "colors")
    if not colors:
        raise TemplateError('network template: "colors" must be a non-empty list')
    color_set = set(colors)
    rules: list[InteractionRule] = []
    for section, directed in (("directed", True), ("undirected", False)):
        block = _read.key(what, data, section, "object", {})
        for name in sorted(block):
            where = f"{what}.{section}.{name}"
            rules.append(_parse_interaction(name, where, block[name], directed, color_set))
    return NetworkTemplate(tuple(colors), tuple(rules))


def load_network_template(path: str | Path) -> NetworkTemplate:
    return parse_network_template(Path(path).read_text())


def generators(template: NetworkTemplate, typ: NetType) -> list[NetOperation]:
    """All single-edge endo-operations on ``typ`` the template allows.

    Deterministic order: interaction name, then endpoints.
    """
    for c in typ.names():
        if c not in template.colors:
            raise TemplateError(f"color {c!r} not declared in template")
    sig = template.signature
    out: list[NetOperation] = []
    n = len(typ)
    for rule in sorted(template.rules, key=lambda r: r.interaction.name):
        inter = rule.interaction
        keys: list[EdgeKey] = []
        if inter.directed:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    if rule.allows(typ[i].name, typ[j].name):
                        keys.append(sig.edge(inter.name, i, j))
        else:
            for i in range(n):
                for j in range(i + 1, n):
                    if rule.allows(typ[i].name, typ[j].name):
                        keys.append(sig.edge(inter.name, i, j))
        if inter.loops:
            for i in range(n):
                if rule.allows(typ[i].name, typ[i].name):
                    keys.append(sig.edge(inter.name, i, i))
        keys.sort(key=lambda k: k.sort_key())
        out.extend(NetOperation.endo(typ, {k: 1}, sig) for k in keys)
    return out


@dataclass(frozen=True)
class NetworkOperad:
    """Handle for the operation family induced by a network template.

    Operations built through this handle are legal by construction; foreign
    operations can be checked with :meth:`validate`.
    """

    template: NetworkTemplate

    @property
    def signature(self) -> Signature:
        return self.template.signature

    def type_of(self, *names: str) -> NetType:
        return self.template.type_of(*names)

    def identity(self, typ: NetType) -> NetOperation:
        return identity(typ, self.signature)

    def generators(self, typ: NetType) -> list[NetOperation]:
        return generators(self.template, typ)

    def validate(self, op: NetOperation) -> NetOperation:
        """Check every node color and edge of ``op`` against the template."""
        if not op.signature.issubset(self.signature):
            raise TemplateError("operation signature does not match template")
        for t in op.inputs + (op.output,):
            for c in t.names():
                if c not in self.template.colors:
                    raise TemplateError(f"color {c!r} not declared in template")
        for key, _ in op.edges:
            rule = self.template.rule(key.interaction)
            if key.is_loop:
                i = key.endpoints[0]
                ok = rule.interaction.loops and rule.allows(op.output[i].name, op.output[i].name)
            else:
                i, j = key.endpoints
                ok = rule.allows(op.output[i].name, op.output[j].name)
                if not ok and not rule.interaction.directed:
                    ok = rule.allows(op.output[j].name, op.output[i].name)
            if not ok:
                raise TemplateError(
                    f"edge {key.endpoints} ({op.output[key.endpoints[0]].name} on "
                    f"{op.output[key.endpoints[-1]].name}) is not allowed by "
                    f"interaction {key.interaction!r}"
                )
        return op

    def operation(
        self, typ: NetType, edges: Mapping[EdgeKey, int] | Iterable[tuple[EdgeKey, int]]
    ) -> NetOperation:
        """Build and validate an endo-operation on ``typ`` with the given edges."""
        return self.validate(NetOperation.endo(self.type_of(*typ.names()), edges, self.signature))


def induced_operad(template: NetworkTemplate) -> NetworkOperad:
    return NetworkOperad(template)


def merge_templates(
    a: NetworkTemplate, b: NetworkTemplate, shared_colors: Mapping[str, str]
) -> NetworkTemplate:
    """Glue two templates along an injective identification of colors.

    ``shared_colors`` maps color names of ``a`` to the color names of ``b``
    they are identified with; identified colors keep their ``a`` name.
    Interactions with the same name are identified and must agree on
    direction, monoid and loop policy; their allowed pairs are unioned.
    """
    for a_name in shared_colors:
        if a_name not in a.colors:
            raise TemplateError(f"shared color {a_name!r} not in first template")
    targets = list(shared_colors.values())
    if len(set(targets)) != len(targets):
        raise TemplateError("identification maps two colors to the same target")
    for b_name in targets:
        if b_name not in b.colors:
            raise TemplateError(f"shared color {b_name!r} not in second template")

    rename = {b_name: a_name for a_name, b_name in shared_colors.items()}
    b_colors = [rename.get(c, c) for c in b.colors]
    merged_colors = list(a.colors) + [c for c in b_colors if c not in a.colors]
    overlap = set(b_colors) & set(a.colors) - set(shared_colors)
    if overlap:
        raise TemplateError(
            f"colors {sorted(overlap)} appear in both templates without identification"
        )

    rules: dict[str, InteractionRule] = {r.interaction.name: r for r in a.rules}
    for rule in b.rules:
        pairs = frozenset((rename.get(x, x), rename.get(y, y)) for x, y in rule.pairs)
        prev = rules.get(rule.interaction.name)
        if prev is None:
            rules[rule.interaction.name] = InteractionRule(rule.interaction, pairs)
        else:
            if prev.interaction != rule.interaction:
                raise TemplateError(
                    f"interaction {rule.interaction.name!r} declared differently "
                    "in the two templates"
                )
            rules[rule.interaction.name] = InteractionRule(prev.interaction, prev.pairs | pairs)
    return NetworkTemplate(tuple(merged_colors), tuple(rules[n] for n in sorted(rules)))


# ---------------------------------------------------------------------------
# tasking templates


@dataclass(frozen=True)
class TokenFlow:
    color: str
    place: str
    count: int


@dataclass(frozen=True)
class Transition:
    name: str
    inputs: tuple[TokenFlow, ...]
    outputs: tuple[TokenFlow, ...]
    duration: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.duration, int) or self.duration < 1:
            raise TemplateError(f"transition {self.name!r}: duration must be a positive int")
        if not self.inputs:
            raise TemplateError(f"transition {self.name!r}: needs at least one input token")
        for side in (self.inputs, self.outputs):
            for flow in side:
                if flow.count < 1:
                    raise TemplateError(f"transition {self.name!r}: counts must be >= 1")
        in_counts = self.color_counts(self.inputs)
        out_counts = self.color_counts(self.outputs)
        if in_counts != out_counts:
            raise TemplateError(
                f"transition {self.name!r} does not preserve token colors: "
                f"{in_counts} in vs {out_counts} out"
            )

    @staticmethod
    def color_counts(flows: Sequence[TokenFlow]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for flow in flows:
            counts[flow.color] = counts.get(flow.color, 0) + flow.count
        return counts


@dataclass(frozen=True)
class TaskingTemplate:
    colors: tuple[str, ...]
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if len(set(self.colors)) != len(self.colors):
            raise TemplateError("duplicate colors in tasking template")
        if len(set(self.places)) != len(self.places):
            raise TemplateError("duplicate places in tasking template")
        names = [t.name for t in self.transitions]
        if len(set(names)) != len(names):
            raise TemplateError("duplicate transition names")
        for tr in self.transitions:
            for flow in tr.inputs + tr.outputs:
                if flow.color not in self.colors:
                    raise TemplateError(f"transition {tr.name!r}: unknown color {flow.color!r}")
                if flow.place not in self.places:
                    raise TemplateError(f"transition {tr.name!r}: unknown place {flow.place!r}")

    def transition(self, name: str) -> Transition:
        for tr in self.transitions:
            if tr.name == name:
                return tr
        raise TemplateError(f"unknown transition {name!r}")

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "colors": list(self.colors),
            "places": list(self.places),
            "transitions": [
                {
                    "name": tr.name,
                    "duration": tr.duration,
                    "inputs": [
                        {"color": f.color, "place": f.place, "count": f.count}
                        for f in tr.inputs
                    ],
                    "outputs": [
                        {"color": f.color, "place": f.place, "count": f.count}
                        for f in tr.outputs
                    ],
                }
                for tr in self.transitions
            ],
        }


def _parse_flows(where: str, raw: Mapping, key: str) -> tuple[TokenFlow, ...]:
    flows = []
    for i, item in enumerate(_read.key(where, raw, key, "list", [])):
        at = f"{where}.{key}[{i}]"
        item = _read.typed(at, item, "object")
        _read.only(at, item, ("color", "place", "count"))
        flows.append(TokenFlow(
            _read.key(at, item, "color", "string"),
            _read.key(at, item, "place", "string"),
            _read.key(at, item, "count", "integer", 1),
        ))
    return tuple(flows)


def parse_tasking_template(data: Mapping | str) -> TaskingTemplate:
    """Parse the tasking-template JSON dialect (object or JSON text)."""
    what = "tasking template"
    data = _read.document(what, data)
    _read.only(what, data, ("version", "colors", "places", "transitions"))
    colors = _read.strings(what, data, "colors")
    places = _read.strings(what, data, "places")
    transitions = []
    for i, raw in enumerate(_read.key(what, data, "transitions", "list")):
        where = f"{what}.transitions[{i}]"
        raw = _read.typed(where, raw, "object")
        _read.only(where, raw, ("name", "duration", "inputs", "outputs"))
        transitions.append(Transition(
            name=_read.key(where, raw, "name", "string"),
            inputs=_parse_flows(where, raw, "inputs"),
            outputs=_parse_flows(where, raw, "outputs"),
            duration=_read.key(where, raw, "duration", "integer", 1),
        ))
    return TaskingTemplate(tuple(colors), tuple(places), tuple(transitions))


def load_tasking_template(path: str | Path) -> TaskingTemplate:
    return parse_tasking_template(Path(path).read_text())
