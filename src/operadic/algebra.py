"""Semantics for network operations: fleets, search KPIs, failure analysis.

Two concrete interpretations are provided.

* Fleet/KPI: an operation whose nodes are search assets is scored against a
  scenario (base distances, search area, mission window, target mix) with a
  sweep-width exposure model: each asset transits at the min max-speed along
  its carry chain, searches for ``max(0, min(ToS, window - arrival))`` hours,
  and the pooled effort per target kind turns into a detection probability
  ``1 - exp(-Z / area)``.  Carried assets ride for free; a carrier with
  unlimited time on station never pays a window penalty beyond transit.

* Failure: each operation name is assigned a probability distribution over
  its child subsystems; nesting operations multiplies probabilities along
  root paths, giving the failure distribution over leaf components.

``check_homomorphism`` evaluates map-then-act against act-then-map for a
candidate structure map between two interpretations on caller-supplied
probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, Sequence

from .core import NetOperation, NetType, compose
from .dialect import InputError, Reader

PROB_TOL = 1e-9


class AlgebraError(InputError):
    pass


_read = Reader(AlgebraError)


# ---------------------------------------------------------------------------
# assets and fleet designs


@dataclass(frozen=True)
class AssetSpec:
    """Catalog row for one asset type.

    ``time_on_station_hr`` may be ``math.inf`` (serialized as JSON null) for
    assets that can stay out indefinitely.
    """

    color: str
    cost: float
    time_on_station_hr: float
    speed_search_kn: float
    speed_max_kn: float
    sweep_width_nmi: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise AlgebraError(f"{self.color}: cost must be >= 0")
        if self.time_on_station_hr < 0:
            raise AlgebraError(f"{self.color}: time on station must be >= 0")
        if self.speed_search_kn <= 0 or self.speed_max_kn <= 0:
            raise AlgebraError(f"{self.color}: speeds must be positive")
        if any(w < 0 for w in self.sweep_width_nmi.values()):
            raise AlgebraError(f"{self.color}: sweep widths must be >= 0")
        object.__setattr__(self, "sweep_width_nmi", dict(self.sweep_width_nmi))


def parse_catalog(data: Mapping | str) -> dict[str, AssetSpec]:
    data = _read.document("catalog", data)
    catalog = {}
    for color, raw in _read.key("catalog", data, "assets", "object").items():
        where = f"catalog.assets.{color}"
        raw = _read.typed(where, raw, "object")
        tos = raw.get("time_on_station_hr")  # null or absent: unlimited
        catalog[color] = AssetSpec(
            color=color,
            cost=float(_read.key(where, raw, "cost", "number")),
            time_on_station_hr=math.inf if tos is None
            else float(_read.typed(f"{where}.time_on_station_hr", tos, "number")),
            speed_search_kn=float(_read.key(where, raw, "speed_search_kn", "number")),
            speed_max_kn=float(_read.key(where, raw, "speed_max_kn", "number")),
            sweep_width_nmi=_read.numbers(where, raw, "sweep_width_nmi"),
        )
    return catalog


def load_catalog(path: str | Path) -> dict[str, AssetSpec]:
    return parse_catalog(Path(path).read_text())


@dataclass(frozen=True)
class SearchScenario:
    bases: Mapping[str, float]  # base id -> distance to search area, nmi
    area_nmi2: float
    window_hr: float
    target_mix: Mapping[str, float]  # target kind -> expected count (weights)

    def __post_init__(self) -> None:
        if self.area_nmi2 <= 0:
            raise AlgebraError("scenario: area must be positive")
        if self.window_hr < 0:
            raise AlgebraError("scenario: window must be >= 0")
        if not self.bases:
            raise AlgebraError("scenario: at least one base required")
        if any(d < 0 for d in self.bases.values()):
            raise AlgebraError("scenario: base distances must be >= 0")
        if not self.target_mix or any(w < 0 for w in self.target_mix.values()):
            raise AlgebraError("scenario: target mix must be non-negative and non-empty")
        object.__setattr__(self, "bases", dict(self.bases))
        object.__setattr__(self, "target_mix", dict(self.target_mix))

    def to_dict(self) -> dict:
        return {
            "bases": dict(self.bases),
            "area_nmi2": self.area_nmi2,
            "window_hr": self.window_hr,
            "target_mix": dict(self.target_mix),
        }


def parse_scenario(data: Mapping | str) -> SearchScenario:
    data = _read.document("scenario", data)
    return SearchScenario(
        bases=_read.numbers("scenario", data, "bases"),
        area_nmi2=float(_read.key("scenario", data, "area_nmi2", "number")),
        window_hr=float(_read.key("scenario", data, "window_hr", "number")),
        target_mix=_read.numbers("scenario", data, "target_mix"),
    )


@dataclass(frozen=True)
class FleetDesign:
    """A carrying network with one asset and one base per node.

    The carrying relation must be a forest (at most one carrier per node, no
    cycles) and carried nodes inherit their carrier's base.
    """

    operation: NetOperation
    assets: tuple[AssetSpec, ...]
    bases: tuple[str, ...]
    carry_interaction: str = "carrying"

    def __post_init__(self) -> None:
        n = self.operation.node_count
        if len(self.assets) != n or len(self.bases) != n:
            raise AlgebraError(f"need one asset and one base per node ({n} nodes)")
        for p in range(n):
            if self.assets[p].color != self.operation.output[p].name:
                raise AlgebraError(
                    f"node {p} has color {self.operation.output[p].name!r} but "
                    f"asset {self.assets[p].color!r}"
                )
        carrier = self.carrier_of()
        for node, host in enumerate(carrier):
            if host is not None and self.bases[node] != self.bases[host]:
                raise AlgebraError(
                    f"node {node} is carried by node {host} but their bases differ "
                    f"({self.bases[node]!r} vs {self.bases[host]!r})"
                )

    def carrier_of(self) -> list[int | None]:
        """carrier_of()[i] is the node carrying i, or None.  Enforces forest shape."""
        n = self.operation.node_count
        carrier: list[int | None] = [None] * n
        for key, _ in self.operation.edges:
            if key.interaction != self.carry_interaction or key.is_loop:
                continue
            i, j = key.endpoints
            if carrier[i] is not None:
                raise AlgebraError(f"node {i} has two carriers ({carrier[i]} and {j})")
            carrier[i] = j
        for start in range(n):
            node, hops = carrier[start], 0
            while node is not None:
                hops += 1
                if hops > n:
                    raise AlgebraError("carrying relation has a cycle")
                node = carrier[node]
        return carrier

    @property
    def total_cost(self) -> float:
        return sum(a.cost for a in self.assets)

    def word(self) -> NetType:
        return self.operation.output


@dataclass(frozen=True)
class NodeScore:
    node: int
    color: str
    base: str
    arrival_hr: float
    search_hr: float
    effort_nmi2: Mapping[str, float]


@dataclass(frozen=True)
class KpiReport:
    cost: float
    effort_nmi2: Mapping[str, float]
    detect_probability: Mapping[str, float]
    expected_detections: float
    nodes: tuple[NodeScore, ...] = ()

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "effort_nmi2": dict(self.effort_nmi2),
            "detect_probability": dict(self.detect_probability),
            "expected_detections": self.expected_detections,
            "nodes": [
                {
                    "node": ns.node,
                    "color": ns.color,
                    "base": ns.base,
                    "arrival_hr": ns.arrival_hr,
                    "search_hr": ns.search_hr,
                    "effort_nmi2": dict(ns.effort_nmi2),
                }
                for ns in self.nodes
            ],
        }


def node_effort(
    asset: AssetSpec,
    distance_nmi: float,
    chain_speed_kn: float,
    scenario: SearchScenario,
    kinds: Sequence[str],
) -> tuple[float, float, tuple[float, ...]]:
    """Arrival hour, search hours and per-kind effort of one node.

    This is the one place the effort law lives: the node transits
    ``distance_nmi`` at ``chain_speed_kn``, searches while both its time on
    station and the mission window last, and sweeps ``width * speed *
    hours`` for each target kind in ``kinds``.
    """
    arrival = distance_nmi / chain_speed_kn
    search = max(0.0, min(asset.time_on_station_hr, scenario.window_hr - arrival))
    effort = []
    for kind in kinds:
        if kind not in asset.sweep_width_nmi:
            raise AlgebraError(
                f"asset {asset.color!r} has no sweep width for target kind {kind!r}"
            )
        effort.append(asset.sweep_width_nmi[kind] * asset.speed_search_kn * search)
    return arrival, search, tuple(effort)


def detection(
    scenario: SearchScenario, effort: Mapping[str, float]
) -> tuple[dict[str, float], float]:
    """Detection probability ``1 - exp(-Z / area)`` per target kind, and the
    expected detections weighted by the target mix."""
    kinds = sorted(scenario.target_mix)
    detect = {k: 1.0 - math.exp(-effort[k] / scenario.area_nmi2) for k in kinds}
    return detect, sum(scenario.target_mix[k] * detect[k] for k in kinds)


def kpi_evaluate(design: FleetDesign, scenario: SearchScenario) -> KpiReport:
    """Score a fleet design against a search scenario.

    Transit speed of a node is its own max speed when uncarried, otherwise
    the minimum max-speed among its (transitive) carriers; the carried asset
    does not slow its chain.  Search time is clipped by both time on station
    and the remaining mission window.  Effort is pooled per kind in node
    order, starting from 0.0.
    """
    carrier = design.carrier_of()
    kinds = sorted(scenario.target_mix)
    effort = {k: 0.0 for k in kinds}
    nodes = []
    for p, asset in enumerate(design.assets):
        base = design.bases[p]
        if base not in scenario.bases:
            raise AlgebraError(f"node {p}: unknown base {base!r}")
        chain_speed = asset.speed_max_kn
        host = carrier[p]
        if host is not None:
            speeds = []
            while host is not None:
                speeds.append(design.assets[host].speed_max_kn)
                host = carrier[host]
            chain_speed = min(speeds)
        arrival, search, row = node_effort(asset, scenario.bases[base], chain_speed, scenario, kinds)
        for kind, z in zip(kinds, row):
            effort[kind] += z
        nodes.append(NodeScore(p, asset.color, base, arrival, search, dict(zip(kinds, row))))
    detect, expected = detection(scenario, effort)
    return KpiReport(design.total_cost, effort, detect, expected, tuple(nodes))


# ---------------------------------------------------------------------------
# interpretations (algebras) and structure maps between them


class Algebra(Protocol):
    """A functorial interpretation: a value space per type, an action per op."""

    def act(self, op: NetOperation, inputs: Sequence[Any]) -> Any: ...


class FleetAlgebra:
    """Instances are fleet designs over a word; operations assemble fleets."""

    def act(self, op: NetOperation, inputs: Sequence[FleetDesign]) -> FleetDesign:
        if len(inputs) != op.arity:
            raise AlgebraError(f"expected {op.arity} inputs, got {len(inputs)}")
        composite = compose(op, [d.operation for d in inputs])
        assets: list[AssetSpec | None] = [None] * op.node_count
        bases: list[str | None] = [None] * op.node_count
        for p, (s, j) in enumerate(op.placement):
            assets[p] = inputs[s].assets[j]
            bases[p] = inputs[s].bases[j]
        endo = NetOperation.endo(composite.output, composite.edges, composite.signature)
        return FleetDesign(endo, tuple(assets), tuple(bases))


class CostAlgebra:
    """Instances are total costs; every operation acts by summation."""

    def act(self, op: NetOperation, inputs: Sequence[float]) -> float:
        return float(sum(inputs))


@dataclass(frozen=True)
class ProbeResult:
    index: int
    via_map: Any
    via_action: Any
    passed: bool


@dataclass(frozen=True)
class HomomorphismReport:
    results: tuple[ProbeResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[ProbeResult]:
        return [r for r in self.results if not r.passed]


def _values_close(a: Any, b: Any, tol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(_values_close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_values_close(a[k], b[k], tol) for k in a)
    return a == b


def check_homomorphism(
    src: Algebra,
    dst: Algebra,
    component: Callable[[NetType, Any], Any],
    probes: Sequence[tuple[NetOperation, Sequence[Any]]],
    tol: float = PROB_TOL,
) -> HomomorphismReport:
    """Check the naturality square of ``component`` on each probe.

    For a probe ``(op, xs)`` the two routes are ``component(out, src.act(op,
    xs))`` and ``dst.act(op, [component(t, x) ...])``; they must agree within
    ``tol`` for numeric values, exactly otherwise.
    """
    results = []
    for index, (op, xs) in enumerate(probes):
        if len(xs) != op.arity:
            raise AlgebraError(f"probe {index}: expected {op.arity} inputs, got {len(xs)}")
        mapped = [component(op.inputs[s], x) for s, x in enumerate(xs)]
        via_action = component(op.output, src.act(op, xs))
        via_map = dst.act(op, mapped)
        results.append(
            ProbeResult(index, via_map, via_action, _values_close(via_map, via_action, tol))
        )
    return HomomorphismReport(tuple(results))


# ---------------------------------------------------------------------------
# failure distributions


@dataclass(frozen=True)
class FailureDistribution:
    """A finite probability distribution over child labels."""

    probs: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        labels = [l for l, _ in self.probs]
        if len(set(labels)) != len(labels):
            raise AlgebraError(f"duplicate labels in distribution: {labels}")
        for label, p in self.probs:
            if not label:
                raise AlgebraError("empty label in distribution")
            if not (0.0 <= p <= 1.0):
                raise AlgebraError(f"probability of {label!r} out of [0, 1]: {p}")
        total = sum(p for _, p in self.probs)
        if abs(total - 1.0) > PROB_TOL:
            raise AlgebraError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "probs", tuple(sorted(self.probs)))

    @classmethod
    def of(cls, mapping: Mapping[str, float]) -> "FailureDistribution":
        return cls(tuple(mapping.items()))

    def __getitem__(self, label: str) -> float:
        for l, p in self.probs:
            if l == label:
                return p
        raise KeyError(label)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.probs)

    def as_dict(self) -> dict[str, float]:
        return dict(self.probs)


@dataclass(frozen=True)
class OpTree:
    """A nesting of named operations; unrefined labels are leaf components."""

    op: str
    children: Mapping[str, "OpTree"] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", dict(self.children))

    @classmethod
    def from_dict(cls, data: Mapping, where: str = "operation tree") -> "OpTree":
        data = _read.typed(where, data, "object")
        _read.only(where, data, ("op", "children"))
        op = _read.key(where, data, "op", "string")
        children = {
            label: cls.from_dict(sub, f"{where}.children.{label}")
            for label, sub in _read.key(where, data, "children", "object", {}).items()
        }
        return cls(op, children)


class FailureModel:
    """Per-operation failure distributions, composable along operation trees."""

    def __init__(self, assignments: Mapping[str, FailureDistribution | Mapping[str, float]]):
        self._dists: dict[str, FailureDistribution] = {}
        for name, dist in assignments.items():
            if not isinstance(dist, FailureDistribution):
                dist = FailureDistribution.of(dist)
            self._dists[name] = dist

    def distribution(self, op: str) -> FailureDistribution:
        try:
            return self._dists[op]
        except KeyError:
            raise AlgebraError(f"no failure distribution assigned to operation {op!r}") from None

    def composite(self, tree: OpTree) -> FailureDistribution:
        leaves: dict[str, float] = {}

        def walk(node: OpTree, weight: float) -> None:
            dist = self.distribution(node.op)
            for label in node.children:
                if label not in dist.labels:
                    raise AlgebraError(
                        f"operation {node.op!r} has no child {label!r} to refine"
                    )
            for label, p in dist.probs:
                child = node.children.get(label)
                if child is not None:
                    walk(child, weight * p)
                else:
                    if label in leaves:
                        raise AlgebraError(f"leaf label {label!r} appears twice in tree")
                    leaves[label] = weight * p

        walk(tree, 1.0)
        return FailureDistribution.of(leaves)


def failure_algebra(
    assignments: Mapping[str, FailureDistribution | Mapping[str, float]]
) -> FailureModel:
    return FailureModel(assignments)


def composite_distribution(model: FailureModel, tree: OpTree | Mapping) -> FailureDistribution:
    if not isinstance(tree, OpTree):
        tree = OpTree.from_dict(tree)
    return model.composite(tree)


def parse_failure_bundle(data: Mapping | str) -> tuple[FailureModel, OpTree]:
    """Parse ``{"version": 1, "distributions": {...}, "tree": {...}}``."""
    data = _read.document("failure bundle", data)
    _read.only("failure bundle", data, ("version", "distributions", "tree"))
    where = "failure bundle.distributions"
    distributions = _read.key("failure bundle", data, "distributions", "object")
    for op in distributions:  # probabilities keep their JSON numbers, as messages print them
        for label, p in _read.key(where, distributions, op, "object").items():
            _read.typed(f"{where}.{op}.{label}", p, "number")
    model = failure_algebra(distributions)
    return model, OpTree.from_dict(_read.key("failure bundle", data, "tree", "object"))
