"""Fleet design synthesis over a carrying network.

A candidate design is a forest: root assets stationed at a base, each
optionally carrying a tree of further assets permitted by the template's
carry rules.  Candidates are kept in a canonical nested form (children
sorted by their serialization, roots sorted by base then serialization), so
two assemblies of the same fleet compare and hash identically.

``enumerate_designs`` walks every canonical forest within the cost budget
and node cap.  ``search`` scores candidates by expected detections under a
scenario and supports three strategies: exhaustive enumeration, simulated
annealing, and a genetic search.  Ties on score go to the cheaper design,
then to the smaller serialization, so results are reproducible.  All
searches are seeded; the annealing and genetic streams are derived from the
seed by hashing, and every evaluation is appended to an audit log that can
be rendered as JSON lines.

Scores compose: a placement's nodes score the same in every design that
holds it, so ``DesignEvaluator`` keeps one table of per-node cost and effort
per placement and pools the tables of a design's placements node by node,
in the order ``realize`` numbers them.  That is the order and the arithmetic
of ``kpi_evaluate`` on the realized network, so scores, audit logs and
evaluation counts are the same as realizing every candidate would give.
Only the winner is realized, once, for its report.  The strategies'
repeated bookkeeping (a design's move list, a placement's size and score
density) is memoised per search.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .algebra import (
    AlgebraError,
    AssetSpec,
    FleetDesign,
    KpiReport,
    SearchScenario,
    detection,
    kpi_evaluate,
    node_effort,
    parse_scenario,
)
from .core import NetOperation, NetType
from .dialect import InputError, Reader
from .options import METHODS
from .template import NetworkTemplate

COST_EPS = 1e-6
T_INITIAL = 0.02  # annealing: starting (and reheat) temperature
COOLING = 0.995  # annealing: temperature factor per step

# a carry tree is (kind, children) with children a tuple of carry trees
Tree = tuple


class SynthesisError(InputError):
    pass


_read = Reader(SynthesisError)

def tree_serial(tree: Tree) -> str:
    kind, children = tree
    if not children:
        return kind
    return kind + "(" + ",".join(tree_serial(c) for c in children) + ")"


def tree_nodes(tree: Tree) -> int:
    return 1 + sum(tree_nodes(c) for c in tree[1])


def tree_cost(tree: Tree, catalog: Mapping[str, AssetSpec]) -> float:
    return catalog[tree[0]].cost + sum(tree_cost(c, catalog) for c in tree[1])


def _canon(tree: Tree) -> tuple[Tree, str]:
    """The canonical tree and its serial, each subtree serialized once."""
    kind, children = tree
    if not children:
        return (kind, ()), kind
    fixed = sorted((_canon(c) for c in children), key=lambda pair: pair[1])
    return (
        (kind, tuple(t for t, _ in fixed)),
        kind + "(" + ",".join(serial for _, serial in fixed) + ")",
    )


def canon_tree(tree: Tree) -> Tree:
    return _canon(tree)[0]


@dataclass(frozen=True)
class CandidateDesign:
    """A canonical forest of (base, carry tree) placements.

    Equality and hashing use ``placements`` only; the serial and the node
    count are computed once per instance.
    """

    placements: tuple[tuple[str, Tree], ...]

    @classmethod
    def of(cls, placements: Iterable[tuple[str, Tree]]) -> "CandidateDesign":
        fixed = [(base, *_canon(tree)) for base, tree in placements]
        fixed.sort(key=lambda p: (p[0], p[2]))
        return cls(tuple((base, tree) for base, tree, _ in fixed))

    @cached_property
    def _serial(self) -> str:
        return ";".join(f"{base}:{tree_serial(tree)}" for base, tree in self.placements)

    @cached_property
    def _node_count(self) -> int:
        return sum(tree_nodes(tree) for _, tree in self.placements)

    def serial(self) -> str:
        return self._serial

    def digest(self) -> str:
        return hashlib.sha256(self._serial.encode()).hexdigest()

    def node_count(self) -> int:
        return self._node_count

    def cost(self, catalog: Mapping[str, AssetSpec]) -> float:
        return sum(tree_cost(tree, catalog) for _, tree in self.placements)

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}

        def walk(tree: Tree) -> None:
            counts[tree[0]] = counts.get(tree[0], 0) + 1
            for c in tree[1]:
                walk(c)

        for _, tree in self.placements:
            walk(tree)
        return counts


EMPTY = CandidateDesign(())


@dataclass(frozen=True)
class SearchConfig:
    budget: float
    max_nodes: int = 5
    seed: int = 0
    iterations: int = 800  # annealing steps
    population: int = 24
    generations: int = 40
    mutation_rate: float = 0.4
    elite: int = 2

    def __post_init__(self) -> None:
        if not math.isfinite(self.budget):
            raise SynthesisError(f"budget must be a finite number, got {self.budget!r}")
        if self.budget < 0:
            raise SynthesisError("budget must be >= 0")
        if self.max_nodes < 0:
            raise SynthesisError("max_nodes must be >= 0")
        if self.iterations < 0 or self.generations < 0:
            raise SynthesisError("iteration counts must be >= 0")
        if self.population < 2:
            raise SynthesisError("population must be at least 2")
        if not (0 <= self.elite <= self.population):
            raise SynthesisError("elite must fit inside the population")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise SynthesisError("mutation_rate must be a probability")


def _substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class DesignEvaluator:
    """Scores candidates by composing per-placement tables, with a cache.

    A placement (base, tree) always contributes the same nodes: its assets
    in preorder, each transiting from the base at the min max-speed of its
    carriers (a root at its own).  The evaluator keeps each placement's
    preorder rows of (asset cost, per-kind node effort), and scores a
    candidate by pooling the rows of its placements in order, exactly as
    ``kpi_evaluate`` pools the nodes of the realized design.  No network is
    built to score a candidate; ``realize`` builds one for the winner's
    report.
    """

    def __init__(
        self,
        template: NetworkTemplate,
        catalog: Mapping[str, AssetSpec],
        scenario: SearchScenario,
        carry_interaction: str = "carrying",
    ) -> None:
        self.template = template
        self.catalog = dict(catalog)
        self.scenario = scenario
        self.carry = carry_interaction
        rule = template.rule(carry_interaction)  # raises on unknown interaction
        kinds = sorted(k for k in self.catalog if k in template.colors)
        if not kinds:
            raise SynthesisError("no catalog kind appears in the template")
        self.kinds = kinds
        self.children_of = {
            k: tuple(c for c in kinds if rule.allows(c, k)) for k in kinds
        }
        self.bases = tuple(sorted(scenario.bases))
        self._targets = sorted(scenario.target_mix)
        self._cache: dict[str, tuple[float, float]] = {}
        self._rows: dict[tuple[str, Tree], tuple] = {}
        self._moves: dict[tuple, tuple] = {}
        self._density: dict[tuple[str, Tree], float] = {}
        self._sizes_of: dict[tuple[str, Tree], tuple[str, str, int, float]] = {}
        self.evaluations = 0

    def realize(self, cand: CandidateDesign) -> FleetDesign:
        word: list[str] = []
        edges: dict = {}
        bases: list[str] = []
        sig = self.template.signature

        def walk(tree: Tree, base: str, parent: int | None) -> None:
            index = len(word)
            word.append(tree[0])
            bases.append(base)
            if parent is not None:
                edges[sig.edge(self.carry, index, parent)] = 1
            for child in tree[1]:
                walk(child, base, index)

        for base, tree in cand.placements:
            walk(tree, base, None)
        op = NetOperation.endo(NetType.of(*word), edges, sig)
        assets = tuple(self.catalog[k] for k in word)
        return FleetDesign(op, assets, tuple(bases), self.carry)

    def score(self, cand: CandidateDesign) -> float:
        return self._entry(cand)[0]

    def rank(self, cand: CandidateDesign) -> tuple[float, float, str]:
        """Sort key: lower is better (max score, then min cost, then serial)."""
        score, cost = self._entry(cand)
        return (-score, cost, cand.serial())

    def audit_record(self, cand: CandidateDesign, **extra) -> dict:
        score, cost = self._entry(cand)
        record = {
            "design": cand.serial(),
            "sha256": cand.digest(),
            "nodes": cand.node_count(),
            "cost": cost,
            "score": score,
        }
        record.update(extra)
        return record

    def _sizes(self, placement: tuple[str, Tree]) -> tuple[str, str, int, float]:
        """(base, serial, nodes, cost) of a placement once made canonical."""
        sizes = self._sizes_of.get(placement)
        if sizes is None:
            base, tree = placement
            tree, serial = _canon(tree)
            sizes = (base, serial, tree_nodes(tree), tree_cost(tree, self.catalog))
            self._sizes_of[placement] = sizes
        return sizes

    def _placement_rows(self, base: str, tree: Tree) -> tuple:
        """Preorder (asset cost, per-kind effort) rows of one placement."""
        key = (base, tree)
        rows = self._rows.get(key)
        if rows is None:
            distance = self.scenario.bases[base]
            out: list[tuple[float, tuple[float, ...]]] = []

            def walk(node: Tree, carrier_speed: float | None) -> None:
                asset = self.catalog[node[0]]
                own = asset.speed_max_kn
                chain = own if carrier_speed is None else carrier_speed
                row = node_effort(asset, distance, chain, self.scenario, self._targets)[2]
                out.append((asset.cost, row))
                below = own if carrier_speed is None else min(carrier_speed, own)
                for child in node[1]:
                    walk(child, below)

            walk(tree, None)
            rows = self._rows[key] = tuple(out)
        return rows

    def _entry(self, cand: CandidateDesign) -> tuple[float, float]:
        key = cand.serial()
        entry = self._cache.get(key)
        if entry is None:
            # pool node by node in realize's order, from 0.0, as kpi_evaluate does
            costs: list[float] = []
            effort = [0.0] * len(self._targets)
            for base, tree in cand.placements:
                if base not in self.scenario.bases:
                    raise AlgebraError(f"node {len(costs)}: unknown base {base!r}")
                for cost, row in self._placement_rows(base, tree):
                    costs.append(cost)
                    effort = [z + dz for z, dz in zip(effort, row)]
            _, expected = detection(self.scenario, dict(zip(self._targets, effort)))
            entry = self._cache[key] = (expected, sum(costs))
            self.evaluations += 1
        return entry


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _trees_rooted(
    kind: str,
    max_nodes: int,
    children_of: Mapping[str, tuple[str, ...]],
    catalog: Mapping[str, AssetSpec],
    memo: dict,
) -> list[tuple[Tree, int, float]]:
    """Every canonical tree rooted at ``kind`` with at most ``max_nodes`` nodes."""
    if max_nodes < 1:
        return []
    key = (kind, max_nodes)
    if key in memo:
        return memo[key]
    options: list[tuple[Tree, int, float]] = []
    for child_kind in children_of[kind]:
        options.extend(
            _trees_rooted(child_kind, max_nodes - 1, children_of, catalog, memo)
        )
    options.sort(key=lambda o: tree_serial(o[0]))
    results: list[tuple[Tree, int, float]] = []

    def grow(start: int, nodes_left: int, acc: list[Tree], cost: float) -> None:
        results.append(((kind, tuple(acc)), max_nodes - nodes_left, cost))
        for idx in range(start, len(options)):
            sub, n, c = options[idx]
            if n <= nodes_left:
                acc.append(sub)
                grow(idx, nodes_left - n, acc, cost + c)
                acc.pop()

    grow(0, max_nodes - 1, [], catalog[kind].cost)
    memo[key] = results
    return results


def enumerate_designs(
    template: NetworkTemplate,
    catalog: Mapping[str, AssetSpec],
    scenario: SearchScenario,
    config: SearchConfig,
    carry_interaction: str = "carrying",
) -> tuple[CandidateDesign, ...]:
    """All canonical designs within the budget and node cap, empty included.

    Each isomorphism class of forests appears exactly once; growth is
    combinatorial in ``max_nodes``, which is the intended cap.
    """
    ev = DesignEvaluator(template, catalog, scenario, carry_interaction)
    memo: dict = {}
    options: list[tuple[str, Tree, int, float]] = []
    for base in ev.bases:
        for kind in ev.kinds:
            for tree, nodes, cost in _trees_rooted(
                kind, config.max_nodes, ev.children_of, catalog, memo
            ):
                if cost <= config.budget + COST_EPS:
                    options.append((base, tree, nodes, cost))
    options.sort(key=lambda o: (o[0], tree_serial(o[1])))

    found: list[CandidateDesign] = []

    def grow(start: int, nodes_left: int, budget_left: float, acc: list) -> None:
        found.append(CandidateDesign(tuple(acc)))
        for idx in range(start, len(options)):
            base, tree, nodes, cost = options[idx]
            if nodes <= nodes_left and cost <= budget_left + COST_EPS:
                acc.append((base, tree))
                grow(idx, nodes_left - nodes, budget_left - cost, acc)
                acc.pop()

    grow(0, config.max_nodes, config.budget, [])
    found.sort(key=lambda c: c.serial())
    return tuple(found)


# ---------------------------------------------------------------------------
# neighbourhood moves shared by annealing and mutation


def _tree_paths(tree: Tree, prefix: tuple = ()) -> list[tuple]:
    out = [prefix]
    for i, child in enumerate(tree[1]):
        out.extend(_tree_paths(child, prefix + (i,)))
    return out


def _node_at(tree: Tree, path: tuple) -> Tree:
    for i in path:
        tree = tree[1][i]
    return tree


def _add_child(tree: Tree, path: tuple, kind: str) -> Tree:
    if not path:
        return (tree[0], tree[1] + ((kind, ()),))
    i = path[0]
    children = list(tree[1])
    children[i] = _add_child(children[i], path[1:], kind)
    return (tree[0], tuple(children))


def _drop_node(tree: Tree, path: tuple) -> Tree | None:
    """Remove the leaf at ``path``; None when the root itself goes."""
    if not path:
        return None
    i = path[0]
    children = list(tree[1])
    replaced = _drop_node(children[i], path[1:])
    if replaced is None:
        del children[i]
    else:
        children[i] = replaced
    return (tree[0], tuple(children))


def _moves(cand: CandidateDesign, ev: DesignEvaluator, config: SearchConfig) -> tuple:
    """Every applicable single-step edit, in a fixed order; memoised per design."""
    key = (cand.serial(), config.max_nodes, config.budget)
    moves = ev._moves.get(key)
    if moves is None:
        moves = ev._moves[key] = tuple(_list_moves(cand, ev, config))
    return moves


def _list_moves(cand: CandidateDesign, ev: DesignEvaluator, config: SearchConfig) -> list:
    catalog = ev.catalog
    nodes = cand.node_count()
    cost = cand.cost(catalog)
    moves: list[tuple] = []
    if nodes < config.max_nodes:
        for base in ev.bases:
            for kind in ev.kinds:
                if catalog[kind].cost + cost <= config.budget + COST_EPS:
                    moves.append(("add_root", base, kind))
        for r, (_base, tree) in enumerate(cand.placements):
            for path in _tree_paths(tree):
                host = _node_at(tree, path)[0]
                for kind in ev.children_of[host]:
                    if catalog[kind].cost + cost <= config.budget + COST_EPS:
                        moves.append(("add_child", r, path, kind))
    for r, (_base, tree) in enumerate(cand.placements):
        for path in _tree_paths(tree):
            if not _node_at(tree, path)[1]:  # leaf
                moves.append(("drop_leaf", r, path))
    if len(ev.bases) > 1:
        for r, (base, _tree) in enumerate(cand.placements):
            for other in ev.bases:
                if other != base:
                    moves.append(("change_base", r, other))
    # reattach: move a leaf (possibly a whole single-node root) under a host
    # in another placement that may carry it
    for r, (_base, tree) in enumerate(cand.placements):
        for path in _tree_paths(tree):
            node = _node_at(tree, path)
            if node[1]:
                continue
            for r2, (_b2, tree2) in enumerate(cand.placements):
                if r2 == r:
                    continue  # within-tree paths go stale once the leaf drops
                for path2 in _tree_paths(tree2):
                    host = _node_at(tree2, path2)[0]
                    if node[0] in ev.children_of[host]:
                        moves.append(("reattach", r, path, r2, path2))
    return moves


def _apply_move(cand: CandidateDesign, move: tuple) -> CandidateDesign:
    placements = list(cand.placements)
    if move[0] == "add_root":
        _, base, kind = move
        placements.append((base, (kind, ())))
    elif move[0] == "add_child":
        _, r, path, kind = move
        base, tree = placements[r]
        placements[r] = (base, _add_child(tree, path, kind))
    elif move[0] == "drop_leaf":
        _, r, path = move
        base, tree = placements[r]
        dropped = _drop_node(tree, path)
        if dropped is None:
            del placements[r]
        else:
            placements[r] = (base, dropped)
    elif move[0] == "change_base":
        _, r, other = move
        placements[r] = (other, placements[r][1])
    elif move[0] == "reattach":
        _, r, path, r2, path2 = move
        kind = _node_at(placements[r][1], path)[0]
        base, tree = placements[r]
        dropped = _drop_node(tree, path)
        if dropped is None:
            del placements[r]
            if r2 > r:
                r2 -= 1
        else:
            placements[r] = (base, dropped)
        base2, tree2 = placements[r2]
        placements[r2] = (base2, _add_child(tree2, path2, kind))
    else:
        raise SynthesisError(f"unknown move {move[0]!r}")
    return CandidateDesign.of(placements)


def mutate(
    cand: CandidateDesign,
    rng: random.Random,
    ev: DesignEvaluator,
    config: SearchConfig,
) -> CandidateDesign:
    """One random neighbourhood edit; identity when nothing applies."""
    moves = _moves(cand, ev, config)
    if not moves:
        return cand
    return _apply_move(cand, rng.choice(moves))


def crossover(
    a: CandidateDesign,
    b: CandidateDesign,
    rng: random.Random,
    ev: DesignEvaluator,
    config: SearchConfig,
) -> CandidateDesign:
    """Mix root trees from both parents, trimming the least score per cost."""
    pool = list(a.placements) + list(b.placements)
    chosen = [p for p in pool if rng.random() < 0.5]

    def density(placement) -> float:
        value = ev._density.get(placement)
        if value is None:
            score = ev.score(CandidateDesign.of([placement]))
            value = ev._density[placement] = score / max(ev._sizes(placement)[3], 1.0)
        return value

    def over_caps() -> bool:
        # the nodes and cost of CandidateDesign.of(chosen), summed in its order
        sizes = sorted(ev._sizes(p) for p in chosen)
        return (
            sum(size[2] for size in sizes) > config.max_nodes
            or sum(size[3] for size in sizes) > config.budget + COST_EPS
        )

    while chosen and over_caps():
        weakest = min(range(len(chosen)), key=lambda i: (density(chosen[i]), i))
        chosen.pop(weakest)
    return CandidateDesign.of(chosen)


# ---------------------------------------------------------------------------
# search strategies


@dataclass(frozen=True)
class SearchResult:
    method: str
    best: CandidateDesign
    design: FleetDesign
    report: KpiReport
    evaluations: int
    audit: tuple[dict, ...]

    def audit_jsonl(self) -> str:
        return "\n".join(json.dumps(rec, sort_keys=True) for rec in self.audit)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "design": self.best.serial(),
            "sha256": self.best.digest(),
            "kind_counts": self.best.kind_counts(),
            "evaluations": self.evaluations,
            "report": self.report.to_dict(),
        }


def search(
    template: NetworkTemplate,
    catalog: Mapping[str, AssetSpec],
    scenario: SearchScenario,
    config: SearchConfig,
    method: str = "exhaustive",
    carry_interaction: str = "carrying",
) -> SearchResult:
    ev = DesignEvaluator(template, catalog, scenario, carry_interaction)
    if method == "exhaustive":
        best, audit = _search_exhaustive(ev, template, catalog, scenario, config)
    elif method == "anneal":
        best, audit = _search_anneal(ev, config)
    elif method == "genetic":
        best, audit = _search_genetic(ev, config)
    else:
        raise SynthesisError(f"unknown search method {method!r}")
    design = ev.realize(best)  # the only network built: the winner's
    return SearchResult(
        method=method,
        best=best,
        design=design,
        report=kpi_evaluate(design, scenario),
        evaluations=ev.evaluations,
        audit=tuple(audit),
    )


def _search_exhaustive(ev, template, catalog, scenario, config):
    audit = []
    best = EMPTY
    for cand in enumerate_designs(template, catalog, scenario, config, ev.carry):
        audit.append(ev.audit_record(cand))
        if ev.rank(cand) < ev.rank(best):
            best = cand
    audit.append(ev.audit_record(best, selected=True))
    return best, audit


def _search_anneal(ev, config):
    rng = _substream(config.seed, "anneal")
    current = EMPTY
    best = EMPTY
    temperature = T_INITIAL
    restart_after = max(40, config.iterations // 10)
    stalled = 0
    audit = [ev.audit_record(current, step=0, accepted=True, temperature=temperature)]
    for step in range(1, config.iterations + 1):
        if stalled >= restart_after:  # reheat from a fresh random design
            current = _random_design(rng, ev, config)
            temperature = T_INITIAL
            stalled = 0
        proposal = mutate(current, rng, ev, config)
        delta = ev.score(proposal) - ev.score(current)
        accepted = delta > 0 or rng.random() < math.exp(min(delta, 0.0) / temperature)
        if accepted:
            current = proposal
        if ev.rank(current) < ev.rank(best):
            best = current
            stalled = 0
        else:
            stalled += 1
        audit.append(
            ev.audit_record(
                proposal, step=step, accepted=accepted, temperature=temperature
            )
        )
        temperature = max(temperature * COOLING, 1e-12)
    audit.append(ev.audit_record(best, selected=True))
    return best, audit


def _random_design(rng, ev, config):
    cand = EMPTY
    for _ in range(rng.randint(0, config.max_nodes)):
        adds = [
            m for m in _moves(cand, ev, config) if m[0] in ("add_root", "add_child")
        ]
        if not adds:
            break
        cand = _apply_move(cand, rng.choice(adds))
    return cand


def _search_genetic(ev, config):
    rng = _substream(config.seed, "genetic")
    population = [_random_design(rng, ev, config) for _ in range(config.population)]
    best = min(population, key=ev.rank)
    audit = [ev.audit_record(best, generation=0)]

    def tournament(ranked):
        i = rng.randrange(len(ranked))
        j = rng.randrange(len(ranked))
        return ranked[min(i, j)]  # ranked is sorted best-first

    for generation in range(1, config.generations + 1):
        ranked = sorted(population, key=ev.rank)
        if ev.rank(ranked[0]) < ev.rank(best):
            best = ranked[0]
        next_gen = list(ranked[: config.elite])
        while len(next_gen) < config.population:
            child = crossover(tournament(ranked), tournament(ranked), rng, ev, config)
            if rng.random() < config.mutation_rate:
                child = mutate(child, rng, ev, config)
            next_gen.append(child)
        population = next_gen
        audit.append(ev.audit_record(min(population, key=ev.rank), generation=generation))
    final = min(population, key=ev.rank)
    if ev.rank(final) < ev.rank(best):
        best = final
    audit.append(ev.audit_record(best, selected=True))
    return best, audit


# ---------------------------------------------------------------------------
# task JSON


@dataclass(frozen=True)
class SynthesisTask:
    scenario: SearchScenario
    config: SearchConfig
    method: str
    carry_interaction: str = "carrying"


def parse_synthesis_task(data: Mapping | str) -> SynthesisTask:
    """Parse the synthesis task dialect.

    Shape::

        {"version": 1,
         "scenario": {"version": 1, "bases": {...}, "area_nmi2": ...,
                      "window_hr": ..., "target_mix": {...}},
         "budget": 9060000,
         "max_nodes": 5,
         "method": "exhaustive",
         "seed": 7,
         "iterations": 800, "population": 24, "generations": 40}
    """
    where = "synthesis task"
    data = _read.document(where, data)
    _read.only(where, data, (
        "version",
        "scenario",
        "budget",
        "max_nodes",
        "method",
        "seed",
        "iterations",
        "population",
        "generations",
        "mutation_rate",
        "carry_interaction",
    ))
    if "budget" not in data or "scenario" not in data:
        raise SynthesisError("synthesis task: budget and scenario are required")
    config_kwargs = dict(budget=float(_read.key(where, data, "budget", "number")))
    for key in ("max_nodes", "seed", "iterations", "population", "generations"):
        if key in data:
            config_kwargs[key] = _read.key(where, data, key, "integer")
    if "mutation_rate" in data:
        config_kwargs["mutation_rate"] = float(_read.key(where, data, "mutation_rate", "number"))
    method = _read.key(where, data, "method", "string", "exhaustive")
    if method not in METHODS:
        raise SynthesisError(f"synthesis task: unknown search method {method!r}")
    return SynthesisTask(
        scenario=parse_scenario(_read.key(where, data, "scenario", "object")),
        config=SearchConfig(**config_kwargs),
        method=method,
        carry_interaction=_read.key(where, data, "carry_interaction", "string", "carrying"),
    )
