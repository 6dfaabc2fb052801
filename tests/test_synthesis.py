"""Design synthesis: canonical forests, enumeration, and the search modes."""

import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from operadic.algebra import AlgebraError, AssetSpec, SearchScenario, kpi_evaluate, load_catalog
from operadic.synthesis import (
    EMPTY,
    CandidateDesign,
    DesignEvaluator,
    SearchConfig,
    SynthesisError,
    canon_tree,
    crossover,
    enumerate_designs,
    mutate,
    parse_synthesis_task,
    search,
    tree_serial,
)
from operadic.template import load_network_template, parse_network_template

DATA = Path(__file__).parent / "data"

# One offshore station 104 nmi out, a 10000 nmi^2 box, five hours of daylight,
# and only person-in-water targets.  Hand-scored designs for this scenario:
#
#   quadcopter alone    transit 104/52 = 2.0 h, usable min(4, 5-2) = 3 h,
#                       effort 0.5 * 35 * 3            =  52.5 nmi^2
#   helo alone          transit 104/180 = 0.578 h, usable min(4, 4.42) = 4 h,
#                       effort 0.5 * 90 * 4            = 180.0 nmi^2
#   quad carried by     rides at 180 kn, so usable min(4, 4.42) = 4 h,
#   helo                effort 0.5 * 35 * 4            =  70.0 nmi^2
#
# so helo + 4 carried quads pools 180 + 4*70 = 460 nmi^2, beating five loose
# quads (262.5) and every other forest that fits five nodes.
STATION = SearchScenario(
    bases={"station": 104.0},
    area_nmi2=10000.0,
    window_hr=5.0,
    target_mix={"piw": 1.0},
)

# budget -> (optimal forest, pooled piw effort in nmi^2)
LADDER = [
    (15_000, "station:qd", 52.5),
    (30_000, "station:qd;station:qd", 105.0),
    (45_000, "station:qd;station:qd;station:qd", 157.5),
    (9_060_000, "station:helo(qd,qd,qd,qd)", 460.0),
]


@pytest.fixture(scope="module")
def sailboat_template():
    return load_network_template(DATA / "sailboat_template.json")


@pytest.fixture(scope="module")
def sailboat_catalog():
    return load_catalog(DATA / "sailboat_catalog.json")


def _asset(color, cost, sweep=1.0):
    return AssetSpec(
        color=color,
        cost=cost,
        time_on_station_hr=2.0,
        speed_search_kn=10.0,
        speed_max_kn=20.0,
        sweep_width_nmi={"piw": sweep},
    )


@pytest.fixture()
def toy():
    """Two kinds, A may carry B, one base right on top of the area."""
    template = parse_network_template(
        {"version": 1, "colors": ["A", "B"], "directed": {"carrying": {"B": ["A"]}}}
    )
    catalog = {"A": _asset("A", 100.0), "B": _asset("B", 10.0)}
    scenario = SearchScenario(
        bases={"pier": 0.0}, area_nmi2=100.0, window_hr=1.0, target_mix={"piw": 1.0}
    )
    return template, catalog, scenario


class TestCanonicalForm:
    def test_tree_serial_sorts_children(self):
        left = canon_tree(("A", (("B", ()), ("A", (("B", ()),)))))
        right = canon_tree(("A", (("A", (("B", ()),)), ("B", ()))))
        assert left == right
        assert tree_serial(left) == "A(A(B),B)"

    def test_placements_sort_by_base_then_serial(self):
        one = CandidateDesign.of([("y", ("B", ())), ("x", ("A", ()))])
        two = CandidateDesign.of([("x", ("A", ())), ("y", ("B", ()))])
        assert one == two
        assert one.serial() == "x:A;y:B"
        assert one.digest() == two.digest()

    def test_counts_and_cost(self, toy):
        _, catalog, _ = toy
        cand = CandidateDesign.of([("pier", ("A", (("B", ()), ("B", ()))))])
        assert cand.node_count() == 3
        assert cand.kind_counts() == {"A": 1, "B": 2}
        assert cand.cost(catalog) == 120.0
        assert EMPTY.node_count() == 0
        assert EMPTY.serial() == ""


class TestEnumerate:
    def test_toy_forest_count(self, toy):
        # Root options within 3 nodes: B, A, A(B), A(B,B).  Multisets with
        # at most 3 nodes total: 1 empty + 4 singles + 5 pairs
        # (B+B, B+A, B+A(B), A+A, A+A(B)) + 4 triples (BBB, BBA, BAA, AAA).
        template, catalog, scenario = toy
        cfg = SearchConfig(budget=1e9, max_nodes=3, seed=0)
        designs = enumerate_designs(template, catalog, scenario, cfg)
        assert len(designs) == 14
        assert len({d.serial() for d in designs}) == 14
        assert EMPTY in designs

    def test_budget_prunes(self, toy):
        template, catalog, scenario = toy
        cfg = SearchConfig(budget=25.0, max_nodes=3, seed=0)
        designs = enumerate_designs(template, catalog, scenario, cfg)
        # only B forests are affordable: {}, B, B+B
        assert sorted(d.serial() for d in designs) == ["", "pier:B", "pier:B;pier:B"]

    def test_zero_budget_and_zero_nodes(self, toy):
        template, catalog, scenario = toy
        for cfg in (
            SearchConfig(budget=0.0, max_nodes=3, seed=0),
            SearchConfig(budget=1e9, max_nodes=0, seed=0),
        ):
            assert enumerate_designs(template, catalog, scenario, cfg) == (EMPTY,)

    def test_caps_respected_on_sailboat(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=9_060_000, max_nodes=5, seed=0)
        designs = enumerate_designs(sailboat_template, sailboat_catalog, STATION, cfg)
        assert len(designs) == len({d.serial() for d in designs})
        for d in designs:
            assert d.node_count() <= 5
            assert d.cost(sailboat_catalog) <= 9_060_000 + 1e-6

    def test_realize_round_trips_structure(self, sailboat_template, sailboat_catalog):
        ev = DesignEvaluator(sailboat_template, sailboat_catalog, STATION)
        cand = CandidateDesign.of([("station", ("helo", (("qd", ()),) * 2))])
        design = ev.realize(cand)
        assert [a.color for a in design.assets] == ["helo", "qd", "qd"]
        assert design.bases == ("station",) * 3
        assert design.carrier_of() == [None, 0, 0]


class TestExhaustive:
    @pytest.mark.parametrize("budget,winner,effort", LADDER)
    def test_budget_ladder(
        self, sailboat_template, sailboat_catalog, budget, winner, effort
    ):
        cfg = SearchConfig(budget=budget, max_nodes=5, seed=7)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg)
        assert result.best.serial() == winner
        assert result.report.effort_nmi2["piw"] == pytest.approx(effort)
        assert result.report.expected_detections == pytest.approx(
            1.0 - math.exp(-effort / 10_000.0)
        )

    def test_matches_enumeration_argmax(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=100_000, max_nodes=4, seed=0)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg)
        ev = DesignEvaluator(sailboat_template, sailboat_catalog, STATION)
        designs = enumerate_designs(sailboat_template, sailboat_catalog, STATION, cfg)
        assert result.best == min(designs, key=ev.rank)
        assert result.evaluations == len(designs)

    def test_score_tie_goes_to_cheaper(self, toy):
        template, _, scenario = toy
        # X and Y search identically but Y costs half as much
        catalog = {"X": _asset("X", 100.0), "Y": _asset("Y", 50.0)}
        template = parse_network_template(
            {"version": 1, "colors": ["X", "Y"], "directed": {"carrying": {}}}
        )
        cfg = SearchConfig(budget=1_000.0, max_nodes=1, seed=0)
        result = search(template, catalog, scenario, cfg)
        assert result.best.serial() == "pier:Y"

    def test_zero_budget_selects_empty(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=0.0, max_nodes=5, seed=0)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg)
        assert result.best == EMPTY
        assert result.report.expected_detections == 0.0


class TestMoves:
    def test_random_walk_stays_legal(self, sailboat_template, sailboat_catalog):
        ev = DesignEvaluator(sailboat_template, sailboat_catalog, STATION)
        cfg = SearchConfig(budget=9_060_000, max_nodes=5, seed=0)
        rng = random.Random(99)
        cand = EMPTY
        for _ in range(300):
            cand = mutate(cand, rng, ev, cfg)
            assert cand.node_count() <= cfg.max_nodes
            assert cand.cost(sailboat_catalog) <= cfg.budget + 1e-6
            assert CandidateDesign.of(cand.placements) == cand
            ev.realize(cand)  # FleetDesign validation would raise on bad shape

    def test_mutate_without_moves_is_identity(self, toy):
        template, catalog, scenario = toy
        ev = DesignEvaluator(template, catalog, scenario)
        cfg = SearchConfig(budget=0.0, max_nodes=0, seed=0)
        assert mutate(EMPTY, random.Random(0), ev, cfg) == EMPTY

    def test_crossover_respects_caps(self, sailboat_template, sailboat_catalog):
        ev = DesignEvaluator(sailboat_template, sailboat_catalog, STATION)
        cfg = SearchConfig(budget=9_060_000, max_nodes=5, seed=0)
        a = CandidateDesign.of([("station", ("helo", (("qd", ()),) * 4))])
        b = CandidateDesign.of(
            [("station", ("qd", ())), ("station", ("qd", ())), ("station", ("uav", ()))]
        )
        rng = random.Random(5)
        for _ in range(50):
            child = crossover(a, b, rng, ev, cfg)
            assert child.node_count() <= 5
            assert child.cost(sailboat_catalog) <= 9_060_000 + 1e-6


class TestMetaheuristics:
    def test_anneal_reaches_optimum(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=9_060_000, max_nodes=5, seed=7)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg, "anneal")
        assert result.best.serial() == "station:helo(qd,qd,qd,qd)"

    def test_genetic_reaches_optimum(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=9_060_000, max_nodes=5, seed=7)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg, "genetic")
        assert result.best.serial() == "station:helo(qd,qd,qd,qd)"

    @pytest.mark.parametrize("method", ["anneal", "genetic"])
    def test_seeded_runs_repeat_exactly(
        self, sailboat_template, sailboat_catalog, method
    ):
        cfg = SearchConfig(budget=100_000, max_nodes=4, seed=13)
        first = search(sailboat_template, sailboat_catalog, STATION, cfg, method)
        second = search(sailboat_template, sailboat_catalog, STATION, cfg, method)
        assert first.best == second.best
        assert first.audit == second.audit

    def test_zero_iterations_returns_empty(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=100_000, max_nodes=4, seed=1, iterations=0)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg, "anneal")
        assert result.best == EMPTY

    def test_unknown_method_rejected(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=100_000, seed=0)
        with pytest.raises(SynthesisError, match="unknown search method"):
            search(sailboat_template, sailboat_catalog, STATION, cfg, "tabu")


class TestAudit:
    def test_jsonl_records_carry_design_identity(
        self, sailboat_template, sailboat_catalog
    ):
        cfg = SearchConfig(budget=45_000, max_nodes=5, seed=7)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg, "anneal")
        lines = result.audit_jsonl().splitlines()
        assert len(lines) == len(result.audit)
        for line in lines:
            rec = json.loads(line)
            assert {"design", "sha256", "nodes", "cost", "score"} <= set(rec)
        last = json.loads(lines[-1])
        assert last["selected"] is True
        assert last["design"] == result.best.serial()
        assert last["sha256"] == result.best.digest()

    def test_exhaustive_audits_every_candidate(
        self, sailboat_template, sailboat_catalog
    ):
        cfg = SearchConfig(budget=45_000, max_nodes=5, seed=0)
        result = search(sailboat_template, sailboat_catalog, STATION, cfg)
        designs = enumerate_designs(
            sailboat_template, sailboat_catalog, STATION, cfg
        )
        audited = [rec["design"] for rec in result.audit if "selected" not in rec]
        assert audited == [d.serial() for d in designs]


class TestConfigAndTask:
    def test_config_validation(self):
        with pytest.raises(SynthesisError, match="budget"):
            SearchConfig(budget=-1.0)
        with pytest.raises(SynthesisError, match="max_nodes"):
            SearchConfig(budget=0.0, max_nodes=-1)
        with pytest.raises(SynthesisError, match="population"):
            SearchConfig(budget=0.0, population=1)
        with pytest.raises(SynthesisError, match="elite"):
            SearchConfig(budget=0.0, population=4, elite=5)

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
    def test_budget_must_be_finite(self, budget):
        with pytest.raises(SynthesisError, match="finite"):
            SearchConfig(budget=budget)

    def test_parse_task(self):
        task = parse_synthesis_task(
            {
                "version": 1,
                "budget": 45_000,
                "max_nodes": 4,
                "method": "genetic",
                "seed": 3,
                "scenario": {
                    "version": 1,
                    "bases": {"station": 104.0},
                    "area_nmi2": 10_000.0,
                    "window_hr": 5.0,
                    "target_mix": {"piw": 1.0},
                },
            }
        )
        assert task.method == "genetic"
        assert task.config.budget == 45_000
        assert task.config.max_nodes == 4
        assert task.scenario.bases == {"station": 104.0}

    def test_parse_task_rejects_bad_shapes(self):
        with pytest.raises(SynthesisError, match="version"):
            parse_synthesis_task({"budget": 1, "scenario": {}})
        with pytest.raises(SynthesisError, match="unknown keys"):
            parse_synthesis_task({"version": 1, "budget": 1, "scenario": {}, "x": 2})
        with pytest.raises(SynthesisError, match="required"):
            parse_synthesis_task({"version": 1})


# Two bases, one far enough that slow chains arrive after the window closes,
# and all three target kinds.
TWO_BASES = SearchScenario(
    bases={"near": 40.0, "far": 210.0},
    area_nmi2=9000.0,
    window_hr=3.0,
    target_mix={"piw": 1.0, "cir": 0.4, "ds": 1.7},
)


def _random_fleet(seed):
    """A random catalog and carry rules with a carried asset faster than its
    carrier, and a scenario whose far base lies beyond the window for slow
    chains."""
    rng = random.Random(seed)
    kinds = ["ship", "slow", "fast", "drone"]
    targets = rng.sample(["piw", "cir", "ds"], rng.randint(1, 3))
    speeds = {"ship": rng.uniform(15, 30), "slow": rng.uniform(8, 20),
              "fast": rng.uniform(60, 150), "drone": rng.uniform(20, 90)}
    catalog = {
        k: AssetSpec(
            color=k,
            cost=round(rng.uniform(1, 100), 3),
            time_on_station_hr=rng.choice([math.inf, rng.uniform(0.5, 6)]),
            speed_search_kn=rng.uniform(5, 120),
            speed_max_kn=speeds[k],
            sweep_width_nmi={t: rng.uniform(0.1, 9) for t in targets},
        )
        for k in kinds
    }
    hosts = {k: sorted(h for h in kinds if h != k and rng.random() < 0.5) for k in kinds}
    hosts["fast"] = sorted(set(hosts["fast"]) | {"slow"})
    template = parse_network_template(
        {"version": 1, "colors": kinds, "directed": {"carrying": hosts}}
    )
    scenario = SearchScenario(
        bases={"pier": rng.uniform(0, 30), "reef": rng.uniform(150, 260)},
        area_nmi2=rng.uniform(500, 20000),
        window_hr=rng.uniform(1, 8),
        target_mix={t: rng.uniform(0.1, 2) for t in targets},
    )
    return template, catalog, scenario


class TestComposedScoring:
    """The evaluator's composed score against kpi_evaluate on the realized
    network, the reference it must equal exactly."""

    @staticmethod
    def assert_matches_reference(template, catalog, scenario, config):
        ev = DesignEvaluator(template, catalog, scenario)
        designs = enumerate_designs(template, catalog, scenario, config)
        for cand in designs:
            report = kpi_evaluate(ev.realize(cand), scenario)
            record = ev.audit_record(cand)
            assert (record["score"], record["cost"]) == (
                report.expected_detections,
                report.cost,
            ), cand.serial()
        return designs

    def test_sailboat_two_bases_three_kinds(self, sailboat_template, sailboat_catalog):
        cfg = SearchConfig(budget=1e9, max_nodes=3)
        designs = self.assert_matches_reference(
            sailboat_template, sailboat_catalog, TWO_BASES, cfg
        )
        assert len(designs) == 988

    @pytest.mark.parametrize("seed", range(10))
    def test_random_catalogs(self, seed):
        template, catalog, scenario = _random_fleet(seed)
        cfg = SearchConfig(budget=random.Random(seed).choice([120.0, 1e9]), max_nodes=3)
        self.assert_matches_reference(template, catalog, scenario, cfg)

    @pytest.mark.parametrize("method", ["exhaustive", "anneal", "genetic"])
    def test_missing_sweep_width_raises_through_search(
        self, sailboat_template, sailboat_catalog, method
    ):
        catalog = dict(sailboat_catalog)
        catalog["qd"] = dataclasses.replace(catalog["qd"], sweep_width_nmi={"piw": 0.5})
        cfg = SearchConfig(budget=1e9, max_nodes=2, seed=3, iterations=200, generations=5)
        with pytest.raises(AlgebraError) as err:
            search(sailboat_template, catalog, TWO_BASES, cfg, method)
        assert str(err.value) == "asset 'qd' has no sweep width for target kind 'cir'"
