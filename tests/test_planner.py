import itertools
import json
import math
import random
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

from conftest import random_micro_net
from operadic.planner import (
    OBJECTIVES,
    Agent,
    ConstraintSystem,
    CountsSolution,
    FuelSpec,
    Infeasible,
    Level,
    PlannerError,
    RiskSpec,
    Solution,
    TaskVector,
    TypeVector,
    Undecided,
    _Search,
    add_fuel_semantics,
    add_risk_semantics,
    compile_scenario,
    compile_timed,
    compile_untimed,
    enumerate_bindings,
    lift,
    parse_plan_scenario,
    project,
    solve,
    solve_all,
)
from operadic.template import load_tasking_template

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# frozen expectations: the rescue net's binding matrices, worked by hand.
# Columns are agent-major (first agent's places a..d, then the second's).

M_SINGLE = [
    [-1, 0, 1, 0],
    [0, -1, 1, 0],
]
MS_SINGLE = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
]

M_PAIR = [
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, 0, -1, 1, 0],
    [0, 0, -1, 1, 0, 0, -1, 1],
]
MS_PAIR = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0],
]

M_MIXED = [
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],  # refuel moves nobody
]
MS_MIXED = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0],
]


# ---------------------------------------------------------------------------
# independent oracle: exhaustive schedule search straight off the JSON dict.
# Shares no code with the planner; same timing convention (a task started at
# s holds its agents from s, keeps them off the board until s+d, must finish
# inside the horizon).


def _oracle_instances(transitions, positions, colors):
    found = []
    for tr in transitions:
        need = {}
        for tok in tr["inputs"]:
            key = (tok["color"], tok["place"])
            need[key] = need.get(key, 0) + tok.get("count", 1)
        groups = sorted(need.items())

        def pick(i, used, chosen):
            if i == len(groups):
                yield dict(chosen)
                return
            (color, place), n = groups[i]
            pool = [
                a
                for a in sorted(colors)
                if colors[a] == color and positions.get(a) == place and a not in used
            ]
            for combo in itertools.combinations(pool, n):
                chosen[(color, place)] = combo
                yield from pick(i + 1, used | set(combo), chosen)
            chosen.pop((color, place), None)

        outs = {}
        for tok in tr["outputs"]:
            outs.setdefault(tok["color"], []).extend(
                [tok["place"]] * tok.get("count", 1)
            )
        for assignment in pick(0, frozenset(), {}):
            src_of = {}
            per_color = {}
            for (color, place), combo in assignment.items():
                per_color.setdefault(color, []).extend(combo)
                for a in combo:
                    src_of[a] = place
            options = []
            for color in sorted(per_color):
                ids = sorted(per_color[color])
                slots = sorted(outs.get(color, []))
                options.append(
                    sorted(
                        {
                            tuple(sorted(zip(perm, slots)))
                            for perm in itertools.permutations(ids)
                        }
                    )
                )
            for combo in itertools.product(*options):
                dest = {a: p for matching in combo for a, p in matching}
                moves = tuple(sorted((a, src_of[a], dest[a]) for a in src_of))
                found.append((tr["name"], tr["duration"], moves))
    return found


def oracle_min_makespan(raw, colors, starts, goal, horizon):
    """Minimum over all feasible schedules of the latest task completion."""
    transitions = raw["transitions"]
    best = [math.inf]

    def disjoint_subsets(instances):
        acc = []

        def rec(i, used):
            yield list(acc)
            for j in range(i, len(instances)):
                ids = {a for a, _, _ in instances[j][2]}
                if ids & used:
                    continue
                acc.append(instances[j])
                yield from rec(j + 1, used | ids)
                acc.pop()

        yield from rec(0, frozenset())

    def sim(t, positions, busy, maxc):
        if t == horizon:
            if busy:
                return
            for (place, color), n in goal.items():
                have = sum(
                    1
                    for a, p in positions.items()
                    if p == place and colors[a] == color
                )
                if have < n:
                    return
            best[0] = min(best[0], maxc)
            return
        usable = [
            x
            for x in _oracle_instances(transitions, positions, colors)
            if t + x[1] <= horizon
        ]
        for subset in disjoint_subsets(usable):
            pos2 = dict(positions)
            busy2 = dict(busy)
            mc = maxc
            for _name, d, moves in subset:
                for a, _src, dst in moves:
                    pos2[a] = None
                    busy2[a] = (t + d, dst)
                mc = max(mc, t + d)
            for a, (release, dst) in list(busy2.items()):
                if release == t + 1:
                    pos2[a] = dst
                    del busy2[a]
            sim(t + 1, pos2, busy2, mc)

    sim(0, dict(starts), {}, 0)
    return best[0]


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rescue():
    return load_tasking_template(DATA / "rescue_tasking.json")


def pair_fleet():
    return (Agent("u1", "uh60", "a"), Agent("u2", "uh60", "b"))


def mixed_fleet():
    return (Agent("u1", "uh60", "a"), Agent("h1", "hc130", "c"))


class TestBindings:
    def test_single_agent_bindings(self, rescue):
        fleet = (Agent("u1", "uh60", "a"),)
        bindings = enumerate_bindings(rescue, fleet)
        assert [(b.name, b.moves) for b in bindings] == [
            ("t1", (("u1", "a", "c"),)),
            ("t2", (("u1", "b", "c"),)),
        ]

    def test_pair_rows_group_singles_first(self, rescue):
        bindings = enumerate_bindings(rescue, pair_fleet())
        assert [(b.name, b.agents) for b in bindings] == [
            ("t1", ("u1",)),
            ("t2", ("u1",)),
            ("t1", ("u2",)),
            ("t2", ("u2",)),
            ("t4", ("u1", "u2")),
        ]

    def test_mixed_fleet_includes_refuel(self, rescue):
        bindings = enumerate_bindings(rescue, mixed_fleet())
        assert [(b.name, b.agents) for b in bindings] == [
            ("t1", ("u1",)),
            ("t2", ("u1",)),
            ("t3", ("h1", "u1")),
        ]
        assert bindings[2].moves == (("h1", "c", "c"), ("u1", "c", "c"))

    def test_output_matchings_fan_out(self, rescue):
        # a variant where two same-color tokens land at distinct places
        raw = json.loads((DATA / "rescue_tasking.json").read_text())
        raw["transitions"][3]["outputs"] = [
            {"color": "uh60", "place": "c", "count": 1},
            {"color": "uh60", "place": "d", "count": 1},
        ]
        from operadic.template import parse_tasking_template

        template = parse_tasking_template(raw)
        bindings = enumerate_bindings(template, pair_fleet())
        fan = [b for b in bindings if b.name == "t4"]
        assert {b.moves for b in fan} == {
            (("u1", "c", "c"), ("u2", "c", "d")),
            (("u1", "c", "d"), ("u2", "c", "c")),
        }


class TestMatrices:
    def test_single_agent_matrices(self, rescue):
        cs = compile_untimed(rescue, (Agent("u1", "uh60", "a"),), steps=1)
        assert np.array_equal(cs.update_matrix(), np.array(M_SINGLE))
        assert np.array_equal(cs.source_matrix(), np.array(MS_SINGLE))
        assert cs.column_labels == ("u1:a", "u1:b", "u1:c", "u1:d")

    def test_pair_matrices(self, rescue):
        cs = compile_untimed(rescue, pair_fleet(), steps=1)
        assert np.array_equal(cs.update_matrix(), np.array(M_PAIR))
        assert np.array_equal(cs.source_matrix(), np.array(MS_PAIR))

    def test_mixed_matrices(self, rescue):
        cs = compile_untimed(rescue, mixed_fleet(), steps=1)
        assert np.array_equal(cs.update_matrix(), np.array(M_MIXED))
        assert np.array_equal(cs.source_matrix(), np.array(MS_MIXED))

    def test_duration_stratification(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), horizon=4)
        # t1 (d=2) for each agent plus t4 (d=2): 3 rows; t2 (d=1): 2 rows
        assert cs.update_matrix(duration=2).shape == (3, 8)
        assert cs.update_matrix(duration=1).shape == (2, 8)
        # the plan level collapses every duration to one step
        plan = compile_untimed(rescue, pair_fleet(), steps=1)
        assert plan.update_matrix(duration=1).shape == (5, 8)

    def test_fuel_matrix_charges_task_costs(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), horizon=4)
        cs = add_fuel_semantics(
            cs, FuelSpec(burn_rates={}, task_costs={"t1": {"uh60": 2.0}})
        )
        F = cs.fuel_matrix()
        assert F.shape == (5, 2)
        assert F[0].tolist() == [-2.0, 0.0]  # u1 flying t1
        assert F[2].tolist() == [0.0, -2.0]  # u2 flying t1
        assert F[4].tolist() == [0.0, 0.0]


class TestSolve:
    def test_rescue_min_makespan_matches_oracle(self, rescue):
        raw = json.loads((DATA / "rescue_tasking.json").read_text())
        colors = {"u1": "uh60", "u2": "uh60"}
        starts = {"u1": "a", "u2": "b"}
        goal = {("d", "uh60"): 2}
        expect = oracle_min_makespan(raw, colors, starts, goal, horizon=4)
        assert expect == 4  # frozen: worked by hand as well

        cs = compile_timed(rescue, pair_fleet(), 4, goal, "min_makespan")
        sol = solve(cs)
        assert isinstance(sol, Solution)
        assert sol.objective_value == 4
        assert [(t, b.name) for t, b in sol.schedule] == [(0, "t1"), (1, "t2"), (2, "t4")]

    def test_longer_horizon_same_optimum(self, rescue):
        raw = json.loads((DATA / "rescue_tasking.json").read_text())
        goal = {("d", "uh60"): 2}
        expect = oracle_min_makespan(
            raw, {"u1": "uh60", "u2": "uh60"}, {"u1": "a", "u2": "b"}, goal, horizon=6
        )
        cs = compile_timed(rescue, pair_fleet(), 6, goal, "min_makespan")
        sol = solve(cs)
        assert sol.objective_value == expect == 4

    def test_markings_trace_the_timed_convention(self, rescue):
        goal = {("d", "uh60"): 2}
        cs = compile_timed(rescue, pair_fleet(), 4, goal, "min_makespan")
        sol = solve(cs)
        rows = [tv.as_dict() for tv in sol.markings]
        assert rows[0] == {"u1": "a", "u2": "b"}
        assert rows[1] == {"u1": None, "u2": "b"}  # u1 mid-flight on t1
        assert rows[2] == {"u1": "c", "u2": "c"}
        assert rows[3] == {"u1": None, "u2": None}  # both mid-flight on t4
        assert rows[4] == {"u1": "d", "u2": "d"}

    def test_goal_without_matching_color_is_infeasible(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), 4, {("d", "hc130"): 1})
        result = solve(cs)
        assert isinstance(result, Infeasible)
        assert result.deepest_step == 4
        assert any("hc130@d" in c for c in result.conflicts)

    def test_node_cap_yields_undecided(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), 4, {("d", "uh60"): 2})
        result = solve(cs, node_cap=3)
        assert isinstance(result, Undecided)
        assert result.nodes_explored == 3

    def test_solve_is_deterministic(self, rescue):
        goal = {("d", "uh60"): 2}
        cs = compile_timed(rescue, pair_fleet(), 5, goal, "min_makespan")
        a = solve(cs)
        b = solve(cs)
        assert a.schedule == b.schedule
        assert a.markings == b.markings

    def test_solve_all_enumerates_unique_solutions(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), 3)
        sols = solve_all(cs, limit=50)
        keys = [tuple((t, b.name, b.agents) for t, b in s.schedule) for s in sols]
        assert len(keys) == len(set(keys))
        assert () in keys  # waiting out the horizon is a solution when no goal
        assert solve_all(cs, limit=50) is not sols
        assert [s.schedule for s in solve_all(cs, limit=50)] == [s.schedule for s in sols]


class TestFuel:
    def fueled(self, rescue, **agent_fuel):
        agent = Agent("u1", "uh60", "a", **agent_fuel)
        return agent

    def test_cost_and_waiting_burn_trace(self, rescue):
        u1 = Agent("u1", "uh60", "a", fuel_init=5, fuel_max=5, fuel_min=1)
        cs = compile_timed(rescue, (u1,), 4, {("c", "uh60"): 1}, "min_makespan")
        cs = add_fuel_semantics(
            cs,
            FuelSpec(
                burn_rates={("uh60", "c"): 1.0},
                task_costs={"t1": {"uh60": 2.0}},
            ),
        )
        sol = solve(cs)
        assert isinstance(sol, Solution)
        assert [(t, b.name) for t, b in sol.schedule] == [(0, "t1")]
        assert [dict(row)["u1"] for row in sol.fuel_trace] == [5, 3, 3, 2, 1]

    def test_literal_update_variant_pins_to_capacity(self, rescue):
        u1 = Agent("u1", "uh60", "a", fuel_init=5, fuel_max=5, fuel_min=1)
        cs = compile_timed(rescue, (u1,), 4, {("c", "uh60"): 1}, "min_makespan")
        cs = add_fuel_semantics(
            cs,
            FuelSpec(
                burn_rates={("uh60", "c"): 1.0},
                task_costs={"t1": {"uh60": 2.0}},
                literal_update=True,
            ),
        )
        sol = solve(cs)
        assert [dict(row)["u1"] for row in sol.fuel_trace] == [5, 5, 5, 5, 5]

    def test_refuel_resets_to_capacity_and_is_clamped(self, rescue):
        u1 = Agent("u1", "uh60", "a", fuel_init=5, fuel_max=5, fuel_min=2)
        h1 = Agent("h1", "hc130", "c")
        cs = compile_timed(rescue, (u1, h1), 4, {("c", "uh60"): 1})
        cs = add_fuel_semantics(
            cs,
            FuelSpec(
                burn_rates={("uh60", "a"): 1.0, ("uh60", "c"): 1.0},
                task_costs={"t1": {"uh60": 2.0}},
                refuel={"t3": ("uh60",)},
            ),
        )
        sol = solve(cs)
        assert isinstance(sol, Solution)
        assert [(t, b.name) for t, b in sol.schedule] == [(0, "t1"), (2, "t3")]
        assert [dict(row)["u1"] for row in sol.fuel_trace] == [5, 2, 2, 5, 4]
        assert [dict(row)["h1"] for row in sol.fuel_trace] == [0, 0, 0, 0, 0]

    def test_reserve_violation_is_infeasible_and_named(self, rescue):
        u1 = Agent("u1", "uh60", "a", fuel_init=2, fuel_max=5, fuel_min=1)
        cs = compile_timed(rescue, (u1,), 3, {("c", "uh60"): 1})
        cs = add_fuel_semantics(
            cs,
            FuelSpec(burn_rates={("uh60", "a"): 1.0, ("uh60", "c"): 1.0}),
        )
        result = solve(cs)
        assert isinstance(result, Infeasible)
        assert result.deepest_step == 3
        assert any("fuel of u1 below reserve" in c for c in result.conflicts)

    def test_negative_rates_rejected(self):
        with pytest.raises(PlannerError):
            FuelSpec(burn_rates={("uh60", "a"): -1.0})


class TestRisk:
    def test_max_survival_prefers_late_departure(self):
        from operadic.template import TaskingTemplate, TokenFlow, Transition

        template = TaskingTemplate(
            ("uh60",),
            ("a", "b"),
            (
                Transition(
                    "mv",
                    (TokenFlow("uh60", "a", 1),),
                    (TokenFlow("uh60", "b", 1),),
                    duration=1,
                ),
            ),
        )
        u1 = Agent("u1", "uh60", "a")
        cs = compile_timed(template, (u1,), 2, {("b", "uh60"): 1}, "max_survival")
        cs = add_risk_semantics(
            cs,
            RiskSpec(
                place_factors={("uh60", "a"): 0.9, ("uh60", "b"): 0.8},
                transition_factors={"mv": 0.95},
            ),
        )
        sol = solve(cs)
        assert [(t, b.name) for t, b in sol.schedule] == [(1, "mv")]
        assert sol.objective_value == pytest.approx(math.log(0.9 * 0.9 * 0.95))

    def test_factors_must_be_probabilities(self):
        with pytest.raises(PlannerError):
            RiskSpec(place_factors={("uh60", "a"): 1.5})
        with pytest.raises(PlannerError):
            RiskSpec(place_factors={("uh60", "a"): 0.0})


class TestLevels:
    def test_project_rescue_solution_down_both_levels(self, rescue):
        goal = {("d", "uh60"): 2}
        cs = compile_timed(rescue, pair_fleet(), 4, goal, "min_makespan")
        timed = solve(cs)

        plan = project(timed, Level.PLAN)
        assert plan.level is Level.PLAN
        assert plan.steps == 3  # three batches: t1, t2, t4
        assert [(j, b.name) for j, b in plan.schedule] == [(0, "t1"), (1, "t2"), (2, "t4")]

        counts = project(plan, Level.COUNTS)
        assert isinstance(counts, CountsSolution)
        assert counts.fleet == (("uh60", 2),)
        assert counts.schedule == ((0, "t1", 1), (1, "t2", 1), (2, "t4", 1))
        assert counts.markings[0] == ((("uh60", "a"), 1), (("uh60", "b"), 1))
        assert counts.markings[-1] == ((("uh60", "d"), 2),)

    def test_project_rejects_refinement_direction(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), 4, {("d", "uh60"): 2}, "min_makespan")
        timed = solve(cs)
        with pytest.raises(PlannerError):
            project(timed, Level.TIMED)

    def test_lift_contains_the_projected_original(self, rescue):
        goal = {("d", "uh60"): 2}
        cs = compile_timed(rescue, pair_fleet(), 4, goal, "min_makespan")
        timed = solve(cs)
        plan = project(timed, Level.PLAN)
        lifted = lift(plan, Level.TIMED, horizon=4)
        assert not lifted.truncated
        assert timed in lifted

        counts = project(plan, Level.COUNTS)
        plans = lift(counts, Level.PLAN, agents=pair_fleet())
        assert not plans.truncated
        assert plan in plans

    def test_lift_counts_to_timed_chains(self, rescue):
        goal = {("d", "uh60"): 2}
        cs = compile_timed(rescue, pair_fleet(), 4, goal, "min_makespan")
        timed = solve(cs)
        counts = project(project(timed, Level.PLAN), Level.COUNTS)
        lifted = lift(counts, Level.TIMED, agents=pair_fleet(), horizon=4)
        assert timed in lifted

    def test_lift_cap_reports_truncation(self, rescue):
        cs = compile_timed(rescue, pair_fleet(), 6, {("d", "uh60"): 2}, "min_makespan")
        plan = project(solve(cs), Level.PLAN)
        lifted = lift(plan, Level.TIMED, horizon=6, cap=1)
        assert lifted.truncated
        assert len(lifted.solutions) == 1

    def test_micro_net_round_trips(self):
        rng = random.Random(20260815)
        exercised = 0
        for _ in range(40):
            template, agents = random_micro_net(rng)
            cs = compile_timed(template, agents, 3)
            sols = solve_all(cs, limit=5)
            for x in sols:
                plan = project(x, Level.PLAN)
                counts = project(plan, Level.COUNTS)
                lifted = lift(plan, Level.TIMED, horizon=cs.steps, cap=400)
                if not lifted.truncated:
                    assert x in lifted
                plans = lift(counts, Level.PLAN, agents=agents, cap=400)
                if not plans.truncated:
                    assert plan in plans
                exercised += 1
        assert exercised >= 100


class TestVectors:
    def test_type_vector_counts_drop_busy_agents(self):
        tv = TypeVector.of({"u1": "a", "u2": None})
        assert tv.counts({"u1": "uh60", "u2": "uh60"}) == {("uh60", "a"): 1}
        assert tv.place_of("u2") is None
        with pytest.raises(PlannerError):
            tv.place_of("zz")

    def test_task_vector_must_be_sorted_unique(self):
        TaskVector((0, 2, 5))
        with pytest.raises(PlannerError):
            TaskVector((2, 0))
        with pytest.raises(PlannerError):
            TaskVector((1, 1))


class TestScenario:
    def test_parse_compile_solve(self, rescue):
        scenario = parse_plan_scenario(
            {
                "version": 1,
                "agents": [
                    {"id": "u1", "color": "uh60", "start": "a"},
                    {"id": "u2", "color": "uh60", "start": "b"},
                ],
                "horizon": 4,
                "objective": "min_makespan",
                "goal": {"d": {"uh60": 2}},
            }
        )
        cs = compile_scenario(rescue, scenario)
        sol = solve(cs)
        assert sol.objective_value == 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(PlannerError):
            parse_plan_scenario({"version": 1, "horizon": 3, "agents": [], "extra": 1})

    def test_version_required(self):
        with pytest.raises(PlannerError):
            parse_plan_scenario({"horizon": 3, "agents": []})

    def test_fuel_and_risk_blocks(self, rescue):
        scenario = parse_plan_scenario(
            {
                "version": 1,
                "agents": [
                    {
                        "id": "u1",
                        "color": "uh60",
                        "start": "a",
                        "fuel_init": 5,
                        "fuel_max": 5,
                        "fuel_min": 1,
                    }
                ],
                "horizon": 4,
                "objective": "min_makespan",
                "goal": {"c": {"uh60": 1}},
                "fuel": {
                    "burn_rates": {"uh60": {"c": 1}},
                    "task_costs": {"t1": {"uh60": 2}},
                },
            }
        )
        cs = compile_scenario(rescue, scenario)
        assert cs.fuel is not None
        sol = solve(cs)
        assert [dict(row)["u1"] for row in sol.fuel_trace] == [5, 3, 3, 2, 1]


# ---------------------------------------------------------------------------
# the state memo: a differential check against the plain depth-first search.
# ``PlainSearch`` is ``planner._Search`` as it was before the memo, minus the
# ``solve_all`` branches; ``solve`` must return exactly what it returns.


class PlainSearch:
    """``planner._Search`` as it was before the state memo: the reference."""

    def __init__(self, cs, node_cap: int):
        self.cs = cs
        self.node_cap = node_cap
        self.nodes = 0
        self.capped = False
        self.best: tuple[float, Solution] | None = None
        self.deepest = -1
        self.conflicts: set[str] = set()
        self.color_of = {a.id: a.color for a in cs.agents}
        self.agents_by_id = {a.id: a for a in cs.agents}
        self.durations = [cs.duration(b) for b in cs.bindings]

    # conflict bookkeeping keeps only the deepest frontier
    def _blocked(self, t: int, reason: str) -> None:
        if t > self.deepest:
            self.deepest = t
            self.conflicts = {reason}
        elif t == self.deepest:
            self.conflicts.add(reason)

    def _fuel_step(self, fuel: dict[str, float], positions, started) -> None:
        """Charge one tick in place: waiting burn, then task costs, then the clamp."""
        spec = self.cs.fuel
        if self.cs.level is Level.TIMED:
            for agent, place in positions.items():
                if place is not None:
                    fuel[agent] -= spec.rate(self.color_of[agent], place)
        for bi in started:
            b = self.cs.bindings[bi]
            for agent, _, _ in b.moves:
                cost = spec.cost(b.name, self.color_of[agent])
                if cost:
                    fuel[agent] -= cost
        for agent in fuel:
            cap = self.agents_by_id[agent].fuel_max
            if spec.literal_update:
                fuel[agent] = max(fuel[agent], cap)
            else:
                fuel[agent] = min(fuel[agent], cap)

    def _check_reserve(self, fuel: dict[str, float], t: int) -> str | None:
        for agent, level in fuel.items():
            reserve = self.agents_by_id[agent].fuel_min
            if level < reserve - 1e-9:
                return f"fuel of {agent} below reserve at step {t} ({level:g} < {reserve:g})"
        return None

    def startable(self, positions: Mapping[str, str | None], t: int) -> list[int]:
        out = []
        for bi, b in enumerate(self.cs.bindings):
            if t + self.durations[bi] > self.cs.steps:
                continue
            if all(positions.get(agent) == src for agent, src, _ in b.moves):
                out.append(bi)
        return out

    def goal_met(self, positions: Mapping[str, str | None]) -> str | None:
        for (place, color), want in sorted(self.cs.goal.items()):
            have = sum(
                1
                for agent, p in positions.items()
                if p == place and self.color_of[agent] == color
            )
            if have < want:
                return f"goal {color}@{place} >= {want} unmet (have {have})"
        return None

    def run(self):
        positions: dict[str, str | None] = {a.id: a.start for a in self.cs.agents}
        fuel = {a.id: a.fuel_init for a in self.cs.agents} if self.cs.fuel else None
        if fuel is not None:
            bad = self._check_reserve(fuel, 0)
            if bad is not None:
                return Infeasible((bad,), 0)
        self._dfs(0, positions, {}, fuel, [], [TypeVector.of(positions)],
                  [tuple(sorted(fuel.items()))] if fuel is not None else None, 0.0)
        if self.capped:
            best = self.best[1] if self.best else None
            return Undecided(self.nodes, best)
        if self.best is None:
            return Infeasible(tuple(sorted(self.conflicts)), max(self.deepest, 0))
        return self.best[1]

    def _makespan(self, schedule) -> float:
        return float(max((t + self.durations[bi] for t, bi in schedule), default=0))

    def _score(self, schedule, risk_log) -> float:
        if self.cs.objective == "min_makespan":
            return self._makespan(schedule)
        if self.cs.objective == "max_survival":
            return -risk_log  # stored negated so lower is better
        return 0.0

    def _better(self, score: float) -> bool:
        return self.best is None or score < self.best[0] - 1e-12

    def _record(self, schedule, markings, fuel_trace, risk_log):
        score = self._score(schedule, risk_log)
        sol = Solution(
            level=self.cs.level,
            steps=self.cs.steps,
            template=self.cs.template,
            agents=self.cs.agents,
            schedule=tuple((t, self.cs.bindings[bi]) for t, bi in schedule),
            markings=tuple(markings),
            fuel_trace=tuple(fuel_trace) if fuel_trace is not None else None,
            objective_value=(-score if self.cs.objective == "max_survival" else score)
            if self.cs.objective != "feasible"
            else None,
        )
        if self._better(score):
            self.best = (score, sol)

    def _prune(self, schedule, risk_log, t) -> bool:
        if self.best is None:
            return False
        if self.cs.objective == "feasible":
            return True  # any feasible solution suffices
        if self.cs.objective == "min_makespan":
            return self._makespan(schedule) >= self.best[0] - 1e-12
        if self.cs.objective == "max_survival":
            # optimistic: no further survival loss
            return -risk_log >= self.best[0] - 1e-12
        return False

    def _dfs(self, t, positions, busy, fuel, schedule, markings, fuel_trace, risk_log):
        if self.capped:
            return
        if self.nodes >= self.node_cap:
            self.capped = True
            return
        self.nodes += 1
        if self._prune(schedule, risk_log, t):
            return
        if t == self.cs.steps:
            if busy:
                self._blocked(t, "tasks still running at the horizon")
                return
            unmet = self.goal_met(positions)
            if unmet is None:
                self._record(schedule, markings, fuel_trace, risk_log)
            else:
                self._blocked(t, unmet)
            return

        startable = self.startable(positions, t)
        chosen: list[int] = []

        def branch(options: list[int]):
            # fire the chosen subset, advance one tick, recurse
            self._apply_and_recurse(t, positions, busy, fuel, schedule, markings,
                                    fuel_trace, risk_log, list(chosen))
            for i, bi in enumerate(options):
                b = self.cs.bindings[bi]
                agents = set(b.agents)
                if any(agents & set(self.cs.bindings[c].agents) for c in chosen):
                    continue
                chosen.append(bi)
                branch(options[i + 1 :])
                chosen.pop()

        branch(startable)

    def _apply_and_recurse(self, t, positions, busy, fuel, schedule, markings,
                           fuel_trace, risk_log, started):
        cs = self.cs
        new_positions = dict(positions)
        new_busy = dict(busy)
        new_risk = risk_log
        if cs.risk is not None:
            for agent, place in positions.items():
                if place is not None:
                    new_risk += cs.risk.place_log(self.color_of[agent], place)
            for bi in started:
                new_risk += cs.risk.transition_log(cs.bindings[bi].name)
        for bi in started:
            b = cs.bindings[bi]
            for agent, _src, dst in b.moves:
                new_positions[agent] = None
                new_busy[agent] = (t + self.durations[bi], dst, b.name)
        new_fuel = dict(fuel) if fuel is not None else None
        if new_fuel is not None:
            self._fuel_step(new_fuel, positions, started)
        # completions land at t + 1
        for agent, (release, dst, via) in list(new_busy.items()):
            if release == t + 1:
                new_positions[agent] = dst
                del new_busy[agent]
                if new_fuel is not None and cs.fuel.receives(via, self.color_of[agent]):
                    new_fuel[agent] = self.agents_by_id[agent].fuel_max
        if new_fuel is not None:
            bad = self._check_reserve(new_fuel, t + 1)
            if bad is not None:
                self._blocked(t + 1, bad)
                return
        new_schedule = schedule + [(t, bi) for bi in sorted(started)]
        new_markings = markings + [TypeVector.of(new_positions)]
        new_trace = (
            fuel_trace + [tuple(sorted(new_fuel.items()))] if fuel_trace is not None else None
        )
        self._dfs(t + 1, new_positions, new_busy, new_fuel, new_schedule,
                  new_markings, new_trace, new_risk)




def memo_instance(rng: random.Random, rescue) -> ConstraintSystem:
    """A seeded micro-net or rescue fleet, at either level, under any
    objective, sometimes with fuel (refuel and the literal update included)
    and risk; many goals are out of reach."""
    level = rng.choice((Level.TIMED, Level.PLAN))
    objective = rng.choice(OBJECTIVES)
    if rng.random() < 0.5:
        template, agents = random_micro_net(rng)
        colors = sorted({tr.inputs[0].color for tr in template.transitions})
        agents += tuple(
            Agent(f"x{i}", rng.choice(colors), rng.choice(template.places))
            for i in range(rng.randint(0, 2))
        )
        steps = rng.randint(1, 4)
    else:
        template = rescue
        agents = tuple(
            Agent(f"u{i}", "uh60", rng.choice("abc")) for i in range(rng.randint(1, 4))
        ) + ((Agent("h1", "hc130", "c"),) if rng.random() < 0.7 else ())
        steps = rng.randint(2, 7 - len(agents))
    places, colors = template.places, template.colors
    goal = {(rng.choice(places), rng.choice(colors)): rng.randint(1, 3)
            for _ in range(rng.randint(0, 2))}
    fuel = None
    if rng.random() < 0.4:
        agents = tuple(
            Agent(a.id, a.color, a.start, fuel_init=f, fuel_max=rng.choice((f, f + 2)),
                  fuel_min=rng.choice((0.0, 1.0, 2.0)))
            for a in agents
            for f in [float(rng.randint(2, 8))]
        )
        names = [tr.name for tr in template.transitions]
        fuel = FuelSpec(
            burn_rates={(c, p): float(rng.randint(0, 2))
                        for c in colors for p in places if rng.random() < 0.5},
            task_costs={n: {c: float(rng.randint(0, 3)) for c in colors}
                        for n in names if rng.random() < 0.5},
            refuel={n: (rng.choice(colors),) for n in names if rng.random() < 0.3},
            literal_update=rng.random() < 0.2,
        )
    build = compile_timed if level is Level.TIMED else compile_untimed
    cs = build(template, agents, steps, goal, objective)
    if fuel is not None:
        cs = add_fuel_semantics(cs, fuel)
    if objective == "max_survival" or rng.random() < 0.3:
        cs = add_risk_semantics(cs, RiskSpec(
            place_factors={(c, p): rng.choice((0.5, 0.8, 0.9, 0.95, 1.0))
                           for c in colors for p in places},
            transition_factors={tr.name: rng.choice((0.7, 0.9, 1.0))
                                for tr in template.transitions},
        ))
    return cs


def test_memoised_search_matches_plain_dfs(rescue):
    rng = random.Random(20261019)
    kinds = {"infeasible": 0, "solved": 0, "fuel": 0, "risk": 0, "plan": 0}
    for _ in range(300):
        cs = memo_instance(rng, rescue)
        expect = PlainSearch(cs, 200_000).run()
        assert not isinstance(expect, Undecided)
        assert solve(cs).to_dict() == expect.to_dict()
        kinds["infeasible" if isinstance(expect, Infeasible) else "solved"] += 1
        kinds["fuel"] += cs.fuel is not None
        kinds["risk"] += cs.risk is not None
        kinds["plan"] += cs.level is Level.PLAN
    assert min(kinds.values()) >= 60, kinds

    # Three interchangeable agents whose reserve reasons name each of them:
    # under fuel the memo must not merge agents of one colour.
    fleet = tuple(
        Agent(f"u{i}", "uh60", "a", fuel_init=3, fuel_max=3, fuel_min=1) for i in (1, 2, 3)
    )
    cs = add_fuel_semantics(
        compile_timed(rescue, fleet, 3, {("d", "uh60"): 3}, "min_makespan"),
        FuelSpec(burn_rates={("uh60", "c"): 1.0}, task_costs={"t1": {"uh60": 2.0}}),
    )
    expect = PlainSearch(cs, 200_000).run()
    assert expect.conflicts == (
        "fuel of u1 below reserve at step 3 (0 < 1)",
        "fuel of u2 below reserve at step 3 (0 < 1)",
        "fuel of u3 below reserve at step 3 (0 < 1)",
        "goal uh60@d >= 3 unmet (have 0)",
    )
    assert solve(cs) == expect

    # Tasks in flight land in different places at the same tick, so their
    # busy entries must be part of the state: t1 pairs land at c, t4 pairs at d.
    fleet = (Agent("u1", "uh60", "a"), Agent("u2", "uh60", "a"))
    for objective in OBJECTIVES:
        cs = compile_timed(rescue, fleet, 4, {("d", "uh60"): 2}, objective)
        assert solve(cs) == PlainSearch(cs, 200_000).run()


def test_memo_decides_a_search_the_plain_dfs_leaves_undecided(rescue):
    # Infeasible: t4 moves uh60 agents to d in pairs only.  The plain DFS
    # needs about 650,000 nodes to prove it; the memo needs about a thousand.
    fleet = (Agent("u1", "uh60", "a"), Agent("u2", "uh60", "a"),
             Agent("u3", "uh60", "b"), Agent("h1", "hc130", "c"))
    cs = compile_timed(rescue, fleet, 8, {("d", "uh60"): 3}, "min_makespan")
    result = solve(cs, node_cap=5_000)
    assert isinstance(result, Infeasible)
    assert result.conflicts == (
        "goal uh60@d >= 3 unmet (have 0)",
        "goal uh60@d >= 3 unmet (have 2)",
    )
    assert result.deepest_step == 8


def test_node_cap_stops_child_builds(rescue, monkeypatch):
    # A no-fuel rescue fleet far too large to decide under a small cap:
    # once the cap fires, no open frame may build another child.
    rng = random.Random(14)
    fleet = tuple(Agent(f"u{i:02d}", "uh60", rng.choice("ab")) for i in range(10))
    fleet += (Agent("h1", "hc130", "c"),)
    cs = compile_timed(rescue, fleet, 14, {("d", "uh60"): 5}, "min_makespan")
    builds = 0
    apply_and_recurse = _Search._apply_and_recurse

    def counted(self, *args):
        nonlocal builds
        builds += 1
        return apply_and_recurse(self, *args)

    monkeypatch.setattr(_Search, "_apply_and_recurse", counted)
    for cap in (10, 200):
        builds = 0
        result = solve(cs, node_cap=cap)
        assert isinstance(result, Undecided)
        assert result.nodes_explored == cap
        assert builds <= cap + 1
