import random

import pytest

from conftest import random_micro_net
from operadic.lp import LpConstraint, LpError, LpModel, parse_lp, write_lp
from operadic.planner import (
    Agent,
    FuelSpec,
    Infeasible,
    Level,
    RiskSpec,
    Solution,
    add_fuel_semantics,
    add_risk_semantics,
    compile_timed,
    compile_untimed,
    export_lp,
    solve,
)
from operadic.template import TaskingTemplate, TokenFlow, Transition


def tiny_template():
    return TaskingTemplate(
        ("uh60",),
        ("a", "b", "c", "d"),
        (
            Transition("t1", (TokenFlow("uh60", "a", 1),), (TokenFlow("uh60", "c", 1),), 2),
            Transition("t2", (TokenFlow("uh60", "b", 1),), (TokenFlow("uh60", "c", 1),), 1),
        ),
    )


class TestWriteParse:
    def test_small_model_round_trip(self):
        model = LpModel(
            sense="min",
            objective=(("x", 2.0), ("y", -1.0)),
            constraints=(
                LpConstraint("c1", (("x", 1.0), ("y", 1.0)), "<=", 4.0),
                LpConstraint("c2", (("x", 1.0), ("y", -1.0)), "=", 0.0),
                LpConstraint("c3", (("x", -2.5), ("z", 1.0)), ">=", -3.0),
            ),
            bounds=(("x", 0.0, 10.0), ("y", None, 5.0), ("z", -1.0, -1.0), ("w", None, None)),
            binaries=("x",),
            generals=("z",),
        )
        text = write_lp(model)
        again = parse_lp(text)
        assert again == model
        assert write_lp(again) == text

    def test_written_shape(self):
        model = LpModel(
            sense="max",
            objective=(("x", 1.0),),
            constraints=(LpConstraint("r", (("x", 1.0),), "<=", 1.0),),
            bounds=(),
            binaries=("x",),
        )
        text = write_lp(model)
        assert text.splitlines() == [
            "Maximize",
            " obj: x",
            "Subject To",
            " r: x <= 1",
            "Binary",
            " x",
            "End",
        ]

    def test_empty_objective_survives(self):
        model = LpModel("min", (), (LpConstraint("r", (("x", 1.0),), ">=", 0.0),), (), ("x",))
        text = write_lp(model)
        assert " obj:" in text
        assert parse_lp(text) == model

    def test_float_coefficients_survive_exactly(self):
        import math

        coef = math.log(0.95)
        model = LpModel(
            "max",
            (("x", coef),),
            (LpConstraint("r", (("x", 1.0),), "<=", 1.0),),
            (),
            ("x",),
        )
        again = parse_lp(write_lp(model))
        assert again.objective[0][1] == coef

    def test_parse_errors(self):
        with pytest.raises(LpError):
            parse_lp("Minimize\n obj: x\nSubject To\n r: x 3\nEnd\n")
        with pytest.raises(LpError):
            parse_lp("junk before any section\n")
        with pytest.raises(LpError):
            LpConstraint("r", (), "<", 0.0)

    def test_bound_forms(self):
        text = "\n".join(
            [
                "Minimize",
                " obj: x",
                "Subject To",
                " r: x >= 0",
                "Bounds",
                " -3 <= x <= 5",
                " y = -2",
                " z free",
                " w >= 1",
                " v <= 9",
                "End",
            ]
        )
        model = parse_lp(text)
        assert model.bounds == (
            ("x", -3.0, 5.0),
            ("y", -2.0, -2.0),
            ("z", None, None),
            ("w", 1.0, None),
            ("v", None, 9.0),
        )


# ---------------------------------------------------------------------------
# the writer: a differential check against the writer as it was before each
# distinct number was rendered once per call.  ``reference_write_lp`` is that
# writer; ``write_lp`` must return exactly its text.


def _reference_num(x: float) -> str:
    f = float(x)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _reference_expr(terms) -> str:
    if not terms:
        return ""
    parts: list[str] = []
    for i, (var, coef) in enumerate(terms):
        mag = abs(coef)
        body = var if mag == 1.0 else f"{_reference_num(mag)} {var}"
        if i == 0:
            parts.append(f"- {body}" if coef < 0 else body)
        else:
            parts.append(f"{'-' if coef < 0 else '+'} {body}")
    return " ".join(parts)


def reference_write_lp(model: LpModel) -> str:
    """``write_lp`` as it was, formatting every number where it is used."""
    num = _reference_num
    lines: list[str] = []
    lines.append("Minimize" if model.sense == "min" else "Maximize")
    lines.append(f" {model.objective_name}: {_reference_expr(model.objective)}".rstrip())
    lines.append("Subject To")
    for c in model.constraints:
        lines.append(f" {c.name}: {_reference_expr(c.terms)} {c.sense} {num(c.rhs)}")
    if model.bounds:
        lines.append("Bounds")
        for name, lo, hi in model.bounds:
            if lo is None and hi is None:
                lines.append(f" {name} free")
            elif lo is not None and hi is not None and lo == hi:
                lines.append(f" {name} = {num(lo)}")
            elif lo is None:
                lines.append(f" {name} <= {num(hi)}")
            elif hi is None:
                lines.append(f" {name} >= {num(lo)}")
            else:
                lines.append(f" {num(lo)} <= {name} <= {num(hi)}")
    if model.binaries:
        lines.append("Binary")
        lines.extend(f" {v}" for v in model.binaries)
    if model.generals:
        lines.append("General")
        lines.extend(f" {v}" for v in model.generals)
    lines.append("End")
    return "\n".join(lines) + "\n"


# every kind of number the writer treats apart: unit, signed zero, integers
# below, at and above 1e15, small and fractional floats, and JSON integers
WRITER_NUMBERS = [
    1.0, -1.0, 1, -1, 0.0, -0.0, 2.0, -2.5, 3, 0.1, -0.1, 1e-05, -1e-05, 0.5,
    999999999999999.0, 1e15, -1e15, 1e15 + 2.0, 3e17, 1e22, 123.456, -7.25e-09,
    0.005012541823544286, 10.0,
]
WRITER_NAMES = ["x", "y1", "makespan", "m_a0_u1", "f_u1_3", "s_t10d2_u1.u2", "s_t40d2_u1.u2v1"]


def random_lp_model(rng: random.Random) -> LpModel:
    def number() -> float:
        return rng.choice(WRITER_NUMBERS) if rng.random() < 0.8 else rng.uniform(-50, 50)

    def terms(lo: int, hi: int):
        return tuple((rng.choice(WRITER_NAMES), number()) for _ in range(rng.randint(lo, hi)))

    def bound(name: str):
        lo, hi = number(), number()
        form = rng.randrange(5)
        if form == 0:
            return (name, None, None)
        if form == 1:
            return (name, lo, lo)
        if form == 2:
            return (name, None, hi)
        if form == 3:
            return (name, lo, None)
        return (name, min(lo, hi), max(lo, hi))

    return LpModel(
        sense=rng.choice(("min", "max")),
        objective=terms(0, 5),
        constraints=tuple(
            LpConstraint(f"r{i}", terms(0, 6), rng.choice(("<=", ">=", "=")), number())
            for i in range(rng.randint(0, 6))
        ),
        bounds=tuple(bound(n) for n in rng.sample(WRITER_NAMES, rng.randint(0, 5))),
        binaries=tuple(rng.sample(WRITER_NAMES, rng.randint(0, 3))),
        generals=tuple(rng.sample(WRITER_NAMES, rng.randint(0, 2))),
        objective_name=rng.choice(("obj", "cost")),
    )


class TestWriterAgainstReference:
    def test_seeded_models_write_identically_and_parse_back(self):
        rng = random.Random(2718)
        for _ in range(600):
            model = random_lp_model(rng)
            text = write_lp(model)
            assert text == reference_write_lp(model)
            assert parse_lp(text) == model

    @pytest.mark.parametrize("coef", [-1.0, -0.0, -2.5, 1e15, -1e15, 1e-05])
    def test_first_term_and_special_numbers(self, coef):
        model = LpModel(
            "min",
            (("x", coef), ("y", coef)),
            (LpConstraint("r", (("x", coef), ("y", 1.0), ("z", -1.0)), "<=", coef),),
            (("x", coef, coef), ("y", coef, None), ("z", None, coef), ("w", coef - 1, coef)),
            ("x",),
        )
        assert write_lp(model) == reference_write_lp(model)


class TestPlannerExport:
    def test_variable_inventory_single_agent_one_step(self):
        # one agent, one plan step: (1 + 1) markings x 4 places = 8 m-variables
        cs = compile_untimed(tiny_template(), (Agent("u1", "uh60", "a"),), steps=1)
        names = cs.variable_names()
        assert len(names["m"]) == 8
        assert names["m"][0] == "m_a0_u1"
        assert names["m"][-1] == "m_d1_u1"
        assert names["s"] == ["s_t10d1_u1", "s_t20d1_u1"]

    def test_twin_bindings_get_numbered_start_variables(self):
        # two bindings share (split, u1.u2) and differ only in who lands where
        template = TaskingTemplate(
            ("uh60",),
            ("a", "b", "c"),
            (
                Transition(
                    "split",
                    (TokenFlow("uh60", "a", 2),),
                    (TokenFlow("uh60", "b", 1), TokenFlow("uh60", "c", 1)),
                    2,
                ),
            ),
        )
        fleet = (Agent("u1", "uh60", "a"), Agent("u2", "uh60", "a"))
        cs = compile_timed(template, fleet, 3)
        assert cs.variable_names()["s"] == [
            "s_split0d2_u1.u2v1",
            "s_split0d2_u1.u2v2",
            "s_split1d2_u1.u2v1",
            "s_split1d2_u1.u2v2",
        ]
        assert set(cs.variable_names()["s"]) <= set(cs.lp_model().binaries)

    def test_export_mentions_every_section(self):
        cs = compile_timed(
            tiny_template(),
            (Agent("u1", "uh60", "a", fuel_init=5, fuel_max=5, fuel_min=1),),
            3,
            {("c", "uh60"): 1},
            "min_makespan",
        )
        cs = add_fuel_semantics(
            cs,
            FuelSpec(
                burn_rates={("uh60", "c"): 1.0},
                task_costs={"t1": {"uh60": 2.0}},
            ),
        )
        text = export_lp(cs)
        assert text.startswith("Minimize\n obj: makespan\n")
        for needle in (
            "Subject To",
            "flow_a0_u1",
            "avail_a0_u1",
            "occ_0_u1",
            "goal_c_uh60",
            "mk_s_t10d2_u1",
            "fuel_0_u1",
            "Bounds",
            " m_a0_u1 = 1",
            " f_u1_0 = 5",
            " 1 <= f_u1_1 <= 5",
            "Binary",
            "General",
            " makespan",
            "End",
        ):
            assert needle in text, needle

    def test_refuel_emits_big_m_rows(self):
        template = TaskingTemplate(
            ("uh60", "hc130"),
            ("a", "c"),
            (
                Transition("go", (TokenFlow("uh60", "a", 1),), (TokenFlow("uh60", "c", 1),), 1),
                Transition(
                    "fill",
                    (TokenFlow("uh60", "c", 1), TokenFlow("hc130", "c", 1)),
                    (TokenFlow("uh60", "c", 1), TokenFlow("hc130", "c", 1)),
                    1,
                ),
            ),
        )
        fleet = (
            Agent("u1", "uh60", "a", fuel_init=4, fuel_max=5, fuel_min=0),
            Agent("h1", "hc130", "c"),
        )
        cs = compile_timed(template, fleet, 3)
        cs = add_fuel_semantics(
            cs,
            FuelSpec(burn_rates={("uh60", "c"): 1.0}, refuel={"fill": ("uh60",)}),
        )
        text = export_lp(cs)
        assert "fuel_1_u1_ub" in text
        assert "fuel_1_u1_lb" in text
        assert "fuel_1_u1_set" in text
        model = parse_lp(text)
        row = model.constraint("fuel_1_u1_set")
        assert row.sense == ">="
        assert ("f_u1_2", 1.0) in row.terms
        assert any(v.startswith("s_fill1d1_") and c == -5.0 for v, c in row.terms)

    def test_survival_objective_is_log_linear(self):
        import math

        cs = compile_timed(
            tiny_template(), (Agent("u1", "uh60", "a"),), 2, {("c", "uh60"): 1}, "max_survival"
        )
        cs = add_risk_semantics(
            cs,
            RiskSpec(
                place_factors={("uh60", "a"): 0.9},
                transition_factors={"t1": 0.95},
            ),
        )
        model = cs.lp_model()
        assert model.sense == "max"
        terms = dict(model.objective)
        assert terms["m_a0_u1"] == pytest.approx(math.log(0.9))
        assert terms["s_t10d2_u1"] == pytest.approx(math.log(0.95))

    def test_round_trip_battery(self):
        # many random systems: parse(write(model)) == model, byte for byte
        rng = random.Random(99)
        for i in range(30):
            template, agents = random_micro_net(rng)
            objective = ("feasible", "min_makespan", "max_survival")[i % 3]
            goal = {}
            if rng.random() < 0.5:
                goal = {(template.places[0], agents[0].color): 1}
            if objective == "min_makespan" or rng.random() < 0.4:
                cs = compile_timed(template, agents, rng.randint(1, 3), goal, objective)
            else:
                cs = compile_untimed(template, agents, rng.randint(1, 3), goal, objective)
            if objective == "max_survival":
                cs = add_risk_semantics(
                    cs,
                    RiskSpec(
                        place_factors={
                            (agents[0].color, template.places[-1]): rng.uniform(0.5, 0.99)
                        },
                        transition_factors={template.transitions[0].name: 0.9},
                    ),
                )
            if rng.random() < 0.5:
                fleet = tuple(
                    Agent(a.id, a.color, a.start, fuel_init=3, fuel_max=4, fuel_min=0)
                    for a in cs.agents
                )
                cs = type(cs)(
                    cs.level, cs.template, fleet, cs.steps, cs.bindings, cs.goal,
                    cs.objective, None, cs.risk,
                )
                cs = add_fuel_semantics(
                    cs,
                    FuelSpec(
                        burn_rates={(fleet[0].color, template.places[0]): 1.0},
                        task_costs={template.transitions[0].name: {fleet[0].color: 1.0}},
                    ),
                )
            model = cs.lp_model()
            text = write_lp(model)
            again = parse_lp(text)
            assert again == model
            assert write_lp(again) == text


def highs_optimum(model: LpModel):
    """Solve ``model`` with HiGHS through scipy; None when it is infeasible.

    Bounds read as the LP text does: a missing lower bound is 0 unless the
    variable is free, a missing upper bound is +inf.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    names = model.variables()
    col = {v: i for i, v in enumerate(names)}
    sign = -1.0 if model.sense == "max" else 1.0
    c = np.zeros(len(names))
    for v, coef in model.objective:
        c[col[v]] += sign * coef
    rows = np.zeros((len(model.constraints), len(names)))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for r, row in enumerate(model.constraints):
        for v, coef in row.terms:
            rows[r, col[v]] += coef
        if row.sense != "<=":
            lo[r] = row.rhs
        if row.sense != ">=":
            hi[r] = row.rhs
    lb, ub = np.zeros(len(names)), np.full(len(names), np.inf)
    for v, low, high in model.bounds:
        lb[col[v]] = -np.inf if low is None and high is None else (low or 0.0)
        ub[col[v]] = np.inf if high is None else high
    integrality = np.zeros(len(names))
    for v in model.binaries + model.generals:
        integrality[col[v]] = 1
    for v in model.binaries:
        lb[col[v]], ub[col[v]] = max(lb[col[v]], 0.0), min(ub[col[v]], 1.0)
    result = milp(
        c,
        constraints=[LinearConstraint(rows, lo, hi)] if len(model.constraints) else [],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"mip_rel_gap": 0.0},
    )
    if result.status == 2:
        return None
    assert result.status == 0, result.message
    return sign * result.fun


def oracle_instance(rng: random.Random, i: int):
    """A seeded micro-net cycling through level and objective, with a goal
    that is often out of reach.  Every other group of six carries fuel: the
    first agent starts low and burns at every place, so it outlasts a long
    horizon only by refuelling; the others start full."""
    template, agents = random_micro_net(rng)
    colors = sorted({tr.inputs[0].color for tr in template.transitions})
    agents += tuple(
        Agent(f"x{k}", rng.choice(colors), rng.choice(template.places))
        for k in range(rng.randint(0, 2))
    )
    objective = ("feasible", "min_makespan", "max_survival")[i % 3]
    build = compile_timed if (i // 3) % 2 == 0 else compile_untimed
    goal = {(rng.choice(template.places), rng.choice(colors)): rng.randint(1, 3)
            for _ in range(rng.randint(0, 2))}
    low = agents[0].color
    fuel = None
    if (i // 6) % 2 == 0:
        init = float(rng.randint(1, 2))
        agents = (Agent(agents[0].id, low, agents[0].start, init, init + 3),) + tuple(
            Agent(a.id, a.color, a.start, 9.0, 9.0) for a in agents[1:]
        )
        names = [tr.name for tr in template.transitions]
        fuel = FuelSpec(
            burn_rates={(c, p): 1.0 if c == low else float(rng.randint(0, 1))
                        for c in colors for p in template.places},
            task_costs={n: {c: float(rng.randint(0, 2)) for c in colors}
                        for n in names if rng.random() < 0.3},
            refuel={n: (low,) for n in names if rng.random() < 0.7},
        )
    cs = build(template, agents, rng.randint(1, 4), goal, objective)
    if fuel is not None:
        cs = add_fuel_semantics(cs, fuel)
    if objective == "max_survival":
        cs = add_risk_semantics(cs, RiskSpec(
            place_factors={(c, p): rng.choice((0.5, 0.8, 0.9, 1.0))
                           for c in colors for p in template.places},
            transition_factors={tr.name: rng.choice((0.7, 0.9, 1.0))
                                for tr in template.transitions},
        ))
    return cs


def test_lp_model_agrees_with_dfs_under_highs():
    # An independent oracle: HiGHS on the exported model must agree with the
    # exact DFS on feasibility and on the optimal objective value.
    pytest.importorskip("scipy")
    rng = random.Random(20261019)
    kinds = {"infeasible": 0, "solved": 0, "fuel": 0, "refuel": 0, "plan": 0}
    for i in range(150):
        cs = oracle_instance(rng, i)
        outcome = solve(cs)
        optimum = highs_optimum(cs.lp_model())
        assert isinstance(outcome, (Solution, Infeasible)), i
        assert (optimum is None) == isinstance(outcome, Infeasible), i
        if isinstance(outcome, Solution) and cs.objective != "feasible":
            assert optimum == pytest.approx(outcome.objective_value, abs=1e-6), i
        kinds["infeasible" if optimum is None else "solved"] += 1
        kinds["fuel"] += cs.fuel is not None
        kinds["refuel"] += bool(cs.fuel and cs.fuel.refuel)
        kinds["plan"] += cs.level is Level.PLAN
    assert min(kinds.values()) >= 25, kinds
