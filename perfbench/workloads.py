"""Seeded inputs for each workload, one round of operations at a time.

A round is a fixed list of shapes (objective, fleet, horizon, grid size...),
so every round asks for the same work and a run of whole rounds has the same
make-up whatever the seed.  The seed draws what varies inside a shape: agent
names, starting places, goals, scenario numbers, search seeds, grid values
and interval placement.  Where the amount of search depends on the numbers,
the seed transforms one base value per shape in a way that keeps the search
tree: fuel quantities are all scaled by one factor, survival factors are all
raised to one power, and agent names keep their relative order.  So inputs
are never identical from one operation to the next, but a shape always costs
the same.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oracles import (
    check_export,
    check_plan,
    check_ranking,
    check_soundness,
    check_synthesis,
)

DATA = Path(__file__).resolve().parent / "data"


def load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


@dataclass
class Op:
    shape: str
    argv: list[str]
    check: Callable[[dict], object]


class Workload:
    """Writes a round's input files under ``tmp`` and returns its operations."""

    name = ""

    def __init__(self, tmp: Path, root: Path) -> None:
        self.tmp = tmp
        self.root = root

    def path(self, name: str) -> Path:
        return self.tmp / name

    def arg(self, p: Path) -> str:
        return str(p.relative_to(self.root))

    def write(self, name: str, data: dict) -> Path:
        p = self.path(name)
        p.write_text(json.dumps(data, indent=1))
        return p

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def after_round(self) -> None:
        """Checks that need every operation of the round."""


def prefix(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


def fleet(rng, starts: str, hc130: int, fuel: tuple[float, float, float] | None, scale: float = 1.0,
          spread: bool = False) -> list[dict]:
    """uh60 agents at ``starts`` and hc130 agents at ``c``; names keep their order."""
    p = prefix(rng)
    agents = [{"id": f"{p}u{i:02d}", "color": "uh60", "start": s} for i, s in enumerate(starts)]
    agents += [{"id": f"{p}h{i:02d}", "color": "hc130", "start": "c"} for i in range(hc130)]
    if fuel is not None:
        init, cap, reserve = fuel
        for a in agents:
            if a["color"] == "uh60":
                level = init if not spread else rng.choice([x / 2 for x in range(int(2 * reserve), int(2 * cap) + 1)])
                a.update(fuel_init=level * scale, fuel_max=cap * scale, fuel_min=reserve * scale)
            else:
                a.update(fuel_init=cap * scale, fuel_max=cap * scale, fuel_min=0.0)
    return agents


def fuel_block(scale: float) -> dict:
    return {
        "burn_rates": {"uh60": {"a": 0.5 * scale, "b": 0.5 * scale, "c": 1.0 * scale}},
        "task_costs": {"t1": {"uh60": 2.0 * scale}, "t4": {"uh60": 2.0 * scale}},
        "refuel": {"t3": ["uh60"]},
    }


# fuel scales are multiples of 1/2, so every level stays exact in binary
FUEL_SCALES = [x / 2 for x in range(1, 9)]
RISK = {"place_factors": {"uh60": {"a": 0.995, "b": 0.99, "c": 0.97}},
        "transition_factors": {"t1": 0.98, "t4": 0.9}}


def risk_block(power: float) -> dict:
    return {
        "place_factors": {c: {p: x ** power for p, x in per.items()} for c, per in RISK["place_factors"].items()},
        "transition_factors": {t: x ** power for t, x in RISK["transition_factors"].items()},
    }


class PlanSearch(Workload):
    """``plan`` on the rescue tasking net; every shape takes 0.2-0.5 s."""

    name = "plan-search"
    # (label, objective, uh60 starts, hc130 count, horizon, goal, uh60 fuel
    # (init, cap, reserve) or None); max_survival shapes carry a risk block
    SHAPES = [
        ("makespan-aabb-H8", "min_makespan", "aabb", 0, 8, {"d": {"uh60": 4}}, None),
        ("makespan-abbb-H8", "min_makespan", "abbb", 0, 8, {"d": {"uh60": 4}}, None),
        ("survival-aabb-H6", "max_survival", "aabb", 0, 6, {"d": {"uh60": 4}}, None),
        ("survival-aaab-H6", "max_survival", "aaab", 0, 6, {"d": {"uh60": 4}}, None),
        ("fuel-aabb-H5", "min_makespan", "aabb", 1, 5, {"d": {"uh60": 2}}, (8.0, 10.0, 2.0)),
        ("refuel-aabb-H5", "min_makespan", "aabb", 1, 5, {"d": {"uh60": 2}}, (5.0, 10.0, 2.0)),
        ("infeasible-aab-H6", "min_makespan", "aab", 1, 6, {"d": {"hc130": 1}}, None),
    ]

    def __init__(self, tmp, root):
        super().__init__(tmp, root)
        self.template = load("rescue_tasking.json")
        self.template_path = DATA / "rescue_tasking.json"

    def round(self, rng):
        ops = []
        for i, (label, objective, starts, hc, horizon, goal, fuel) in enumerate(self.SHAPES):
            scale = rng.choice(FUEL_SCALES)
            sc = {"version": 1, "agents": fleet(rng, starts, hc, fuel, scale), "horizon": horizon,
                  "objective": objective, "goal": goal}
            if fuel is not None:
                sc["fuel"] = fuel_block(scale)
            if objective == "max_survival":
                sc["risk"] = risk_block(rng.uniform(0.5, 2.0))
            path = self.write(f"search-{i}.json", sc)
            ops.append(Op(label, ["--json", "plan", self.arg(self.template_path), self.arg(path)],
                          lambda reply, sc=sc: check_plan(self.template, sc, reply)))
        rng.shuffle(ops)
        return ops


class PlanExport(Workload):
    """``plan --export-lp`` on large fleets: LP assembly and writing, no search."""

    name = "plan-export"
    # (label, uh60 count, hc130 count, horizon, level)
    SHAPES = [
        ("u14-h1-H22-timed", 14, 1, 22, "timed"),
        ("u14-h2-H24-plan", 14, 2, 24, "plan"),
        ("u16-h1-H20-timed", 16, 1, 20, "timed"),
        ("u15-h2-H22-timed", 15, 2, 22, "timed"),
        ("u16-h1-H24-plan", 16, 1, 24, "plan"),
    ]

    def __init__(self, tmp, root):
        super().__init__(tmp, root)
        self.template = load("rescue_tasking.json")
        self.template_path = DATA / "rescue_tasking.json"

    def round(self, rng):
        ops = []
        for i, (label, nu, nh, horizon, level) in enumerate(self.SHAPES):
            scale = rng.choice(FUEL_SCALES)
            starts = "".join(rng.choice("ab") for _ in range(nu))
            agents = fleet(rng, starts, nh, (8.0, 10.0, 2.0), scale, spread=True)
            sc = {"version": 1, "agents": agents, "horizon": horizon, "objective": "min_makespan",
                  "goal": {"d": {"uh60": rng.randint(2, nu)}}, "fuel": fuel_block(scale)}
            path = self.write(f"export-{i}.json", sc)
            lp = self.path(f"export-{i}.lp")
            ops.append(Op(label, ["--json", "plan", self.arg(self.template_path), self.arg(path),
                                  "--level", level, "--export-lp", self.arg(lp)],
                          lambda reply, sc=sc, level=level, lp=lp: check_export(self.template, sc, level, reply, lp)))
        rng.shuffle(ops)
        return ops


class Synthesize(Workload):
    """One sailboat task per round, searched by all three methods."""

    name = "synthesize"
    # method -> extra task keys that put it in the exhaustive run's size class
    METHODS = {"exhaustive": {}, "anneal": {"iterations": 4000}, "genetic": {"generations": 180}}

    def __init__(self, tmp, root):
        super().__init__(tmp, root)
        self.template = load("sailboat_template.json")
        self.catalog = load("sailboat_catalog.json")
        self.template_path = DATA / "sailboat_template.json"
        self.catalog_path = DATA / "sailboat_catalog.json"
        self.results = {}

    def round(self, rng):
        base = "station-" + prefix(rng)
        scenario = {
            "version": 1,
            # windows short enough that transit speed along a carry chain
            # decides how long an asset searches
            "bases": {base: round(rng.uniform(80.0, 240.0), 1)},
            "area_nmi2": round(rng.uniform(4000.0, 20000.0), 0),
            "window_hr": round(rng.uniform(2.5, 6.0), 2),
            "target_mix": {k: round(rng.uniform(0.1, 2.0), 3) for k in ("piw", "cir", "ds")},
        }
        self.results = {}
        ops = []
        for method, extra in self.METHODS.items():
            task = {"version": 1, "budget": 1e9, "max_nodes": 5, "method": method,
                    "seed": rng.randrange(2**31), "scenario": scenario, **extra}
            path = self.write(f"synth-{method}.json", task)
            audit = self.path(f"synth-{method}.jsonl")

            def check(reply, task=task, audit=audit, method=method):
                self.results[method] = check_synthesis(self.template, self.catalog, task, reply, audit)

            ops.append(Op(method, ["--json", "synthesize", self.arg(self.template_path),
                                   self.arg(self.catalog_path), self.arg(path),
                                   "--audit", self.arg(audit)], check))
        rng.shuffle(ops)
        return ops

    def after_round(self):
        if len(self.results) == len(self.METHODS):
            check_ranking(self.results)


class Soundness(Workload):
    """``analyze soundness`` of ``flat_functional`` on 78,732 grid states.

    Its eleven wires carry eight value spaces; two values for ``beam`` and
    ``focus`` and three for the rest give 2^2 * 3^9 internal states.
    """

    name = "soundness"
    SIZES = {"beam": 2, "signal": 3, "focus": 2, "drive": 3, "count": 3, "heat": 3, "temperature": 3, "flow": 3}
    # (label, component restrictions, outer restrictions); a component
    # restriction is (boundary, port, space, how many grid values it admits),
    # an outer one names instead a component port whose admitted values it
    # repeats, or a count of its own
    SHAPES = [
        ("sound-box-bath",
         [("Box", "temp", "temperature", 1), ("Bath", "setPt", "temperature", 1), ("Lab", "temp", "temperature", 3)],
         [("temp2", "temperature", ("Box", "temp")), ("setPt", "temperature", ("Bath", "setPt"))]),
        ("unsound-lab",
         [("Box", "temp", "temperature", 1), ("Bath", "setPt", "temperature", 1), ("Chassis", "drive", "drive", 3)],
         [("temp1", "temperature", 2)]),
        ("sound-heat-flow",
         [("Box", "heat2", "heat", 1), ("Bath", "h2o", "flow", 1), ("Optics", "focus", "focus", 2)],
         [("h2o", "flow", ("Bath", "h2o")), ("intensity", "signal", 3)]),
    ]

    def __init__(self, tmp, root):
        super().__init__(tmp, root)
        self.bundle = load("lsi_wiring.json")
        self.bundle_path = DATA / "lsi_wiring.json"

    def round(self, rng):
        ops = []
        for i, (label, comps, outers) in enumerate(self.SHAPES):
            grid = {}
            for space, n in self.SIZES.items():
                centre = 20.0 if space == "temperature" else rng.uniform(0.0, 5.0)
                while len(set(grid.get(space, ()))) < n:
                    grid[space] = sorted(round(centre + rng.uniform(-0.5, 0.5), 3) for _ in range(n))

            def spans(values):
                return [[v - 1e-4, v + 1e-4] for v in values]

            picked = {}
            components = []
            for boundary, port, space, n in comps:
                picked[(boundary, port)] = chosen = sorted(rng.sample(grid[space], n))
                components.append({"boundary": boundary, "name": f"{boundary.lower()}_{port}_{prefix(rng)}",
                                   "intervals": {port: spans(chosen)}})
            outer = []
            for port, space, n in outers:
                chosen = picked[n] if isinstance(n, tuple) else sorted(rng.sample(grid[space], n))
                outer.append({"boundary": "LSI", "name": f"lsi_{port}_{prefix(rng)}",
                              "intervals": {port: spans(chosen)}})
            reqs = {"version": 1, "components": components, "outer": outer, "grid": grid}
            path = self.write(f"reqs-{i}.json", reqs)
            ops.append(Op(label, ["--json", "analyze", "soundness", self.arg(self.bundle_path),
                                  "flat_functional", self.arg(path)],
                          lambda reply, reqs=reqs: check_soundness(self.bundle, "flat_functional", reqs, reply)))
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (PlanSearch, PlanExport, Synthesize, Soundness)}
