"""Checks of each operation's output, computed apart from the program.

Every check rebuilds the answer from the benchmark's own inputs (the JSON
files it wrote) with code in this file, or tests a property the method must
have.  Nothing is compared against a stored copy of an earlier output.

* ``PetriNet`` replays plan schedules tick by tick and finds the optimum by
  a memoised search over (tick, positions, busy agents, fuel) states.
* ``check_export`` rebuilds the LP variable names from the fleet, places,
  bindings and horizon, and round-trips the file through ``operadic.lp``.
* ``koopman_detections`` scores a design serial from the catalog.
* ``soundness_counts`` counts valid states and counterexamples wire by wire.

A failed check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from pathlib import Path


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def envelope_of(reply: dict, want_code: int) -> dict:
    if reply.get("error") is not None:
        raise CheckFailed("raised " + reply["error"].strip().splitlines()[-1])
    expect(reply["code"] == want_code, f"exit code {reply['code']}, expected {want_code}")
    try:
        env = json.loads(reply["stdout"])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None
    expect(env.get("ok") == (want_code == 0), f"envelope ok={env.get('ok')} for exit {want_code}")
    return env


def same_modulo_timing(a: str, b: str) -> bool:
    """The rerun contract: envelopes agree byte for byte except ``timing_s``."""
    strip = lambda s: [ln for ln in s.splitlines() if not ln.lstrip().startswith('"timing_s"')]
    return strip(a) == strip(b)


# ---------------------------------------------------------------------------
# Petri-net tasking: replay and exact optimum


class PetriNet:
    """The timed tasking semantics, written from the scenario dialect.

    A task started at ``t`` with duration ``d`` takes its agents off the
    board for ``t+1 .. t+d-1`` and lands them at ``t+d``.  Fuel per tick:
    agents on a place burn its rate, started tasks charge their cost, levels
    clamp at capacity, refuel completions restore capacity, and any level
    under its reserve is a dead end.  Survival adds the log factor of each
    occupied place per tick and of each started task.
    """

    def __init__(self, template: dict, scenario: dict) -> None:
        self.H = int(scenario["horizon"])
        self.objective = scenario.get("objective", "feasible")
        self.agents = [a["id"] for a in scenario["agents"]]
        self.color = {a["id"]: a["color"] for a in scenario["agents"]}
        self.start = {a["id"]: a["start"] for a in scenario["agents"]}
        self.goal = {(p, c): n for p, per in scenario.get("goal", {}).items() for c, n in per.items()}
        self.transitions = {}
        for tr in template["transitions"]:
            ins = Counter()
            for f in tr["inputs"]:
                ins[(f["color"], f["place"])] += f["count"]
            outs = Counter()
            for f in tr["outputs"]:
                outs[(f["color"], f["place"])] += f["count"]
            self.transitions[tr["name"]] = (tr["duration"], ins, outs)
        fuel = scenario.get("fuel")
        self.fuel = fuel is not None
        if fuel:
            self.burn = {(c, p): r for c, per in fuel.get("burn_rates", {}).items() for p, r in per.items()}
            self.cost = {(t, c): x for t, per in fuel.get("task_costs", {}).items() for c, x in per.items()}
            self.refuel = {(t, c) for t, cols in fuel.get("refuel", {}).items() for c in cols}
            raw = {a["id"]: a for a in scenario["agents"]}
            self.fmax = {a: float(raw[a].get("fuel_max", 0.0)) for a in self.agents}
            self.fmin = {a: float(raw[a].get("fuel_min", 0.0)) for a in self.agents}
            self.finit = {a: float(raw[a].get("fuel_init", 0.0)) for a in self.agents}
        risk = scenario.get("risk", {})
        self.place_log = {
            (c, p): math.log(x) for c, per in risk.get("place_factors", {}).items() for p, x in per.items()
        }
        self.task_log = {t: math.log(x) for t, x in risk.get("transition_factors", {}).items()}

    # state = (positions, busy, fuel); positions[i] is a place or None,
    # busy[i] is (release, destination, transition) or None
    def initial(self):
        pos = tuple(self.start[a] for a in self.agents)
        busy = (None,) * len(self.agents)
        fuel = tuple(self.finit[a] for a in self.agents) if self.fuel else None
        return pos, busy, fuel

    def bindings_at(self, t, pos):
        """Every (transition, moves) startable from ``pos`` that ends by H."""
        idx = {a: i for i, a in enumerate(self.agents)}
        out = []
        for name, (d, ins, outs) in self.transitions.items():
            if t + d > self.H:
                continue
            groups = sorted(ins.items())
            pools = []
            for (c, p), n in groups:
                here = [a for a in self.agents if self.color[a] == c and pos[idx[a]] == p]
                pools.append([(p, combo) for combo in itertools.combinations(here, n)])
            for pick in itertools.product(*pools):
                src = {a: p for p, combo in pick for a in combo}
                if len(src) != sum(n for _, n in groups):
                    continue  # an agent drawn twice
                per_color = {}
                for a in sorted(src):
                    per_color.setdefault(self.color[a], []).append(a)
                options = []
                for c, ids in sorted(per_color.items()):
                    slots = sorted(p for (cc, p), n in outs.items() if cc == c for _ in range(n))
                    options.append({tuple(sorted(zip(perm, slots))) for perm in itertools.permutations(ids)})
                for combo in itertools.product(*[sorted(o) for o in options]):
                    dst = {a: p for m in combo for a, p in m}
                    out.append((name, tuple(sorted((a, src[a], dst[a]) for a in src))))
        return sorted(set(out))

    def step(self, t, state, started):
        """Advance one tick; returns (next state or None if fuel dies, log gain)."""
        pos, busy, fuel = state
        idx = {a: i for i, a in enumerate(self.agents)}
        gain = 0.0
        for a, p in zip(self.agents, pos):
            if p is not None:
                gain += self.place_log.get((self.color[a], p), 0.0)
        for name, _ in started:
            gain += self.task_log.get(name, 0.0)
        npos, nbusy = list(pos), list(busy)
        for name, moves in started:
            d = self.transitions[name][0]
            for a, _src, dst in moves:
                npos[idx[a]] = None
                nbusy[idx[a]] = (t + d, dst, name)
        nfuel = None
        if self.fuel:
            nfuel = list(fuel)
            for i, (a, p) in enumerate(zip(self.agents, pos)):
                if p is not None:
                    nfuel[i] -= self.burn.get((self.color[a], p), 0.0)
            for name, moves in started:
                for a, _, _ in moves:
                    nfuel[idx[a]] -= self.cost.get((name, self.color[a]), 0.0)
            nfuel = [min(f, self.fmax[a]) for a, f in zip(self.agents, nfuel)]
        for i, b in enumerate(nbusy):
            if b is not None and b[0] == t + 1:
                npos[i], nbusy[i] = b[1], None
                if self.fuel and (b[2], self.color[self.agents[i]]) in self.refuel:
                    nfuel[i] = self.fmax[self.agents[i]]
        if self.fuel and any(f < self.fmin[a] - 1e-9 for a, f in zip(self.agents, nfuel)):
            return None, gain
        return (tuple(npos), tuple(nbusy), tuple(nfuel) if nfuel is not None else None), gain

    def goal_met(self, state) -> bool:
        pos, busy, _ = state
        if any(b is not None for b in busy):
            return False
        have = Counter((p, self.color[a]) for a, p in zip(self.agents, pos) if p is not None)
        return all(have[key] >= n for key, n in self.goal.items())

    def choices(self, t, pos):
        """Sets of startable bindings with pairwise disjoint agents, empty first."""
        opts = self.bindings_at(t, pos)
        out = []

        def grow(i, used, acc):
            out.append(tuple(acc))
            for j in range(i, len(opts)):
                agents = {a for a, _, _ in opts[j][1]}
                if not agents & used:
                    acc.append(opts[j])
                    grow(j + 1, used | agents, acc)
                    acc.pop()

        grow(0, frozenset(), [])
        return out

    def optimum(self) -> float | None:
        """Best objective value over all schedules, or None when infeasible.

        Survival is a memoised maximum over states.  The least makespan is
        the least bound M for which a schedule whose tasks all end by M
        reaches the goal; each bound is a memoised reachability search.
        """
        choices = functools.lru_cache(maxsize=None)(self.choices)  # fuel-free key
        init = self.initial()
        if self.fuel and any(f < self.fmin[a] - 1e-9 for a, f in zip(self.agents, init[2])):
            return None

        @functools.lru_cache(maxsize=None)
        def survival(t, state):
            if t == self.H:
                return 0.0 if self.goal_met(state) else -math.inf
            best = -math.inf
            for started in choices(t, state[0]):
                nxt, gain = self.step(t, state, started)
                if nxt is not None:
                    best = max(best, gain + survival(t + 1, nxt))
            return best

        def reaches(t, state, bound, dead):
            if t == self.H:
                return self.goal_met(state)
            if (t, state) in dead:
                return False
            for started in choices(t, state[0]):
                if all(t + self.transitions[n][0] <= bound for n, _ in started):
                    nxt, _ = self.step(t, state, started)
                    if nxt is not None and reaches(t + 1, nxt, bound, dead):
                        return True
            dead.add((t, state))
            return False

        if self.objective == "max_survival":
            v = survival(0, init)
            return None if v == -math.inf else v
        for bound in range(self.H + 1):
            if reaches(0, init, bound, set()):
                return float(bound)
        return None

    def replay(self, report: dict) -> float:
        """Re-run a reported schedule; returns its objective value."""
        expect(report["steps"] == self.H, "steps differ from the horizon")
        by_start = {}
        for task in report["schedule"]:
            name = task["transition"]
            expect(name in self.transitions, f"unknown transition {name}")
            d, ins, outs = self.transitions[name]
            moves = tuple(sorted(tuple(m) for m in task["moves"]))
            expect(sorted(task["agents"]) == sorted(a for a, _, _ in moves), f"{name}: agents and moves differ")
            expect(Counter((self.color[a], s) for a, s, _ in moves) == ins, f"{name}: inputs do not match the net")
            expect(Counter((self.color[a], e) for a, _, e in moves) == outs, f"{name}: outputs do not match the net")
            expect(task["start"] + d <= self.H, f"{name} ends after the horizon")
            by_start.setdefault(task["start"], []).append((name, moves))
        markings = report["markings"]
        expect(len(markings) == self.H + 1, "one marking per tick expected")
        state = self.initial()
        expect(markings[0] == dict(zip(self.agents, state[0])), "initial marking differs")
        total, makespan = 0.0, 0
        for t in range(self.H):
            started = by_start.get(t, [])
            used = [a for _, moves in started for a, _, _ in moves]
            expect(len(used) == len(set(used)), f"an agent is in two tasks at t={t}")
            for name, moves in started:
                for a, src, _ in moves:
                    expect(state[0][self.agents.index(a)] == src, f"{name}: source {src} of {a} not occupied at t={t}")
                makespan = max(makespan, t + self.transitions[name][0])
            state, gain = self.step(t, state, started)
            expect(state is not None, f"fuel under reserve at t={t + 1}")
            total += gain
            expect(markings[t + 1] == dict(zip(self.agents, state[0])), f"marking differs at t={t + 1}")
            if self.fuel:
                expect(report["fuel"][t + 1] == dict(zip(self.agents, state[2])), f"fuel differs at t={t + 1}")
        expect(self.goal_met(state), "goal does not hold at the horizon")
        return total if self.objective == "max_survival" else float(makespan)


def check_plan(template: dict, scenario: dict, reply: dict) -> None:
    net = PetriNet(template, scenario)
    best = net.optimum()
    if best is None:
        env = envelope_of(reply, 2)
        rep = env["report"]
        expect(rep["status"] == "infeasible", f"status {rep['status']}, expected infeasible")
        unmet = [f"{c}@{p}" for (p, c) in net.goal]
        expect(any(u in c for c in rep["conflicts"] for u in unmet), "conflicts do not name the unmet goal")
        return
    env = envelope_of(reply, 0)
    rep = env["report"]
    expect(rep["status"] == "solved", f"status {rep['status']}, expected solved")
    value = net.replay(rep)
    expect(close(value, rep["objective_value"]), f"objective {rep['objective_value']} but replay gives {value}")
    expect(close(value, best), f"objective {value} is not the optimum {best}")
    timeline = {a: [m[a] for m in rep["markings"]] for a in net.agents}
    expect(rep["timeline"] == timeline, "timeline differs from the markings")


# ---------------------------------------------------------------------------
# LP export


def lp_names(template: dict, scenario: dict, level: str) -> dict[str, list[str]]:
    """The documented m_/s_/f_ names, from the fleet, bindings and horizon."""
    H = int(scenario["horizon"])
    places = template["places"]
    agents = [a["id"] for a in scenario["agents"]]
    color = {a["id"]: a["color"] for a in scenario["agents"]}
    m = [f"m_{p}{t}_{a}" for t in range(H + 1) for a in agents for p in places]
    f = [f"f_{a}_{t}" for t in range(H + 1) for a in agents] if "fuel" in scenario else []
    s = []
    for tr in template["transitions"]:
        need = Counter()
        for flow in tr["inputs"]:
            need[flow["color"]] += flow["count"]
        # each colour takes its tokens from one place and sends them to one
        # place, so a set of agents has exactly one binding per transition
        for side in ("inputs", "outputs"):
            places_of = {}
            for flow in tr[side]:
                places_of.setdefault(flow["color"], set()).add(flow["place"])
            expect(all(len(v) == 1 for v in places_of.values()), "net outside the benchmark's naming model")
        pools = [itertools.combinations(sorted(a for a in agents if color[a] == c), n) for c, n in sorted(need.items())]
        d = tr["duration"] if level == "timed" else 1
        for pick in itertools.product(*pools):
            label = ".".join(sorted(a for combo in pick for a in combo))
            s += [f"s_{tr['name']}{t}d{d}_{label}" for t in range(H) if t + d <= H]
    return {"m": m, "s": s, "f": f}


def check_export(template: dict, scenario: dict, level: str, reply: dict, lp_path: Path) -> None:
    from operadic.lp import parse_lp, write_lp

    env = envelope_of(reply, 0)
    rep = env["report"]
    expect(rep["status"] == "exported", f"status {rep['status']}, expected exported")
    data = lp_path.read_bytes()
    expect(rep["lp_sha256"] == hashlib.sha256(data).hexdigest(), "lp_sha256 is not the hash of the file")
    text = data.decode()
    model = parse_lp(text)
    expect(write_lp(model) == text, "LP text does not round-trip through parse_lp")
    names = lp_names(template, scenario, level)
    seen = {"m": [], "s": [], "f": []}
    other = []
    for v in model.variables():
        (seen[v[0]] if v[:2] in ("m_", "s_", "f_") else other).append(v)
    for kind in "msf":
        expect(len(seen[kind]) == len(names[kind]), f"{len(seen[kind])} {kind}_ variables, expected {len(names[kind])}")
        expect(set(seen[kind]) == set(names[kind]), f"{kind}_ names differ from the naming scheme")
    want_other = ["makespan"] if scenario.get("objective") == "min_makespan" else []
    expect(other == want_other, f"unexpected variables {other[:3]}")
    expect(sorted(model.binaries) == sorted(names["m"] + names["s"]), "Binary section is not the m_ and s_ variables")


# ---------------------------------------------------------------------------
# synthesis


def parse_design(serial: str) -> list[tuple[str, tuple]]:
    """``base:kind(child,child);base:kind`` back into (base, tree) pairs."""

    def tree(text: str, i: int):
        j = i
        while j < len(text) and text[j] not in "(),":
            j += 1
        kind, children = text[i:j], []
        if j < len(text) and text[j] == "(":
            j += 1
            while True:
                child, j = tree(text, j)
                children.append(child)
                if text[j] == ")":
                    j += 1
                    break
                j += 1  # comma
        return (kind, tuple(children)), j

    out = []
    for part in serial.split(";") if serial else []:
        base, _, rest = part.partition(":")
        t, end = tree(rest, 0)
        expect(end == len(rest), f"cannot parse design {part!r}")
        out.append((base, t))
    return out


def koopman_detections(placements, catalog: dict, scenario: dict) -> tuple[float, float, int]:
    """(expected detections, cost, nodes) by the random-search law.

    An asset transits at the slowest max speed among its carriers (its own
    when uncarried), searches for what is left of the window up to its time
    on station, and the pooled effort Z per target kind detects with
    probability ``1 - exp(-Z / area)``.
    """
    assets = catalog["assets"]
    kinds = sorted(scenario["target_mix"])
    effort = {k: 0.0 for k in kinds}
    cost, nodes = 0.0, 0

    def walk(node, base, chain):
        nonlocal cost, nodes
        kind, children = node
        a = assets[kind]
        cost += a["cost"]
        nodes += 1
        speed = min(chain) if chain else a["speed_max_kn"]
        tos = math.inf if a["time_on_station_hr"] is None else a["time_on_station_hr"]
        hours = max(0.0, min(tos, scenario["window_hr"] - scenario["bases"][base] / speed))
        for k in kinds:
            effort[k] += a["sweep_width_nmi"][k] * a["speed_search_kn"] * hours
        for child in children:
            walk(child, base, chain + [a["speed_max_kn"]])

    for base, tree in placements:
        walk(tree, base, [])
    score = sum(scenario["target_mix"][k] * (1.0 - math.exp(-effort[k] / scenario["area_nmi2"])) for k in kinds)
    return score, cost, nodes


def check_synthesis(template: dict, catalog: dict, task: dict, reply: dict, audit_path: Path) -> tuple[float, float]:
    """Checks one search and its audit log, every record of which is scored
    again; returns the winner's (score, cost) for the cross-method check."""
    env = envelope_of(reply, 0)
    rep = env["report"]
    placements = parse_design(rep["design"])
    hosts = template["directed"]["carrying"]

    def allowed(node):
        return all(child[0] in hosts and node[0] in hosts[child[0]] and allowed(child) for child in node[1])

    expect(all(allowed(t) for _, t in placements), "design breaks a carry rule")
    score, cost, nodes = koopman_detections(placements, catalog, task["scenario"])
    expect(nodes <= task["max_nodes"], f"design has {nodes} nodes, cap {task['max_nodes']}")
    expect(cost <= task["budget"] + 1e-6, "design over budget")
    kpi = rep["report"]
    expect(close(kpi["expected_detections"], score), f"expected detections {kpi['expected_detections']}, Koopman gives {score}")
    expect(close(kpi["cost"], cost), "cost differs from the catalog")
    records = [json.loads(line) for line in audit_path.read_text().splitlines()]
    for rec in records:
        r_score, r_cost, r_nodes = koopman_detections(parse_design(rec["design"]), catalog, task["scenario"])
        expect(close(rec["score"], r_score) and close(rec["cost"], r_cost) and rec["nodes"] == r_nodes,
               f"audit record {rec['design']!r} disagrees with the Koopman score")
    selected = records[-1]
    expect(selected.get("selected") is True and selected["design"] == rep["design"], "last audit record is not the winner")
    key = lambda r: (-r["score"], r["cost"], r["design"])
    expect(key(selected) == min(map(key, records)), "selected audit record is not the best record")
    if task["method"] == "exhaustive":
        expect(len(records) - 1 == rep["evaluations"], "exhaustive audit does not list every design once")
    return score, cost


def check_ranking(results: dict[str, tuple[float, float]]) -> None:
    """The exhaustive winner ranks no worse than the metaheuristics' winners."""
    ex_score, ex_cost = results["exhaustive"]
    for method in ("anneal", "genetic"):
        score, cost = results[method]
        better = score > ex_score * (1 + 1e-12) + 1e-12 or (close(score, ex_score, 1e-12) and cost < ex_cost - 1e-6)
        expect(not better, f"{method} winner beats the exhaustive winner")


# ---------------------------------------------------------------------------
# soundness


def flat_wires(bundle: dict, name: str) -> list[frozenset[tuple[str, str]]]:
    """Wire classes of a one-level composition, by union-find through the
    intermediate boundaries."""
    comp = bundle["compositions"][name]
    f = bundle["operations"][comp["op"]]
    gs = [bundle["operations"][a] for a in comp["args"]]
    mids = {b: i for i, b in enumerate(f["inner"])}
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def node(ref, outer_slot=None):
        owner, port = ref.split(".")
        if outer_slot is not None and owner == gs[outer_slot]["outer"]:
            return ("mid", outer_slot, port)
        if outer_slot is None and owner in mids:
            return ("mid", mids[owner], port)
        return ("keep", owner, port)

    layers = [(w, None) for w in f["wires"]] + [(w, i) for i, g in enumerate(gs) for w in g["wires"]]
    for wire, slot in layers:
        nodes = [node(r, slot) for r in wire]
        for other in nodes:
            parent[find(other)] = find(nodes[0])
    classes = {}
    for x in list(parent):
        classes.setdefault(find(x), set()).add(x)
    return [frozenset((o, p) for kind, o, p in members if kind == "keep") for members in classes.values()]


def _admits(spans, v) -> bool:
    return any(lo <= v <= hi for lo, hi in spans)


def soundness_counts(bundle: dict, name: str, reqs: dict):
    """(valid states, counterexamples, per-wire admitted values, wire of port).

    Requirements are conjunctions of per-port intervals, so each one
    restricts single wires: the valid set is the product of each wire's
    admitted grid values, and an outer requirement fails on the valid states
    outside the product of its own restrictions.
    """
    space = {(b, p["name"]): p["space"] for b, raw in bundle["boundaries"].items() for p in raw["ports"]}
    wires = [w for w in flat_wires(bundle, name) if w]
    wire_of = {ref: i for i, w in enumerate(wires) for ref in w}
    admitted = []
    for w in wires:
        values = reqs["grid"][space[next(iter(w))]]
        for r in reqs["components"]:
            for port, spans in r["intervals"].items():
                if (r["boundary"], port) in w:
                    values = [v for v in values if _admits(spans, v)]
        admitted.append(values)
    valid = math.prod(len(v) for v in admitted)
    cex = 0
    for r in reqs["outer"]:
        holds = [list(v) for v in admitted]
        for port, spans in r["intervals"].items():
            i = wire_of[(r["boundary"], port)]
            holds[i] = [v for v in holds[i] if _admits(spans, v)]
        cex += valid - math.prod(len(v) for v in holds)
    return valid, cex, admitted, wire_of


def check_soundness(bundle: dict, name: str, reqs: dict, reply: dict) -> None:
    env = envelope_of(reply, 0)
    rep = env["report"]
    valid, cex, admitted, wire_of = soundness_counts(bundle, name, reqs)
    expect(rep["checked"] == valid, f"{rep['checked']} valid states, expected {valid}")
    expect(len(rep["counterexamples"]) == cex, f"{len(rep['counterexamples'])} counterexamples, expected {cex}")
    expect(rep["sound"] == (cex == 0), "verdict disagrees with the counterexample count")
    outer = {r["name"]: r for r in reqs["outer"]}
    label = {i: "{}.{}".format(*min(ref for ref, j in wire_of.items() if j == i)) for i in set(wire_of.values())}
    seen = set()
    for item in rep["counterexamples"]:
        state, req = item["state"], outer[item["violated"]]
        expect(all(state[label[i]] in vals for i, vals in enumerate(admitted)), "counterexample is not a valid state")
        values = {p: state[label[wire_of[(req["boundary"], p)]]] for p in req["intervals"]}
        expect(not all(_admits(req["intervals"][p], v) for p, v in values.items()), "counterexample meets its requirement")
        seen.add((tuple(sorted(state.items())), req["name"]))
    expect(len(seen) == cex, "counterexamples repeat")
