"""Task planning over colored Petri nets with identified agents.

A tasking template (places, token colors, transitions with integer
durations) plus a fleet of named agents compiles into a constraint system
over boolean variables:

* ``m[agent, place, t]`` -- agent occupies place at time ``t``;
* ``sigma[binding, t]``  -- a bound task instance starts at ``t``.

A *binding* fixes which agents fill a transition's input tokens (and where
its output tokens send them).  The update and source matrices over bindings
are exposed as numpy arrays with agent-major columns; rows list single-agent
bindings first (grouped per agent in fleet order, transitions in template
order), then multi-agent bindings ordered by (transition, agent tuple).

Timing convention: a task starting at ``s`` with duration ``d`` requires its
agents at their source places in ``m_s``, leaves them off the board for
``s+1 .. s+d-1``, and lands them at their targets in ``m_{s+d}``; tasks must
finish inside the horizon.  With ``d = 1`` this reduces to the untimed rule
``m_{j+1} = m_j + M^T sigma_j`` with ``m_j >= (M^s)^T sigma_j``.

Three granularities are supported: TIMED (start times), PLAN (ordered
batches, durations erased) and COUNTS (agent identities erased).  ``project``
coarsens a solution, checking rather than assuming feasibility; ``lift``
enumerates fine-grained solutions over a projection, reporting truncation
when it hits its cap.

Fuel semantics (optional): waiting at a place burns ``rate(color, place)``
per tick, task costs are charged at start, refuel transitions restore the
receiver to ``fuel_max`` at completion, and every level is clamped at
capacity (``literal_update=True`` switches the update to the documented
alternative reading ``max(f + F sigma, f_max)``).  Fuel below ``fuel_min``
is infeasible.  Risk semantics (optional): each tick spent at a place
multiplies a per-(color, place) survival factor, each task a per-transition
factor; the solver maximizes total log survival.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .dialect import InputError, Reader
from .lp import LpConstraint, LpModel
from .options import DEFAULT_NODE_CAP, Level
from .template import TaskingTemplate, Transition, parse_tasking_template

if TYPE_CHECKING:  # numpy is imported by the matrix accessors alone
    import numpy as np

OBJECTIVES = ("feasible", "min_makespan", "max_survival")


class PlannerError(InputError):
    pass


_read = Reader(PlannerError)


@dataclass(frozen=True)
class Agent:
    id: str
    color: str
    start: str
    fuel_init: float = 0.0
    fuel_max: float = 0.0
    fuel_min: float = 0.0

    def __post_init__(self) -> None:
        if not self.id:
            raise PlannerError("agent id must be non-empty")
        if self.fuel_min > self.fuel_max:
            raise PlannerError(f"agent {self.id}: fuel_min exceeds fuel_max")
        if not (self.fuel_min <= self.fuel_init <= self.fuel_max) and self.fuel_max > 0:
            raise PlannerError(f"agent {self.id}: fuel_init outside [fuel_min, fuel_max]")


@dataclass(frozen=True)
class TaskBinding:
    """A transition with concrete agents on its tokens."""

    transition: Transition
    tindex: int
    agents: tuple[str, ...]  # sorted agent ids
    moves: tuple[tuple[str, str, str], ...]  # (agent, from place, to place), sorted

    @property
    def name(self) -> str:
        return self.transition.name

    @property
    def duration(self) -> int:
        return self.transition.duration

    def label(self) -> str:
        return ".".join(self.agents)


@dataclass(frozen=True)
class TypeVector:
    """One marking row: where every agent is (None while mid-task)."""

    positions: tuple[tuple[str, str | None], ...]  # (agent id, place) sorted by id

    @classmethod
    def of(cls, mapping: Mapping[str, str | None]) -> "TypeVector":
        return cls(tuple(sorted(mapping.items())))

    def place_of(self, agent: str) -> str | None:
        for a, p in self.positions:
            if a == agent:
                return p
        raise PlannerError(f"unknown agent {agent!r}")

    def as_dict(self) -> dict[str, str | None]:
        return dict(self.positions)

    def counts(self, colors: Mapping[str, str]) -> dict[tuple[str, str], int]:
        """Collapse to (color, place) token counts; mid-task agents drop out."""
        out: dict[tuple[str, str], int] = {}
        for agent, place in self.positions:
            if place is not None:
                key = (colors[agent], place)
                out[key] = out.get(key, 0) + 1
        return out


@dataclass(frozen=True)
class TaskVector:
    """Binding indices started at one step."""

    started: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.started) != sorted(set(self.started)):
            raise PlannerError("task vector must be strictly increasing binding indices")


@dataclass(frozen=True)
class FuelSpec:
    burn_rates: Mapping[tuple[str, str], float]  # (color, place) -> units per tick
    task_costs: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    refuel: Mapping[str, tuple[str, ...]] = field(default_factory=dict)  # transition -> receiver colors
    literal_update: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "burn_rates", dict(self.burn_rates))
        object.__setattr__(
            self, "task_costs", {k: dict(v) for k, v in self.task_costs.items()}
        )
        object.__setattr__(self, "refuel", {k: tuple(v) for k, v in self.refuel.items()})
        for rate in self.burn_rates.values():
            if rate < 0:
                raise PlannerError("burn rates must be >= 0")
        for costs in self.task_costs.values():
            for c in costs.values():
                if c < 0:
                    raise PlannerError("task fuel costs must be >= 0")

    def rate(self, color: str, place: str) -> float:
        return self.burn_rates.get((color, place), 0.0)

    def cost(self, transition: str, color: str) -> float:
        return self.task_costs.get(transition, {}).get(color, 0.0)

    def receives(self, transition: str, color: str) -> bool:
        return color in self.refuel.get(transition, ())


@dataclass(frozen=True)
class RiskSpec:
    place_factors: Mapping[tuple[str, str], float]  # (color, place) -> survival per tick
    transition_factors: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "place_factors", dict(self.place_factors))
        object.__setattr__(self, "transition_factors", dict(self.transition_factors))
        for v in list(self.place_factors.values()) + list(self.transition_factors.values()):
            if not (0.0 < v <= 1.0):
                raise PlannerError(f"survival factors must be in (0, 1], got {v}")

    def place_log(self, color: str, place: str) -> float:
        return math.log(self.place_factors.get((color, place), 1.0))

    def transition_log(self, name: str) -> float:
        return math.log(self.transition_factors.get(name, 1.0))


def _duration(level: Level, b: TaskBinding) -> int:
    """A task's length at ``level``: the plan level erases durations to 1."""
    return b.duration if level is Level.TIMED else 1


# ---------------------------------------------------------------------------
# binding enumeration


def _input_groups(tr: Transition) -> list[tuple[str, str, int]]:
    merged: dict[tuple[str, str], int] = {}
    for flow in tr.inputs:
        merged[(flow.color, flow.place)] = merged.get((flow.color, flow.place), 0) + flow.count
    return [(c, p, n) for (c, p), n in sorted(merged.items())]


def _output_slots(tr: Transition) -> dict[str, list[str]]:
    slots: dict[str, list[str]] = {}
    for flow in tr.outputs:
        slots.setdefault(flow.color, []).extend([flow.place] * flow.count)
    for places in slots.values():
        places.sort()
    return slots


def enumerate_bindings(template: TaskingTemplate, agents: Sequence[Agent]) -> tuple[TaskBinding, ...]:
    by_color: dict[str, list[Agent]] = {}
    for a in sorted(agents, key=lambda a: a.id):
        by_color.setdefault(a.color, []).append(a)
    fleet_index = {a.id: i for i, a in enumerate(agents)}

    bindings: set[TaskBinding] = set()
    for tindex, tr in enumerate(template.transitions):
        groups = _input_groups(tr)

        def choose(i: int, used: frozenset[str], picked: dict):
            if i == len(groups):
                yield dict(picked)
                return
            color, place, count = groups[i]
            pool = [a for a in by_color.get(color, []) if a.id not in used]
            for combo in itertools.combinations(pool, count):
                picked[(color, place)] = combo
                yield from choose(i + 1, used | {a.id for a in combo}, picked)
            picked.pop((color, place), None)

        out_slots = _output_slots(tr)
        for assignment in choose(0, frozenset(), {}):
            from_place = {
                a.id: place for (color, place), combo in assignment.items() for a in combo
            }
            per_color: dict[str, list[str]] = {}
            for (color, _), combo in assignment.items():
                per_color.setdefault(color, []).extend(a.id for a in combo)
            # match each color's agents to that color's output slots
            options_per_color = []
            for color, ids in sorted(per_color.items()):
                ids = sorted(ids)
                slots = out_slots.get(color, [])
                matchings = {
                    tuple(sorted(zip(perm, slots)))
                    for perm in itertools.permutations(ids)
                }
                options_per_color.append(sorted(matchings))
            for combo in itertools.product(*options_per_color):
                dest = {aid: place for matching in combo for aid, place in matching}
                moves = tuple(
                    sorted((aid, from_place[aid], dest[aid]) for aid in from_place)
                )
                ids = tuple(sorted(from_place))
                bindings.add(TaskBinding(tr, tindex, ids, moves))

    def sort_key(b: TaskBinding):
        ids = tuple(fleet_index[a] for a in b.agents)
        if len(ids) == 1:
            return (0, ids[0], b.tindex, b.moves)
        return (1, b.tindex, ids, b.moves)

    return tuple(sorted(bindings, key=sort_key))


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(frozen=True)
class ConstraintSystem:
    level: Level
    template: TaskingTemplate
    agents: tuple[Agent, ...]
    steps: int
    bindings: tuple[TaskBinding, ...]
    goal: Mapping[tuple[str, str], int] = field(default_factory=dict)  # (place, color) -> count
    objective: str = "feasible"
    fuel: FuelSpec | None = None
    risk: RiskSpec | None = None

    def __post_init__(self) -> None:
        if self.level not in (Level.TIMED, Level.PLAN):
            raise PlannerError("constraint systems exist at the timed and plan levels")
        if self.steps < 0:
            raise PlannerError("steps must be >= 0")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise PlannerError("duplicate agent ids")
        for a in self.agents:
            if a.start not in self.template.places:
                raise PlannerError(f"agent {a.id}: unknown start place {a.start!r}")
            if a.color not in self.template.colors:
                raise PlannerError(f"agent {a.id}: unknown color {a.color!r}")
        for (place, color), count in self.goal.items():
            if place not in self.template.places:
                raise PlannerError(f"goal names unknown place {place!r}")
            if color not in self.template.colors:
                raise PlannerError(f"goal names unknown color {color!r}")
            if count < 0:
                raise PlannerError("goal counts must be >= 0")
        if self.objective not in OBJECTIVES:
            raise PlannerError(f"unknown objective {self.objective!r}")
        object.__setattr__(self, "goal", dict(self.goal))

    def duration(self, b: TaskBinding) -> int:
        return _duration(self.level, b)

    @property
    def places(self) -> tuple[str, ...]:
        return self.template.places

    def column(self, agent_index: int, place: str) -> int:
        return agent_index * len(self.places) + self.places.index(place)

    @property
    def column_labels(self) -> tuple[str, ...]:
        return tuple(f"{a.id}:{p}" for a in self.agents for p in self.places)

    def _incidence(self, duration: int | None, at_source: int, at_target: int) -> np.ndarray:
        """Per binding (optionally only those of one duration), add
        ``at_source`` at each source column and ``at_target`` at each target."""
        import numpy as np

        rows = [
            b for b in self.bindings if duration is None or self.duration(b) == duration
        ]
        index = {a.id: i for i, a in enumerate(self.agents)}
        m = np.zeros((len(rows), len(self.agents) * len(self.places)), dtype=int)
        for r, b in enumerate(rows):
            for agent, src, dst in b.moves:
                m[r, self.column(index[agent], src)] += at_source
                m[r, self.column(index[agent], dst)] += at_target
        return m

    def update_matrix(self, duration: int | None = None) -> np.ndarray:
        """M: per binding, -1 at each source column and +1 at each target."""
        return self._incidence(duration, -1, 1)

    def source_matrix(self, duration: int | None = None) -> np.ndarray:
        """M^s: per binding, +1 at each source column."""
        return self._incidence(duration, 1, 0)

    def fuel_matrix(self) -> np.ndarray:
        """F: per binding, fuel delta per agent (task costs, negated)."""
        if self.fuel is None:
            raise PlannerError("no fuel semantics attached")
        import numpy as np

        index = {a.id: i for i, a in enumerate(self.agents)}
        m = np.zeros((len(self.bindings), len(self.agents)))
        for r, b in enumerate(self.bindings):
            for agent, _, _ in b.moves:
                color = self.agents[index[agent]].color
                m[r, index[agent]] = -self.fuel.cost(b.name, color)
        return m

    # -- LP assembly -------------------------------------------------------

    def variable_names(self) -> dict[str, list[str]]:
        """The documented naming scheme for every decision variable."""
        m_vars = [n for tick in self._m_names() for row in tick for n in row]
        s_vars = list(self._start_vars().values())
        f_vars = []
        if self.fuel is not None:
            f_vars = [n for tick in self._f_names() for n in tick]
        return {"m": m_vars, "s": s_vars, "f": f_vars}

    def _m_names(self) -> list[list[list[str]]]:
        """``m_{place}{t}_{agent}`` per tick, then agent, then place."""
        return [
            [[f"m_{p}{t}_{a.id}" for p in self.places] for a in self.agents]
            for t in range(self.steps + 1)
        ]

    def _f_names(self) -> list[list[str]]:
        """``f_{agent}_{t}`` per tick, then agent."""
        return [[f"f_{a.id}_{t}" for a in self.agents] for t in range(self.steps + 1)]

    def _start_vars(self) -> dict[tuple[int, int], str]:
        """Start-variable name per (binding index, start time) pair that fits
        in the horizon, ordered by time, then binding."""
        # bindings sharing (transition, agents) differ only in their output
        # matching; number them v1, v2, ... in binding order
        twins: dict[tuple[str, tuple[str, ...]], list[int]] = {}
        for bi, b in enumerate(self.bindings):
            twins.setdefault((b.name, b.agents), []).append(bi)
        suffix = {
            bi: f"v{j + 1}"
            for group in twins.values()
            if len(group) > 1
            for j, bi in enumerate(group)
        }
        # per binding: its index, the last tick it may start at, and the
        # parts of its name either side of the start tick
        parts = []
        for bi, b in enumerate(self.bindings):
            d = self.duration(b)
            parts.append((bi, self.steps - d, f"s_{b.name}", f"d{d}_{b.label()}{suffix.get(bi, '')}"))
        names = {}
        for t in range(self.steps):
            for bi, last, head, tail in parts:
                if t <= last:
                    names[(bi, t)] = f"{head}{t}{tail}"
        return names

    def lp_model(self) -> LpModel:
        agents, places, steps = self.agents, self.places, self.steps
        svars = self._start_vars()
        index = {a.id: k for k, a in enumerate(agents)}
        column = {p: j for j, p in enumerate(places)}
        durations = [self.duration(b) for b in self.bindings]
        # per binding: (agent index, source column, target column) per move
        moves = [
            [(index[agent], column[src], column[dst]) for agent, src, dst in b.moves]
            for b in self.bindings
        ]
        m = self._m_names()
        # each (name, +-1.0) term is made once and shared by every row using it
        m_plus = [[[(n, 1.0) for n in row] for row in tick] for tick in m]
        m_minus = [[[(n, -1.0) for n in row] for row in tick] for tick in m]
        constraints: list[LpConstraint] = []
        bounds: list[tuple[str, float | None, float | None]] = []
        generals: list[str] = []

        binaries = [n for tick in m for row in tick for n in row]
        binaries.extend(svars.values())

        # initial marking
        for a, row in zip(agents, m[0]):
            for p, name in zip(places, row):
                bounds.append((name, 1.0 if p == a.start else 0.0, 1.0 if p == a.start else 0.0))

        # start terms per tick, agent and place: +1 departures, -1 arrivals;
        # +1 mid-task per tick and agent
        departures = [[[[] for _ in places] for _ in agents] for _ in range(steps + 1)]
        arrivals = [[[[] for _ in places] for _ in agents] for _ in range(steps + 1)]
        midtask = [[[] for _ in agents] for _ in range(steps + 1)]
        for (bi, t), var in svars.items():
            d = durations[bi]
            plus, minus = (var, 1.0), (var, -1.0)
            for k, src, dst in moves[bi]:
                departures[t][k][src].append(plus)
                arrivals[t + d][k][dst].append(minus)
                for mid in range(t + 1, t + d):
                    midtask[mid][k].append(plus)

        # flow: m_{t+1} - m_t + departures(t) - arrivals(t+1) = 0
        for t in range(steps):
            for k, a in enumerate(agents):
                now, later = m_minus[t][k], m_plus[t + 1][k]
                leave, land = departures[t][k], arrivals[t + 1][k]
                for j, p in enumerate(places):
                    constraints.append(LpConstraint(
                        f"flow_{p}{t}_{a.id}", (later[j], now[j], *leave[j], *land[j]), "=", 0.0
                    ))

        # sources available: sum of starts using (agent, place) <= m
        for t in range(steps):
            for k, a in enumerate(agents):
                now, leave = m_minus[t][k], departures[t][k]
                for j, p in enumerate(places):
                    if leave[j]:
                        constraints.append(LpConstraint(
                            f"avail_{p}{t}_{a.id}", (*leave[j], now[j]), "<=", 0.0
                        ))

        # occupancy: at a place or mid-task, never both, always one
        for t in range(steps + 1):
            for k, a in enumerate(agents):
                constraints.append(LpConstraint(
                    f"occ_{t}_{a.id}", (*m_plus[t][k], *midtask[t][k]), "=", 1.0
                ))

        # goal at the final marking
        for (place, color), count in sorted(self.goal.items()):
            j = column[place]
            terms = tuple(m_plus[steps][k][j] for k, a in enumerate(agents) if a.color == color)
            constraints.append(LpConstraint(f"goal_{place}_{color}", terms, ">=", float(count)))

        objective: list[tuple[str, float]] = []
        sense = "min"
        if self.objective == "min_makespan":
            generals.append("makespan")
            bounds.append(("makespan", 0.0, float(steps)))
            makespan = ("makespan", 1.0)
            for (bi, t), var in svars.items():
                constraints.append(LpConstraint(
                    f"mk_{var}", (makespan, (var, -float(t + durations[bi]))), ">=", 0.0
                ))
            objective = [makespan]
        elif self.objective == "max_survival":
            if self.risk is None:
                raise PlannerError("max_survival objective needs risk semantics")
            sense = "max"
            # per agent: (column, log survival) of each place that has a risk
            logs = []
            for a in agents:
                ws = [(j, self.risk.place_log(a.color, p)) for j, p in enumerate(places)]
                logs.append([(j, w) for j, w in ws if w != 0.0])
            for t in range(steps):
                for row, ws in zip(m[t], logs):
                    objective.extend((row[j], w) for j, w in ws)
            task_logs = [self.risk.transition_log(b.name) for b in self.bindings]
            for (bi, t), var in svars.items():
                w = task_logs[bi]
                if w != 0.0:
                    objective.append((var, w))

        if self.fuel is not None:
            self._fuel_rows(constraints, bounds, svars, m, durations, moves)

        return LpModel(
            sense=sense,
            objective=tuple(objective),
            constraints=tuple(constraints),
            bounds=tuple(bounds),
            binaries=tuple(binaries),
            generals=tuple(generals),
        )

    def _fuel_rows(self, constraints, bounds, svars, m, durations, moves) -> None:
        fuel, agents, steps = self.fuel, self.agents, self.steps
        f = self._f_names()
        for k, a in enumerate(agents):
            bounds.append((f[0][k], a.fuel_init, a.fuel_init))
            for t in range(1, steps + 1):
                bounds.append((f[t][k], a.fuel_min, a.fuel_max))

        # per binding: (agent index, cost) of each mover charged at start,
        # and the agent index of each mover refuelled at completion
        costs, receivers = [], []
        for b, bmoves in zip(self.bindings, moves):
            charged, refuelled = [], []
            for k, _, _ in bmoves:
                color = agents[k].color
                cost = fuel.cost(b.name, color)
                if cost:
                    charged.append((k, cost))
                if fuel.receives(b.name, color):
                    refuelled.append(k)
            costs.append(charged)
            receivers.append(refuelled)
        starts_by_agent: dict[tuple[int, int], list[tuple[str, float]]] = {}
        refuel_done: dict[tuple[int, int], list[str]] = {}
        for (bi, t), var in svars.items():
            for k, cost in costs[bi]:
                starts_by_agent.setdefault((k, t), []).append((var, cost))
            for k in receivers[bi]:
                refuel_done.setdefault((k, t + durations[bi]), []).append(var)

        # per agent: (column, burn rate) of each place it burns fuel waiting
        # at; the plan level erases waiting, so nothing burns there
        burns: list[list[tuple[int, float]]] = [[] for _ in agents]
        if self.level is Level.TIMED:
            for k, a in enumerate(agents):
                for j, p in enumerate(self.places):
                    rate = fuel.rate(a.color, p)
                    if rate:
                        burns[k].append((j, rate))
        for k, a in enumerate(agents):
            for t in range(steps):
                # linear part: f_{t+1} = f_t - waiting burn - task costs
                after = (f[t + 1][k], 1.0)
                row = m[t][k]
                terms = [after, (f[t][k], -1.0)]
                terms += [(row[j], rate) for j, rate in burns[k]]
                terms += starts_by_agent.get((k, t), ())
                hats = refuel_done.get((k, t + 1))
                if not hats:
                    constraints.append(LpConstraint(f"fuel_{t}_{a.id}", tuple(terms), "=", 0.0))
                else:
                    # refuel completion overrides the update: big-M on R
                    cut = [(v, -a.fuel_max) for v in hats]
                    up = tuple(terms + cut)
                    dn = tuple(terms + [(v, a.fuel_max) for v in hats])
                    at = (after, *cut)
                    constraints.append(LpConstraint(f"fuel_{t}_{a.id}_ub", up, "<=", 0.0))
                    constraints.append(LpConstraint(f"fuel_{t}_{a.id}_lb", dn, ">=", 0.0))
                    constraints.append(LpConstraint(f"fuel_{t}_{a.id}_set", at, ">=", 0.0))


def _compile(
    level: Level,
    template: TaskingTemplate,
    agents: Sequence[Agent],
    steps: int,
    goal: Mapping[tuple[str, str], int] | None,
    objective: str,
) -> ConstraintSystem:
    return ConstraintSystem(
        level,
        template,
        tuple(agents),
        steps,
        enumerate_bindings(template, agents),
        goal or {},
        objective,
    )


def compile_untimed(
    template: TaskingTemplate,
    agents: Sequence[Agent],
    steps: int,
    goal: Mapping[tuple[str, str], int] | None = None,
    objective: str = "feasible",
) -> ConstraintSystem:
    """Plan-level system: durations erased, one batch per step."""
    return _compile(Level.PLAN, template, agents, steps, goal, objective)


def compile_timed(
    template: TaskingTemplate,
    agents: Sequence[Agent],
    horizon: int,
    goal: Mapping[tuple[str, str], int] | None = None,
    objective: str = "feasible",
) -> ConstraintSystem:
    """Timed system: durations respected, tasks must finish by the horizon."""
    return _compile(Level.TIMED, template, agents, horizon, goal, objective)


def add_fuel_semantics(cs: ConstraintSystem, fuel: FuelSpec) -> ConstraintSystem:
    for name in list(fuel.task_costs) + list(fuel.refuel):
        cs.template.transition(name)  # raises on unknown names
    return replace(cs, fuel=fuel)


def add_risk_semantics(cs: ConstraintSystem, risk: RiskSpec) -> ConstraintSystem:
    return replace(cs, risk=risk)


def export_lp(cs: ConstraintSystem) -> str:
    from .lp import write_lp

    return write_lp(cs.lp_model())


# ---------------------------------------------------------------------------
# solutions and the exact solver


@dataclass(frozen=True)
class Solution:
    level: Level
    steps: int
    template: TaskingTemplate
    agents: tuple[Agent, ...]
    schedule: tuple[tuple[int, TaskBinding], ...]  # (start, binding), lex sorted
    markings: tuple[TypeVector, ...]
    fuel_trace: tuple[tuple[tuple[str, float], ...], ...] | None = None
    objective_value: float | None = None

    def makespan(self) -> int:
        return max((t + _duration(self.level, b) for t, b in self.schedule), default=0)

    def to_dict(self) -> dict:
        return {
            "level": self.level.value,
            "steps": self.steps,
            "objective_value": self.objective_value,
            "schedule": [
                {
                    "start": t,
                    "transition": b.name,
                    "agents": list(b.agents),
                    "moves": [list(m) for m in b.moves],
                }
                for t, b in self.schedule
            ],
            "markings": [dict(tv.positions) for tv in self.markings],
            "fuel": None
            if self.fuel_trace is None
            else [dict(row) for row in self.fuel_trace],
        }


@dataclass(frozen=True)
class CountsSolution:
    steps: int
    template: TaskingTemplate
    fleet: tuple[tuple[str, int], ...]  # (color, count), sorted
    schedule: tuple[tuple[int, str, int], ...]  # (step, transition, multiplicity)
    markings: tuple[tuple[tuple[tuple[str, str], int], ...], ...]  # per step, ((color, place), n)

    @property
    def level(self) -> Level:
        return Level.COUNTS

    def to_dict(self) -> dict:
        return {
            "level": "counts",
            "steps": self.steps,
            "schedule": [
                {"step": t, "transition": name, "count": k} for t, name, k in self.schedule
            ],
            "markings": [
                [{"color": c, "place": p, "count": n} for (c, p), n in row]
                for row in self.markings
            ],
        }


@dataclass(frozen=True)
class Infeasible:
    conflicts: tuple[str, ...]
    deepest_step: int

    def to_dict(self) -> dict:
        return {
            "status": "infeasible",
            "deepest_step": self.deepest_step,
            "conflicts": list(self.conflicts),
        }


@dataclass(frozen=True)
class Undecided:
    nodes_explored: int
    best_found: Solution | None = None

    def to_dict(self) -> dict:
        return {"status": "undecided", "nodes_explored": self.nodes_explored}


class _Search:
    """Deterministic depth-first branch-and-bound over task start vectors.

    ``memo`` maps each search state (tick, and per agent class the sorted
    agent states) to the best prefix score it was entered with.  A revisit
    that scores no better is cut: the earlier visit, first in exploration
    order, already explored an equally good completion or a permuted copy
    of one.  Agents of one colour are interchangeable unless fuel is
    modelled; reserve reasons name agents, so then each agent is its own
    class.  ``solve_all`` lists every solution and keeps no memo.
    """

    def __init__(self, cs: ConstraintSystem, node_cap: int, collect_all: int | None = None):
        self.cs = cs
        self.node_cap = node_cap
        self.nodes = 0
        self.capped = False
        self.best: tuple[float, Solution] | None = None
        self.collect_all = collect_all
        self.all: list[Solution] = []
        self.deepest = -1
        self.conflicts: set[str] = set()
        self.color_of = {a.id: a.color for a in cs.agents}
        self.agents_by_id = {a.id: a for a in cs.agents}
        self.durations = [cs.duration(b) for b in cs.bindings]
        self.memo: dict | None = {} if collect_all is None else None
        classes: dict[str, list[str]] = {}
        for a in cs.agents:
            classes.setdefault(a.color if cs.fuel is None else a.id, []).append(a.id)
        self.classes = tuple(classes.values())

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
        if self.collect_all is not None:
            return self.all
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
        if self.collect_all is not None:
            self.all.append(sol)
            return
        if self._better(score):
            self.best = (score, sol)

    def _prune(self, schedule, risk_log, t) -> bool:
        if self.collect_all is not None or self.best is None:
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
        if self.collect_all is not None and len(self.all) >= self.collect_all:
            return
        if self._prune(schedule, risk_log, t):
            return
        if self.memo is not None:
            key = [t]  # flat: every class has a fixed size and every state three fields
            for group in self.classes:
                for state in sorted((positions[a] or "", busy.get(a, ()),
                                     fuel[a] if fuel is not None else 0.0) for a in group):
                    key += state
            key = tuple(key)
            score = self._score(schedule, risk_log)
            seen = self.memo.get(key)
            if seen is not None and seen <= score:
                return
            self.memo[key] = score
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
            if self.capped:  # the result is settled: build no more children
                return
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


def solve(cs: ConstraintSystem, node_cap: int = DEFAULT_NODE_CAP):
    """Exact search; returns a Solution, Infeasible or Undecided.

    The exploration order is fixed: at every step the search tries waiting
    before starting tasks, and task subsets in ascending binding-index
    order.  Ties on the objective go to the first optimum found in that
    order, so results are reproducible run to run.  ``node_cap`` counts
    every state entered, memoised revisits included.
    """
    return _Search(cs, node_cap).run()


def solve_all(cs: ConstraintSystem, limit: int, node_cap: int = DEFAULT_NODE_CAP):
    """All feasible solutions in deterministic order, up to ``limit``."""
    return _Search(cs, node_cap, collect_all=limit).run()


# ---------------------------------------------------------------------------
# level changes


def _replay(template, agents, level: Level, steps: int, schedule) -> Solution | None:
    """Re-run a (start, binding) schedule tick by tick, keeping its order.

    None when some task finds an agent away from its source, or is still
    running at ``steps``.  Completions land at t + 1, exactly like the solver.
    """
    positions = {a.id: a.start for a in agents}
    busy: dict[str, tuple[int, str]] = {}
    markings = [TypeVector.of(positions)]
    for t in range(steps):
        for b in (b for s, b in schedule if s == t):
            for agent, src, dst in b.moves:
                if positions.get(agent) != src:
                    return None
                positions[agent] = None
                busy[agent] = (t + _duration(level, b), dst)
        for agent, (release, dst) in list(busy.items()):
            if release == t + 1:
                positions[agent] = dst
                del busy[agent]
        markings.append(TypeVector.of(positions))
    if busy:
        return None
    return Solution(
        level=level,
        steps=steps,
        template=template,
        agents=tuple(agents),
        schedule=tuple(schedule),
        markings=tuple(markings),
    )


def project(sol: Solution | CountsSolution, to_level: Level):
    """Coarsen a solution one or two levels; feasibility is re-checked."""
    if isinstance(sol, CountsSolution) or sol.level is Level.COUNTS:
        raise PlannerError("counts solutions are already the coarsest level")
    if to_level is Level.TIMED:
        raise PlannerError("project only coarsens (timed -> plan -> counts)")

    if sol.level is Level.TIMED:
        rank = {t: j for j, t in enumerate(sorted({t for t, _ in sol.schedule}))}
        schedule = sorted(((rank[t], b) for t, b in sol.schedule), key=lambda jb: jb[0])
        plan = _replay(sol.template, sol.agents, Level.PLAN, len(rank), schedule)
        if plan is None:
            raise PlannerError("projection produced an infeasible plan")
        if to_level is Level.PLAN:
            return plan
        sol = plan

    # plan -> counts
    color_of = {a.id: a.color for a in sol.agents}
    fleet: dict[str, int] = {}
    for a in sol.agents:
        fleet[a.color] = fleet.get(a.color, 0) + 1
    sched: dict[tuple[int, str], int] = {}
    for j, b in sol.schedule:
        sched[(j, b.name)] = sched.get((j, b.name), 0) + 1
    markings = tuple(
        tuple(sorted(tv.counts(color_of).items())) for tv in sol.markings
    )
    counts = CountsSolution(
        steps=sol.steps,
        template=sol.template,
        fleet=tuple(sorted(fleet.items())),
        schedule=tuple(sorted((t, n, k) for (t, n), k in sched.items())),
        markings=markings,
    )
    _check_counts_feasible(counts)
    return counts


def _check_counts_feasible(sol: CountsSolution) -> None:
    marking = {key: n for key, n in sol.markings[0]}
    for j in range(len(sol.markings) - 1):
        fired = [(name, k) for (t, name, k) in sol.schedule if t == j]
        need: dict[tuple[str, str], int] = {}
        delta: dict[tuple[str, str], int] = {}
        for name, k in fired:
            tr = sol.template.transition(name)
            for flow in tr.inputs:
                need[(flow.color, flow.place)] = need.get((flow.color, flow.place), 0) + k * flow.count
                delta[(flow.color, flow.place)] = delta.get((flow.color, flow.place), 0) - k * flow.count
            for flow in tr.outputs:
                delta[(flow.color, flow.place)] = delta.get((flow.color, flow.place), 0) + k * flow.count
        for key, n in need.items():
            if marking.get(key, 0) < n:
                raise PlannerError(f"counts trace infeasible at step {j}: needs {n} of {key}")
        for key, d in delta.items():
            marking[key] = marking.get(key, 0) + d
        marking = {k: v for k, v in marking.items() if v}
        if dict(sol.markings[j + 1]) != marking:
            raise PlannerError(f"counts trace inconsistent after step {j}")


@dataclass(frozen=True)
class LiftResult:
    solutions: tuple
    truncated: bool

    def __contains__(self, sol) -> bool:
        key = _schedule_key(sol)
        return any(_schedule_key(s) == key for s in self.solutions)


def _schedule_key(sol):
    if isinstance(sol, CountsSolution):
        return (Level.COUNTS, sol.schedule)
    return (
        sol.level,
        tuple(sorted((t, b.name, b.agents, b.moves) for t, b in sol.schedule)),
    )


def lift(
    coarse,
    to_level: Level,
    agents: Sequence[Agent] | None = None,
    horizon: int | None = None,
    cap: int = 10_000,
) -> LiftResult:
    """Enumerate finer solutions whose projection equals ``coarse``.

    counts -> plan needs the concrete fleet (``agents``); plan -> timed needs
    a ``horizon``.  Enumeration stops at ``cap`` solutions and reports
    truncation, so absence from a truncated result is inconclusive.
    """
    if to_level is Level.PLAN and isinstance(coarse, CountsSolution):
        if agents is None:
            raise PlannerError("lifting counts needs the agent fleet")
        return _lift_counts_to_plan(coarse, tuple(agents), cap)
    if to_level is Level.TIMED and isinstance(coarse, Solution) and coarse.level is Level.PLAN:
        if horizon is None:
            raise PlannerError("lifting a plan to the timed level needs a horizon")
        return _lift_plan_to_timed(coarse, horizon, cap)
    if to_level is Level.TIMED and isinstance(coarse, CountsSolution):
        if agents is None or horizon is None:
            raise PlannerError("lifting counts to timed needs agents and a horizon")
        plans = _lift_counts_to_plan(coarse, tuple(agents), cap)
        out: list[Solution] = []
        truncated = plans.truncated
        for plan in plans.solutions:
            lifted = _lift_plan_to_timed(plan, horizon, cap - len(out))
            out.extend(lifted.solutions)
            truncated = truncated or lifted.truncated
            if len(out) >= cap:
                truncated = True
                break
        return LiftResult(tuple(out), truncated)
    raise PlannerError(f"cannot lift {type(coarse).__name__} to {to_level.value}")


def _lift_counts_to_plan(counts: CountsSolution, agents: tuple[Agent, ...], cap: int) -> LiftResult:
    fleet: dict[str, int] = {}
    for a in agents:
        fleet[a.color] = fleet.get(a.color, 0) + 1
    if tuple(sorted(fleet.items())) != counts.fleet:
        raise PlannerError("fleet colors do not match the counts solution")
    bindings = enumerate_bindings(counts.template, agents)
    by_name: dict[str, list[TaskBinding]] = {}
    for b in bindings:
        by_name.setdefault(b.name, []).append(b)

    steps = len(counts.markings) - 1
    out: list[Solution] = []
    truncated = False

    def step_options(positions, j):
        """All ways to realize step j's transition multiset with agents."""
        fired = sorted((name, k) for (t, name, k) in counts.schedule if t == j)
        choices: list[list[list[TaskBinding]]] = []
        for name, k in fired:
            usable = [
                b
                for b in by_name.get(name, [])
                if all(positions.get(agent) == src for agent, src, _ in b.moves)
            ]
            sets = [
                list(combo)
                for combo in itertools.combinations(usable, k)
                if _disjoint(combo)
            ]
            choices.append(sets)
        for combo in itertools.product(*choices):
            batch = [b for group in combo for b in group]
            if _disjoint(batch):
                yield batch

    def walk(j, positions, batches):
        nonlocal truncated
        if len(out) >= cap:
            truncated = True
            return
        if j == steps:
            schedule = [(k, b) for k, batch in enumerate(batches) for b in batch]
            plan = _replay(counts.template, agents, Level.PLAN, steps, schedule)
            if plan is not None and _counts_match(plan, counts):
                out.append(plan)
            return
        for batch in step_options(positions, j):
            next_pos = dict(positions)
            for b in batch:
                for agent, _, dst in b.moves:
                    next_pos[agent] = dst
            walk(j + 1, next_pos, batches + [batch])

    walk(0, {a.id: a.start for a in agents}, [])
    return LiftResult(tuple(out), truncated)


def _disjoint(batch) -> bool:
    seen: set[str] = set()
    for b in batch:
        for agent in b.agents:
            if agent in seen:
                return False
            seen.add(agent)
    return True


def _counts_match(plan: Solution, counts: CountsSolution) -> bool:
    return project(plan, Level.COUNTS).schedule == counts.schedule


def _lift_plan_to_timed(plan: Solution, horizon: int, cap: int) -> LiftResult:
    """Choose strictly increasing start times for each batch of the plan."""
    batches: dict[int, list[TaskBinding]] = {}
    for j, b in plan.schedule:
        batches.setdefault(j, []).append(b)
    ordered = [batches[j] for j in sorted(batches)]

    out: list[Solution] = []
    truncated = False

    def choose(j: int, earliest: int, starts: list[int]):
        nonlocal truncated
        if len(out) >= cap:
            truncated = True
            return
        if j == len(ordered):
            schedule = sorted(
                ((starts[k], b) for k, batch in enumerate(ordered) for b in batch),
                key=lambda tb: (tb[0], tb[1].tindex, tb[1].agents),
            )
            sol = _replay(plan.template, plan.agents, Level.TIMED, horizon, schedule)
            if sol is not None and _schedule_key(project(sol, Level.PLAN)) == _schedule_key(plan):
                out.append(sol)
            return
        max_d = max(b.duration for b in ordered[j])
        for t in range(earliest, horizon - max_d + 1):
            choose(j + 1, t + 1, starts + [t])

    choose(0, 0, [])
    return LiftResult(tuple(out), truncated)


# ---------------------------------------------------------------------------
# scenario JSON


@dataclass(frozen=True)
class PlanScenario:
    agents: tuple[Agent, ...]
    horizon: int
    objective: str
    goal: Mapping[tuple[str, str], int]
    fuel: FuelSpec | None
    risk: RiskSpec | None


def parse_plan_scenario(data: Mapping | str) -> PlanScenario:
    """Parse the planning scenario JSON dialect.

    Shape::

        {"version": 1,
         "agents": [{"id": "u1", "color": "uh60", "start": "a",
                     "fuel_init": 8, "fuel_max": 10, "fuel_min": 2}],
         "horizon": 6,
         "objective": "min_makespan",
         "goal": {"d": {"uh60": 2}},
         "fuel": {"burn_rates": {"uh60": {"c": 1}},
                  "task_costs": {"t1": {"uh60": 2}},
                  "refuel": {"t3": ["uh60"]},
                  "literal_update": false},
         "risk": {"place_factors": {"uh60": {"c": 0.99}},
                  "transition_factors": {"t4": 0.9}}}
    """
    data = _read.document("scenario", data)
    _read.only("scenario", data, ("version", "agents", "horizon", "objective", "goal", "fuel", "risk"))
    horizon = _read.key("scenario", data, "horizon", "integer")
    if horizon < 0:
        raise PlannerError(f"scenario: \"horizon\" must be an integer >= 0, got {horizon!r}")
    agents = []
    for i, raw in enumerate(_read.key("scenario", data, "agents", "list", [])):
        for key in ("id", "color", "start"):
            if not isinstance(raw, Mapping) or key not in raw:
                raise PlannerError(f"scenario: agent {i} has no {key!r}")
        where = f"scenario.agents[{i}]"
        _read.only(where, raw, ("id", "color", "start", "fuel_init", "fuel_max", "fuel_min"))
        agents.append(
            Agent(
                id=_read.typed(f"{where}.id", raw["id"], "string"),
                color=_read.typed(f"{where}.color", raw["color"], "string"),
                start=_read.typed(f"{where}.start", raw["start"], "string"),
                fuel_init=float(_read.key(where, raw, "fuel_init", "number", 0.0)),
                fuel_max=float(_read.key(where, raw, "fuel_max", "number", 0.0)),
                fuel_min=float(_read.key(where, raw, "fuel_min", "number", 0.0)),
            )
        )
    goal = {}
    raw_goal = _read.key("scenario", data, "goal", "object", {})
    for place in raw_goal:
        for color, count in _read.key("scenario.goal", raw_goal, place, "object").items():
            where = f"scenario.goal.{place}.{color}"
            if _read.typed(where, count, "integer") < 0:
                raise PlannerError(f"{where}: goal counts must be >= 0, got {count}")
            goal[(place, color)] = count
    fuel = None
    if "fuel" in data:
        raw = _read.key("scenario", data, "fuel", "object")
        where = "scenario.fuel"
        _read.only(where, raw, ("burn_rates", "task_costs", "refuel", "literal_update"))
        burn = _read.key(where, raw, "burn_rates", "object", {})
        costs = _read.key(where, raw, "task_costs", "object", {})
        refuel = _read.key(where, raw, "refuel", "object", {})
        for t in costs:  # task costs keep their JSON numbers, as the LP prints them
            for color, cost in _read.key(f"{where}.task_costs", costs, t, "object").items():
                _read.typed(f"{where}.task_costs.{t}.{color}", cost, "number")
        fuel = FuelSpec(
            burn_rates={
                (color, place): rate
                for color in burn
                for place, rate in _read.numbers(f"{where}.burn_rates", burn, color).items()
            },
            task_costs=costs,
            refuel={t: tuple(_read.strings(f"{where}.refuel", refuel, t)) for t in refuel},
            literal_update=_read.key(where, raw, "literal_update", "boolean", False),
        )
    risk = None
    if "risk" in data:
        raw = _read.key("scenario", data, "risk", "object")
        where = "scenario.risk"
        _read.only(where, raw, ("place_factors", "transition_factors"))
        places = _read.key(where, raw, "place_factors", "object", {})
        risk = RiskSpec(
            place_factors={
                (color, place): x
                for color in places
                for place, x in _read.numbers(f"{where}.place_factors", places, color).items()
            },
            transition_factors=_read.numbers(where, raw, "transition_factors", {}),
        )
    objective = _read.key("scenario", data, "objective", "string", "feasible")
    if objective not in OBJECTIVES:
        raise PlannerError(f"unknown objective {objective!r}")
    if objective == "max_survival" and risk is None:
        raise PlannerError("max_survival objective needs risk semantics")
    return PlanScenario(
        agents=tuple(agents),
        horizon=horizon,
        objective=objective,
        goal=goal,
        fuel=fuel,
        risk=risk,
    )


def compile_scenario(template: TaskingTemplate, scenario: PlanScenario, level: Level = Level.TIMED) -> ConstraintSystem:
    cs = _compile(level, template, scenario.agents, scenario.horizon, scenario.goal, scenario.objective)
    if scenario.fuel is not None:
        cs = add_fuel_semantics(cs, scenario.fuel)
    if scenario.risk is not None:
        cs = add_risk_semantics(cs, scenario.risk)
    return cs
