import itertools
import math
import random
import time
from pathlib import Path

import pytest

from operadic.wiring import (
    Boundary,
    Port,
    Requirement,
    WiringError,
    WiringOp,
    diagrams_equal,
    joint_validity,
    load_requirements_bundle,
    load_wiring_bundle,
    nest,
    parse_wiring_bundle,
    soundness_check,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def lsi():
    return load_wiring_bundle(DATA / "lsi_wiring.json")


@pytest.fixture(scope="module")
def lsi_reqs():
    return load_requirements_bundle(DATA / "lsi_requirements.json")


def test_layer_wire_counts(lsi):
    assert len(lsi["f"].wires) == 8
    assert len(lsi["l"].wires) == 5
    assert len(lsi["t"].wires) == 7
    assert len(lsi["g"].wires) == 10
    assert len(lsi["s"].wires) == 8
    assert len(lsi["a"].wires) == 7


def test_flattenings_agree(lsi):
    flat_f = lsi["flat_functional"]
    flat_g = lsi["flat_control"]
    assert len(flat_f.wires) == 11
    result = diagrams_equal(flat_f, flat_g)
    assert result.equal, result.witness

    # frozen expected classes of the flattened diagram
    want = {
        frozenset({("Box", "laser"), ("Chassis", "laser"), ("Intfr", "laser")}),
        frozenset({("Chassis", "intensity"), ("Optics", "intensity"), ("LSI", "intensity")}),
        frozenset({("Chassis", "focus"), ("Optics", "focus")}),
        frozenset({("Chassis", "drive"), ("LSI", "drive")}),
        frozenset({("Intfr", "fringe"), ("LSI", "fringe")}),
        frozenset({("Lab", "heat"), ("Box", "heat1")}),
        frozenset({("Box", "heat2"), ("Bath", "heat")}),
        frozenset({("Lab", "temp"), ("LSI", "temp1")}),
        frozenset({("Box", "temp"), ("LSI", "temp2")}),
        frozenset({("Bath", "setPt"), ("LSI", "setPt")}),
        frozenset({("Bath", "h2o"), ("LSI", "h2o")}),
    }
    assert set(flat_f.wires) == want


def test_one_wire_perturbation_flips_verdict(lsi):
    flat = lsi["flat_functional"]
    # split the laser wire: detach Box.laser into its own class
    laser = next(w for w in flat.wires if ("Intfr", "laser") in w)
    rest = [w for w in flat.wires if w is not laser]
    perturbed = WiringOp(
        flat.outer,
        flat.inner,
        tuple(rest) + (laser - {("Box", "laser")}, frozenset({("Box", "laser")})),
    )
    verdict = diagrams_equal(perturbed, lsi["flat_control"])
    assert not verdict.equal
    assert "laser" in verdict.witness


def test_permuted_inner_listing_is_equal(lsi):
    flat = lsi["flat_functional"]
    shuffled = WiringOp(flat.outer, tuple(reversed(flat.inner)), flat.wires)
    assert diagrams_equal(flat, shuffled).equal


def test_nest_checks_port_compatibility(lsi):
    with pytest.raises(WiringError) as err:
        nest(lsi["f"], [lsi["t"], lsi["l"]])  # swapped slots
    assert "slot 0" in str(err.value)


def test_nest_arity_checked(lsi):
    with pytest.raises(WiringError):
        nest(lsi["f"], [lsi["l"]])


def toy_boundary(name, *ports):
    return Boundary(name, tuple(Port(p, s) for p, s in ports))


def test_nest_associativity():
    a = toy_boundary("A", ("x", "v"))
    b = toy_boundary("B", ("x", "v"))
    c = toy_boundary("C", ("x", "v"))
    d = toy_boundary("D", ("x", "v"), ("y", "v"))
    e = toy_boundary("E", ("y", "v"))
    f1 = WiringOp(a, (b,), (frozenset({("A", "x"), ("B", "x")}),))
    f2 = WiringOp(b, (c,), (frozenset({("B", "x"), ("C", "x")}),))
    f3 = WiringOp(
        c,
        (d, e),
        (
            frozenset({("C", "x"), ("D", "x")}),
            frozenset({("D", "y"), ("E", "y")}),
        ),
    )
    left = nest(nest(f1, [f2]), [f3])
    right = nest(f1, [nest(f2, [f3])])
    assert diagrams_equal(left, right).equal
    assert set(left.wires) == {
        frozenset({("A", "x"), ("D", "x")}),
        frozenset({("D", "y"), ("E", "y")}),
    }


def test_wire_validation():
    a = toy_boundary("A", ("x", "v"))
    b = toy_boundary("B", ("x", "v"), ("y", "w"))
    with pytest.raises(WiringError, match="not covered"):
        WiringOp(a, (b,), (frozenset({("A", "x"), ("B", "x")}),))
    with pytest.raises(WiringError, match="mixes value spaces"):
        WiringOp(
            a,
            (b,),
            (
                frozenset({("A", "x"), ("B", "y")}),
                frozenset({("B", "x")}),
            ),
        )
    with pytest.raises(WiringError, match="two wires"):
        WiringOp(
            a,
            (b,),
            (
                frozenset({("A", "x"), ("B", "x")}),
                frozenset({("B", "x"), ("B", "y")}),
            ),
        )


def test_lint_flags_in_in_wiring():
    left = Boundary("L", (Port("sig", "v", "in"),))
    right = Boundary("R", (Port("sig", "v", "in"),))
    outer = Boundary("O", (Port("sig", "v", "bi"),))
    op = WiringOp(
        outer,
        (left, right),
        (
            frozenset({("L", "sig"), ("R", "sig")}),
            frozenset({("O", "sig")}),
        ),
    )
    notes = op.lint()
    assert len(notes) == 1 and "in" in notes[0]


def test_joint_validity_counts(lsi, lsi_reqs):
    comps, outer, grid = lsi_reqs
    flat = lsi["flat_functional"]
    result = joint_validity(flat, comps, grid)
    # free wires: signal x heat1 x heat2 x temp_lab = 2*2*2*3; box temp and
    # setpoint are pinned to 20.0 by the component bands
    assert result.count == 24
    box_temp = result.labels.index("Box.temp")
    set_pt = result.labels.index("Bath.setPt")
    assert {s[box_temp] for s in result.states} == {20.0}
    assert {s[set_pt] for s in result.states} == {20.0}


def test_temperature_band_on_grid():
    # one-wire diagram: the band [19.98, 20.02] picks exactly 20.0 from the grid
    inner = toy_boundary("Sensor", ("temp", "temperature"))
    outer = toy_boundary("Out", ("temp", "temperature"))
    op = WiringOp(outer, (inner,), (frozenset({("Out", "temp"), ("Sensor", "temp")}),))
    req = Requirement("Sensor", "band", {"temp": [(19.98, 20.02)]})
    result = joint_validity(op, [req], {"temperature": [19.9, 20.0, 20.1]})
    assert result.states == ((20.0,),)


def test_missing_grid_space_reported(lsi, lsi_reqs):
    comps, _, grid = lsi_reqs
    broken = {k: v for k, v in grid.items() if k != "heat"}
    with pytest.raises(WiringError) as err:
        joint_validity(lsi["flat_functional"], comps, broken)
    assert "heat" in str(err.value)


def test_requirement_unknown_port_rejected(lsi, lsi_reqs):
    _, _, grid = lsi_reqs
    bad = Requirement("Box", "nope", {"pressure": [(0.0, 1.0)]})
    with pytest.raises(WiringError):
        joint_validity(lsi["flat_functional"], [bad], grid)


def test_soundness_holds_for_shipped_bundle(lsi, lsi_reqs):
    comps, outer, grid = lsi_reqs
    report = soundness_check(lsi["flat_functional"], comps, outer, grid)
    assert report.sound and report.checked == 24 and not report.counterexamples


def test_soundness_counterexamples_reported(lsi, lsi_reqs):
    comps, _, grid = lsi_reqs
    strict = [Requirement("LSI", "lab_temp_tight", {"temp1": [(20.0, 20.0)]})]
    report = soundness_check(lsi["flat_functional"], comps, strict, grid)
    assert not report.sound
    assert report.checked == 24
    # temp_lab ranges over three grid points; two of three states violate
    assert len(report.counterexamples) == 16
    state, violated = report.counterexamples[0]
    assert violated == "lab_temp_tight"
    assert state["LSI.temp1"] in (19.9, 20.1)  # the Lab.temp wire, by its label


def test_outer_requirement_must_name_outer_boundary(lsi, lsi_reqs):
    comps, _, grid = lsi_reqs
    with pytest.raises(WiringError):
        soundness_check(
            lsi["flat_functional"], comps, [Requirement("Box", "x", {"temp": [(0, 1)]})], grid
        )


def outer_states(op, validity):
    """Project enumerated internal states to the outer boundary's ports."""
    ports = sorted(p.name for p in op.outer.ports)
    wire_index = {}
    for port in ports:
        wire = op.wire_of((op.outer.name, port))
        wire_index[port] = list(op.wires).index(wire)
    return {tuple(state[wire_index[p]] for p in ports) for state in validity.states}


def test_two_level_entailment_matches_flattened(lsi, lsi_reqs):
    """Oracle: chaining validity through subsystem boundaries equals the
    flattened computation, projected to the outer boundary."""
    comps, _, grid = lsi_reqs
    by_boundary = {}
    for req in comps:
        by_boundary.setdefault(req.boundary, []).append(req)

    # level 1: valid outer states of each subsystem
    allowed = {}
    for name in ("l", "t"):
        sub = lsi[name]
        sub_reqs = [r for b in [x.name for x in sub.inner] for r in by_boundary.get(b, [])]
        allowed[sub.outer.name] = outer_states(sub, joint_validity(sub, sub_reqs, grid))

    # level 2: states of f whose mid-boundary projections are attainable
    f = lsi["f"]
    f_all = joint_validity(f, [], grid)
    chained = set()
    outer_ports = sorted(p.name for p in f.outer.ports)
    for state in f_all.states:
        values = dict(zip(f_all.labels, state))

        def boundary_tuple(b):
            return tuple(
                values[f.wire_label(f.wire_of((b.name, p.name)))]
                for p in sorted(b.ports, key=lambda p: p.name)
            )

        if all(boundary_tuple(b) in allowed[b.name] for b in f.inner):
            chained.add(
                tuple(values[f.wire_label(f.wire_of((f.outer.name, p)))] for p in outer_ports)
            )

    flat = lsi["flat_functional"]
    direct = outer_states(flat, joint_validity(flat, comps, grid))
    assert chained == direct


def test_bundle_rejects_unknown_boundary():
    with pytest.raises(WiringError):
        parse_wiring_bundle(
            {
                "version": 1,
                "boundaries": {},
                "operations": {"f": {"outer": "X", "inner": [], "wires": []}},
            }
        )


# ---------------------------------------------------------------------------
# brute-force reference for the requirements layer


def reference_soundness(op, comps, outer, grid):
    """Brute force: test every state of the full grid product against whole
    requirements.  Returns (labels, valid states, ordered counterexamples).
    """
    wires = list(op.wires)
    labels = tuple(op.wire_label(w) for w in wires)

    def admits(req, state):
        boundary = op.boundary(req.boundary)
        return all(
            any(lo <= state[wires.index(op.wire_of((boundary.name, port)))] <= hi for lo, hi in spans)
            for port, spans in req.intervals.items()
        )

    samples = [tuple(grid[op.wire_space(w)]) for w in wires]
    valid = tuple(s for s in itertools.product(*samples) if all(admits(r, s) for r in comps))
    counterexamples = tuple(
        (dict(zip(labels, s)), r.name) for s in valid for r in outer if not admits(r, s)
    )
    return labels, valid, counterexamples


GRID_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0)


def random_requirement(rng, boundary, name):
    ports = rng.sample([p.name for p in boundary.ports], rng.randint(1, min(2, len(boundary.ports))))
    intervals = {}
    for port in ports:
        spans = []
        for _ in range(rng.randint(1, 2)):
            lo = round(rng.uniform(-2.0, 1.5), 1)
            spans.append((lo, round(lo + rng.uniform(1.0, 4.0), 1)))
        intervals[port] = spans
    return Requirement(boundary.name, name, intervals)


def random_instance(rng, ops, max_states=1500):
    """A diagram from the LSI bundle, a small grid and 0-4 requirements of each kind."""
    op = ops[rng.choice(sorted(ops))]
    spaces = sorted({op.wire_space(w) for w in op.wires})
    # duplicates and unsorted values are allowed: order must survive filtering
    grid = {s: rng.choices(GRID_VALUES, k=rng.randint(1, 3)) for s in spaces}
    while True:
        size = {s: len(v) for s, v in grid.items()}
        if math.prod(size[op.wire_space(w)] for w in op.wires) <= max_states:
            break
        biggest = max(spaces, key=lambda s: (size[s], s))
        grid[biggest] = grid[biggest][:-1]
    boundaries = (op.outer,) + op.inner
    comps = [
        random_requirement(rng, rng.choice(boundaries), f"c{i}") for i in range(rng.randint(0, 4))
    ]
    outer = [random_requirement(rng, op.outer, f"o{i}") for i in range(rng.randint(0, 4))]
    return op, comps, outer, grid


def test_requirements_layer_matches_brute_force_reference(lsi):
    rng = random.Random(20240605)
    nonempty = unsound = 0
    for _ in range(220):
        op, comps, outer, grid = random_instance(rng, lsi)
        labels, valid, counterexamples = reference_soundness(op, comps, outer, grid)
        joint = joint_validity(op, comps, grid)
        assert joint.labels == labels
        assert joint.states == valid
        report = soundness_check(op, comps, outer, grid)
        assert report.checked == len(valid)
        assert report.counterexamples == counterexamples
        assert report.sound == (not counterexamples)
        nonempty += bool(valid)
        unsound += not report.sound
    # the generator must reach both verdicts on non-empty valid sets
    assert nonempty > 80 and 20 < unsound < nonempty - 20


# ---------------------------------------------------------------------------
# soundness decided per wire: edge cases


def test_empty_filtered_wire_checks_no_state(lsi, lsi_reqs):
    comps, _, grid = lsi_reqs
    # no grid temperature lies in the bath's band, so its wire admits nothing,
    # while the outer requirement rejects values of other wires
    empty = [*comps, Requirement("Bath", "bath_cold", {"setPt": [(0.0, 1.0)]})]
    report = soundness_check(lsi["flat_functional"], empty, [
        Requirement("LSI", "lsi_no_signal", {"intensity": [(5.0, 6.0)]})
    ], grid)
    assert report.sound and report.checked == 0 and not report.counterexamples


def test_outer_requirement_with_two_ports_on_one_wire():
    # outer ports a and b share one wire with S.x
    outer = toy_boundary("O", ("a", "v"), ("b", "v"))
    inner = toy_boundary("S", ("x", "v"))
    op = WiringOp(outer, (inner,), (frozenset({("O", "a"), ("O", "b"), ("S", "x")}),))
    req = Requirement("O", "a_low_b_high", {"a": [(0.0, 1.0)], "b": [(1.0, 2.0)]})
    grid = {"v": [0.0, 1.0, 2.0]}
    report = soundness_check(op, [], [req], grid)
    # 0.0 breaks b and 2.0 breaks a; each state is listed once
    assert report.checked == 3
    assert report.counterexamples == (
        ({"O.a": 0.0}, "a_low_b_high"),
        ({"O.a": 2.0}, "a_low_b_high"),
    )
    assert report.counterexamples == reference_soundness(op, [], [req], grid)[2]


def test_duplicate_grid_values_are_distinct_states(lsi, lsi_reqs):
    comps, _, grid = lsi_reqs
    grid = {**grid, "signal": [1.0, 0.0, 1.0]}
    outer = [
        Requirement("LSI", "lsi_signal_low", {"intensity": [(0.0, 0.5)]}),
        Requirement("LSI", "lsi_lab_warm", {"temp1": [(20.0, 20.2)]}),
    ]
    op = lsi["flat_functional"]
    report = soundness_check(op, comps, outer, grid)
    _, valid, counterexamples = reference_soundness(op, comps, outer, grid)
    assert report.checked == len(valid) == 36
    assert report.counterexamples == counterexamples
    assert sum(state["Chassis.intensity"] == 1.0 for state, _ in counterexamples) > 0


def test_sound_grid_of_five_to_the_eleventh_is_decided_per_wire(lsi):
    op = lsi["flat_functional"]
    grid = {op.wire_space(w): [0.0, 1.0, 2.0, 3.0, 4.0] for w in op.wires}
    outer = [Requirement("LSI", "lsi_in_range", {"temp1": [(0.0, 4.0)], "h2o": [(-1.0, 5.0)]})]
    started = time.perf_counter()
    report = soundness_check(op, [], outer, grid)
    elapsed = time.perf_counter() - started
    assert report.sound and report.checked == 5**11 == 48_828_125
    assert elapsed < 0.5, f"a sound 5^11 grid took {elapsed:.3f} s"
