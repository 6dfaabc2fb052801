"""Golden envelopes for ``operadic --json analyze soundness``,
``operadic --json plan`` and ``operadic --json plan --export-lp``, and golden
``--help`` texts.

The ``plan`` cases solve scenarios on the rescue tasking net: the rescue
fixture at the timed and plan levels, under ``feasible`` at the plan level,
and with ``--node-cap 5`` (undecided); the refuel fleet at the timed level
(solved, with a fuel trace) and with a horizon of 4 (infeasible, with a
reserve and a goal conflict at step 4); and the survival fixture at both
levels.

Each case runs the command in process, in a temporary directory that holds
its inputs under fixed relative names, so the envelope's ``inputs`` keys do
not depend on where the checkout lives.  ``timing_s`` is the one field that
changes between reruns; it is dropped before the envelope is stored.  A case
whose envelope runs to megabytes stores only its SHA-256 and a few counts.
An export's envelope already carries the SHA-256 of the LP file it wrote.
A help text is stored as printed for an 80-column terminal.

Usage, from the root of the repository::

    python tests/golden/regen.py [--check] [CASE ...]

With no case names every golden file is rewritten; named cases rewrite only
their own files.  ``--check`` writes nothing: it prints the unified diff of
every case that differs from its file and exits 1 if any does.  The tier-1
test ``tests/test_golden.py`` compares the command's output against the
files.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable
from unittest import mock

HERE = Path(__file__).parent
DATA = HERE.parent / "data"
SRC = HERE.parents[1] / "src"


def _seeded_unsound(seed: int = 17) -> dict:
    """Requirements on ``flat_functional`` with 5,832 valid states, 3,888 of
    them listed as counterexamples.

    The grid has two values for ``beam`` and ``focus`` and three for every
    other space.  The components pin the box temperature and the bath set
    point to one value each and the chassis drive to two; the two outer
    requirements each admit two of the three ``signal`` and ``temperature``
    values, so a state may break one, the other or both.
    """
    rng = random.Random(seed)
    sizes = {"beam": 2, "signal": 3, "focus": 2, "drive": 3, "count": 3,
             "heat": 3, "temperature": 3, "flow": 3}
    grid = {space: sorted(round(rng.uniform(0.0, 5.0), 3) for _ in range(n))
            for space, n in sizes.items()}

    def spans(space: str, n: int) -> list[list[float]]:
        return [[v - 1e-4, v + 1e-4] for v in sorted(rng.sample(grid[space], n))]

    return {
        "version": 1,
        "components": [
            {"boundary": "Box", "name": "box_temp", "intervals": {"temp": spans("temperature", 1)}},
            {"boundary": "Bath", "name": "bath_set_point", "intervals": {"setPt": spans("temperature", 1)}},
            {"boundary": "Chassis", "name": "chassis_drive", "intervals": {"drive": spans("drive", 2)}},
        ],
        "outer": [
            {"boundary": "LSI", "name": "lsi_lab_temp", "intervals": {"temp1": spans("temperature", 2)}},
            {"boundary": "LSI", "name": "lsi_intensity", "intervals": {"intensity": spans("signal", 2)}},
        ],
        "grid": grid,
    }


def _lab_temp_tight() -> dict:
    """The shipped requirements with the outer band narrowed to the lab
    temperature at exactly 20.0: 16 of the 24 valid states break it."""
    data = json.loads((DATA / "lsi_requirements.json").read_text())
    data["outer"] = [
        {"boundary": "LSI", "name": "lab_temp_tight", "intervals": {"temp1": [[20.0, 20.0]]}}
    ]
    return data


def _rescue() -> dict:
    return json.loads((DATA / "rescue_scenario.json").read_text())


def _refuel() -> dict:
    """The rescue fixture with an ``hc130`` that refuels both ``uh60``s at
    ``c``, fractional burn rates and costs, and a fuel reserve."""
    data = _rescue()
    data["agents"] = [
        {"id": "u1", "color": "uh60", "start": "a", "fuel_init": 6, "fuel_max": 10, "fuel_min": 1.5},
        {"id": "u2", "color": "uh60", "start": "b", "fuel_init": 8.25, "fuel_max": 10, "fuel_min": 1.5},
        {"id": "h1", "color": "hc130", "start": "c", "fuel_init": 40, "fuel_max": 40, "fuel_min": 0},
    ]
    data["fuel"] = {
        "burn_rates": {"uh60": {"a": 0.1, "b": 0.5, "c": 1.25}, "hc130": {"c": 1e-05}},
        "task_costs": {"t1": {"uh60": 2.5}, "t3": {"hc130": 3}, "t4": {"uh60": 2}},
        "refuel": {"t3": ["uh60"]},
    }
    return data


def _survival() -> dict:
    """The rescue fixture under ``max_survival``, with place and task risks."""
    data = _rescue()
    data["objective"] = "max_survival"
    data["risk"] = {
        "place_factors": {"uh60": {"a": 0.995, "b": 0.99, "c": 0.97, "d": 1.0}},
        "transition_factors": {"t1": 0.98, "t4": 0.9},
    }
    return data


def _seeded_fleet(seed: int = 23) -> dict:
    """Fourteen ``uh60`` at ``a`` or ``b`` and one ``hc130`` at ``c``, with
    seeded initial fuel, over a horizon of 12 ticks."""
    rng = random.Random(seed)
    agents = [
        {"id": f"u{i:02d}", "color": "uh60", "start": rng.choice("ab"),
         "fuel_init": rng.choice([4, 5.5, 7, 8.5, 10]), "fuel_max": 10, "fuel_min": 2}
        for i in range(14)
    ]
    agents.append({"id": "h00", "color": "hc130", "start": "c",
                   "fuel_init": 10, "fuel_max": 10, "fuel_min": 0})
    return {
        "version": 1,
        "agents": agents,
        "horizon": 12,
        "objective": "min_makespan",
        "goal": {"d": {"uh60": rng.randint(2, 14)}},
        "fuel": {
            "burn_rates": {"uh60": {"a": 0.5, "b": 0.5, "c": 1}},
            "task_costs": {"t1": {"uh60": 2}, "t4": {"uh60": 2}},
            "refuel": {"t3": ["uh60"]},
        },
    }


def envelope(files: dict[str, str], argv: list[str]) -> str:
    """The ``--json`` envelope of ``operadic`` run on ``argv`` in a temporary
    directory that holds ``files``, minus ``timing_s``, as the command prints it."""
    from operadic.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out = io.StringIO()
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                main(["--json", *argv])
        finally:
            os.chdir(cwd)
    doc = json.loads(out.getvalue())
    del doc["timing_s"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def soundness(requirements_text: str) -> str:
    """``analyze soundness`` of ``flat_functional`` against ``requirements_text``."""
    files = {"lsi_wiring.json": (DATA / "lsi_wiring.json").read_text(),
             "requirements.json": requirements_text}
    return envelope(files, ["analyze", "soundness", "lsi_wiring.json",
                            "flat_functional", "requirements.json"])


def export(scenario: dict, level: str) -> str:
    """``plan --export-lp`` of ``scenario`` on the rescue tasking net at ``level``."""
    files = {"rescue_tasking.json": (DATA / "rescue_tasking.json").read_text(),
             "scenario.json": json.dumps(scenario, indent=2)}
    return envelope(files, ["plan", "rescue_tasking.json", "scenario.json",
                            "--level", level, "--export-lp", "model.lp"])


def plan(scenario: dict, level: str, *extra: str) -> str:
    """``plan`` of ``scenario`` on the rescue tasking net at ``level``, solved,
    with ``extra`` flags after the level."""
    files = {"rescue_tasking.json": (DATA / "rescue_tasking.json").read_text(),
             "scenario.json": json.dumps(scenario, indent=2)}
    return envelope(files, ["plan", "rescue_tasking.json", "scenario.json",
                            "--level", level, *extra])


def help_text(argv: list[str]) -> str:
    """``operadic ARGV --help`` as printed for an 80-column terminal."""
    from operadic.cli import main

    out = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out):
        main([*argv, "--help"])
    return out.getvalue()


def digest(text: str) -> str:
    """The SHA-256 of a soundness envelope, with its verdict and counts."""
    report = json.loads(text)["report"]
    summary = {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "sound": report["sound"],
        "checked": report["checked"],
        "counterexamples": len(report["counterexamples"]),
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


# golden file name -> makes the text stored in it
CASES: dict[str, Callable[[], str]] = {
    "soundness_fixture.json": lambda: soundness((DATA / "lsi_requirements.json").read_text()),
    "soundness_lab_temp_tight.json": lambda: soundness(json.dumps(_lab_temp_tight(), indent=2)),
    "soundness_seeded_unsound.json": lambda: digest(soundness(json.dumps(_seeded_unsound(), indent=2))),
    "export_rescue_timed.json": lambda: export(_rescue(), "timed"),
    "export_rescue_plan.json": lambda: export(_rescue(), "plan"),
    "export_refuel_timed.json": lambda: export(_refuel(), "timed"),
    "export_survival_timed.json": lambda: export(_survival(), "timed"),
    "export_seeded_fleet_timed.json": lambda: export(_seeded_fleet(), "timed"),
    "plan_rescue_timed.json": lambda: plan(_rescue(), "timed"),
    "plan_rescue_plan.json": lambda: plan(_rescue(), "plan"),
    "plan_refuel_timed.json": lambda: plan(_refuel(), "timed"),
    "plan_survival_timed.json": lambda: plan(_survival(), "timed"),
    "plan_survival_plan.json": lambda: plan(_survival(), "plan"),
    "plan_rescue_feasible_plan.json": lambda: plan({**_rescue(), "objective": "feasible"}, "plan"),
    "plan_refuel_h4_timed.json": lambda: plan({**_refuel(), "horizon": 4}, "timed"),
    "plan_rescue_cap5_timed.json": lambda: plan(_rescue(), "timed", "--node-cap", "5"),
    "help_operadic.txt": lambda: help_text([]),
    "help_plan.txt": lambda: help_text(["plan"]),
    "help_synthesize.txt": lambda: help_text(["synthesize"]),
}


def golden(name: str) -> str:
    """The text stored for the case ``name``."""
    return CASES[name]()


def diff(name: str, want: str, got: str) -> str:
    """The unified diff from the golden file ``name`` to the text made now."""
    return "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        fromfile=f"golden/{name}", tofile="now",
    ))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="regenerate or check the golden envelopes")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; print the diff of each stale file and exit 1 if any")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help="golden file names (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown cases {unknown}; known: {', '.join(CASES)}")
    stale = 0
    for name in args.cases or CASES:
        got = golden(name)
        if args.check:
            path = HERE / name
            want = path.read_text() if path.exists() else ""
            if got != want:
                stale += 1
                print(diff(name, want, got), end="")
        else:
            (HERE / name).write_text(got)
            print(f"wrote {HERE / name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
