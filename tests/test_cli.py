"""End-to-end command line tests: exit codes, stdout discipline, reports."""

import argparse
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from operadic import cli
from operadic.cli import main
from operadic.lp import parse_lp, write_lp

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"

HELO_SCRIPT = """\
# helicopter with two quadcopters aboard
type helo qd qd
lift1 = edge carrying 1 0
lift2 = edge carrying 2 0
loaded = overlay lift1 lift2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


class TestFraming:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == "operadic 0.1.0"

    def test_missing_arguments_exit_1_and_keep_stdout_clean(self, capsys):
        code, out, err = run(capsys, "plan")
        assert code == 1
        assert out == ""
        assert "template" in err

    def test_json_mode_emits_exactly_one_document(self, capsys):
        code, out, _ = run(capsys, "--json", "validate", "catalog", str(DATA / "sailboat_catalog.json"))
        assert code == 0
        doc = json.loads(out)  # would raise on trailing junk
        assert doc["ok"] is True
        assert doc["command"] == "validate"
        assert doc["version"] == "0.1.0"
        assert doc["timing_s"] >= 0

    def test_default_mode_keeps_stdout_clean(self, capsys):
        code, out, err = run(capsys, "validate", "catalog", str(DATA / "sailboat_catalog.json"))
        assert code == 0
        assert out == ""
        assert "valid catalog" in err

    def test_reports_identical_modulo_timing(self, capsys):
        argv = ("analyze", "failure", str(DATA / "lsi_failure_functional.json"))
        _, first, _ = run_json(capsys, *argv)
        _, second, _ = run_json(capsys, *argv)
        first.pop("timing_s")
        second.pop("timing_s")
        assert first == second

    def test_inputs_carry_file_digests(self, capsys):
        path = DATA / "sailboat_catalog.json"
        _, doc, _ = run_json(capsys, "validate", "catalog", str(path))
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["inputs"] == {str(path): want}

    def test_input_errors_report_in_json_mode(self, capsys):
        code, out, err = run(
            capsys, "--json", "validate", "catalog", str(DATA / "rescue_tasking.json")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "assets" in doc["error"]
        assert "invalid input" in err


class TestValidate:
    @pytest.mark.parametrize(
        "kind,name",
        [
            ("network-template", "sailboat_template.json"),
            ("tasking-template", "rescue_tasking.json"),
            ("catalog", "sailboat_catalog.json"),
            ("plan-scenario", "rescue_scenario.json"),
            ("synthesis-task", "sailboat_synthesis.json"),
            ("wiring", "lsi_wiring.json"),
            ("requirements", "lsi_requirements.json"),
            ("failure", "lsi_failure_functional.json"),
        ],
    )
    def test_shipped_fixtures_validate(self, capsys, kind, name):
        code, doc, _ = run_json(capsys, "validate", kind, str(DATA / name))
        assert code == 0
        assert doc["report"]["kind"] == kind

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "validate", "catalog", str(DATA / "nope.json"))
        assert code == 1
        assert "cannot read" in err


class TestCompose:
    def test_script_builds_operation(self, capsys, tmp_path):
        script = tmp_path / "helo.ops"
        script.write_text(HELO_SCRIPT)
        code, doc, _ = run_json(
            capsys, "compose", str(script), "--template", str(DATA / "sailboat_template.json"), "--check"
        )
        assert code == 0
        op = doc["report"]["operation"]
        assert doc["report"]["name"] == "loaded"
        assert op["output"] == ["helo", "qd", "qd"]
        assert len(op["edges"]) == 2
        assert doc["report"]["checked"] is True

    def test_script_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(HELO_SCRIPT))
        code, doc, _ = run_json(
            capsys, "compose", "-", "--template", str(DATA / "sailboat_template.json")
        )
        assert code == 0
        assert "-" in doc["inputs"]

    def test_rule_violation_fails_check(self, capsys, tmp_path):
        script = tmp_path / "bad.ops"
        script.write_text("type helo qd\nx = edge carrying 0 1\n")
        code, out, err = run(
            capsys, "compose", str(script), "--template", str(DATA / "sailboat_template.json"), "--check"
        )
        assert code == 1
        assert "not allowed" in err

    def test_unknown_name_is_a_script_error(self, capsys, tmp_path):
        script = tmp_path / "bad.ops"
        script.write_text("type helo\nx = overlay a b\n")
        code, _, err = run(
            capsys, "compose", str(script), "--template", str(DATA / "sailboat_template.json")
        )
        assert code == 1
        assert "unknown name" in err

    @pytest.mark.parametrize("value", ["2", "-1"])
    def test_edge_value_outside_the_monoid_is_an_input_error(self, capsys, tmp_path, value):
        script = tmp_path / "bad.ops"
        script.write_text(f"type helo qd qd\nx = edge carrying 1 0 {value}\n")
        code, out, err = run(
            capsys, "--json", "compose", str(script),
            "--template", str(DATA / "sailboat_template.json"),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["error"].startswith("boolean_or: value must be 0 or 1")
        assert "invalid input:" in err
        assert "Traceback" not in err

    def test_empty_script_is_the_identity(self, capsys, tmp_path):
        script = tmp_path / "empty.ops"
        script.write_text("# nothing here\n")
        code, doc, _ = run_json(
            capsys, "compose", str(script), "--template", str(DATA / "sailboat_template.json")
        )
        assert code == 0
        op = doc["report"]["operation"]
        assert doc["report"]["name"] == "identity"
        assert op["output"] == []
        assert op["edges"] == []


class TestAnalyze:
    def test_failure_distribution_sums_to_one(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "failure", str(DATA / "lsi_failure_functional.json")
        )
        assert code == 0
        dist = doc["report"]["distribution"]
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist["bath"] == pytest.approx(0.48)

    def test_equal_diagrams(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "equal", str(DATA / "lsi_wiring.json"),
            "flat_functional", "flat_control",
        )
        assert code == 0
        assert doc["report"]["equal"] is True

    def test_unequal_diagrams_still_exit_zero(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "equal", str(DATA / "lsi_wiring.json"), "f", "g"
        )
        assert code == 0
        assert doc["report"]["equal"] is False
        assert doc["report"]["witness"]

    def test_unknown_diagram_name(self, capsys):
        code, _, err = run(
            capsys, "analyze", "equal", str(DATA / "lsi_wiring.json"), "f", "nope"
        )
        assert code == 1
        assert "no diagram named" in err

    def test_soundness(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "soundness", str(DATA / "lsi_wiring.json"),
            "flat_functional", str(DATA / "lsi_requirements.json"),
        )
        assert code == 0
        assert doc["report"]["sound"] is True
        assert doc["report"]["checked"] == 24


class TestPlan:
    def test_solves_rescue(self, capsys):
        code, doc, _ = run_json(
            capsys, "plan", str(DATA / "rescue_tasking.json"), str(DATA / "rescue_scenario.json")
        )
        assert code == 0
        report = doc["report"]
        assert report["status"] == "solved"
        assert report["objective_value"] == 4.0
        starts = [(row["start"], row["transition"]) for row in report["schedule"]]
        assert starts == [(0, "t1"), (1, "t2"), (2, "t4")]

    def test_report_carries_per_agent_timeline(self, capsys):
        _, doc, err = run_json(
            capsys, "plan", str(DATA / "rescue_tasking.json"), str(DATA / "rescue_scenario.json")
        )
        timeline = doc["report"]["timeline"]
        assert set(timeline) == {"u1", "u2"}
        assert timeline["u1"][0] == "a"
        assert timeline["u2"][0] == "b"
        assert timeline["u1"][-1] == timeline["u2"][-1] == "d"
        assert len(timeline["u1"]) == 7  # markings for steps 0..horizon
        assert "u1:" in err and "u2:" in err

    def test_undecided_exits_2(self, capsys):
        code, doc, _ = run_json(
            capsys, "plan", str(DATA / "rescue_tasking.json"),
            str(DATA / "rescue_scenario.json"), "--node-cap", "2",
        )
        assert code == 2
        assert doc["ok"] is False
        assert doc["report"]["status"] == "undecided"

    def test_infeasible_exits_2(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        scenario["horizon"] = 2  # t1 alone takes 2 steps; goal needs both at d
        short = tmp_path / "short.json"
        short.write_text(json.dumps(scenario))
        code, doc, _ = run_json(
            capsys, "plan", str(DATA / "rescue_tasking.json"), str(short)
        )
        assert code == 2
        assert doc["report"]["status"] == "infeasible"
        assert doc["report"]["conflicts"]

    def test_default_feasible_objective_reports_null(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        del scenario["objective"]  # the dialect's default is "feasible"
        path = tmp_path / "feasible.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run(
            capsys, "--json", "plan", str(DATA / "rescue_tasking.json"), str(path)
        )
        assert code == 0
        doc = json.loads(out)  # would raise on an empty or doubled stdout
        assert doc["report"]["status"] == "solved"
        assert doc["report"]["objective_value"] is None
        assert "solved: makespan" in err

    def test_lp_export_skips_solving_and_round_trips(self, capsys, tmp_path):
        out = tmp_path / "rescue.lp"
        code, doc, _ = run_json(
            capsys, "plan", str(DATA / "rescue_tasking.json"),
            str(DATA / "rescue_scenario.json"), "--export-lp", str(out),
        )
        assert code == 0
        assert doc["report"]["status"] == "exported"
        assert "schedule" not in doc["report"]
        text = out.read_text()
        assert write_lp(parse_lp(text)) == text
        assert doc["report"]["lp_sha256"] == hashlib.sha256(text.encode()).hexdigest()


class TestSynthesize:
    def test_exhaustive_task(self, capsys, tmp_path):
        audit = tmp_path / "audit.jsonl"
        code, doc, _ = run_json(
            capsys, "synthesize", str(DATA / "sailboat_template.json"),
            str(DATA / "sailboat_catalog.json"), str(DATA / "sailboat_synthesis.json"),
            "--audit", str(audit),
        )
        assert code == 0
        report = doc["report"]
        assert report["design"] == "station:helo(qd,qd,qd,qd)"
        assert report["kind_counts"] == {"helo": 1, "qd": 4}
        assert report["report"]["cost"] == 9_060_000.0
        lines = audit.read_text().splitlines()
        assert len(lines) == report["evaluations"] + 1  # plus the selected row
        for line in lines:
            assert {"design", "sha256", "cost", "score"} <= set(json.loads(line))

    def test_method_and_seed_overrides(self, capsys):
        code, doc, _ = run_json(
            capsys, "--seed", "7", "synthesize", str(DATA / "sailboat_template.json"),
            str(DATA / "sailboat_catalog.json"), str(DATA / "sailboat_synthesis.json"),
            "--method", "anneal",
        )
        assert code == 0
        assert doc["report"]["method"] == "anneal"
        assert doc["report"]["design"] == "station:helo(qd,qd,qd,qd)"

    def test_bare_scenario_with_zero_budget_yields_empty_design(self, capsys, tmp_path):
        task = json.loads((DATA / "sailboat_synthesis.json").read_text())
        bare = tmp_path / "scenario.json"
        bare.write_text(json.dumps(task["scenario"]))
        code, doc, _ = run_json(
            capsys, "synthesize", str(DATA / "sailboat_template.json"),
            str(DATA / "sailboat_catalog.json"), str(bare), "--budget", "0",
        )
        assert code == 0
        assert doc["report"]["design"] == ""
        assert doc["report"]["kind_counts"] == {}
        assert doc["report"]["report"]["cost"] == 0.0

    def test_bare_scenario_without_budget_is_a_usage_error(self, capsys, tmp_path):
        task = json.loads((DATA / "sailboat_synthesis.json").read_text())
        bare = tmp_path / "scenario.json"
        bare.write_text(json.dumps(task["scenario"]))
        code, _, err = run(
            capsys, "synthesize", str(DATA / "sailboat_template.json"),
            str(DATA / "sailboat_catalog.json"), str(bare),
        )
        assert code == 1
        assert "--budget" in err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def soundness_json(capsys, requirements_path):
    code, out, err = run(
        capsys, "--json", "analyze", "soundness", str(DATA / "lsi_wiring.json"),
        "flat_functional", requirements_path,
    )
    return code, json.loads(out), err  # json.loads rejects an empty or doubled stdout


def json_paths(node, path=()):
    """Every (path, value) in a JSON document, the root included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def mutate(doc, path, kind):
    """Apply one mutation at ``path``; None when it does not apply there."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    for step in path:
        parent, key, node = node, step, node[step]
    if kind == "drop":
        if not isinstance(parent, dict):
            return None
        del parent[key]
        return doc
    if kind == "negate":
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return None
        new = -node
    elif kind == "swap":
        if isinstance(node, dict):
            new = list(node.values())
        elif isinstance(node, list):
            new = {str(i): v for i, v in enumerate(node)}
        else:
            return None
    else:  # wrong type: a string where anything else was, a number for a string
        new = 7 if isinstance(node, str) else "x"
    if parent is None:
        return new
    parent[key] = new
    return doc


REQUIREMENTS = json.loads((DATA / "lsi_requirements.json").read_text())
REQUIREMENT_PATHS = [path for path, _ in json_paths(REQUIREMENTS)]


class TestRequirementsDialect:
    def test_requirement_without_intervals(self, capsys, tmp_path):
        data = json.loads(json.dumps(REQUIREMENTS))
        del data["components"][1]["intervals"]
        code, doc, err = soundness_json(capsys, write_json(tmp_path, "r.json", data))
        assert code == 1 and doc["ok"] is False
        assert "components[1]" in doc["error"] and "intervals" in doc["error"]
        assert "Traceback" not in err

    def test_interval_with_three_numbers(self, capsys, tmp_path):
        data = json.loads(json.dumps(REQUIREMENTS))
        data["outer"][0]["intervals"]["temp2"] = [[1, 2, 3]]
        code, doc, _ = soundness_json(capsys, write_json(tmp_path, "r.json", data))
        assert code == 1 and doc["ok"] is False
        assert "[lo, hi] pair" in doc["error"]

    def test_grid_value_that_is_not_a_number(self, capsys, tmp_path):
        data = json.loads(json.dumps(REQUIREMENTS))
        data["grid"]["temperature"] = [19.9, "x"]
        code, doc, _ = soundness_json(capsys, write_json(tmp_path, "r.json", data))
        assert code == 1 and doc["ok"] is False
        assert "grid.temperature" in doc["error"]

    def test_misspelt_requirement_key(self, capsys, tmp_path):
        data = json.loads(json.dumps(REQUIREMENTS))
        data["outer"][0]["interval"] = data["outer"][0]["intervals"]
        path = write_json(tmp_path, "r.json", data)
        v_code, v_doc = validate_json(capsys, "requirements", path)
        c_code, c_doc, _ = soundness_json(capsys, path)
        assert (v_code, c_code) == (1, 1)
        assert v_doc["error"] == c_doc["error"] == "outer[0]: unknown keys ['interval']"

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        path=st.sampled_from(REQUIREMENT_PATHS),
        kind=st.sampled_from(["drop", "wrong_type", "negate", "swap"]),
    )
    def test_mutated_bundle_ends_in_one_envelope(self, capsys, tmp_path, path, kind):
        data = mutate(REQUIREMENTS, path, kind)
        if data is None:
            return
        code, doc, _ = soundness_json(capsys, write_json(tmp_path, "mutant.json", data))
        assert code in (0, 1)
        assert doc["ok"] is (code == 0)
        # the dialect reader, not the catch-all, must reject a bad bundle
        assert not doc.get("error", "").startswith("internal error")


class TestInputContract:
    def test_top_level_array_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "--json", "validate", "requirements", write_json(tmp_path, "a.json", [1, 2])
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "JSON object" in doc["error"]
        assert "Traceback" not in err

    def test_agent_without_id_names_its_index(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        del scenario["agents"][1]["id"]
        code, out, _ = run(
            capsys, "--json", "plan", str(DATA / "rescue_tasking.json"),
            write_json(tmp_path, "s.json", scenario),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "agent 1" in doc["error"] and "'id'" in doc["error"]

    def test_validate_rejects_negative_horizon(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        scenario["horizon"] = -1
        code, out, _ = run(
            capsys, "--json", "validate", "plan-scenario", write_json(tmp_path, "s.json", scenario)
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert "horizon" in doc["error"]

    def test_unexpected_exception_becomes_an_internal_error_envelope(self, capsys, monkeypatch):
        def broken(args, inputs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_validate", broken)
        code, out, err = run(
            capsys, "--json", "validate", "catalog", str(DATA / "sailboat_catalog.json")
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["error"] == "internal error: RuntimeError: boom"
        assert "internal error" in err


CATALOG = json.loads((DATA / "sailboat_catalog.json").read_text())
TASK = json.loads((DATA / "sailboat_synthesis.json").read_text())
SYNTHESIS_SITES = [("catalog", path) for path, _ in json_paths(CATALOG)] + [
    ("synthesis-task", path) for path, _ in json_paths(TASK)
]


def synthesize_json(capsys, catalog_path, task_path):
    code, out, _ = run(
        capsys, "--json", "synthesize", str(DATA / "sailboat_template.json"),
        catalog_path, task_path, "--max-nodes", "2",
    )
    return code, json.loads(out)


def validate_json(capsys, kind, path):
    code, out, _ = run(capsys, "--json", "validate", kind, path)
    return code, json.loads(out)


class TestSynthesisDialects:
    """The catalog, scenario and synthesis-task dialects raise their own
    errors, and ``validate`` accepts exactly the tasks ``synthesize`` does."""

    @pytest.mark.parametrize("kind,edit,needle", [
        ("catalog", lambda d: d["assets"]["qd"].pop("speed_search_kn"), "speed_search_kn"),
        ("synthesis-task", lambda d: d.update(budget="x"), "budget"),
        ("synthesis-task", lambda d: d["scenario"].pop("bases"), "bases"),
        ("synthesis-task", lambda d: d.update(max_nodes=2.5), "max_nodes"),
        ("synthesis-task", lambda d: d.update(method="bogus"), "bogus"),
    ])
    def test_bad_input_is_the_dialects_error(self, capsys, tmp_path, kind, edit, needle):
        data = json.loads(json.dumps(CATALOG if kind == "catalog" else TASK))
        edit(data)
        code, doc = validate_json(capsys, kind, write_json(tmp_path, "bad.json", data))
        assert code == 1 and doc["ok"] is False
        assert needle in doc["error"] and not doc["error"].startswith("internal error")

    def test_bogus_method_fails_validate_and_synthesize_alike(self, capsys, tmp_path):
        path = write_json(tmp_path, "task.json", {**TASK, "method": "bogus"})
        v_code, v_doc = validate_json(capsys, "synthesis-task", path)
        s_code, s_doc = synthesize_json(capsys, str(DATA / "sailboat_catalog.json"), path)
        assert (v_code, s_code) == (1, 1)
        assert v_doc["error"] == s_doc["error"] == "synthesis task: unknown search method 'bogus'"

    def test_fuel_that_is_not_a_number(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        scenario["agents"][0]["fuel_init"] = "x"
        code, doc = validate_json(capsys, "plan-scenario", write_json(tmp_path, "s.json", scenario))
        assert code == 1
        assert doc["error"] == "scenario.agents[0].fuel_init: expected number, got str"

    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        site=st.sampled_from(SYNTHESIS_SITES),
        kind=st.sampled_from(["drop", "wrong_type", "negate", "swap"]),
    )
    def test_mutated_input_ends_in_one_envelope(self, capsys, tmp_path, site, kind):
        dialect, path = site
        data = mutate(CATALOG if dialect == "catalog" else TASK, path, kind)
        if data is None:
            return
        mutant = write_json(tmp_path, "mutant.json", data)
        v_code, v_doc = validate_json(capsys, dialect, mutant)
        if dialect == "catalog":
            s_code, s_doc = synthesize_json(capsys, mutant, str(DATA / "sailboat_synthesis.json"))
        else:
            s_code, s_doc = synthesize_json(capsys, str(DATA / "sailboat_catalog.json"), mutant)
        for code, doc in ((v_code, v_doc), (s_code, s_doc)):
            assert code in (0, 1)
            assert doc["ok"] is (code == 0)
            assert not doc.get("error", "").startswith("internal error")
        if dialect == "synthesis-task":
            assert v_code == s_code  # validate accepts exactly what synthesize accepts
        else:  # a catalog can also fail on the task's target kinds
            assert v_code <= s_code


# Runs in a fresh interpreter: importing the command line loads no layer,
# each command loads only its own layers, no command loads numpy, and the
# matrix accessors must still load it and return numpy arrays.  Commands run
# in order of increasing footprint, with the loaded layers noted after each.
IMPORT_PATH_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

def layers():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("operadic."))

import operadic.cli as cli
loaded = {"import": layers()}

data, lp = sys.argv[1], sys.argv[2]
commands = [
    ("soundness", ["analyze", "soundness", f"{data}/lsi_wiring.json", "flat_functional",
                   f"{data}/lsi_requirements.json"]),
    ("plan", ["plan", f"{data}/rescue_tasking.json", f"{data}/rescue_scenario.json"]),
    ("export", ["plan", f"{data}/rescue_tasking.json", f"{data}/rescue_scenario.json",
                "--export-lp", lp]),
    ("synthesize", ["synthesize", f"{data}/sailboat_template.json",
                    f"{data}/sailboat_catalog.json", f"{data}/sailboat_synthesis.json",
                    "--max-nodes", "2"]),
    ("validate", ["validate", "plan-scenario", f"{data}/rescue_scenario.json"]),
]
codes = []
for step, argv in commands:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(["--json", *argv]))
    loaded[step] = layers()
loaded_by_commands = "numpy" in sys.modules

from operadic.planner import compile_scenario, parse_plan_scenario
from operadic.template import parse_tasking_template

template = parse_tasking_template(open(f"{data}/rescue_tasking.json").read())
cs = compile_scenario(template, parse_plan_scenario(open(f"{data}/rescue_scenario.json").read()))
matrix = cs.update_matrix()
import numpy as np

print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "loaded_by_commands": loaded_by_commands,
    "matrix_is_ndarray": isinstance(matrix, np.ndarray),
    "matrix_shape": list(matrix.shape),
}))
"""

# Every name the package exported eagerly before it became lazy.
EXPORTS = """
AssetSpec FleetDesign KpiReport SearchScenario composite_distribution kpi_evaluate
load_catalog parse_catalog parse_failure_bundle parse_scenario EdgeKey Interaction
NetOperation NetType OperadError Signature canonical_form compose identity overlay
parallel permute slot_permute LpConstraint LpModel parse_lp write_lp MonoidKind Agent
ConstraintSystem CountsSolution FuelSpec Infeasible Level LiftResult PlanScenario
RiskSpec Solution TaskBinding Undecided compile_scenario enumerate_bindings export_lp
lift parse_plan_scenario project solve solve_all CandidateDesign DesignEvaluator
SearchConfig SearchResult enumerate_designs parse_synthesis_task search NetworkTemplate
TaskingTemplate generators induced_operad load_network_template load_tasking_template
merge_templates parse_network_template parse_tasking_template WiringOp diagrams_equal
joint_validity load_requirements_bundle load_wiring_bundle nest parse_requirements_bundle
parse_wiring_bundle soundness_check
""".split()


@pytest.fixture(scope="module")
def import_path(tmp_path_factory):
    lp = tmp_path_factory.mktemp("import_path") / "rescue.lp"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(DATA), str(lp)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert lp.exists()
    return json.loads(proc.stdout)


class TestImportPath:
    """A command loads only its own layers; no command loads numpy, only the
    planner's matrix accessors do.  The package loads its names lazily."""

    def test_commands_leave_numpy_unloaded(self, import_path):
        result = import_path
        assert result["codes"] == [0, 0, 0, 0, 0]
        assert result["loaded_by_commands"] is False
        assert result["matrix_is_ndarray"] is True
        assert result["matrix_shape"][0] > 0

    def test_each_command_loads_only_its_layers(self, import_path):
        loaded = {step: set(layers) for step, layers in import_path["loaded"].items()}
        assert not loaded["import"] & {
            "planner", "synthesis", "wiring", "algebra", "template", "core", "lp",
        }
        assert "wiring" in loaded["soundness"]
        assert not loaded["soundness"] & {"planner", "synthesis", "lp"}
        assert "planner" in loaded["plan"]
        assert "synthesis" not in loaded["plan"]

    def test_package_exports_every_name(self):
        import operadic

        assert len(EXPORTS) == len(set(EXPORTS)) == 73
        for name in EXPORTS:
            namespace = {}
            exec(f"from operadic import {name}", namespace)
            assert namespace[name] is getattr(operadic, name)
        assert set(EXPORTS) <= set(dir(operadic))
        assert sorted(operadic.__all__) == sorted(EXPORTS)
        with pytest.raises(AttributeError, match="no_such_name"):
            operadic.no_such_name


def _load_worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", Path(__file__).parents[1] / "perfbench" / "worker.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracing:
    """perfbench's tracer wraps the layer entry points where the command line
    looks them up; a renamed or hidden entry point breaks here first."""

    @pytest.mark.parametrize("argv,layer", [
        (["analyze", "soundness", str(DATA / "lsi_wiring.json"), "flat_functional",
          str(DATA / "lsi_requirements.json")], "wiring.soundness_check"),
        (["plan", str(DATA / "rescue_tasking.json"), str(DATA / "rescue_scenario.json")],
         "planner.solve"),
    ])
    def test_traced_command_counts_its_layer(self, capsys, argv, layer):
        worker = _load_worker()
        tracer = worker.Tracer()
        try:
            worker.install(tracer)
            code = cli.main(["--json", *argv])
        finally:
            layers = tracer.restore()
        capsys.readouterr()
        assert code == 0
        assert layers["calls"][layer] == 1
        assert layers["calls"]["cli"] == 1
        assert cli.main is main  # the wrappers are gone again


def _option(parser, *path_and_dest):
    """The argparse action for ``dest`` under the subcommands ``path``."""
    *path, dest = path_and_dest
    for command in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[command]
    return next(a for a in parser._actions if a.dest == dest)


class TestParser:
    """The parser lists the choices and defaults the layers own."""

    def test_choices_and_defaults_come_from_the_layers(self):
        from operadic import planner, synthesis
        from operadic.options import Level

        parser = cli.build_parser()
        level = _option(parser, "plan", "level")
        assert level.choices == [Level.TIMED.value, Level.PLAN.value]
        assert level.default == Level.TIMED.value
        assert planner.Level is Level
        assert _option(parser, "plan", "node_cap").default == planner.DEFAULT_NODE_CAP
        assert _option(parser, "synthesize", "method").choices == synthesis.METHODS


FAILURE = json.loads((DATA / "lsi_failure_control.json").read_text())
# the rescue scenario with fuel and risk blocks, so every scenario field is mutated
RESCUE = {
    **json.loads((DATA / "rescue_scenario.json").read_text()),
    "fuel": {
        "burn_rates": {"uh60": {"a": 0.5, "c": 1}},
        "task_costs": {"t1": {"uh60": 2}},
        "refuel": {"t3": ["uh60"]},
    },
    "risk": {
        "place_factors": {"uh60": {"a": 0.99, "c": 0.97}},
        "transition_factors": {"t1": 0.98},
    },
}
for agent in RESCUE["agents"]:
    agent.update(fuel_init=8, fuel_max=10, fuel_min=2)
DOCUMENTS = {
    "failure": FAILURE,
    "plan-scenario": RESCUE,
    "tasking-template": json.loads((DATA / "rescue_tasking.json").read_text()),
    "network-template": json.loads((DATA / "sailboat_template.json").read_text()),
    "wiring": json.loads((DATA / "lsi_wiring.json").read_text()),
}
DIALECT_SITES = [
    (dialect, path) for dialect, doc in DOCUMENTS.items() for path, _ in json_paths(doc)
]


def command_json(capsys, dialect, path):
    """Run the command that reads the ``dialect`` file at ``path``."""
    argv = {
        "failure": ("analyze", "failure", path),
        "plan-scenario": ("plan", str(DATA / "rescue_tasking.json"), path, "--node-cap", "20000"),
        "tasking-template": (
            "plan", path, str(DATA / "rescue_scenario.json"), "--node-cap", "20000",
        ),
        "network-template": (
            "synthesize", path, str(DATA / "sailboat_catalog.json"),
            str(DATA / "sailboat_synthesis.json"), "--max-nodes", "2",
        ),
        "wiring": (
            "analyze", "soundness", path, "flat_functional", str(DATA / "lsi_requirements.json"),
        ),
        "catalog": (
            "synthesize", str(DATA / "sailboat_template.json"), path,
            str(DATA / "sailboat_synthesis.json"), "--max-nodes", "2",
        ),
        "requirements": (
            "analyze", "soundness", str(DATA / "lsi_wiring.json"), "flat_functional", path,
        ),
    }[dialect]
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


class TestPlanAndFailureDialects:
    """The failure bundle, the plan scenario, both templates and the wiring
    bundle are read through the typed reader, and ``validate`` rejects what
    the commands reject on the dialect alone."""

    @pytest.mark.parametrize("dialect,edit,message", [
        ("failure", lambda d: d.update(distributions=[1]),
         "failure bundle.distributions: expected object, got list"),
        ("failure", lambda d: d["distributions"]["g"].update(sensors="x"),
         "failure bundle.distributions.g.sensors: expected number, got str"),
        ("failure", lambda d: d["tree"].update(children=[1]),
         "operation tree.children: expected object, got list"),
        ("failure", lambda d: d.pop("tree"), "failure bundle: missing key 'tree'"),
        ("plan-scenario", lambda d: d.update(goal={"d": {"uh60": "x"}}),
         "scenario.goal.d.uh60: expected integer, got str"),
        ("plan-scenario", lambda d: d.update(goal={"d": {"uh60": 2.0}}),
         "scenario.goal.d.uh60: expected integer, got float"),
        ("plan-scenario", lambda d: d.update(goal={"d": {"uh60": "2"}}),
         "scenario.goal.d.uh60: expected integer, got str"),
        ("plan-scenario", lambda d: d.update(goal={"d": {"uh60": -1}}),
         "scenario.goal.d.uh60: goal counts must be >= 0, got -1"),
        ("plan-scenario", lambda d: d["risk"].update(place_factors={"uh60": {"c": "x"}}),
         "scenario.risk.place_factors.uh60.c: expected number, got str"),
        ("plan-scenario", lambda d: d["risk"].update(transition_factors=[0.9]),
         "scenario.risk.transition_factors: expected object, got list"),
        ("plan-scenario", lambda d: d.update(objective="bogus"), "unknown objective 'bogus'"),
        ("tasking-template", lambda d: d["transitions"][0].update(duration=2.5),
         "tasking template.transitions[0].duration: expected integer, got float"),
        ("tasking-template", lambda d: d["transitions"][0].update(duration="x"),
         "tasking template.transitions[0].duration: expected integer, got str"),
        ("tasking-template", lambda d: d["transitions"][0]["inputs"][0].update(count="1"),
         "tasking template.transitions[0].inputs[0].count: expected integer, got str"),
        ("tasking-template", lambda d: d["transitions"][0].update(name=5),
         "tasking template.transitions[0].name: expected string, got int"),
        ("wiring", lambda d: d["boundaries"]["LSI"]["ports"][0].pop("space"),
         "wiring bundle.boundaries.LSI.ports[0]: missing key 'space'"),
        ("wiring", lambda d: d.update(operations=[1]),
         "wiring bundle.operations: expected object, got list"),
        ("network-template",
         lambda d: d["directed"].update(carrying={"pairs": d["directed"]["carrying"], "loops": "no"}),
         "network template.directed.carrying.loops: expected boolean, got str"),
        ("plan-scenario", lambda d: d["fuel"]["refuel"].update(t3=[7]),
         "scenario.fuel.refuel.t3[0]: expected string, got int"),
        ("failure", lambda d: d.update(version=True),
         'failure bundle: expected "version": 1, got True'),
        ("wiring", lambda d: d["boundaries"]["LSI"]["ports"][0].update(dir="in"),
         "wiring bundle.boundaries.LSI.ports[0]: unknown keys ['dir']"),
        ("plan-scenario", lambda d: d["agents"][0].update(fuel_int=8),
         "scenario.agents[0]: unknown keys ['fuel_int']"),
    ])
    def test_validate_and_command_give_the_dialects_error(
        self, capsys, tmp_path, dialect, edit, message
    ):
        data = json.loads(json.dumps(DOCUMENTS[dialect]))
        edit(data)
        path = write_json(tmp_path, "bad.json", data)
        v_code, v_doc = validate_json(capsys, dialect, path)
        c_code, c_doc = command_json(capsys, dialect, path)
        assert (v_code, c_code) == (1, 1)
        assert v_doc["error"] == c_doc["error"] == message

    # ``json.dumps`` writes these floats as ``NaN``, ``Infinity`` and
    # ``-Infinity``, which Python's ``json`` reads back but JSON does not have
    @pytest.mark.parametrize("dialect,edit,message", [
        ("plan-scenario", lambda d: d["fuel"]["burn_rates"]["uh60"].update(c=math.nan),
         "scenario.fuel.burn_rates.uh60.c: expected finite number, got nan"),
        ("plan-scenario", lambda d: d["agents"][0].update(fuel_max=math.inf),
         "scenario.agents[0].fuel_max: expected finite number, got inf"),
        ("plan-scenario", lambda d: d["agents"][1].update(fuel_min=-(10 ** 400)),
         "scenario.agents[1].fuel_min: expected finite number, got an integer too large for a float"),
        ("catalog", lambda d: d["assets"]["cut"].update(cost=math.inf),
         "catalog.assets.cut.cost: expected finite number, got inf"),
        ("requirements", lambda d: d["grid"]["temperature"].append(-math.inf),
         "grid.temperature: expected finite number, got -inf"),
    ])
    def test_non_finite_numbers_are_rejected(self, capsys, tmp_path, dialect, edit, message):
        data = json.loads(json.dumps({**DOCUMENTS, "catalog": CATALOG, "requirements": REQUIREMENTS}[dialect]))
        edit(data)
        path = write_json(tmp_path, "bad.json", data)
        v_code, v_doc = validate_json(capsys, dialect, path)
        c_code, c_doc = command_json(capsys, dialect, path)
        assert (v_code, c_code) == (1, 1)
        assert v_doc["error"] == c_doc["error"] == message

    def test_unmutated_inputs_are_accepted(self, capsys, tmp_path):
        for dialect, data in DOCUMENTS.items():
            path = write_json(tmp_path, "ok.json", data)
            assert validate_json(capsys, dialect, path)[0] == 0
            assert command_json(capsys, dialect, path)[0] == 0

    @settings(
        max_examples=400,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        site=st.sampled_from(DIALECT_SITES),
        kind=st.sampled_from(["drop", "wrong_type", "negate", "swap"]),
    )
    def test_mutated_input_ends_in_one_envelope(self, capsys, tmp_path, site, kind):
        dialect, path = site
        data = mutate(DOCUMENTS[dialect], path, kind)
        if data is None:
            return
        mutant = write_json(tmp_path, "mutant.json", data)
        v_code, v_doc = validate_json(capsys, dialect, mutant)
        c_code, c_doc = command_json(capsys, dialect, mutant)
        for code, doc in ((v_code, v_doc), (c_code, c_doc)):
            assert code in (0, 1, 2)
            assert doc["ok"] is (code == 0)
            assert not doc.get("error", "").startswith("internal error")
        assert v_code in (0, 1)
        if v_code == 1:  # the commands accept nothing that validate rejects
            assert c_code == 1


class TestPlanScenarioChecks:
    """``validate``, ``plan`` and ``plan --export-lp`` reject a scenario alike."""

    def commands(self, capsys, path):
        template = str(DATA / "rescue_tasking.json")
        lp = str(Path(path).with_suffix(".lp"))
        yield validate_json(capsys, "plan-scenario", path)
        yield run_json(capsys, "plan", template, path)[:2]
        yield run_json(capsys, "plan", template, path, "--export-lp", lp)[:2]

    def test_max_survival_needs_a_risk_block(self, capsys, tmp_path):
        scenario = json.loads((DATA / "rescue_scenario.json").read_text())
        scenario["objective"] = "max_survival"
        path = write_json(tmp_path, "survival.json", scenario)
        for code, doc in self.commands(capsys, path):
            assert code == 1
            assert doc["error"] == "max_survival objective needs risk semantics"

    @pytest.mark.parametrize("value,kind", [("no", "str"), (1, "int"), (None, "NoneType")])
    def test_literal_update_must_be_a_boolean(self, capsys, tmp_path, value, kind):
        scenario = json.loads(json.dumps(RESCUE))
        scenario["fuel"]["literal_update"] = value
        path = write_json(tmp_path, "fuel.json", scenario)
        for code, doc in self.commands(capsys, path):
            assert code == 1
            assert doc["error"] == (
                f"scenario.fuel.literal_update: expected boolean, got {kind}"
            )

    def test_literal_update_reads_json_booleans(self, capsys, tmp_path):
        scenario = json.loads(json.dumps(RESCUE))
        for value in (True, False):
            scenario["fuel"]["literal_update"] = value
            path = write_json(tmp_path, "fuel.json", scenario)
            assert [code for code, _ in self.commands(capsys, path)] == [0, 0, 0]
