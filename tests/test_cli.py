"""End-to-end command line tests: exit codes, stdout discipline, reports."""

import hashlib
import io
import json
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


# Runs in a fresh interpreter: the commands must leave numpy unloaded, and
# the matrix accessors must still load it and return numpy arrays.
IMPORT_PATH_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import operadic.cli as cli

data, lp = sys.argv[1], sys.argv[2]
commands = [
    ["plan", f"{data}/rescue_tasking.json", f"{data}/rescue_scenario.json"],
    ["plan", f"{data}/rescue_tasking.json", f"{data}/rescue_scenario.json", "--export-lp", lp],
    ["synthesize", f"{data}/sailboat_template.json", f"{data}/sailboat_catalog.json",
     f"{data}/sailboat_synthesis.json", "--max-nodes", "2"],
    ["analyze", "soundness", f"{data}/lsi_wiring.json", "flat_functional",
     f"{data}/lsi_requirements.json"],
    ["validate", "plan-scenario", f"{data}/rescue_scenario.json"],
]
codes = []
for argv in commands:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(["--json", *argv]))
loaded_by_commands = "numpy" in sys.modules

from operadic.planner import compile_scenario, parse_plan_scenario
from operadic.template import parse_tasking_template

template = parse_tasking_template(open(f"{data}/rescue_tasking.json").read())
cs = compile_scenario(template, parse_plan_scenario(open(f"{data}/rescue_scenario.json").read()))
matrix = cs.update_matrix()
import numpy as np

print(json.dumps({
    "codes": codes,
    "loaded_by_commands": loaded_by_commands,
    "matrix_is_ndarray": isinstance(matrix, np.ndarray),
    "matrix_shape": list(matrix.shape),
}))
"""


class TestImportPath:
    """No command loads numpy; only the planner's matrix accessors do."""

    def test_commands_leave_numpy_unloaded(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(DATA), str(tmp_path / "rescue.lp")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 0, 0, 0, 0]
        assert result["loaded_by_commands"] is False
        assert result["matrix_is_ndarray"] is True
        assert result["matrix_shape"][0] > 0
        assert (tmp_path / "rescue.lp").exists()


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
PLAN_AND_FAILURE_SITES = [("failure", path) for path, _ in json_paths(FAILURE)] + [
    ("plan-scenario", path) for path, _ in json_paths(RESCUE)
]


def command_json(capsys, dialect, path):
    """Run the command that consumes ``dialect``: analyze failure or plan."""
    if dialect == "failure":
        argv = ("analyze", "failure", path)
    else:
        argv = ("plan", str(DATA / "rescue_tasking.json"), path, "--node-cap", "20000")
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


class TestPlanAndFailureDialects:
    """The failure bundle and the plan-scenario goal, risk and objective are
    read through the typed reader, and ``validate`` rejects what the
    commands reject on the dialect alone."""

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
    ])
    def test_validate_and_command_give_the_dialects_error(
        self, capsys, tmp_path, dialect, edit, message
    ):
        data = json.loads(json.dumps(FAILURE if dialect == "failure" else RESCUE))
        edit(data)
        path = write_json(tmp_path, "bad.json", data)
        v_code, v_doc = validate_json(capsys, dialect, path)
        c_code, c_doc = command_json(capsys, dialect, path)
        assert (v_code, c_code) == (1, 1)
        assert v_doc["error"] == c_doc["error"] == message

    def test_unmutated_inputs_are_accepted(self, capsys, tmp_path):
        for dialect, data in (("failure", FAILURE), ("plan-scenario", RESCUE)):
            path = write_json(tmp_path, "ok.json", data)
            assert validate_json(capsys, dialect, path)[0] == 0
            assert command_json(capsys, dialect, path)[0] == 0

    @settings(
        max_examples=120,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        site=st.sampled_from(PLAN_AND_FAILURE_SITES),
        kind=st.sampled_from(["drop", "wrong_type", "negate", "swap"]),
    )
    def test_mutated_input_ends_in_one_envelope(self, capsys, tmp_path, site, kind):
        dialect, path = site
        data = mutate(FAILURE if dialect == "failure" else RESCUE, path, kind)
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
