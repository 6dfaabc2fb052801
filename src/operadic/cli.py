"""Command line interface.

Usage::

    operadic [--json] [--seed N] COMMAND ...

Commands:

* ``validate KIND FILE`` parses an input file against its dialect and
  reports a short summary.
* ``compose SCRIPT --template FILE`` evaluates a composition script (see
  below) over a network template's signature.
* ``analyze failure BUNDLE`` folds per-operation failure distributions
  through an operation tree.
* ``analyze equal BUNDLE LEFT RIGHT`` compares two named wiring diagrams.
* ``analyze soundness WIRING OP REQS`` checks component requirements against
  outer requirements on a value grid.
* ``plan TEMPLATE SCENARIO`` compiles a tasking scenario and searches for a
  schedule; ``--export-lp FILE`` instead writes the constraint system in LP
  format without solving.
* ``synthesize TEMPLATE CATALOG TASK`` runs design search; the task file may
  be a full task description or a bare scenario plus a ``--budget`` flag.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a plan search
ends infeasible or undecided.  Any other exception is an internal error: it
also exits 1, with ``internal error: TYPE: MESSAGE`` as the envelope's
error.  Standard output stays machine-clean: it carries exactly one JSON
document when ``--json`` is given and nothing otherwise; all human-readable
tables and diagnostics go to stderr.  Reports are byte-identical across
reruns except for the ``timing_s`` field, and embed the SHA-256 of each
input file consumed.

Composition scripts are line-oriented: ``#`` starts a comment, ``type
COLOR...`` fixes the current output word, and every other line is
``name = OP ARGS`` where OP is one of::

    identity
    edge INTERACTION I J [VALUE]
    overlay NAME NAME...
    parallel NAME NAME...
    permute NAME I0 I1...
    compose NAME NAME...

The value of the last assignment is the script's result.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .dialect import InputError
from .options import DEFAULT_NODE_CAP, METHODS, Level

if TYPE_CHECKING:
    from .core import NetOperation


def _lazy(module: str, name: str):
    """A stand-in for ``operadic.<module>.<name>`` that imports the module at
    its first call, so a command loads only the layers it uses.

    Each stand-in is a real attribute of this module and the handlers call
    it through the module's globals, so a wrapper set here from outside (as
    perfbench's tracer does) sees every call.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f"operadic.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


parse_catalog = _lazy("algebra", "parse_catalog")
parse_failure_bundle = _lazy("algebra", "parse_failure_bundle")
parse_scenario = _lazy("algebra", "parse_scenario")
compile_scenario = _lazy("planner", "compile_scenario")
parse_plan_scenario = _lazy("planner", "parse_plan_scenario")
solve = _lazy("planner", "solve")
parse_synthesis_task = _lazy("synthesis", "parse_synthesis_task")
search = _lazy("synthesis", "search")
parse_network_template = _lazy("template", "parse_network_template")
parse_tasking_template = _lazy("template", "parse_tasking_template")
parse_requirements_bundle = _lazy("wiring", "parse_requirements_bundle")
parse_wiring_bundle = _lazy("wiring", "parse_wiring_bundle")
soundness_check = _lazy("wiring", "soundness_check")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep that code for us
        raise UsageError(message)


def _sha256(data: bytes) -> str:
    # hashlib loads OpenSSL, so it comes in at first use, not with this module
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _read_text(inputs: dict[str, str], path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    inputs[path] = _sha256(text.encode())
    return text


def _read_json(inputs: dict[str, str], path: str):
    text = _read_text(inputs, path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):  # every input dialect is a JSON object
        raise UsageError(f"{path}: expected a JSON object at the top level, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------------------
# validate

VALIDATORS = {
    "network-template": parse_network_template,
    "tasking-template": parse_tasking_template,
    "catalog": parse_catalog,
    "scenario": parse_scenario,
    "plan-scenario": parse_plan_scenario,
    "synthesis-task": parse_synthesis_task,
    "wiring": parse_wiring_bundle,
    "requirements": parse_requirements_bundle,
    "failure": parse_failure_bundle,
}


def _validate_summary(kind: str, data) -> dict:
    if kind == "network-template":
        return {"colors": len(data["colors"]), "interactions": len(data.get("directed", {})) + len(data.get("undirected", {}))}
    if kind == "tasking-template":
        return {
            "colors": len(data["colors"]),
            "places": len(data["places"]),
            "transitions": len(data["transitions"]),
        }
    if kind == "catalog":
        return {"assets": len(data["assets"])}
    if kind == "scenario":
        return {"bases": len(data["bases"])}
    if kind == "plan-scenario":
        return {"agents": len(data.get("agents", [])), "horizon": data["horizon"]}
    if kind == "synthesis-task":
        return {"budget": data["budget"], "method": data.get("method", "exhaustive")}
    if kind == "wiring":
        return {
            "operations": len(data.get("operations", {})),
            "compositions": len(data.get("compositions", {})),
        }
    if kind == "requirements":
        return {
            "components": len(data.get("components", [])),
            "outer": len(data.get("outer", [])),
            "grid": len(data.get("grid", {})),
        }
    if kind == "failure":
        return {"distributions": len(data.get("distributions", {}))}
    raise UsageError(f"unknown input kind {kind!r}")


def _cmd_validate(args, inputs) -> tuple[dict, list[str], int]:
    data = _read_json(inputs, args.file)
    VALIDATORS[args.kind](data)
    summary = _validate_summary(args.kind, data)
    report = {"kind": args.kind, "file": args.file, **summary}
    human = [f"{args.file}: valid {args.kind}"]
    human += [f"  {k}: {v}" for k, v in sorted(summary.items())]
    return report, human, 0


# ---------------------------------------------------------------------------
# compose


def _script_value(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"line {lineno}: edge value must be an integer, got {token!r}")


def run_compose_script(text: str, template) -> tuple[str, NetOperation]:
    """Evaluate a composition script; returns (result name, operation).

    A script with no assignments is the identity on the declared type (the
    empty word when no ``type`` line appears).
    """
    from .core import NetOperation, NetType, compose, identity, overlay, parallel, permute

    sig = template.signature
    env: dict[str, NetOperation] = {}
    current = None
    result = None

    def lookup(name: str, lineno: int) -> NetOperation:
        if name not in env:
            raise UsageError(f"line {lineno}: unknown name {name!r}")
        return env[name]

    def ints(tokens, lineno):
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise UsageError(f"line {lineno}: expected integers, got {tokens}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "type":
            if len(tokens) < 2:
                raise UsageError(f"line {lineno}: type needs at least one color")
            current = template.type_of(*tokens[1:])
            continue
        if len(tokens) < 3 or tokens[1] != "=" or tokens[0] == "type":
            raise UsageError(f"line {lineno}: expected 'name = OP ARGS...'")
        name, op, rest = tokens[0], tokens[2], tokens[3:]
        if op == "identity":
            if current is None:
                raise UsageError(f"line {lineno}: identity needs a preceding type")
            value = identity(current, sig)
        elif op == "edge":
            if current is None:
                raise UsageError(f"line {lineno}: edge needs a preceding type")
            if len(rest) not in (3, 4):
                raise UsageError(f"line {lineno}: edge INTERACTION I J [VALUE]")
            i, j = ints(rest[1:3], lineno)
            weight = _script_value(rest[3], lineno) if len(rest) == 4 else 1
            value = NetOperation.endo(current, {sig.edge(rest[0], i, j): weight}, sig)
        elif op in ("overlay", "parallel"):
            if len(rest) < 2:
                raise UsageError(f"line {lineno}: {op} needs at least two names")
            fold = overlay if op == "overlay" else parallel
            ops = [lookup(n, lineno) for n in rest]
            value = ops[0]
            for other in ops[1:]:
                value = fold(value, other)
        elif op == "permute":
            if len(rest) < 2:
                raise UsageError(f"line {lineno}: permute NAME I0 I1...")
            value = permute(lookup(rest[0], lineno), ints(rest[1:], lineno))
        elif op == "compose":
            if len(rest) < 2:
                raise UsageError(f"line {lineno}: compose NAME NAME...")
            value = compose(lookup(rest[0], lineno), [lookup(n, lineno) for n in rest[1:]])
        else:
            raise UsageError(f"line {lineno}: unknown operation {op!r}")
        env[name] = value
        result = (name, value)
    if result is None:
        return "identity", identity(current if current is not None else NetType(), sig)
    return result


def _cmd_compose(args, inputs) -> tuple[dict, list[str], int]:
    from .core import canonical_form
    from .template import induced_operad

    template = parse_network_template(_read_json(inputs, args.template))
    text = _read_text(inputs, args.script)
    name, op = run_compose_script(text, template)
    if args.check:
        induced_operad(template).validate(op)
    op = canonical_form(op)
    digest = _sha256(op.canonical_bytes())
    report = {
        "name": name,
        "operation": op.to_dict(),
        "sha256": digest,
        "checked": bool(args.check),
    }
    human = [
        f"{name}: {op.node_count} nodes, arity {op.arity}, "
        f"{len(op.edges)} edges, sha256 {digest[:12]}"
    ]
    return report, human, 0


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze_failure(args, inputs) -> tuple[dict, list[str], int]:
    from .algebra import composite_distribution

    model, tree = parse_failure_bundle(_read_json(inputs, args.bundle))
    dist = composite_distribution(model, tree)
    report = {"distribution": dist.as_dict()}
    human = [f"{label}: {p:.6g}" for label, p in dist.probs]
    return report, human, 0


def _cmd_analyze_equal(args, inputs) -> tuple[dict, list[str], int]:
    from .wiring import diagrams_equal

    ops = parse_wiring_bundle(_read_json(inputs, args.bundle))
    for name in (args.left, args.right):
        if name not in ops:
            raise UsageError(f"no diagram named {name!r} in {args.bundle}")
    cmp = diagrams_equal(ops[args.left], ops[args.right])
    report = {"left": args.left, "right": args.right, "equal": cmp.equal}
    if cmp.witness is not None:
        report["witness"] = cmp.witness
    human = [
        f"{args.left} == {args.right}" if cmp.equal else f"{args.left} != {args.right}: {cmp.witness}"
    ]
    return report, human, 0


def _cmd_analyze_soundness(args, inputs) -> tuple[dict, list[str], int]:
    ops = parse_wiring_bundle(_read_json(inputs, args.wiring))
    if args.op not in ops:
        raise UsageError(f"no diagram named {args.op!r} in {args.wiring}")
    component, outer, grid = parse_requirements_bundle(_read_json(inputs, args.requirements))
    result = soundness_check(ops[args.op], component, outer, grid)
    report = result.to_dict()
    human = [
        f"{'sound' if result.sound else 'unsound'} "
        f"({result.checked} states checked, {len(result.counterexamples)} counterexamples)"
    ]
    return report, human, 0


# ---------------------------------------------------------------------------
# plan


def _cmd_plan(args, inputs) -> tuple[dict, list[str], int]:
    from .planner import Infeasible, Solution, Undecided, export_lp

    template = parse_tasking_template(_read_json(inputs, args.template))
    scenario = parse_plan_scenario(_read_json(inputs, args.scenario))
    cs = compile_scenario(template, scenario, Level(args.level))
    human: list[str] = []
    report: dict = {"level": args.level}
    if args.export_lp is not None:
        lp_text = export_lp(cs)
        Path(args.export_lp).write_text(lp_text)
        report["status"] = "exported"
        report["lp_file"] = args.export_lp
        report["lp_sha256"] = _sha256(lp_text.encode())
        human.append(f"wrote {len(lp_text.splitlines())} LP lines to {args.export_lp}")
        return report, human, 0
    outcome = solve(cs, node_cap=args.node_cap)
    if isinstance(outcome, Solution):
        report.update({"status": "solved", **outcome.to_dict()})
        timeline = {
            a.id: [row.place_of(a.id) for row in outcome.markings]
            for a in outcome.agents
        }
        report["timeline"] = timeline
        line = f"solved: makespan {outcome.makespan()}"
        if outcome.objective_value is not None:  # None under "feasible"
            line += f", objective {outcome.objective_value:g}"
        human.append(line)
        for start, binding in outcome.schedule:
            agents = ",".join(binding.agents)
            human.append(f"  t={start} {binding.name} [{agents}]")
        width = max(len(a.id) for a in outcome.agents)
        for agent_id, places in timeline.items():
            row = " ".join("-" if p is None else p for p in places)
            human.append(f"  {agent_id:>{width}}: {row}")
        return report, human, 0
    if isinstance(outcome, Infeasible):
        report["status"] = "infeasible"
        report["conflicts"] = list(outcome.conflicts)
        report["deepest_step"] = outcome.deepest_step
        human.append("infeasible:")
        human += [f"  {c}" for c in outcome.conflicts]
        return report, human, 2
    assert isinstance(outcome, Undecided)
    report["status"] = "undecided"
    report["nodes_explored"] = outcome.nodes_explored
    human.append(f"undecided after {outcome.nodes_explored} nodes")
    return report, human, 2


# ---------------------------------------------------------------------------
# synthesize


def _cmd_synthesize(args, inputs) -> tuple[dict, list[str], int]:
    from dataclasses import replace

    template = parse_network_template(_read_json(inputs, args.template))
    catalog = parse_catalog(_read_json(inputs, args.catalog))
    data = _read_json(inputs, args.task)
    if "bases" in data:  # bare scenario: the budget must come from the flag
        if args.budget is None:
            raise UsageError("--budget is required with a bare scenario file")
        data = {"version": 1, "budget": args.budget, "scenario": data}
    task = parse_synthesis_task(data)
    config = task.config
    if args.budget is not None:
        config = replace(config, budget=args.budget)
    if args.max_nodes is not None:
        config = replace(config, max_nodes=args.max_nodes)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    method = args.method or task.method
    result = search(template, catalog, task.scenario, config, method, task.carry_interaction)
    if args.audit is not None:
        Path(args.audit).write_text(result.audit_jsonl() + "\n")
    report = result.to_dict()
    if args.audit is not None:
        report["audit_file"] = args.audit
    human = [
        f"{method}: best design {result.best.serial() or '(empty)'}",
        f"  cost {result.report.cost:g}, expected detections "
        f"{result.report.expected_detections:.6g} ({result.evaluations} evaluations)",
    ]
    return report, human, 0


# ---------------------------------------------------------------------------
# wiring (parser setup and dispatch)


@functools.cache
def build_parser() -> _Parser:
    """The command's parser, built once per process: parsing leaves it
    unchanged.  Each command names its handler, which ``main`` looks up in
    this module's globals at every call."""
    parser = _Parser(prog="operadic", description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    parser.add_argument("--seed", type=int, default=None, help="override any seeded search")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and check an input file")
    p.add_argument("kind", choices=sorted(VALIDATORS))
    p.add_argument("file")
    p.set_defaults(handler="_cmd_validate")

    p = sub.add_parser("compose", help="evaluate a composition script")
    p.add_argument("script", help="script path, or - for stdin")
    p.add_argument("--template", required=True, help="network template JSON")
    p.add_argument("--check", action="store_true", help="validate the result against the template rules")
    p.set_defaults(handler="_cmd_compose")

    p = sub.add_parser("analyze", help="failure, equality, and soundness analyses")
    asub = p.add_subparsers(dest="analysis", required=True)
    q = asub.add_parser("failure", help="composite failure distribution")
    q.add_argument("bundle")
    q.set_defaults(handler="_cmd_analyze_failure")
    q = asub.add_parser("equal", help="compare two wiring diagrams")
    q.add_argument("bundle")
    q.add_argument("left")
    q.add_argument("right")
    q.set_defaults(handler="_cmd_analyze_equal")
    q = asub.add_parser("soundness", help="component vs outer requirements")
    q.add_argument("wiring")
    q.add_argument("op")
    q.add_argument("requirements")
    q.set_defaults(handler="_cmd_analyze_soundness")

    p = sub.add_parser("plan", help="compile and solve a tasking scenario")
    p.add_argument("template")
    p.add_argument("scenario")
    # counts-level views come from projecting a solved plan, not from solving
    p.add_argument("--level", choices=[Level.TIMED.value, Level.PLAN.value],
                   default=Level.TIMED.value)
    p.add_argument("--export-lp", default=None, metavar="FILE",
                   help="write the LP rendering here instead of solving")
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    p.set_defaults(handler="_cmd_plan")

    p = sub.add_parser("synthesize", help="search for a fleet design")
    p.add_argument("template")
    p.add_argument("catalog")
    p.add_argument("task", help="task JSON, or a bare scenario JSON with --budget")
    p.add_argument("--budget", type=float, default=None, help="override the cost budget")
    p.add_argument("--max-nodes", type=int, default=None, help="override the node cap")
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--audit", default=None, help="write the JSON-lines audit log here")
    p.set_defaults(handler="_cmd_synthesize")
    return parser


def _emit(args, envelope: dict, human: list[str], started: float) -> None:
    envelope["timing_s"] = round(time.perf_counter() - started, 6)
    if args.json:
        print(json.dumps(envelope, sort_keys=True, indent=2))
    for line in human:
        print(line, file=sys.stderr)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"operadic: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    inputs: dict[str, str] = {}
    envelope = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
    }
    try:
        report, human, code = globals()[args.handler](args, inputs)
    except UsageError as exc:
        envelope.update(ok=False, inputs=inputs, error=str(exc))
        print(f"operadic: error: {exc}", file=sys.stderr)
        _emit(args, envelope, [], started)
        return 1
    except InputError as exc:
        envelope.update(ok=False, inputs=inputs, error=str(exc))
        print(f"operadic: invalid input: {exc}", file=sys.stderr)
        _emit(args, envelope, [], started)
        return 1
    except Exception as exc:  # a fault in operadic itself: still one envelope, exit 1
        import traceback

        error = f"internal error: {type(exc).__name__}: {exc}"
        envelope.update(ok=False, inputs=inputs, error=error)
        traceback.print_exc(file=sys.stderr)
        print(f"operadic: {error}", file=sys.stderr)
        _emit(args, envelope, [], started)
        return 1
    envelope.update(ok=code == 0, inputs=inputs, report=report)
    _emit(args, envelope, human, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
