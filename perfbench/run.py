"""Benchmark of the ``operadic`` command, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload plan-search --seed 1 --seconds 10 --trace 0

One caller, one operation at a time, no threads: a closed loop.  An
operation is one in-process ``operadic.cli.main([... "--json" ...])`` call
in a worker process (``worker.py``) that imports the program from ``src/``.
This process writes each operation's seeded inputs (``workloads.py``), times
nothing itself, and checks every output against a computation made apart
from the program (``oracles.py``) while the worker waits, so checks never
overlap a measured call.

A run attempts whole rounds of operations until the measured calls add up
to ``--seconds``.  Before the first round, one operation runs twice and the
two envelopes must agree byte for byte except ``timing_s``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of a
fresh interpreter that imports ``operadic.cli``, probed after every second
operation so that the probes span the run), ``op_p50_s`` (median
time per operation), ``ops_per_s`` (operations per second of measured
calls) and ``peak_rss_mb`` (peak resident memory of the worker).

``--trace 1`` runs each operation once untraced and once with the layer
functions wrapped (alternating which goes first), and prints the per-layer
metrics: self time and calls per operation, the counts the results expose,
and ``trace.overhead``, the traced calls' total time over the untraced
calls' total, minus one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy with per-shape detail goes
to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import CheckFailed, same_modulo_timing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_EVERY = 2  # one set-up probe after every second operation
WALL_LIMIT_S = 120.0  # no new round after this, whatever --seconds says

# per-layer metrics: self times (seconds), call counts, and counts read from results
LAYER_TIMES = [
    "planner.solve", "planner.compile_scenario", "planner.lp_model", "lp.write_lp",
    "synthesis.search", "synthesis.enumerate_designs", "synthesis.realize",
    "algebra.kpi_evaluate", "core.endo", "wiring.joint_validity", "wiring.soundness_check",
    "template.parse_tasking_template", "template.parse_network_template",
    "planner.parse_plan_scenario", "algebra.parse_catalog", "synthesis.parse_synthesis_task",
    "wiring.parse_wiring_bundle", "wiring.parse_requirements_bundle", "cli",
]
LAYER_CALLS = ["planner.solve", "synthesis.realize", "algebra.kpi_evaluate"]
LAYER_COUNTS = [
    "planner.bindings", "lp.variables", "lp.constraints", "lp.bytes", "synthesis.designs",
    "synthesis.evaluations", "wiring.grid_states", "wiring.states_checked", "wiring.counterexamples",
]


class Worker:
    """The process that runs the operations, spoken to in JSON lines."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(SRC)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._read().get("ready") is not True:
            raise RuntimeError("worker did not start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def setup_probe() -> float:
    """Time from starting a fresh interpreter until it has imported
    ``operadic.cli`` (interpreter start-up included, shutdown not)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = [sys.executable, "-c", "import operadic.cli; print(operadic.cli.__file__, flush=True)"]
    t0 = time.perf_counter()
    with subprocess.Popen(probe, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        where = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or SRC not in Path(where).resolve().parents:
        raise RuntimeError(f"operadic.cli did not import from {SRC} (got {where!r})")
    return elapsed


def checked(op, reply: dict, failures: list) -> bool:
    try:
        op.check(reply)
        return True
    except CheckFailed as exc:
        failures.append(f"{op.shape}: {exc}")
    except Exception as exc:  # an envelope the checks cannot read is a failed operation
        failures.append(f"{op.shape}: {type(exc).__name__}: {exc}")
    return False


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    workload = WORKLOADS[name](tmp, ROOT)
    setup: list[float] = []
    if not trace:
        setup_probe()  # warms the file cache; not counted
    worker = Worker()
    try:
        failures: list[str] = []
        # the rerun contract, and a warm-up outside the measured rounds
        op = workload.round(random.Random(f"{seed}:{name}:rerun"))[0]
        first, second = worker.ask({"argv": op.argv}), worker.ask({"argv": op.argv})
        deterministic = checked(op, first, failures) and checked(op, second, failures)
        if not same_modulo_timing(first["stdout"], second["stdout"]):
            deterministic = False
            failures.append(f"{op.shape}: rerun envelopes differ")

        attempted = failed = 0
        plain: list[float] = []
        traced: list[float] = []
        per_shape: dict[str, list[float]] = {}
        layers = {"self_s": {}, "calls": {}, "counts": {}}
        started, r = time.perf_counter(), 0
        while True:
            for op in workload.round(random.Random(f"{seed}:{name}:{r}")):
                attempted += 1
                order = ((False, True) if attempted % 2 else (True, False)) if trace else (False,)
                replies = {flag: worker.ask({"argv": op.argv, "trace": flag}) for flag in order}
                plain.append(replies[False]["elapsed"])
                per_shape.setdefault(op.shape, []).append(replies[False]["elapsed"])
                reply = replies[trace]
                ok = checked(op, reply, failures)
                if ok and trace and not same_modulo_timing(replies[False]["stdout"], reply["stdout"]):
                    ok = False
                    failures.append(f"{op.shape}: traced and untraced envelopes differ")
                failed += not ok
                if not trace and attempted % SETUP_EVERY == 0:
                    setup.append(setup_probe())
                if trace:
                    traced.append(reply["elapsed"])
                    for part, values in reply["layers"].items():
                        for key, v in values.items():
                            layers[part][key] = layers[part].get(key, 0) + v
            try:
                workload.after_round()
            except CheckFailed as exc:
                failed += 1
                failures.append(f"round {r}: {exc}")
            except Exception as exc:
                failed += 1
                failures.append(f"round {r}: {type(exc).__name__}: {exc}")
            r += 1
            if sum(plain) + sum(traced) >= seconds or time.perf_counter() - started > WALL_LIMIT_S:
                break
        rss_mb = worker.ask({"rss": True})["rss_mb"]
    finally:
        worker.close()

    if trace:
        n = len(traced)
        metrics = {f"{k}_s": (layers["self_s"].get(k, 0.0) / n, "s") for k in LAYER_TIMES}
        metrics["cli.self_s"] = metrics.pop("cli_s")
        metrics.update({f"{k}_calls": (layers["calls"].get(k, 0) / n, "count") for k in LAYER_CALLS})
        metrics.update({k: (layers["counts"].get(k, 0) / n, "count") for k in LAYER_COUNTS})
        lookups = layers["calls"].get("synthesis.lookups", 0)
        hits = 1.0 - layers["counts"].get("synthesis.evaluations", 0) / lookups if lookups else 0.0
        metrics["synthesis.cache_hit_ratio"] = (hits, "ratio")
        metrics["trace.overhead"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_s": (statistics.median(plain), "s"),
            "ops_per_s": (len(plain) / sum(plain), "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    return {
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "rounds": r,
            "setup_probes": len(setup), "shape_p50_s": {k: statistics.median(v) for k, v in sorted(per_shape.items())},
            "failures": failures[:20],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "operadic" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'operadic'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the LP check reads files with operadic.lp
    tmp = HERE / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    detail = result.pop("detail")
    out = HERE / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**result, "detail": detail}, indent=2) + "\n")
    for line in detail["failures"]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
