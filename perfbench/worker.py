"""The process that runs the workload: one ``operadic.cli.main`` call at a time.

Usage: ``python3 perfbench/worker.py SRC_DIR``.  It imports ``operadic.cli``
from ``SRC_DIR`` and then reads one JSON request per line on stdin:

* ``{"argv": [...], "trace": false}`` runs the command in process with
  stdout and stderr captured, and answers ``{"code", "stdout", "elapsed",
  "error", "layers"}``;
* ``{"rss": true}`` answers ``{"rss_mb": ...}``, the peak resident memory of
  this process.

With ``"trace": true`` the layer functions are wrapped from outside for that
one call (``Tracer``) and ``layers`` holds their self times, call counts and
the counts their results expose.  The wrappers are removed again before the
answer is sent, so untraced calls run the program's own functions.
"""

from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path


class Tracer:
    """Self time and call counts of wrapped functions during one call.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it.  Counts read from results are taken after the
    call ends, so they cost the spans nothing.
    """

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.pending: list = []
        self.saved: list = []

    def _patch(self, owner, attr: str, make) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, count=None) -> None:
        def make(fn):
            def wrapped(*args, **kwargs):
                frame = [0.0]
                self.stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    self.stack.pop()
                    self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
                    self.calls[name] = self.calls.get(name, 0) + 1
                    if self.stack:
                        self.stack[-1][0] += dur
                if count is not None:
                    self.pending.append((count, args, result))
                return result

            return wrapped

        self._patch(owner, attr, make)

    def tally(self, owner, attr: str, name: str) -> None:
        def make(fn):
            def wrapped(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapped

        self._patch(owner, attr, make)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def restore(self) -> dict:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()
        for count, args, result in self.pending:
            count(self, args, result)
        self.pending.clear()
        return {"self_s": self.self_s, "calls": self.calls, "counts": self.counts}


def install(tracer: Tracer) -> None:
    """Wrap each layer where its caller looks it up."""
    from operadic import cli, core, lp, planner, synthesis, wiring

    t = tracer
    t.span(cli, "main", "cli")
    t.span(cli, "parse_tasking_template", "template.parse_tasking_template")
    t.span(cli, "parse_network_template", "template.parse_network_template")
    t.span(cli, "parse_plan_scenario", "planner.parse_plan_scenario")
    t.span(cli, "parse_catalog", "algebra.parse_catalog")
    t.span(cli, "parse_synthesis_task", "synthesis.parse_synthesis_task")
    t.span(cli, "parse_wiring_bundle", "wiring.parse_wiring_bundle")
    t.span(cli, "parse_requirements_bundle", "wiring.parse_requirements_bundle")
    t.span(cli, "compile_scenario", "planner.compile_scenario",
           lambda t, a, cs: t.add("planner.bindings", len(cs.bindings)))
    t.span(cli, "solve", "planner.solve")
    t.span(planner.ConstraintSystem, "lp_model", "planner.lp_model",
           lambda t, a, m: (t.add("lp.variables", len(m.variables())),
                            t.add("lp.constraints", len(m.constraints))))
    # export_lp imports write_lp from the lp module at each call
    t.span(lp, "write_lp", "lp.write_lp", lambda t, a, text: t.add("lp.bytes", len(text.encode())))
    t.span(cli, "search", "synthesis.search",
           lambda t, a, r: t.add("synthesis.evaluations", r.evaluations))
    t.span(synthesis, "enumerate_designs", "synthesis.enumerate_designs",
           lambda t, a, r: t.add("synthesis.designs", len(r)))
    t.span(synthesis.DesignEvaluator, "realize", "synthesis.realize")
    t.span(synthesis, "kpi_evaluate", "algebra.kpi_evaluate")
    t.span(core.NetOperation, "endo", "core.endo")
    for attr in ("score", "rank", "audit_record"):
        t.tally(synthesis.DesignEvaluator, attr, "synthesis.lookups")
    t.span(cli, "soundness_check", "wiring.soundness_check",
           lambda t, a, r: (t.add("wiring.states_checked", r.checked),
                            t.add("wiring.counterexamples", len(r.counterexamples))))
    t.span(wiring, "joint_validity", "wiring.joint_validity",
           lambda t, a, r: t.add("wiring.grid_states",
                                 math.prod(len(a[2][a[0].wire_space(w)]) for w in a[0].wires)))


def run(argv: list[str], trace: bool) -> dict:
    from operadic import cli

    out, err = io.StringIO(), io.StringIO()
    tracer = Tracer() if trace else None
    gc.collect()
    code, error, elapsed = None, None, 0.0
    try:
        if tracer is not None:
            install(tracer)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                elapsed = time.perf_counter() - t0
    except Exception:  # a crash is a failed operation, not a dead worker
        error = traceback.format_exc()
    finally:
        layers = tracer.restore() if tracer is not None else None
    return {"code": code, "stdout": out.getvalue(), "elapsed": elapsed, "error": error, "layers": layers}


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    proto = sys.stdout
    import operadic.cli

    if src not in Path(operadic.cli.__file__).resolve().parents:
        print(f"operadic was imported from {operadic.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("rss"):
            reply = {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        else:
            reply = run(req["argv"], bool(req.get("trace")))
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
