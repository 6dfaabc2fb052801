"""Repeated runs with different seeds, and the spread of each metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...]

For every workload it runs ``run.py`` untraced once per seed (1, 2, ...),
one run at a time and for ``run_seconds`` from ``BENCHMARK.json``, and
prints for each metric the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
next to the metric's bound.  It also checks that every run was correct and
that the share of failed operations is the same in every run.  The table is
also written to ``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    table, ok = {}, True
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name:12} seed {seed}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= proc.returncode == 0 and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        ok &= len(shares) == 1
        table[name] = {}
        for metric, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            table[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            bound = bounds[metric]
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else ">1/3"
            print(f"{name:12} {metric:12} median {med:10.6g}  spread {spread:7.4f}  bound {bound}  {flag}")
        print(f"{name:12} failed share {sorted(shares)}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(table, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
