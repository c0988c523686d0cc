"""Steadiness check: run workloads repeatedly, one seed per run, and
show how far each end-to-end metric spreads against its bound.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py                      # every workload
    python3 perfbench/steady.py --workloads session-paper --runs 5

For each metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and that spread as a share of the bound in
``BENCHMARK.json``.  A spread above a third of its bound is flagged
(``setup_s`` is compared between sets of runs, not by spread).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            result = run_once(workload, seed, args.seconds, 0)
            results.append(result)
            print(f"{workload} seed {seed}: attempted "
                  f"{result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}", flush=True)
        shares = {result["failed"] / result["attempted"]
                  for result in results}
        print(f"\n{workload}: failed share per run {sorted(shares)}")
        print(f"{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"]
                      for result in results]
            q1, middle, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / middle
            bound = bounds.get(name)
            share = spread / bound if bound else float("nan")
            flag = " !" if name != "setup_s" and share > 1 / 3 else ""
            print(f"{name:<26}{middle:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{bound or 0:>7.2f}{share:>8.2f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
