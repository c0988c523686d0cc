"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload session-paper --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead runs
half of the workload's operations under in-memory spans and prints the
per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The program is built from the checkout's ``src`` directory; without it
the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
# The kernel is the benchmark's choice, not the environment's.
os.environ.pop("REPRO_KERNEL", None)

WORKLOADS = ("serve-keepalive", "session-paper", "ingest-cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from common import Outcome
    if args.workload == "serve-keepalive":
        import serve_keepalive as workload
    elif args.workload == "session-paper":
        import session_paper as workload
    else:
        import ingest_cold as workload
    outcome = Outcome()
    workload.run(args.seed, args.seconds, bool(args.trace), outcome)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    # Every workload prints every metric of its kind, in its unit.
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {metric["name"]: metric["unit"] for metric in
              spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: metric["unit"]
           for name, metric in outcome.metrics.items()}
    print(json.dumps(outcome.to_json(), sort_keys=True))
    if got != wanted and not outcome.failed:
        print(f"metrics differ from BENCHMARK.json: printed {sorted(got)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
