"""Run the measured phase of one workload in a process of its own.

The parent process builds the inputs and computes the reference answers;
this process holds only what the program holds while it works, so the
peak RSS it reports is the program's.

Usage: ``python3 perfbench/child.py MODULE SPEC.json REPORT.json`` with
the checkout's ``src`` on ``PYTHONPATH``; ``MODULE`` (``session_paper``
or ``ingest_cold``) has a ``measure(spec, outcome)`` function whose
extra results, if any, go to the report under ``extra``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import Outcome, peak_rss_mb  # noqa: E402


def main() -> int:
    module, spec_path, report_path = sys.argv[1:]
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    outcome = Outcome()
    extra = importlib.import_module(module).measure(spec, outcome)
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump({"outcome": outcome.dump(), "peak_rss_mb": peak_rss_mb(),
                   "extra": extra}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
