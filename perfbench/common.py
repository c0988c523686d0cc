"""Shared helpers: statistics, memory, phases and the run's result."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of one run, inside the checkout and git-ignored.
WORK_ROOT = ROOT / ".perfbench_work"
#: Where traced runs leave their spans (git-ignored).
SPANS_DIR = ROOT / ".perfbench_spans"
#: Seconds a measuring child may run beyond its measured phase (set-up,
#: warm-up and the metrics) before it is stopped.
CHILD_GRACE = 90.0
#: Each run repeats its set-up at least SETUP_REPEATS times and, for a
#: quick set-up, until SETUP_SECONDS have passed (at most SETUP_MAX
#: times); ``setup_s`` is the median.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 7, 1.0, 50


#: The calibration loop's thread CPU time at the reference speed.
#: In-process timings are scaled by ``CALIBRATION_S / measured loop
#: time``, so they read as on a machine where the loop takes 10 ms.
CALIBRATION_S = 0.010


def calibration() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: integer
    arithmetic, dict updates, a sort and string joins, the kinds of work
    the program does.  It is the yardstick of the machine's speed at the
    moment, which drifts by up to a fifth within a minute on shared
    hosts; CPU time of this thread alone, so another thread holding the
    interpreter lock cannot make the machine look slower."""
    start = time.thread_time()
    counts: dict = {}
    x = 12345
    for _ in range(20000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 997
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    "".join(str(count) for _, count in ranked)
    return time.thread_time() - start


def speed_scale(calibrations) -> float:
    """The factor that turns times measured alongside ``calibrations``
    into times at the reference speed."""
    return CALIBRATION_S / median(calibrations)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile; requires at least ten samples beyond
    it, or the tail is not a tail."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"{len(ordered)} samples are too few for the "
                         f"p{fraction * 100:g} tail")
    return ordered[rank - 1]


def put_latency(outcome, seconds, tail: float = 0.95) -> None:
    """``latency_p50_ms`` and ``latency_tail_ms`` (the ``tail``
    percentile; p95 needs 200 samples to leave ten beyond it) of a run's
    query latencies."""
    outcome.put("latency_p50_ms", median(seconds) * 1e3, "ms")
    outcome.put("latency_tail_ms", percentile(seconds, tail) * 1e3, "ms")


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def collect() -> None:
    """Collect garbage between phases so no phase pays for another's."""
    gc.collect()


@contextmanager
def work_dir():
    """A fresh scratch directory, removed when the run ends."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def timed_setups(build):
    """Run ``build(attempt)`` repeatedly; return the last result and the
    median wall time at the reference speed.  ``build`` returns
    ``(value, cleanup)``; an earlier attempt's ``cleanup`` (if not
    ``None``) runs, untimed, before the next attempt."""
    times = []
    calibrations = []
    cleanup = None
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        if cleanup is not None:
            cleanup()
        collect()
        calibrations.append(calibration())
        start = time.perf_counter()
        value, cleanup = build(len(times))
        times.append(time.perf_counter() - start)
        calibrations.append(calibration())
    return value, median(times) * speed_scale(calibrations)


class Outcome:
    """Operations attempted and failed, and the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.metrics: dict = {}
        self.problems: list = []

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation whose answer was checked; a wrong answer
        fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self.note(what)
        return ok

    def error(self, what: str, error: BaseException = None) -> None:
        """Count one operation that raised (``error``, whose traceback
        is kept) or was refused."""
        self.attempted += 1
        self.failed += 1
        if error is not None:
            what += ":\n" + "".join(traceback.format_exception(error))
        self.note(what)

    def note(self, what: str) -> None:
        """Keep a problem to report (the first 20)."""
        if len(self.problems) < 20:
            self.problems.append(what)

    def merge(self, other: "Outcome") -> None:
        """Add the operations and metrics another thread or process
        counted."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.problems += other.problems[:20 - len(self.problems)]
        self.metrics.update(other.metrics)

    def dump(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "problems": self.problems,
                "metrics": self.metrics}

    @classmethod
    def load(cls, state: dict) -> "Outcome":
        outcome = cls()
        for key, value in state.items():
            setattr(outcome, key, value)
        return outcome

    @contextmanager
    def metrics_despite_failures(self):
        """Compute metrics; after failed operations a metric whose
        samples the failures emptied is left out instead of raising
        (the first such metric ends the block)."""
        try:
            yield
        except (ValueError, ZeroDivisionError, KeyError) as error:
            if not self.failed:
                raise
            self.note(f"metrics left out after failures: {error!r}")

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def to_json(self) -> dict:
        return {"correct": self.wrong == 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}


def write_spans(workload: str, seed: int, spans, **extra) -> None:
    """Write a traced run's spans (kept in memory until now) to
    ``.perfbench_spans/WORKLOAD-seedSEED.json``."""
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"spans": spans, **extra}, out)


def drop_env() -> dict:
    """The environment for child processes: the checkout's sources on
    the path and no setting that changes which kernel answers."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env.pop("REPRO_SERVER_DELAY_MS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, spec: dict, work: Path) -> dict:
    """Run ``workload``'s ``measure(spec, outcome)`` in a process of its
    own (``child.py``), so its peak RSS is the program's and not the
    references' held here; return its report with ``outcome`` loaded."""
    spec_path = work / "spec.json"
    report_path = work / "report.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")),
         workload, str(spec_path), str(report_path)],
        cwd=ROOT, env=drop_env(), capture_output=True, text=True,
        timeout=spec["seconds"] + CHILD_GRACE)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} measuring process failed:\n"
                           f"{done.stderr}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["outcome"] = Outcome.load(report["outcome"])
    return report


def run_rounds(seconds: float, do_round, warmup_rounds: int = 1) -> None:
    """Call ``do_round(index, measured)`` for the warm-up rounds, then
    for whole measured rounds until ``seconds`` have passed.  Garbage is
    collected between rounds, outside every timed operation."""
    for index in range(warmup_rounds):
        collect()
        do_round(index, False)
    collect()
    start = time.perf_counter()
    index = warmup_rounds
    while True:
        do_round(index, True)
        index += 1
        if time.perf_counter() - start >= seconds:
            return
        collect()
