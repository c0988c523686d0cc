"""``session-paper``: the paper's query classes through an in-process
session with warm caches and no telemetry.

Each round walks the ten large queries; for each one it runs a chunk of
sequential searches (every small query three times, one medium query,
the large query) and then the same distinct queries once through
``search_batch``.  Classes interleave at chunk granularity, so a drift
in machine speed hits every class alike.

This process builds the store and checks the reference answers; the
rounds run in a child process (:func:`measure`) that opens the store
itself, so its peak RSS is that of the store-backed session alone.
"""

from __future__ import annotations

import time
from statistics import median

from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import inspect_index, save_index_v2
from repro.runtime.options import SearchOptions
from repro.runtime.session import SearchSession

import checks
import layers
from common import (calibration, collect, put_latency, run_child,
                    run_rounds, speed_scale, timed_setups, work_dir,
                    write_spans)
from inputs import dblp_dataset, query_mix
from tracer import Tracer

#: The kernel every timed search uses.
OPTIONS = SearchOptions(kernel="flat")


def _chunks(mix):
    """(sequential queries with their classes, batch queries) per
    large query."""
    chunks = []
    for position, large in enumerate(mix.large):
        medium = mix.medium[position % len(mix.medium)]
        sequence = [(query, "small") for query in mix.small]
        sequence.append((medium, "medium"))
        sequence += [(query, "small") for query in mix.small]
        sequence.append((large, "large"))
        sequence += [(query, "small") for query in mix.small]
        chunks.append((sequence, [*mix.small, medium, large]))
    return chunks


def _reference(session, dataset, index, mix) -> dict:
    """Each distinct query's answer digest, with the problems its checks
    found (computed before timing; every timed answer must equal it)."""
    reference = {}
    by_text = {text: qid for qid, text in mix.table2.items()}
    for query in dict.fromkeys([*mix.table2.values(), *mix.small,
                                *mix.medium, *mix.large]):
        relevant = (dataset.relevant_codes(by_text[query])
                    if query in by_text else None)
        rows, problems = checks.reference(session, query, index.postings,
                                          relevant, OPTIONS)
        if query in mix.large and rows is not None:
            expected, trouble = checks.reference(
                session, query, index.postings,
                options=OPTIONS.with_(kernel="object"))
            problems += trouble + checks.same_rows(rows, expected,
                                                  "object kernel")
        reference[query] = (checks.digest(rows), problems)
    return reference


def run(seed: int, seconds: float, trace: bool, outcome) -> None:
    with work_dir() as work:
        def build(attempt):
            dataset = dblp_dataset(seed)
            index = InvertedIndex.from_tree(dataset.tree)
            path = work / f"dblp-{attempt}.ckx"
            save_index_v2(index, path)
            session = SearchSession.from_store(path)
            return (dataset, index, path, session), session.index.close

        (dataset, index, path, session), setup_s = timed_setups(build)
        mix = query_mix(dataset, index)
        if not mix.small:
            raise ValueError("no Table 2 query has only short lists")
        reference = _reference(session, dataset, index, mix)
        session.index.close()
        store = inspect_index(path)
        for qid, text in mix.table2.items():
            outcome.check(not reference[text][1],
                          f"{qid}: {reference[text][1]}")
        report = run_child("session_paper", {
            "store": str(path), "seed": seed, "seconds": seconds,
            "trace": trace, "chunks": _chunks(mix),
            "reference": reference}, work)
    outcome.merge(report["outcome"])
    if not trace:
        outcome.put("setup_s", setup_s, "s")
        outcome.put("peak_rss_mb", report["peak_rss_mb"], "MB")
        outcome.put("store_bytes_per_posting",
                    store["bytes"] / store["postings"], "B")


def measure(spec: dict, outcome) -> None:
    """The measured rounds over ``spec["store"]`` (in the child)."""
    trace = spec["trace"]
    reference = spec["reference"]
    chunks = spec["chunks"]
    session = SearchSession.from_store(spec["store"])
    tracer = Tracer()
    # Untraced: each sequential query's seconds and, per measured round,
    # queries answered per second, both at the reference speed.
    latencies: list = []
    throughputs: list = []
    traced_ops: dict = {}      # op id -> (class, seconds), traced
    untraced: dict = {}        # class -> seconds, untraced chunks
    op_ids = iter(range(1 << 62))
    caches = []                # cache counters when measuring starts

    def check(query, answer, what):
        expected, problems = reference[query]
        outcome.check(
            not problems and checks.digest(checks.rows(answer)) == expected,
            f"{what} {query}: {problems or 'answer changed'}")

    def timed(op, traced, call, what, measured):
        """``call()``'s result and seconds, or ``None`` if it raised (a
        failed operation when ``measured``)."""
        tracer.begin(op, traced)
        start = time.perf_counter()
        try:
            result = call()
            elapsed = time.perf_counter() - start
        except Exception as error:
            if measured:
                outcome.error(what, error)
            return None
        finally:
            tracer.end()
        return result, elapsed

    def do_round(round_index, measured):
        if measured and not caches:
            caches.append(session.cache_stats())
        calibrations = []
        sequential = []        # this round's sequential query seconds
        answered = 0
        busy = 0.0
        for position, (sequence, batch) in enumerate(chunks):
            if not trace:
                calibrations.append(calibration())
            traced = trace and (round_index + position) % 2 == 1
            if traced:
                layers.install(tracer)
            for query, kind in sequence:
                op = next(op_ids)
                done = timed(op, traced,
                             lambda: session.search(query, OPTIONS),
                             f"{kind} {query}", measured)
                if measured and done is not None:
                    check(query, done[0], kind)
                    if traced:
                        traced_ops[op] = (kind, done[1])
                    elif trace:
                        untraced.setdefault(kind, []).append(done[1])
                    sequential.append(done[1])
                    answered += 1
                    busy += done[1]
            op = next(op_ids)
            done = timed(op, traced,
                         lambda: session.search_batch(batch, OPTIONS),
                         "batch", measured)
            if traced:
                tracer.restore()
            if measured and done is not None:
                for query, answer in zip(batch, done[0]):
                    check(query, answer, "batch")
                if traced:
                    traced_ops[op] = ("batch", done[1])
                elif trace:
                    untraced.setdefault("batch", []).append(done[1])
                answered += len(batch)
                busy += done[1]
        if measured and not trace and answered:
            scale = speed_scale(calibrations)
            latencies.extend(seconds * scale for seconds in sequential)
            throughputs.append(answered / (busy * scale))

    collect()
    run_rounds(spec["seconds"], do_round)
    caches.append(session.cache_stats())
    session.index.close()
    with outcome.metrics_despite_failures():
        if trace:
            write_spans("session-paper", spec["seed"], tracer.spans,
                        operations=traced_ops)
            layers.per_layer(
                outcome, tracer.spans, traced_ops, untraced,
                cache=layers.cache_delta(*caches),
                dedup_groups=inspect_index(spec["store"])["dedup_groups"])
        else:
            put_latency(outcome, latencies)
            outcome.put("throughput_ops", median(throughputs), "1/s")
