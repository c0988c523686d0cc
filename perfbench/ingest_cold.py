"""``ingest-cold``: the write path and the cold read path.

Each cycle parses and indexes four serialised documents (DBLP and
XMark, a small and a large one of each), saves the two large ones as a
subtree-deduplicated CKSIDX2 store, appends the two small ones as
segments, merges with deduplication, and then opens the merged store
afresh once per cold query, answering that single query with empty
caches.  Document ``d`` lives under Dewey prefix ``(d,)``.

This process generates the documents and the streaming-indexer
reference; the cycles run in a child process (:func:`measure`) that
holds only the documents' XML and what the program builds from it, so
its peak RSS is the ingest path's.  The child keeps one copy of every
distinct merged store, and this process reads each back against the
reference afterwards.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path
from statistics import median

from repro.index import store_v2
from repro.index.inverted import InvertedIndex, Posting
from repro.index.streaming import StreamingIndexer
from repro.runtime.options import SearchOptions
from repro.runtime.session import SearchSession
from repro.xmlio import loader
from repro.xmlio.pull_parser import PullParser

import checks
import layers
from common import (calibration, collect, put_latency, run_child,
                    run_rounds, speed_scale, timed_setups, work_dir,
                    write_spans)
from inputs import ingest_docs
from tracer import Tracer

#: The kernel every cold query uses.
OPTIONS = SearchOptions(kernel="flat")
#: The documents saved first; the others arrive as appended segments.
BASE_DOCS = (0, 1)
#: Frequency ranks of the cold frequent-keyword queries' keywords; the
#: top ranks are element labels, whose list lengths barely move with
#: the seed.
COLD_RANKS = (5, 1, 3)


def _prefixed(postings, document: int) -> dict:
    return {keyword: tuple(Posting((document,) + posting.code,
                                   posting.frequency) for posting in plist)
            for keyword, plist in postings.items()}


def _union(parts) -> dict:
    merged: dict = {}
    for part in parts:
        for keyword, plist in part.items():
            merged.setdefault(keyword, []).extend(plist)
    return merged


def _streamed(doc, document: int) -> dict:
    """A document indexed by the streaming indexer, which never builds
    a tree: the reference for every posting read back."""
    indexer = StreamingIndexer(root_prefix=(document,))
    for event in PullParser(doc.xml):
        indexer.feed(event)
    return dict(indexer.finish().raw_postings())


def _cold_queries(docs, reference) -> list:
    """Table 2 queries (planted in both DBLP documents) and two
    frequent-keyword queries, picked by frequency rank."""
    pool = reference.most_frequent(max(COLD_RANKS) + 1)
    return [*docs[0].dataset.queries.values(),
            "({})".format(pool[COLD_RANKS[0]]),
            "({} {})".format(pool[COLD_RANKS[1]], pool[COLD_RANKS[2]])]


def _planted(docs, text):
    """The planted relevant records of a Table 2 query, over every
    DBLP document, or ``None`` for a query that is not one."""
    relevant = set()
    for document, doc in enumerate(docs):
        if doc.corpus != "dblp":
            continue
        for qid, query in doc.dataset.queries.items():
            if query == text:
                relevant |= {(document,) + code for code in
                             doc.dataset.relevant_codes(qid)}
    return relevant or None


def run(seed: int, seconds: float, trace: bool, outcome) -> None:
    with work_dir() as work:
        docs, setup_s = timed_setups(lambda attempt: (ingest_docs(seed),
                                                      None))
        doc_reference = [_streamed(doc, document)
                         for document, doc in enumerate(docs)]
        reference = InvertedIndex(_union(doc_reference))
        ref_session = SearchSession(reference)
        cold = []
        for query in _cold_queries(docs, reference):
            rows, problems = checks.reference(
                ref_session, query, reference.postings,
                _planted(docs, query), OPTIONS)
            cold.append((query, checks.digest(rows), problems))
        doc_specs = []
        for document, doc in enumerate(docs):
            path = work / f"doc-{document}.xml"
            path.write_text(doc.xml, encoding="utf-8")
            doc_specs.append({"path": str(path), "kb": doc.kb,
                              "size": doc.size,
                              "postings": checks.postings_digest(
                                  doc_reference[document])})
        kept = work / "merged"
        kept.mkdir()
        report = run_child("ingest_cold", {
            "docs": doc_specs, "cold": cold, "store": str(work / "s.ckx"),
            "kept": str(kept), "seed": seed, "seconds": seconds,
            "trace": trace}, work)
        outcome.merge(report["outcome"])
        # Every merged store the cycles produced, read back against the
        # streaming reference; one reading judges every cycle whose
        # store was byte-identical.
        ref_postings = reference.raw_postings()
        judged = {}
        for digest in report["extra"]["merged"]:
            if digest not in judged:
                with store_v2.open_index(kept / f"{digest}.ckx") as store:
                    judged[digest] = checks.same_postings(
                        store.raw_postings(), ref_postings)
            for what in ("save", "append + merge"):
                outcome.check(not judged[digest],
                              f"{what}: {judged[digest]}")
    if not trace:
        outcome.put("setup_s", setup_s, "s")
        outcome.put("peak_rss_mb", report["peak_rss_mb"], "MB")


def measure(spec: dict, outcome) -> dict:
    """The measured cycles (in the child); returns the digest of each
    measured cycle's merged store."""
    trace = spec["trace"]
    docs = spec["docs"]
    for doc in docs:
        doc["xml"] = Path(doc["path"]).read_text(encoding="utf-8")
    path = Path(spec["store"])
    kept = Path(spec["kept"])
    merged_digests: list = []
    tracer = Tracer()
    # Untraced: each cold query's seconds and, per measured cycle,
    # operations per second, both at the reference speed.
    latencies: list = []
    throughputs: list = []
    traced_ops: dict = {}     # op id -> (kind, seconds)
    untraced: dict = {}       # kind -> seconds
    doc_ops: dict = {}        # op id -> (KB, size class) of its document
    caches: list = []         # each measured cold session's cache counters
    op_ids = iter(range(1 << 62))

    def keep(kind, op, elapsed, traced):
        if traced:
            traced_ops[op] = (kind, elapsed)
        elif trace:
            untraced.setdefault(kind, []).append(elapsed)

    def cycle(traced, measured, fail):
        """One cycle; ``fail(step, error, left)`` counts a step that
        raised and the ``left`` checked operations the cycle then cannot
        run, so a failing cycle counts as many operations as a sound
        one: one per document, two for the merged store's read-back
        check (made by the parent), one per cold query."""
        steps = len(docs) + 2 + len(spec["cold"])
        calibrations = [calibration()]
        parts = []
        busy = []                 # seconds of each operation done
        for document, doc in enumerate(docs):
            op = next(op_ids)
            tracer.begin(op, traced)
            start = time.perf_counter()
            try:
                tree = loader.load_tree(doc["xml"])
                index = InvertedIndex.from_tree(tree)
                elapsed = time.perf_counter() - start
            except Exception as error:
                return fail(f"ingest of document {document}", error,
                            steps - document - 1)
            finally:
                tracer.end()
            busy.append(elapsed)
            part = _prefixed(index.raw_postings(), document)
            parts.append(part)
            if measured:
                doc_ops[op] = (doc["kb"], doc["size"])
                keep("ingest", op, elapsed, traced)
                outcome.check(
                    checks.postings_digest(part) == doc["postings"],
                    f"document {document} postings differ from the "
                    "streaming indexer's")
        base = InvertedIndex(_union(parts[d] for d in BASE_DOCS))
        collect()
        calibrations.append(calibration())
        op = next(op_ids)
        tracer.begin(op, traced)
        start = time.perf_counter()
        try:
            store_v2.save_index_v2_dedup(base, path)
            save_seconds = time.perf_counter() - start
        except Exception as error:
            return fail("dedup save", error, steps - len(docs) - 1)
        finally:
            tracer.end()
        busy.append(save_seconds)
        if measured:
            keep("save", op, save_seconds, traced)
        op = next(op_ids)
        tracer.begin(op, traced)
        start = time.perf_counter()
        try:
            for document in range(len(docs)):
                if document not in BASE_DOCS:
                    store_v2.append_segment(path, parts[document])
            store_v2.merge_index(path, dedup=True)
            merge_seconds = time.perf_counter() - start
        except Exception as error:
            # The cold queries and the read-back check of the store.
            return fail("append + merge", error, len(spec["cold"]) + 1)
        finally:
            tracer.end()
        busy.append(merge_seconds)
        if measured:
            keep("append_merge", op, merge_seconds, traced)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if digest not in merged_digests:
                shutil.copyfile(path, kept / f"{digest}.ckx")
            merged_digests.append(digest)
        collect()
        calibrations.append(calibration())
        cold_seconds = []
        for query, expected, problems in spec["cold"]:
            op = next(op_ids)
            tracer.begin(op, traced)
            start = time.perf_counter()
            try:
                session = SearchSession.from_store(path)
                answer = session.search(query, OPTIONS)
                elapsed = time.perf_counter() - start
            except Exception as error:
                if measured:
                    outcome.error(f"cold {query}", error)
                continue
            finally:
                tracer.end()
            cold_seconds.append(elapsed)
            busy.append(elapsed)
            stats = session.cache_stats()
            session.index.close()
            if measured:
                caches.append(stats)
                keep("cold", op, elapsed, traced)
                outcome.check(
                    not problems and
                    checks.digest(checks.rows(answer)) == expected,
                    f"cold {query}: {problems or 'answer differs'}")
        if measured and not trace:
            # At the reference speed, like every timing of the cycle.
            scale = speed_scale(calibrations)
            latencies.extend(seconds * scale for seconds in cold_seconds)
            throughputs.append(len(busy) / (sum(busy) * scale))

    def do_round(index, measured):
        traced = trace and index % 2 == 1
        if traced:
            layers.install(tracer)

        def fail(step, error, left):
            if measured:
                outcome.error(step, error)
                for _ in range(left):
                    outcome.error(f"not run after the failed {step}")

        try:
            cycle(traced, measured, fail)
        finally:
            if traced:
                tracer.restore()

    run_rounds(spec["seconds"], do_round)
    with outcome.metrics_despite_failures():
        if trace:
            write_spans("ingest-cold", spec["seed"], tracer.spans,
                        operations=traced_ops)
            layers.per_layer(
                outcome, tracer.spans, traced_ops, untraced,
                cache=layers.cache_sum(caches),
                dedup_groups=store_v2.inspect_index(path)["dedup_groups"],
                docs=doc_ops)
        else:
            merged = store_v2.inspect_index(path)
            # p90: a 25 s run answers ~250 cold queries, too few to be
            # sure of ten beyond p95 on a slower machine.
            put_latency(outcome, latencies, tail=0.90)
            outcome.put("throughput_ops", median(throughputs), "1/s")
            outcome.put("store_bytes_per_posting",
                        merged["bytes"] / merged["postings"], "B")
    return {"merged": merged_digests}
