"""The per-layer metrics: one set of wrappers and one computation for
every workload.

Every workload's traced run installs the same wrappers around the
program's layers (:func:`install`; the server adds its own around
them) and hands its traced operations to :func:`per_layer`, which
prints every per-layer metric of ``BENCHMARK.json``.  A metric whose
layer or operation class the workload never reaches reads 0: no span
was recorded (the ``session-paper`` workload starts no server, so
``server.handler_us`` is 0 there).

An operation is ``op id -> (class, seconds)``.  The classes are
``small``, ``medium``, ``large`` and ``cold`` (one query each),
``batch`` (one ``search_batch`` call), ``ingest`` (parse + index of one
document), ``save`` and ``append_merge``.
"""

from __future__ import annotations

from statistics import mean, median

from repro.core import kernel
from repro.index import store_v2
from repro.index.inverted import InvertedIndex
from repro.runtime import batch as batch_module
from repro.runtime import session as session_module
from repro.runtime.session import SearchSession
from repro.xmlio import loader

from tracer import SpanIndex, Tracer

#: The classes whose operations answer one query.
QUERY_CLASSES = ("small", "medium", "large", "cold")
#: Spans that wrap a whole request and do no layer's work of their own:
#: their self time is the part the named layers leave out.
CONTAINERS = ("server.handler",)


def _evaluate_attrs(args, kwargs, result):
    compiled, lists = args[0], args[1]
    return {"postings_in": sum(len(lists.get(keyword, ()))
                               for keyword in compiled.atoms),
            "results_out": len(result)}


def _decode_attrs(args, kwargs, result):
    return {"bytes": args[2]}


def install(tracer: Tracer) -> None:
    """Wrap the in-process layers' entry points."""
    tracer.wrap(SearchSession, "search", "session.search")
    tracer.wrap(SearchSession, "plan", "session.plan")
    tracer.wrap(SearchSession, "postings", "session.postings")
    tracer.wrap(SearchSession, "_record_query", "obs.query_telemetry")
    for owner in (kernel, session_module):
        tracer.wrap(owner, "evaluate_compiled_flat", "kernel.evaluate",
                    attrs=_evaluate_attrs)
    tracer.wrap(batch_module, "shared_scan", "batch.shared_scan",
                attrs=lambda args, kwargs, result:
                {"distinct_plans": len(args[1])})
    tracer.wrap(loader, "load_tree", "xmlio.load_tree")
    tracer.wrap(InvertedIndex, "from_tree", "index.from_tree")
    for name in ("save_index_v2_dedup", "append_segment", "merge_index",
                 "open_index"):
        tracer.wrap(store_v2, name, f"store_v2.{name}")
    for name in ("decode_posting_block", "decode_dedup_block"):
        tracer.wrap(store_v2, name, "store_v2.decode",
                    attrs=_decode_attrs)


def _median(values) -> float:
    """The median, or 0 when the workload has no such samples."""
    values = list(values)
    return median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return mean(values) if values else 0.0


def hit_ratio(stats: dict, cache: str) -> float:
    """Hits / lookups of ``cache`` in ``SearchSession.cache_stats()``
    form (0 without lookups)."""
    hits = stats[cache]["hits"]
    lookups = hits + stats[cache]["misses"]
    return hits / lookups if lookups else 0.0


def cache_delta(before: dict, after: dict) -> dict:
    """The cache lookups made between two ``cache_stats()`` readings."""
    return {cache: {key: after[cache][key] - before[cache][key]
                    for key in ("hits", "misses")}
            for cache in ("plan_cache", "posting_cache")}


def cache_sum(readings) -> dict:
    """Several sessions' ``cache_stats()`` added up."""
    total = {cache: {"hits": 0, "misses": 0}
             for cache in ("plan_cache", "posting_cache")}
    for stats in readings:
        for cache, counts in total.items():
            for key in counts:
                counts[key] += stats[cache][key]
    return total


def per_layer(outcome, spans: list, ops: dict, untraced: dict, *,
              cache: dict = None, dedup_groups: int = 0, docs: dict = None,
              window: tuple = None) -> None:
    """Put every per-layer metric into ``outcome``.

    ``spans`` are the traced operations' spans, ``ops`` the traced
    operations, ``untraced`` the seconds of the untraced operations per
    class.  ``cache`` is the lookups of the measured phase
    (:func:`cache_delta` form), ``dedup_groups`` those of the store the
    queries read, ``docs`` maps an ingest operation to its document's
    ``(KB, size class)``, and ``window`` is the measured phase's
    ``(start, end)`` on the monotonic clock, for background scrapes.
    """
    index = SpanIndex(spans)
    put = outcome.put
    docs = docs or {}

    def of(*classes):
        return [op for op, (kind, _) in ops.items() if kind in classes]

    def total(name, ops_, self_time=False):
        """Median over ``ops_`` of each one's summed (self) time in
        ``name`` spans."""
        per_op = index.self_per_op if self_time else index.per_op
        return _median(per_op(name, ops_))

    def attr(name, ops_, key):
        return _median(span[6][key] for span in index.named(name, ops_))

    queries = of(*QUERY_CLASSES)
    every = list(ops)

    # server/ and the request path of obs/.
    handlers = {span[2]: span for span in index.named("server.handler",
                                                      every)}
    put("server.transport_ms", _median(
        ops[op][1] - index.duration(span) for op, span in handlers.items())
        * 1e3, "ms")
    put("server.handler_us", _median(
        index.duration(span) for span in handlers.values()) * 1e6, "us")
    for name, metric in (("server.wire.decode", "server.wire.decode_us"),
                         ("server.wire.encode", "server.wire.encode_us"),
                         ("obs.routes.reply", "obs.routes.reply_us")):
        put(metric, total(name, every, self_time=True) * 1e6, "us")
    # The request's wide event (with the SLO and flight records nested
    # in it) and the query's own telemetry, once each.
    put("obs.request_telemetry_us", _median(
        a + b for a, b in zip(index.per_op("obs.request_event", every),
                              index.per_op("obs.query_telemetry", every)))
        * 1e6, "us")
    scrapes = [span for span in index.named("obs.timeseries.scrape")
               if window and window[0] <= span[4] <= window[1]]
    put("obs.timeseries.scrape_ms",
        _median(index.duration(span) for span in scrapes) * 1e3, "ms")
    put("obs.timeseries.scrapes", len(scrapes), "count")
    put("server.connections_opened",
        len(index.named("server.connection")), "count")

    # runtime/: the session and the batch path.  The search's time
    # leaves out the query telemetry it records.
    put("runtime.session.search_us", _median(
        a - b for a, b in zip(index.per_op("session.search", queries),
                              index.per_op("obs.query_telemetry", queries)))
        * 1e6, "us")
    put("runtime.session.plan_us",
        total("session.plan", queries, self_time=True) * 1e6, "us")
    put("runtime.session.postings_us",
        total("session.postings", queries, self_time=True) * 1e6, "us")
    for kind in ("small", "medium"):
        put(f"runtime.session.search_self_us.{kind}",
            total("session.search", of(kind), self_time=True) * 1e6, "us")
    put("runtime.cache.plan_hit_ratio",
        hit_ratio(cache, "plan_cache") if cache else 0.0, "ratio")
    put("runtime.cache.posting_hit_ratio",
        hit_ratio(cache, "posting_cache") if cache else 0.0, "ratio")
    batches = of("batch")
    put("runtime.batch.shared_scan_ms",
        total("batch.shared_scan", batches, self_time=True) * 1e3, "ms")
    put("runtime.batch.distinct_plans",
        attr("batch.shared_scan", batches, "distinct_plans"), "count")

    # core/: the flat kernel, per query class.
    put("core.kernel.evaluate_us.small",
        total("kernel.evaluate", of("small")) * 1e6, "us")
    put("core.kernel.evaluate_ms.medium",
        total("kernel.evaluate", of("medium")) * 1e3, "ms")
    put("core.kernel.evaluate_ms.large",
        total("kernel.evaluate", of("large")) * 1e3, "ms")
    put("core.kernel.cold_evaluate_ms",
        total("kernel.evaluate", of("cold")) * 1e3, "ms")
    put("core.kernel.postings_in.large",
        attr("kernel.evaluate", of("large"), "postings_in"), "count")
    put("core.kernel.results_out.medium",
        attr("kernel.evaluate", of("medium"), "results_out"), "count")

    # xmlio/ and index/: the write path and the store's reads.
    def per_kb(name, size=None):
        return _median(index.duration(span) * 1e6 / docs[span[2]][0]
                       for span in index.named(name, of("ingest"))
                       if size in (None, docs[span[2]][1]))

    for size in ("small", "large"):
        put(f"xmlio.parse_us_per_kb.{size}",
            per_kb("xmlio.load_tree", size), "us/KB")
    put("index.inverted.build_us_per_kb", per_kb("index.from_tree"),
        "us/KB")
    put("index.store_v2.encode_ms",
        total("store_v2.save_index_v2_dedup", of("save")) * 1e3, "ms")
    put("index.store_v2.dedup_groups", dedup_groups, "count")
    merges = of("append_merge")
    put("index.store_v2.append_ms",
        total("store_v2.append_segment", merges) * 1e3, "ms")
    put("index.store_v2.merge_ms",
        total("store_v2.merge_index", merges) * 1e3, "ms")
    put("index.store_v2.open_ms",
        total("store_v2.open_index", queries) * 1e3, "ms")
    decodes = [index.named("store_v2.decode", [op]) for op in queries]
    put("index.store_v2.decode_blocks_per_query",
        _mean(len(spans_) for spans_ in decodes), "count")
    put("index.store_v2.decode_bytes_per_query",
        _mean(sum(span[6]["bytes"] for span in spans_)
              for spans_ in decodes), "B")

    # The tracing itself: what it costs, and how much of a traced
    # operation the named layers account for.
    overheads = []
    for kind, times in untraced.items():
        traced = [seconds for k, seconds in ops.values() if k == kind]
        if traced and times:
            overheads.append(median(traced) / median(times) - 1.0)
    put("trace.overhead_pct", 100.0 * _mean(overheads), "%")
    covered = 0.0
    for op in every:
        own = index.by_op.get(op, ())
        inside = sum(index.self_time(span) for span in own
                     if span[1] not in CONTAINERS)
        handler = handlers.get(op)
        transport = ops[op][1] - index.duration(handler) if handler else 0.0
        covered += inside + transport
    put("trace.layer_sum_pct",
        100.0 * covered / sum(seconds for _, seconds in ops.values()), "%")
