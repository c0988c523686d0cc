"""Run ``cohesive-search serve STORE --port 0`` for the benchmark.

With ``--trace 1`` the layer entry points are wrapped first, and every
request whose ``X-Bench-Trace`` header is ``1`` records spans under the
operation id in its ``X-Bench-Op`` header; the scrape loop and accepted
connections are recorded whatever the header says.  When the server
stops (SIGTERM), the process writes its peak RSS, the spans and its
sessions' cache statistics to ``--report``.

Usage: ``python3 perfbench/serve_child.py STORE --report OUT.json
[--trace 1]`` with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import http.server
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Every session the server creates, for its cache statistics.
SESSIONS: list = []


def install(tracer: Tracer) -> None:
    import layers
    from repro.obs import routes
    from repro.obs.flight import FlightRecorder
    from repro.obs.slo import SLOEngine
    from repro.obs.timeseries import TimeSeriesStore
    from repro.runtime.session import SearchSession
    from repro.server import app, wire
    from repro.server.app import SearchServer

    session_init = SearchSession.__init__

    def kept_init(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        SESSIONS.append(self)

    SearchSession.__init__ = kept_init

    route_post = SearchServer._route_post
    run_job = SearchServer._run

    def traced_route_post(self, request):
        op = request.headers.get("X-Bench-Op")
        tracer.begin(int(op) if op else None,
                     request.headers.get("X-Bench-Trace") == "1")
        span = tracer.open("server.handler")
        try:
            return route_post(self, request)
        finally:
            if span is not None:
                tracer.close(span)
            tracer.end()

    def traced_run(self, job, timeout):
        # The search runs on a pool thread: carry the request there.
        context = tracer.context()

        def carried():
            tracer.adopt(context)
            try:
                return job()
            finally:
                tracer.end()

        return run_job(self, carried, timeout)

    SearchServer._route_post = traced_route_post
    SearchServer._run = traced_run
    tracer.wrap(wire, "parse_search_request", "server.wire.decode")
    tracer.wrap(wire, "search_response", "server.wire.encode")
    tracer.wrap(routes, "reply", "obs.routes.reply")
    tracer.wrap(app, "reply", "obs.routes.reply")
    tracer.wrap(SearchServer, "_observe_request", "obs.request_event")
    layers.install(tracer)
    tracer.wrap(SLOEngine, "record", "obs.slo.record")
    tracer.wrap(FlightRecorder, "record", "obs.flight.record")
    tracer.wrap(TimeSeriesStore, "scrape", "obs.timeseries.scrape",
                always=True)
    tracer.wrap(http.server.ThreadingHTTPServer, "process_request",
                "server.connection", always=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = Tracer()
    if args.trace:
        install(tracer)
    from repro.cli import main as cli_main
    status = cli_main(["serve", args.store, "--port", "0"])
    with open(args.report, "w", encoding="utf-8") as out:
        json.dump({"peak_rss_mb": peak_rss_mb(), "spans": tracer.spans,
                   "caches": [session.cache_stats()
                              for session in SESSIONS]}, out)
    return status


if __name__ == "__main__":
    sys.exit(main())
