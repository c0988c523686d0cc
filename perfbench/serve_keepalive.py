"""``serve-keepalive``: ``POST /search`` over HTTP/1.1 keep-alive.

A ``cohesive-search serve`` process runs with its default telemetry
(SLO engine, flight recorder, 1 s time-series scrape, watchdog) over a
lazily opened CKSIDX2 DBLP store.  This process is the client: it holds
:data:`CONNECTIONS` keep-alive connections, one thread each, and sends
requests in a closed loop (the next one after the previous reply).  A
round is, for each medium query, every small query and then that
medium query, so four requests in five are small.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from repro.index.inverted import InvertedIndex
from repro.index.store_v2 import inspect_index, save_index_v2
from repro.runtime.session import SearchSession

import checks
import layers
from common import (ROOT, Outcome, drop_env, put_latency, run_rounds,
                    timed_setups, work_dir, write_spans)
from inputs import dblp_dataset, query_mix

#: Keep-alive connections, one client thread each (one per core of the
#: two-core machine the benchmark was tuned on; fixed so the load does
#: not depend on the host).
CONNECTIONS = 2
#: Seconds to wait for the server to start or stop.
PROCESS_TIMEOUT = 60.0


class Server:
    """One ``serve_child.py`` process and where it reports."""

    def __init__(self, store: Path, report: Path, log: Path, trace: bool):
        self.report = report
        self._log = open(log, "w+", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve_child.py")),
             str(store), "--report", str(report),
             "--trace", "1" if trace else "0"],
            stdout=self._log, stderr=subprocess.STDOUT, env=drop_env(),
            cwd=ROOT)
        self.url = self._wait_for_url(log)

    def _wait_for_url(self, log: Path) -> str:
        deadline = time.monotonic() + PROCESS_TIMEOUT
        while time.monotonic() < deadline:
            for line in log.read_text(encoding="utf-8").splitlines():
                if line.startswith("serving on "):
                    return line.split()[2]
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start:\n" +
                           log.read_text(encoding="utf-8"))

    def stop(self) -> None:
        """SIGTERM and wait (idempotent)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(PROCESS_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if not self._log.closed:
            self._log.close()

    def read_report(self) -> dict:
        """What the stopped server wrote: peak RSS and spans."""
        with open(self.report, encoding="utf-8") as stream:
            return json.load(stream)


def _round(mix) -> list:
    order = []
    for medium in mix.medium:
        order += [(query, "small") for query in mix.small]
        order.append((medium, "medium"))
    return order


class Client(threading.Thread):
    """One keep-alive connection sending rounds in a closed loop."""

    def __init__(self, number, url, order, expected, trace, seconds):
        super().__init__(name=f"bench-client-{number}")
        parts = urlsplit(url)
        self.connection = http.client.HTTPConnection(parts.hostname,
                                                     parts.port)
        self.number = number
        self.order = order
        self.expected = expected
        self.trace = trace
        self.duration = seconds
        self.ops = iter(range(number << 40, (number + 1) << 40))
        self.samples: list = []     # (op, class, traced, start, seconds)
        self.outcome = Outcome()
        self.error = None

    def one_round(self, round_index, measured):
        traced = self.trace and round_index % 2 == 1
        flag = "1" if traced else "0"
        # Each connection starts its rounds at a different query.
        shift = self.number * len(self.order) // CONNECTIONS
        for query, kind in self.order[shift:] + self.order[:shift]:
            op = next(self.ops)
            body = json.dumps({"query": query}).encode("utf-8")
            start = time.monotonic()
            try:
                self.connection.request(
                    "POST", "/search", body,
                    {"Content-Type": "application/json",
                     "X-Bench-Op": str(op), "X-Bench-Trace": flag})
                response = self.connection.getresponse()
                payload = response.read()
            except Exception as error:
                # A dropped connection: the next request reopens it.
                self.connection.close()
                if measured:
                    self.outcome.error(query, error)
                continue
            elapsed = time.monotonic() - start
            if not measured:
                continue
            self.samples.append((op, kind, traced, start, elapsed))
            if response.status != 200:
                self.outcome.error(f"HTTP {response.status} for {query}")
                continue
            expected, problems = self.expected[query]
            try:
                got = checks.digest(checks.wire_rows(
                    json.loads(payload)["results"]))
            except (ValueError, KeyError, TypeError) as error:
                got = f"undecodable: {error!r}"
            self.outcome.check(not problems and got == expected,
                               f"{query}: {problems or 'wire answer differs'}")

    def run(self):
        try:
            run_rounds(self.duration, self.one_round)
        except Exception as error:  # reported by the caller
            self.error = error
        finally:
            self.connection.close()


def _expected(path, dataset, index, mix) -> dict:
    """In-process answers over the same store, with their checks."""
    session = SearchSession.from_store(path)
    by_text = {text: qid for qid, text in mix.table2.items()}
    expected = {}
    for query in dict.fromkeys([*mix.small, *mix.medium,
                                *mix.table2.values()]):
        relevant = (dataset.relevant_codes(by_text[query])
                    if query in by_text else None)
        rows, problems = checks.reference(session, query, index.postings,
                                          relevant)
        expected[query] = (checks.digest(rows), problems)
    session.index.close()
    return expected


def run(seed: int, seconds: float, trace: bool, outcome) -> None:
    started = []  # every server process, stopped whatever happens
    with work_dir() as work:
        def build(attempt):
            dataset = dblp_dataset(seed)
            index = InvertedIndex.from_tree(dataset.tree)
            path = work / f"dblp-{attempt}.ckx"
            save_index_v2(index, path)
            started.append(Server(path, work / f"report-{attempt}.json",
                                  work / f"server-{attempt}.log", trace))
            return (dataset, index, path, started[-1]), started[-1].stop

        try:
            (dataset, index, path, server), setup_s = timed_setups(build)
            mix = query_mix(dataset, index)
            if not mix.small:
                raise ValueError("no Table 2 query has only short lists")
            expected = _expected(path, dataset, index, mix)
            for qid, text in mix.table2.items():
                outcome.check(not expected[text][1],
                              f"{qid}: {expected[text][1]}")
            order = _round(mix)
            clients = [Client(number, server.url, order, expected, trace,
                              seconds)
                       for number in range(CONNECTIONS)]
            for client in clients:
                client.start()
            for client in clients:
                client.join()
            exited = server.process.poll()
            if exited is not None:
                outcome.error(f"the server exited early with code {exited}")
        finally:
            for started_server in started:
                started_server.stop()
        for client in clients:
            if client.error is not None:
                raise client.error
            outcome.merge(client.outcome)
        try:
            report = server.read_report()
        except (OSError, ValueError) as error:
            if not outcome.failed:
                raise
            outcome.note(f"no server report: {error!r}")
            return
        samples = [sample for client in clients
                   for sample in client.samples]
        store = inspect_index(path)
        if trace:
            write_spans("serve-keepalive", seed, report["spans"],
                        requests=samples)
        else:
            outcome.put("setup_s", setup_s, "s")
            outcome.put("peak_rss_mb", report["peak_rss_mb"], "MB")
            outcome.put("store_bytes_per_posting",
                        store["bytes"] / store["postings"], "B")
        with outcome.metrics_despite_failures():
            # The measured window runs from the first measured request
            # to the last reply.
            first = min(sample[3] for sample in samples)
            last = max(sample[3] + sample[4] for sample in samples)
            if trace:
                untraced: dict = {}
                for _, kind, traced, _, seconds in samples:
                    if not traced:
                        untraced.setdefault(kind, []).append(seconds)
                layers.per_layer(
                    outcome, report["spans"],
                    {op: (kind, seconds)
                     for op, kind, traced, _, seconds in samples if traced},
                    untraced, cache=layers.cache_sum(report["caches"]),
                    dedup_groups=store["dedup_groups"],
                    window=(first, last))
                return
            put_latency(outcome, [sample[4] for sample in samples])
            outcome.put("throughput_ops", len(samples) / (last - first),
                        "1/s")
