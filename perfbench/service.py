"""Workload ``service-mix``: two closed-loop clients against ``repro serve``.

``python -m repro serve`` runs as a child process with default settings
and a fresh store in a scratch directory.  Two client threads, each
waiting for its reply before sending again, submit a seeded sequence of
small ``StudyRequest``\\ s.  Three in four are fresh (store writes,
solve-table builds, cross-request solve coalescing); the fourth repeats
an earlier request, which the store serves unless its first copy is
still running.  Fresh requests share one shape (:data:`SHAPE`) and
differ only in seed, so every seed sees the same mix.

When the host has two CPUs or more, the server child runs on a CPU of
its own and the clients on the others, so the load generator never
preempts the server and latencies do not hinge on how the host happens
to schedule the two processes.

This is the only workload that loads ``runtime.service``,
``runtime.store`` writes and ``runtime.solvebatch``.  The traced run
hosts ``AuditService`` in-process so the wrappers see the server side;
untraced runs keep the child process.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time

import harness
from harness import GateFailure
from tracing import Tracer, layer_metrics, op

NAME = "service-mix"
CLIENTS = 2
SETUP_RUNS = 3
#: Tail percentile.  A 45-second run gets 90 to 140 requests, of which
#: the first few pay the cold solve-table builds; p90 would sit on the
#: edge of that handful and jump with it, p75 sits in the steady bulk.
TAIL_PCT = 75.0
#: Requests in each traced (and overhead-baseline) pass.
TRACE_REQUESTS = 24
#: Fresh requests re-run standalone and compared with the served table.
SAMPLED_REQUESTS = 2
#: Every fresh request has this shape and its own seed: NELL and
#: DBPEDIA x SRS and TWCS x Wilson and aHPD, 8 cells of 1 repetition.
#: A fixed shape keeps the per-request work alike, so the latency
#: figures move with the program rather than with the draw of request
#: shapes.  Both datasets sit in every request because a request on one
#: of them alone takes about half or twice as long as one on the other,
#: and the median of such a mix falls on the edge between the two
#: groups, where it jumps with every run.  YAGO is left out: its cells
#: finish in tens of milliseconds and add little.  FACTBENCH is left
#: out: its SRS cells reach n = 380, and the cold aHPD table builds up
#: to there hold the table lock for seconds, stalling every request in
#: a way that lands differently in each run (stoprule-grid measures
#: those builds).
SHAPE = {
    "datasets": ["NELL", "DBPEDIA"], "strategies": ["srs", "twcs"],
    "methods": ["wilson", "ahpd"], "repetitions": 1,
}
SERVE_READY = re.compile(r"serving on \('([^']+)', (\d+)\)")


def requests(seed: int):
    """Endless seeded request sequence: ``(index, payload, is_repeat)``.

    Three in four requests are fresh (:data:`SHAPE` at a seeded request
    seed); the fourth repeats a seeded choice among the fresh requests
    older than the two newest, so its first copy has usually finished
    (one still running is rarer, and shows in the interleaving-dependent
    counts).
    """
    import numpy as np

    rng = np.random.default_rng([seed, 11])
    fresh: list[dict] = []
    for index in itertools.count():
        if index % 4 == 3:
            older = fresh[:-2] or fresh[:1]
            yield index, older[int(rng.integers(len(older)))], True
            continue
        payload = {**SHAPE, "seed": int(rng.integers(1_000_000))}
        fresh.append(payload)
        yield index, payload, False


def drive(address, sequence, *, seconds=None, limit=None, tracer=None) -> tuple:
    """Run the closed-loop clients; returns ``(records, wall seconds)``.

    A client sends its next request only after the previous reply.  New
    requests stop once *seconds* have passed or *limit* were issued;
    requests in flight then finish.
    """
    from repro.exceptions import ReproError
    from repro.runtime.service import submit_request

    lock = threading.Lock()
    records: list[tuple] = []
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                index, payload, repeat = next(sequence)
                if limit is not None and index >= limit:
                    return
            began = time.perf_counter()
            with op(tracer, f"req-{index}"):
                try:
                    event = submit_request(address, request=payload)
                except (ReproError, OSError, ValueError) as exc:
                    event = {"event": "error", "error": str(exc)}
            records.append((index, payload, repeat, began, time.perf_counter(), event))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((record[4] for record in records), default=time.perf_counter())
    records.sort(key=lambda record: record[0])
    return records, end - start


def _ok(event: dict) -> bool:
    return event.get("event") == "done" and event.get("exit_code") == 0


def _spawn(scratch, cpus=None):
    """Start ``repro serve``; returns ``(process, address, seconds to ping)``.

    With *cpus*, the server runs on those CPUs only.
    """
    from repro.runtime.service import ping_service

    log_path = scratch / "serve.log"
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--cache-dir", str(scratch / "store")]
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            argv, cwd=harness.ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=log,
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
    deadline = start + 60.0
    while True:
        found = SERVE_READY.search(log_path.read_text())
        if found:
            break
        if proc.poll() is not None or time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"repro serve did not start: {log_path.read_text()}")
        time.sleep(0.002)
    address = (found.group(1), int(found.group(2)))
    ping_service(address)
    return proc, address, time.perf_counter() - start


def _stop(proc, address) -> None:
    """Shut the server down over its socket and wait for it to exit."""
    from repro.exceptions import ReproError
    from repro.runtime.service import shutdown_service

    try:
        shutdown_service(address)
    except (ReproError, OSError):
        pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _summaries(records, wall):
    completed = [r for r in records if _ok(r[5])]
    # A failed request misses every latency limit.
    latencies = [
        (r[4] - r[3]) * 1000.0 if _ok(r[5]) else float("inf") for r in records
    ]
    server_s = sum(r[5].get("seconds", 0.0) for r in completed)
    return {
        "latency": harness.latency_summary(latencies, TAIL_PCT),
        "req_per_s": len(completed) / wall,
        "completed": len(completed),
        "failed": len(records) - len(completed),
        "cache_hits": sum(r[5].get("cache_hits", 0) for r in completed),
        "store_served": sum(
            1 for r in completed if r[5].get("cache_hits") == r[5].get("cells")
        ),
        "server_s": server_s,
        "wait_s": sum(r[4] - r[3] for r in completed) - server_s,
    }


def _gates(seed: int, records) -> list[str]:
    """Exit codes, repeat-vs-first tables, and standalone re-renders."""
    import numpy as np

    from repro.runtime import RunContext, execute
    from repro.runtime.service.requests import StudyRequest, render_study_table

    bad = [r[0] for r in records if not _ok(r[5])]
    if bad:
        raise GateFailure(f"service-mix: requests {bad} did not finish with exit_code 0")
    first: dict[str, str] = {}
    repeats = 0
    for index, payload, repeat, _, _, event in records:
        key = json.dumps(payload, sort_keys=True)
        if key in first:
            repeats += 1
            if event["table"] != first[key]:
                raise GateFailure(f"service-mix: repeated request {index} changed its table")
        else:
            first[key] = event["table"]
    fresh = [r for r in records if not r[2]]
    rng = np.random.default_rng([seed, 13])
    picks = sorted(rng.choice(len(fresh), size=min(SAMPLED_REQUESTS, len(fresh)), replace=False))
    for pick in picks:
        index, payload, _, _, _, event = fresh[pick]
        plan = StudyRequest.from_payload(payload).build_plan()
        table = render_study_table(plan, execute(plan, context=RunContext(backend="serial")))
        if table != event["table"]:
            raise GateFailure(f"service-mix: request {index} differs from a standalone run")
    return [
        f"gate: all {len(records)} requests finished with exit_code 0",
        f"gate: {repeats} repeated requests match their first occurrence",
        "gate: requests " + ", ".join(str(fresh[p][0]) for p in picks)
        + " match a standalone render_study_table",
    ]


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.runtime import RunContext
    from repro.runtime.service import ping_service

    result = {
        "context": RunContext(),
        "lines": [f"input: seeded StudyRequest mix, {CLIENTS} closed-loop clients, seed {seed}"],
    }
    if trace:
        return _traced(seed, result)
    setup = []
    scratch = None
    proc = address = None
    split = harness.split_cpus()
    before = os.sched_getaffinity(0)
    try:
        if split is not None:
            os.sched_setaffinity(0, split[0])
        # Each set-up is a fresh server on a fresh store; the last one
        # serves the timed run.
        for _ in range(SETUP_RUNS):
            if proc is not None:
                _stop(proc, address)
                proc = None
                harness.remove_scratch(scratch)
            scratch = harness.scratch_dir("serve")
            proc, address, ready = _spawn(scratch, None if split is None else split[1])
            setup.append(ready)
        records, wall = drive(address, requests(seed), seconds=seconds)
        broker = ping_service(address).get("solve_batching") or {}
    finally:
        if proc is not None:
            _stop(proc, address)
        if scratch is not None:
            harness.remove_scratch(scratch)
        os.sched_setaffinity(0, before)
    stats = _summaries(records, wall)
    summary = stats["latency"]
    result["lines"] += _gates(seed, records)
    result["lines"].append(
        f"interleaving-dependent (not gated): {broker.get('flushes', 0)} solve flushes, "
        f"{broker.get('coalesced_flushes', 0)} coalesced; "
        f"{stats['store_served']} requests served wholly from the store"
    )
    result.update(
        setup_samples=setup,
        attempted=len(records),
        failed=stats["failed"],
        peak_rss_mb=harness.peak_rss_mb(children=True),
        e2e={
            "ops_per_s": stats["req_per_s"],
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
        },
        tail=summary,
        named={
            "req_per_s": (stats["req_per_s"], "1/s", f"{stats['completed']} requests in {wall:.2f} s"),
            "req_p50_ms": (summary["p50_ms"], "ms", f"n={summary['samples']}"),
            "req_tail_ms": (
                summary["tail_ms"], "ms",
                f"p{summary['tail_pct']:g}, n={summary['samples']}, "
                f"{summary['beyond_tail']} beyond",
            ),
        },
    )
    return result


def _in_process_pass(seed: int, tracer=None) -> tuple:
    """A fixed-size pass against an in-process ``AuditService``."""
    from repro.intervals.table import reset_shared_tables
    from repro.runtime import cells
    from repro.runtime.service import AuditService, shutdown_service

    reset_shared_tables()
    cells._KG_CACHE.clear()
    scratch = harness.scratch_dir("serve")
    service = AuditService(store=scratch / "store", quiet=True)
    thread = threading.Thread(target=service.run, kwargs={"host": "127.0.0.1", "port": 0})
    thread.start()
    try:
        while service.address is None:
            if not thread.is_alive():
                raise RuntimeError("in-process AuditService did not start")
            time.sleep(0.002)
        address = service.address[1]
        records, wall = drive(address, requests(seed), limit=TRACE_REQUESTS, tracer=tracer)
        broker = service.solve_broker.describe()
        tables = harness.table_stats()
        shutdown_service(address)
    finally:
        thread.join(timeout=60)
        harness.remove_scratch(scratch)
    return records, wall, broker, tables


def _traced(seed: int, result: dict) -> dict:
    untraced = [_in_process_pass(seed) for _ in range(2)]
    tracer = Tracer().install()
    try:
        records, wall, broker, tables = _in_process_pass(seed, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer, wall_s=wall, load_threads=CLIENTS, table_stats=tables, broker=broker
    )
    stats = _summaries(records, wall)
    metrics.update({
        "service.requests": len(records),
        "service.cache_hits": stats["cache_hits"],
        "service.server_s": stats["server_s"],
        "service.wait_s": stats["wait_s"],
        "trace.overhead_s": wall - harness.median(run[1] for run in untraced),
    })
    passes = [*untraced, (records, wall, broker, tables)]
    flushes = [run[2]["flushes"] for run in passes]
    served = [_summaries(run[0], run[1])["store_served"] for run in passes]
    result["lines"] += _gates(seed, records)
    result.update(
        attempted=len(records),
        failed=stats["failed"],
        layers=metrics,
        tracer=tracer,
        notes=[
            "interleaving-dependent, not gated (3 passes, last traced): "
            f"solve flushes {flushes} (spread {max(flushes) - min(flushes)}), "
            f"requests served wholly from the store {served}",
        ],
    )
    return result
