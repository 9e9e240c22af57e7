"""Span tracing around the package's public layer functions.

The traced run wraps, from outside the package, the public function of
each layer in a recorder: a span per call with its name, start, end,
parent span and an operation id (one per repetition, audit or request).
Spans stay in memory and are written out when the run ends.  Nothing
inside ``src/`` changes; :meth:`Tracer.uninstall` restores every
wrapped attribute, so untraced passes in the same process run the plain
code.

Layers are named after the package's modules:

========================  ==================================================
layer                     wrapped calls
========================  ==================================================
``kg``                    ``load_dataset``, ``load_syn100m``
``sampling``              ``draw`` / ``update`` / ``evidence`` of each strategy
``annotation``            ``Annotator.annotate`` (every subclass)
``evaluation``            ``KGAccuracyEvaluator.run`` (+ its memo counters)
``intervals``             ``IntervalMethod.solve_batch``, each ``compute_batch``
``intervals.table``       ``SolveTable.serve`` (+ ``stats()`` after a pass)
``intervals.kernel``      ``newton_interior`` of the active kernel
``runtime``               ``ParallelExecutor.run`` (what ``execute`` calls)
                          and its ``outcome.metrics``
``runtime.store``         ``ResultStore.load`` / ``ResultStore.save``
``runtime.solvebatch``    ``BrokerChannel.solve`` (+ its flush records)
``bench``                 the benchmark's own operation loop
========================  ==================================================

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

LAYERS = (
    "bench", "kg", "sampling", "annotation", "evaluation", "intervals",
    "intervals.table", "intervals.kernel", "runtime", "runtime.store",
    "runtime.solvebatch",
)


def _layer(name: str) -> str:
    return name.rsplit(".", 1)[0]


def _rows(args, result):
    evidences = args[1] if len(args) > 1 else ()
    return len(evidences) if hasattr(evidences, "__len__") else 0


def _draw_extra(args, result):
    return (len(result.unit_slices), len(result.indices))


def _served_rows(args, result):
    return 0 if result is None else len(result)


def _newton_rows(args, result):
    return int(args[1].size)


def _execute_extra(args, result):
    metrics = result.metrics
    units = sum(totals["units"] for totals in metrics.by_kind.values())
    return (units, metrics.queue_wait_seconds, metrics.execute_seconds)


def _memo_before(args):
    return (args[0].cache_hits, args[0].cache_misses)


def _run_extra(args, result, before):
    evaluator = args[0]
    return (
        evaluator.cache_hits - before[0],
        evaluator.cache_misses - before[1],
        result.iterations,
        bool(result.converged),
    )


def op(tracer, label: str):
    """``tracer.op(label)``, or a no-op context when the pass is untraced."""
    return tracer.op(label) if tracer is not None else nullcontext()


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        for item in _subclasses(sub):
            if item not in seen:
                seen.append(item)
    return seen


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self) -> None:
        #: ``(id, parent, op, name, start, end, nested, extra)`` per call;
        #: ``nested`` marks a call made inside another call of the same name.
        self.spans: list[tuple] = []
        #: Flush records handed to ``BrokerChannel.record_flush``.
        self.flushes: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name, extra=None, before=None, op_root=False):
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            if stack:
                parent, _, parent_op = stack[-1]
                nested = any(entry[1] == name for entry in stack)
            else:
                parent, parent_op, nested = None, None, False
            op = f"rep-{sid}" if op_root else (parent_op or f"root-{sid}")
            state = before(args) if before is not None else None
            stack.append((sid, name, op))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, op, name, start, end, nested, None))
                raise
            end = clock()
            stack.pop()
            if extra is None:
                value = None
            elif before is not None:
                value = extra(args, result, state)
            else:
                value = extra(args, result)
            spans.append((sid, parent, op, name, start, end, nested, value))
            return result

        return wrapper

    @contextmanager
    def op(self, label: str):
        """A benchmark-level operation span (one audit, request or grid pass)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, "bench.op", label))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, label, "bench.op", start, end, False, None))

    # -- installation --------------------------------------------------

    def _patch_method(self, owner, attr, name, **options) -> None:
        fn = owner.__dict__.get(attr)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, **options))

    def _patch_function(self, fn, name) -> None:
        wrapper = self._wrap(fn, name)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        from repro.annotation.annotator import Annotator
        from repro.evaluation.framework import KGAccuracyEvaluator
        from repro.intervals.base import IntervalMethod
        from repro.intervals.kernels import active_kernel
        from repro.intervals.table import SolveTable
        from repro.kg import datasets
        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.solvebatch import BrokerChannel
        from repro.runtime.store import ResultStore
        from repro.sampling.base import SamplingStrategy

        self._patch_function(datasets.load_dataset, "kg.load_dataset")
        self._patch_function(datasets.load_syn100m, "kg.load_syn100m")
        for cls in _subclasses(SamplingStrategy):
            self._patch_method(cls, "draw", "sampling.draw", extra=_draw_extra)
            self._patch_method(cls, "update", "sampling.update")
            self._patch_method(cls, "evidence", "sampling.evidence")
        for cls in _subclasses(Annotator):
            self._patch_method(cls, "annotate", "annotation.annotate",
                               extra=lambda args, result: len(result))
        for cls in _subclasses(KGAccuracyEvaluator):
            self._patch_method(cls, "run", "evaluation.run", extra=_run_extra,
                               before=_memo_before, op_root=True)
        for cls in _subclasses(IntervalMethod):
            self._patch_method(cls, "solve_batch", "intervals.solve_batch", extra=_rows)
            self._patch_method(cls, "compute_batch", "intervals.compute_batch", extra=_rows)
        self._patch_method(SolveTable, "serve", "intervals.table.serve", extra=_served_rows)
        self._patch_method(type(active_kernel()), "newton_interior",
                           "intervals.kernel.newton_interior", extra=_newton_rows)
        self._patch_method(ParallelExecutor, "run", "runtime.execute", extra=_execute_extra)
        self._patch_method(ResultStore, "load", "runtime.store.load",
                           extra=lambda args, result: result is not None)
        self._patch_method(ResultStore, "save", "runtime.store.save")
        self._patch_method(BrokerChannel, "solve", "runtime.solvebatch.solve", extra=_rows)
        record_flush = BrokerChannel.__dict__["record_flush"]
        flushes = self.flushes

        @functools.wraps(record_flush)
        def collect_flush(channel, meta):
            flushes.append(dict(meta))
            return record_flush(channel, meta)

        self._patches.append((BrokerChannel, "record_flush", record_flush))
        BrokerChannel.record_flush = collect_flush
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in seconds from the origin."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.origin
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end, nested, _ in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start": round(start - origin, 7), "end": round(end - origin, 7),
                }) + "\n")


def self_times(tracer: Tracer) -> dict:
    """Self time per layer: span durations minus their direct children's."""
    children = defaultdict(float)
    for sid, parent, op, name, start, end, nested, extra in tracer.spans:
        if parent is not None:
            children[parent] += end - start
    self_s = defaultdict(float)
    for sid, parent, op, name, start, end, nested, extra in tracer.spans:
        self_s[_layer(name)] += end - start - children[sid]
    return self_s


def layer_metrics(
    tracer: Tracer,
    *,
    wall_s: float,
    load_threads: int,
    table_stats: dict,
    broker: dict | None = None,
) -> dict:
    """Per-layer counters, times and self times of one traced pass.

    *table_stats* sums ``SolveTable.stats()`` over the pass's tables;
    *broker* is ``SolveBroker.describe()`` when the pass ran a broker.
    Calls nested inside a call of the same name are left out of counts
    and inclusive times, so a ``compute_batch`` that delegates to
    another method's ``compute_batch`` counts once.
    """
    calls = defaultdict(int)
    seconds = defaultdict(float)
    totals = defaultdict(float)
    self_s = self_times(tracer)
    for sid, parent, op, name, start, end, nested, extra in tracer.spans:
        duration = end - start
        if nested:
            continue
        calls[name] += 1
        seconds[name] += duration
        if extra is None:
            continue
        if name == "sampling.draw":
            totals["units"] += extra[0]
            totals["triples"] += extra[1]
        elif name == "evaluation.run":
            totals["memo_hits"] += extra[0]
            totals["memo_misses"] += extra[1]
            totals["consultations"] += extra[2]
        elif name == "runtime.execute":
            totals["exec_units"] += extra[0]
            totals["queue_wait"] += extra[1]
            totals["in_runners"] += extra[2]
        elif name == "intervals.table.serve":
            totals["served"] += extra
            totals["serve_hits"] += 1 if extra else 0
        elif name == "runtime.store.load":
            totals["load_hits"] += 1 if extra else 0
        else:
            totals[name] += extra

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    flush_callers = {meta["flush_id"]: meta["callers"] for meta in tracer.flushes}
    flushes = broker["flushes"] if broker else 0
    metrics = {
        "kg.build_calls": calls["kg.load_dataset"] + calls["kg.load_syn100m"],
        "kg.build_s": seconds["kg.load_dataset"] + seconds["kg.load_syn100m"],
        "kg.self_s": self_s["kg"],
        "sampling.draw_calls": calls["sampling.draw"],
        "sampling.units_drawn": int(totals["units"]),
        "sampling.triples_drawn": int(totals["triples"]),
        "sampling.draw_s": seconds["sampling.draw"],
        "sampling.update_s": seconds["sampling.update"],
        "sampling.evidence_calls": calls["sampling.evidence"],
        "sampling.evidence_s": seconds["sampling.evidence"],
        "sampling.self_s": self_s["sampling"],
        "annotation.calls": calls["annotation.annotate"],
        "annotation.labels": int(totals["annotation.annotate"]),
        "annotation.annotate_s": seconds["annotation.annotate"],
        "annotation.self_s": self_s["annotation"],
        "evaluation.runs": calls["evaluation.run"],
        "evaluation.consultations": int(totals["consultations"]),
        "evaluation.self_s": self_s["evaluation"],
        "evaluation.memo_hits": int(totals["memo_hits"]),
        "evaluation.memo_misses": int(totals["memo_misses"]),
        "evaluation.memo_hit_ratio": ratio(totals["memo_hits"], totals["consultations"]),
        "intervals.solve_calls": calls["intervals.solve_batch"],
        "intervals.solve_rows": int(totals["intervals.solve_batch"]),
        "intervals.rows_per_solve": ratio(
            totals["intervals.solve_batch"], calls["intervals.solve_batch"]
        ),
        "intervals.solve_s": seconds["intervals.solve_batch"],
        "intervals.compute_calls": calls["intervals.compute_batch"],
        "intervals.compute_rows": int(totals["intervals.compute_batch"]),
        "intervals.compute_s": seconds["intervals.compute_batch"],
        "intervals.self_s": self_s["intervals"],
        "intervals.table.serve_calls": calls["intervals.table.serve"],
        "intervals.table.served": int(totals["served"]),
        "intervals.table.hit_ratio": ratio(totals["serve_hits"], calls["intervals.table.serve"]),
        "intervals.table.ineligible": int(table_stats.get("ineligible", 0)),
        "intervals.table.builds": int(table_stats.get("builds", 0)),
        "intervals.table.build_s": float(table_stats.get("build_seconds", 0.0)),
        "intervals.table.self_s": self_s["intervals.table"],
        "intervals.kernel.newton_calls": calls["intervals.kernel.newton_interior"],
        "intervals.kernel.newton_rows": int(totals["intervals.kernel.newton_interior"]),
        "intervals.kernel.newton_s": seconds["intervals.kernel.newton_interior"],
        "runtime.execute_s": seconds["runtime.execute"],
        "runtime.units": int(totals["exec_units"]),
        "runtime.queue_wait_s": totals["queue_wait"],
        "runtime.overhead_s": seconds["runtime.execute"] - totals["in_runners"],
        "runtime.self_s": self_s["runtime"],
        "runtime.store.loads": calls["runtime.store.load"],
        "runtime.store.load_hits": int(totals["load_hits"]),
        "runtime.store.hit_ratio": ratio(totals["load_hits"], calls["runtime.store.load"]),
        "runtime.store.load_s": seconds["runtime.store.load"],
        "runtime.store.saves": calls["runtime.store.save"],
        "runtime.store.save_s": seconds["runtime.store.save"],
        "runtime.solvebatch.flushes": flushes,
        "runtime.solvebatch.coalesced_flushes": broker["coalesced_flushes"] if broker else 0,
        "runtime.solvebatch.callers_per_flush": ratio(
            sum(flush_callers.values()), len(flush_callers)
        ),
        "runtime.solvebatch.wait_s": self_s["runtime.solvebatch"],
        "trace.spans": len(tracer.spans),
        "trace.wall_s": wall_s,
        # Load-thread time no library layer accounts for.  On service-mix
        # the clients' waiting is covered by the server threads' spans.
        "trace.unaccounted_s": wall_s * load_threads - sum(
            seconds for layer, seconds in self_s.items() if layer != "bench"
        ),
    }
    metrics["bench.self_s"] = self_s["bench"]
    return metrics


#: Counters that must repeat exactly between two passes at one seed on
#: the single-threaded workloads.
DETERMINISTIC = (
    "kg.build_calls",
    "sampling.draw_calls", "sampling.units_drawn", "sampling.triples_drawn",
    "sampling.evidence_calls",
    "annotation.calls", "annotation.labels",
    "evaluation.runs", "evaluation.consultations",
    "evaluation.memo_hits", "evaluation.memo_misses",
    "intervals.solve_calls", "intervals.solve_rows",
    "intervals.compute_calls", "intervals.compute_rows",
    "intervals.table.serve_calls", "intervals.table.served",
    "intervals.table.ineligible", "intervals.table.builds",
    "intervals.kernel.newton_calls", "intervals.kernel.newton_rows",
    "runtime.units",
)


def check_repeat(first: dict, second: dict, names) -> None:
    """Raise :class:`harness.GateFailure` unless *names* agree in both passes."""
    from harness import GateFailure

    differing = [name for name in names if first[name] != second[name]]
    if differing:
        raise GateFailure(
            "work counters differ between two passes at one seed: "
            + ", ".join(f"{n} {first[n]} != {second[n]}" for n in differing)
        )


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {
        "intervals.rows_per_solve": "rows/call",
        "runtime.solvebatch.callers_per_flush": "callers/flush",
    }.get(name, "count")


def _better(name: str) -> str:
    if _unit(name) in ("ratio", "rows/call", "callers/flush"):
        return "higher"
    return "higher" if name in ("service.requests", "service.cache_hits") else "lower"


#: Every per-layer metric a traced run prints, in order, as
#: ``(name, unit, better)``.  A metric of a layer the workload does not
#: load reads 0.
PER_LAYER = tuple(
    (name, _unit(name), _better(name))
    for name in (
        "kg.build_calls", "kg.build_s", "kg.self_s",
        "sampling.draw_calls", "sampling.units_drawn", "sampling.triples_drawn",
        "sampling.draw_s", "sampling.update_s", "sampling.evidence_calls",
        "sampling.evidence_s", "sampling.self_s",
        "annotation.calls", "annotation.labels", "annotation.annotate_s",
        "annotation.self_s",
        "evaluation.runs", "evaluation.consultations", "evaluation.self_s",
        "evaluation.memo_hits", "evaluation.memo_misses", "evaluation.memo_hit_ratio",
        "intervals.solve_calls", "intervals.solve_rows", "intervals.rows_per_solve",
        "intervals.solve_s", "intervals.compute_calls", "intervals.compute_rows",
        "intervals.compute_s", "intervals.self_s",
        "intervals.table.serve_calls", "intervals.table.served",
        "intervals.table.hit_ratio", "intervals.table.ineligible",
        "intervals.table.builds", "intervals.table.build_s", "intervals.table.self_s",
        "intervals.kernel.newton_calls", "intervals.kernel.newton_rows",
        "intervals.kernel.newton_s",
        "runtime.execute_s", "runtime.units", "runtime.queue_wait_s",
        "runtime.overhead_s", "runtime.self_s",
        "runtime.store.loads", "runtime.store.load_hits", "runtime.store.hit_ratio",
        "runtime.store.load_s", "runtime.store.saves", "runtime.store.save_s",
        "runtime.solvebatch.flushes", "runtime.solvebatch.coalesced_flushes",
        "runtime.solvebatch.callers_per_flush", "runtime.solvebatch.wait_s",
        "service.requests", "service.cache_hits", "service.server_s", "service.wait_s",
        "bench.self_s",
        "trace.spans", "trace.wall_s", "trace.overhead_s", "trace.unaccounted_s",
    )
)
