"""Workload ``audit-latency``: single audits of the 101M-triple SYN100M KG.

An interactive auditor runs one ``KGAccuracyEvaluator.run`` at a time,
from one thread, with a fresh evaluator per audit (as
``examples/audit_large_kg.py`` does).  Each audit is one of SYN100M
mu in {0.9, 0.5, 0.1} x {SRS, TWCS:5} x {Wilson, aHPD}.  Audits come in
blocks of the same 16 (:data:`CONFIGS`) in a seeded order, so every seed
sees the same mix and only the sample paths differ.

This is the bypass side for the solve table and for lock-step
repetitions: the library path installs no table and runs one
repetition at a time.
"""

from __future__ import annotations

import itertools
import time

import harness
from harness import GateFailure
from tracing import DETERMINISTIC, Tracer, check_repeat, layer_metrics, op

NAME = "audit-latency"
ACCURACIES = (0.9, 0.5, 0.1)
#: One block of audits: every configuration once, plus three more
#: SRS/Wilson and one more SRS/aHPD audit at mu = 0.5.  Both of those
#: take about 350 stop-rule checks every time, so their latencies are
#: narrow; weighting them this way puts the median inside the first and
#: the p90 inside the second, rather than on a boundary between
#: configurations, where a percentile jumps with every sample path.
CONFIGS = tuple(
    itertools.product(ACCURACIES, ("SRS", "TWCS:5"), ("Wilson", "aHPD"))
) + ((0.5, "SRS", "Wilson"),) * 3 + ((0.5, "SRS", "aHPD"),)
#: Audits re-run under an installed solve table after timing.
SAMPLED_AUDITS = 3
#: Blocks of audits in each traced (and overhead-baseline) pass.
TRACE_BLOCKS = 4
SETUP_RUNS = 3
#: Tail percentile: a 30-second run gets 200 to 370 audits.
TAIL_PCT = 90.0
EPSILON = 0.05


def prepare(seed: int) -> dict:
    """Import the package and build the three SYN100M KGs."""
    from repro import load_syn100m

    return {mu: load_syn100m(accuracy=mu, seed=seed) for mu in ACCURACIES}


def audits(seed: int):
    """The endless seeded audit sequence: ``(index, mu, strategy, method, rng)``."""
    import numpy as np

    from repro.stats.rng import derive_seed

    order = np.random.default_rng([seed, 5])
    for block in itertools.count():
        for slot, pick in enumerate(order.permutation(len(CONFIGS))):
            index = block * len(CONFIGS) + slot
            yield (index, *CONFIGS[pick], derive_seed(seed, index))


def run_audit(kgs: dict, audit):
    from repro import (
        AdaptiveHPD, KGAccuracyEvaluator, SimpleRandomSampling,
        TwoStageWeightedClusterSampling, WilsonInterval,
    )

    _, mu, strategy, method, rng = audit
    kind, _, m = strategy.partition(":")
    evaluator = KGAccuracyEvaluator(
        kg=kgs[mu],
        strategy=SimpleRandomSampling() if kind == "SRS"
        else TwoStageWeightedClusterSampling(m=int(m)),
        method=WilsonInterval() if method == "Wilson" else AdaptiveHPD(),
    )
    return evaluator.run(rng=rng)


def fingerprint(result) -> str:
    interval = result.interval
    return repr((
        result.mu_hat, interval.lower, interval.upper, interval.method,
        result.n_annotated, result.n_triples, result.n_entities, result.n_units,
        result.iterations, result.converged, result.cost_hours,
    ))


def _failed(result) -> bool:
    return not (result.converged and result.moe <= EPSILON)


def _gates(seed: int, kgs: dict, done: list) -> list[str]:
    """Every audit converged; a sample matches under a solve table."""
    import numpy as np

    from repro.intervals.base import use_solve_table
    from repro.intervals.table import SolveTable

    bad = [audit for audit, result in done if _failed(result)]
    if bad:
        raise GateFailure(f"audit-latency: {len(bad)} audit(s) missed MoE <= {EPSILON}")
    rng = np.random.default_rng([seed, 9])
    picks = sorted(rng.choice(len(done), size=min(SAMPLED_AUDITS, len(done)), replace=False))
    for pick in picks:
        audit, result = done[pick]
        with use_solve_table(SolveTable()):
            again = run_audit(kgs, audit)
        if fingerprint(again) != fingerprint(result):
            raise GateFailure(f"audit-latency: audit {audit} differs under a solve table")
    return [
        f"gate: all {len(done)} audits converged with MoE <= {EPSILON}",
        "gate: audits " + ", ".join(str(done[p][0][0]) for p in picks)
        + " byte-identical under an installed solve table",
    ]


def _pass(seed: int, blocks: int, tracer=None):
    """KG builds plus *blocks* blocks of audits; returns (wall, kgs, done)."""
    from repro.intervals.table import reset_shared_tables

    reset_shared_tables()
    start = time.perf_counter()
    with op(tracer, "setup"):
        kgs = prepare(seed)
    done = []
    for audit in itertools.islice(audits(seed), blocks * len(CONFIGS)):
        with op(tracer, f"audit-{audit[0]}"):
            done.append((audit, run_audit(kgs, audit)))
    return time.perf_counter() - start, kgs, done


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup = harness.timed_setup(harness.probe_argv(NAME, seed), SETUP_RUNS)
    kgs = prepare(seed)
    result = {
        "context": None,
        "setup_samples": setup,
        "lines": [f"input: blocks of {len(CONFIGS)} SYN100M audits, seed {seed}"],
    }
    # First-call costs (lazy imports, ufunc set-up) stay out of timing.
    run_audit(kgs, (0, 0.9, "TWCS:5", "aHPD", seed + 1))
    if trace:
        return _traced(seed, result)

    done, latencies = [], []
    sequence = audits(seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for audit in itertools.islice(sequence, len(CONFIGS)):
            began = time.perf_counter()
            outcome = run_audit(kgs, audit)
            latencies.append((time.perf_counter() - began) * 1000.0)
            done.append((audit, outcome))
    wall = time.perf_counter() - start
    summary = harness.latency_summary(latencies, TAIL_PCT)
    failed = sum(_failed(outcome) for _, outcome in done)
    result["lines"] += _gates(seed, kgs, done)
    audits_per_s = len(done) / wall
    result.update(
        attempted=len(done),
        failed=failed,
        e2e={
            "ops_per_s": audits_per_s,
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
        },
        tail=summary,
        named={
            "audits_per_s": (audits_per_s, "1/s", f"{len(done)} audits in {wall:.2f} s"),
            "audit_p50_ms": (summary["p50_ms"], "ms", f"n={summary['samples']}"),
            "audit_tail_ms": (
                summary["tail_ms"], "ms",
                f"p{summary['tail_pct']:g}, n={summary['samples']}, "
                f"{summary['beyond_tail']} beyond",
            ),
        },
    )
    return result


def _traced(seed: int, result: dict) -> dict:
    untraced = [_pass(seed, TRACE_BLOCKS)[0] for _ in range(2)]
    runs = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            wall, kgs, done = _pass(seed, TRACE_BLOCKS, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer, wall_s=wall, load_threads=1, table_stats=harness.table_stats()
        )
        runs.append((tracer, metrics, kgs, done))
    check_repeat(runs[0][1], runs[1][1], DETERMINISTIC)
    tracer, metrics, kgs, done = runs[0]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - harness.median(untraced)
    result["lines"] += _gates(seed, kgs, done)
    result["lines"].append("gate: work counters repeat exactly across two traced passes")
    result.update(
        attempted=len(done),
        failed=sum(_failed(outcome) for _, outcome in done),
        layers=metrics,
        tracer=tracer,
    )
    return result
