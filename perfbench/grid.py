"""Workload ``stoprule-grid``: the Table 3 stop-rule grid through the runtime.

The 24 ``StudyCell``\\ s of ``table3_plan`` (4 real-profile datasets x
{SRS, TWCS:3} x {Wald, Wilson, aHPD}) run through
``repro.runtime.execute`` on the serial backend with no store: the
default path of ``python -m repro.experiments table3``.  SRS cells give
integer evidence, which the shared solve table serves; TWCS cells give
fractional evidence, which Newton solves one repetition at a time.

Every timed pass is cold, as a fresh invocation is: the shared solve
tables and the runtime's KG memo are dropped first, and the KGs are
rebuilt outside the timed region (their cost is ``setup_s``).
"""

from __future__ import annotations

import time

import harness
from harness import GateFailure
from tracing import DETERMINISTIC, Tracer, check_repeat, layer_metrics, op

NAME = "stoprule-grid"
#: Monte-Carlo repetitions per cell in a timed pass.
REPETITIONS = 5
#: Repetitions of the committed ``benchmarks/results/table3.txt``.
TABLE_REPETITIONS = 30
#: Cells re-run through the plain library path after the timed passes.
SAMPLED_CELLS = 3
SETUP_RUNS = 3
#: Tail percentile of pass latency.  A run has only a few passes, so the
#: harness falls back to the median: no percentile has ten passes beyond
#: it.  Cell latencies are printed too, but their pooled percentiles sit
#: between cell types (cold-build cells, TWCS aHPD cells, the rest) and
#: jump from run to run, so they are not the reported figures.
TAIL_PCT = 95.0
TABLE3_FILE = harness.ROOT / "benchmarks" / "results" / "table3.txt"


def _settings(seed: int, repetitions: int = REPETITIONS):
    from repro.experiments.config import ExperimentSettings

    return ExperimentSettings(repetitions=repetitions, seed=seed)


def prepare(seed: int):
    """Import the runtime, build the grid's KGs into the runtime memo and
    return the run's context (serial backend, no store, default knobs)."""
    from repro.experiments.table3 import table3_plan  # noqa: F401 - import cost
    from repro.runtime import RunContext
    from repro.runtime.cells import build_kg

    settings = _settings(seed)
    for dataset in settings.datasets:
        build_kg(dataset, settings.dataset_seed)
    return RunContext(backend="serial")


def _cold(settings) -> None:
    """Drop the shared solve tables and the KG memo, then rebuild the KGs."""
    from repro.intervals.table import reset_shared_tables
    from repro.runtime import cells

    reset_shared_tables()
    cells._KG_CACHE.clear()
    for dataset in settings.datasets:
        cells.build_kg(dataset, settings.dataset_seed)


def _study_bytes(study) -> bytes:
    return b"".join(
        array.tobytes()
        for array in (study.triples, study.cost_hours, study.estimates,
                      study.entities, study.converged)
    )


def _failed_reps(outcome) -> int:
    """Repetitions that missed the stop rule (a failed cell raises instead)."""
    return sum(int((~study.converged).sum()) for study in outcome.results.values())


def _library_study(cell, settings):
    """One cell through ``KGAccuracyEvaluator`` + ``run_study`` alone."""
    from repro import (
        AdaptiveHPD, KGAccuracyEvaluator, SimpleRandomSampling,
        TwoStageWeightedClusterSampling, WaldInterval, WilsonInterval,
        load_dataset, run_study,
    )
    from repro.stats.rng import derive_seed

    kind, _, m = cell.strategy.partition(":")
    strategy = (
        SimpleRandomSampling() if kind == "SRS"
        else TwoStageWeightedClusterSampling(m=int(m))
    )
    method = {"Wald": WaldInterval, "Wilson": WilsonInterval, "aHPD": AdaptiveHPD}[
        cell.method
    ]()
    evaluator = KGAccuracyEvaluator(
        kg=load_dataset(cell.dataset, seed=settings.dataset_seed),
        strategy=strategy,
        method=method,
        config=settings.evaluation_config(alpha=cell.alpha),
    )
    return run_study(
        evaluator,
        repetitions=settings.repetitions,
        seed=derive_seed(settings.seed, *cell.seed_stream),
        label=cell.label,
    )


def _gates(seed: int, outcomes: list) -> list[str]:
    """Correctness gates, run after timing; raise :class:`GateFailure`."""
    import numpy as np

    rng = np.random.default_rng([seed, 3])
    checked = []
    for _ in range(SAMPLED_CELLS):
        outcome = outcomes[int(rng.integers(len(outcomes)))]
        plan = outcome.plan
        cell = plan.cells[int(rng.integers(len(plan.cells)))]
        study = _library_study(cell, plan.settings)
        if _study_bytes(study) != _study_bytes(outcome.results[cell.key]):
            raise GateFailure(
                f"stoprule-grid: {cell.label} at settings seed {plan.settings.seed} "
                "differs from the plain library path"
            )
        checked.append(f"{cell.label}@{plan.settings.seed}")
    lines = [
        "gate: per-repetition arrays byte-identical to the library path for "
        + ", ".join(checked)
    ]
    if seed == 0:
        from repro.experiments.table3 import run_table3

        report = run_table3(_settings(0, TABLE_REPETITIONS))
        if report.render(volatile=False) + "\n" != TABLE3_FILE.read_text(encoding="utf-8"):
            raise GateFailure(f"stoprule-grid: rendered table differs from {TABLE3_FILE}")
        lines.append(f"gate: table at seed 0, {TABLE_REPETITIONS} reps equals {TABLE3_FILE.name}")
    return lines


def _warm_up(seed: int, context) -> None:
    """Pay first-call costs (lazy imports, ufunc set-up) outside timing."""
    from dataclasses import replace

    from repro.experiments.table3 import table3_plan
    from repro.runtime import execute

    settings = replace(_settings(seed + 1, 2), datasets=("YAGO",))
    execute(table3_plan(settings), context=context)


def _pass(plan, context, tracer=None):
    """One cold pass: KG rebuild, then the timed ``execute``."""
    from repro.runtime import execute

    start = time.perf_counter()
    with op(tracer, "setup"):
        _cold(plan.settings)
    exec_start = time.perf_counter()
    with op(tracer, "grid"):
        outcome = execute(plan, context=context)
    end = time.perf_counter()
    return end - start, end - exec_start, outcome


def _pass_plan(seed: int, index: int):
    """Pass *index* of a run at *seed*: the grid at its own settings seed,
    so a run averages over more sample paths than one seed gives."""
    from repro.experiments.table3 import table3_plan
    from repro.stats.rng import derive_seed

    return table3_plan(_settings(derive_seed(seed, index)))


def run(seed: int, seconds: float, trace: bool) -> dict:
    setup = harness.timed_setup(harness.probe_argv(NAME, seed), SETUP_RUNS)
    context = prepare(seed)
    _warm_up(seed, context)
    result = {
        "context": context,
        "setup_samples": setup,
        "lines": [f"input: {len(_pass_plan(seed, 0).cells)} cells x {REPETITIONS} reps "
                  f"per pass, pass k at settings seed derive_seed({seed}, k)"],
    }
    if trace:
        return _traced(seed, _pass_plan(seed, 0), context, result)

    outcomes, exec_seconds, cell_ms = [], [], []
    # Stop when another pass would more likely overshoot than not.
    while not exec_seconds or (
        sum(exec_seconds) + 0.5 * harness.median(exec_seconds) < seconds
    ):
        _, elapsed, outcome = _pass(_pass_plan(seed, len(outcomes)), context)
        outcomes.append(outcome)
        exec_seconds.append(elapsed)
        cell_ms.extend(cell.seconds * 1000.0 for cell in outcome.cells)
    summary = harness.latency_summary([s * 1000.0 for s in exec_seconds], TAIL_PCT)
    cells = harness.latency_summary(cell_ms, 75.0)
    reps = sum(len(o.plan.cells) * o.plan.settings.repetitions for o in outcomes)
    result["lines"] += _gates(seed, outcomes)
    reps_per_s = reps / sum(exec_seconds)
    result.update(
        attempted=reps,
        failed=sum(_failed_reps(outcome) for outcome in outcomes),
        e2e={
            "ops_per_s": reps_per_s,
            "op_p50_ms": summary["p50_ms"],
            "op_tail_ms": summary["tail_ms"],
        },
        tail=summary,
        named={
            "reps_per_s": (
                reps_per_s, "1/s",
                f"{reps} reps in {len(outcomes)} cold passes, {sum(exec_seconds):.2f} s",
            ),
            "pass_p50_ms": (summary["p50_ms"], "ms", f"n={summary['samples']} passes"),
            "pass_tail_ms": (
                summary["tail_ms"], "ms",
                f"p{summary['tail_pct']:g}: too few passes for a tail",
            ),
            "cell_p50_ms": (cells["p50_ms"], "ms", f"n={cells['samples']} cells, not a metric"),
            "cell_p75_ms": (cells["tail_ms"], "ms", f"n={cells['samples']} cells, not a metric"),
        },
        passes=exec_seconds,
    )
    return result


def _traced(seed, plan, context, result) -> dict:
    untraced = [_pass(plan, context)[0] for _ in range(2)]
    runs = []
    for _ in range(2):
        tracer = Tracer().install()
        try:
            wall, _, outcome = _pass(plan, context, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer, wall_s=wall, load_threads=1, table_stats=harness.table_stats()
        )
        runs.append((tracer, metrics, outcome))
    tracer, metrics, outcome = runs[0]
    check_repeat(runs[0][1], runs[1][1], DETERMINISTIC)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - harness.median(untraced)
    reps = len(plan.cells) * plan.settings.repetitions
    result.update(
        attempted=reps, failed=_failed_reps(outcome), layers=metrics,
        tracer=tracer,
    )
    result["lines"] += _gates(seed, [outcome])
    result["lines"].append("gate: work counters repeat exactly across two traced passes")
    return result

