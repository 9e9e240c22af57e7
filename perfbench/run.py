"""The repository benchmark: three workloads, timed end to end, traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stoprule-grid --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (inputs come from ``--seed`` only):

* ``stoprule-grid`` -- the Table 3 grid through ``repro.runtime.execute``
  (:mod:`grid`);
* ``audit-latency`` -- single ``KGAccuracyEvaluator.run`` audits of the
  101M-triple SYN100M KG (:mod:`audit`);
* ``service-mix`` -- two closed-loop clients against ``python -m repro
  serve`` (:mod:`service`).

With ``--trace 0`` the run reports the end-to-end metrics, measured
untraced; with ``--trace 1`` it reports the per-layer metrics of a
separate traced pass (:mod:`tracing`), the tracing overhead and the
unaccounted time.  Both modes run the workload's correctness gates
outside the timed region.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a gate
mismatch prints ``"correct": false`` and exits 1.  Run records go to
``.perfbench_out/`` in the checkout.

What each metric should move, and on which workload, is recorded in
``perfbench/predictions.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness
from harness import GateFailure

WORKLOADS = ("stoprule-grid", "audit-latency", "service-mix")

#: Units of the end-to-end metrics.  The names are generic because every
#: workload reports every metric; what an operation is on each workload
#: (a repetition, an audit, a request) is in ``predictions.json``.
UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    worst = 0
    for workload in WORKLOADS:
        code = subprocess.call([
            sys.executable, __file__, "--workload", workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, code)
    return worst


def _workload_module(name: str):
    if name == "stoprule-grid":
        import grid as module
    elif name == "audit-latency":
        import audit as module
    else:
        import service as module
    return module


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    removed = harness.scrub_environment()
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {harness.SRC}", file=sys.stderr)
        return 2
    module = _workload_module(args.workload)
    trace = bool(args.trace)
    try:
        result = module.run(args.seed, args.seconds, trace)
    except GateFailure as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    environment = harness.environment_record(result.get("context"))
    environment["scrubbed"] = removed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "environment": environment,
    }
    for line in result["lines"]:
        print(line)
    print("environment: " + json.dumps(environment, sort_keys=True, default=str))

    if trace:
        metrics = _layer_report(args.workload, result, record)
    else:
        metrics = _end_to_end_report(result, record)
    failed = int(result["failed"])
    attempted = int(result["attempted"])
    print(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} attempted)")
    record.update(attempted=attempted, failed=failed, metrics=metrics)
    mode = "trace" if trace else "timed"
    harness.write_record(f"{args.workload}-{mode}", record)
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _end_to_end_report(result: dict, record: dict) -> dict:
    setup = result["setup_samples"]
    peak = result.get("peak_rss_mb", harness.peak_rss_mb())
    values = {"setup_s": harness.median(setup), **result["e2e"], "peak_rss_mb": peak}
    print(
        f"setup_s {values['setup_s']:.4f} s (median of {len(setup)} cold set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup) + ")"
    )
    for name, (value, unit, note) in result["named"].items():
        print(f"{name} {value:.4f} {unit} ({note})")
    print(f"peak_rss_mb {peak:.1f} MB")
    record.update(setup_samples=setup, tail=result["tail"], named=result["named"],
                  passes=result.get("passes"))
    return {name: (float(values[name]), UNITS[name]) for name in UNITS if name in values}


def _layer_report(workload: str, result: dict, record: dict) -> dict:
    from tracing import LAYERS, PER_LAYER, self_times

    layers = result["layers"]
    tracer = result.pop("tracer")
    spans_path = harness.OUT / f"{workload}-spans.jsonl"
    tracer.write(spans_path)
    own = self_times(tracer)
    for layer in sorted(LAYERS, key=lambda name: -own.get(name, 0.0)):
        print(f"self {layer} {own.get(layer, 0.0):.4f} s")
    print(f"tracing overhead {layers['trace.overhead_s']:.4f} s "
          f"(traced wall {layers['trace.wall_s']:.4f} s minus untraced median)")
    print(f"unaccounted {layers['trace.unaccounted_s']:.4f} s "
          "(wall time of the load threads minus the self time of every library layer)")
    for note in result.get("notes", ()):
        print(note)
    print(f"spans: {layers['trace.spans']} written to {spans_path.relative_to(harness.ROOT)}")
    metrics = {name: (float(layers.get(name, 0)), unit) for name, unit, _ in PER_LAYER}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
