"""Shared plumbing of the benchmark: paths, environment, statistics, set-up timing.

Everything here is workload-agnostic.  The workload modules
(:mod:`grid`, :mod:`audit`, :mod:`service`) build their inputs from the
seed, time their operations and run their correctness gates; this module
gives them the checkout layout, a scrubbed environment, the latency
summary rule and the cold set-up measurement.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Run records and span journals (one file per workload and mode,
#: overwritten by the next run of the same kind).
OUT = ROOT / ".perfbench_out"
#: Scratch stores and server logs; each run makes and removes its own.
TMP = ROOT / ".perfbench_tmp"

#: Percentiles a tail may fall back to when a run has too few samples.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


class GateFailure(Exception):
    """A correctness gate found a mismatch; the run must fail."""


def scrub_environment() -> list[str]:
    """Drop every ``REPRO_*`` knob so each run executes on the defaults.

    Children inherit the scrubbed environment.  Returns the names removed.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    src = str(SRC)
    path = os.environ.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    if src not in sys.path:
        sys.path.insert(0, src)
    return removed


def scratch_dir(tag: str) -> Path:
    """A fresh, empty scratch directory inside the checkout."""
    path = TMP / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP.rmdir()  # only succeeds once every run's scratch is gone
    except OSError:
        pass


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def environment_record(context) -> dict:
    """Host and library facts recorded beside every run's figures."""
    import numpy
    import scipy

    from repro.intervals.kernels import active_kernel

    return {
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": active_kernel().name,
        "run_context": context.describe() if context is not None else None,
    }


def latency_summary(samples_ms: list[float], tail_pct: float) -> dict:
    """Median and tail of *samples_ms*.

    Each workload names its tail percentile from the sample count a run
    normally gets, so the percentile stays put from run to run.  When a
    run has fewer than ten samples beyond it, the tail drops to the
    highest :data:`TAIL_LADDER` percentile that has ten.
    """
    import numpy as np

    values = np.asarray(samples_ms, dtype=float)
    n = int(values.size)
    if n * (1.0 - tail_pct / 100.0) < TAIL_BEYOND:
        tail_pct = max(
            [pct for pct in TAIL_LADDER if n * (1.0 - pct / 100.0) >= TAIL_BEYOND],
            default=TAIL_LADDER[0],
        )
    tail = float(np.percentile(values, tail_pct))
    return {
        "p50_ms": float(np.percentile(values, 50.0)),
        "tail_ms": tail,
        "tail_pct": tail_pct,
        "samples": n,
        "beyond_tail": int(np.count_nonzero(values > tail)),
    }


def table_stats() -> dict:
    """Build and eligibility counters summed over the process's solve tables."""
    from repro.intervals.table import peek_tables

    totals = {"builds": 0, "build_seconds": 0.0, "ineligible": 0}
    for stats in peek_tables():
        for key in totals:
            totals[key] += stats[key]
    return totals


def split_cpus():
    """``(client CPUs, server CPU)`` for a load generator and its server.

    The server gets one CPU of its own and the load generator the rest,
    so client threads never preempt the server's GIL-holding thread and
    a request's latency does not hinge on how the host schedules the two
    processes across CPUs.  ``None`` when fewer than two CPUs are usable.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[:-1]), {cpus[-1]}


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus the largest waited child)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def timed_setup(argv: list[str], runs: int) -> list[float]:
    """Wall seconds from spawning *argv* until it prints ``ready``, *runs* times.

    Each spawn is a fresh interpreter, so every sample pays imports and
    KG builds cold, as a user's fresh invocation does.
    """
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {argv[2:]} failed (exit {code})")
        samples.append(elapsed)
    return samples


def probe_argv(workload: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]


def median(values) -> float:
    return float(statistics.median(values))


def write_record(name: str, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    return path
