"""Set-up probe: import the package, build a workload's KGs, print ``ready``.

``harness.timed_setup`` spawns this script and times it from spawn to
the ``ready`` line, so each sample pays a cold interpreter, cold
imports and cold KG builds::

    python3 perfbench/setup_probe.py stoprule-grid 0
"""

from __future__ import annotations

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "stoprule-grid":
        import grid as module
    elif workload == "audit-latency":
        import audit as module
    else:
        print(f"no set-up probe for workload {workload!r}", file=sys.stderr)
        return 2
    module.prepare(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
