"""Set-up probe: time one cold start of a workload in a fresh process.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py --workload W
--seed N``; prints the measured seconds as its only output line. The
clock covers ``import repro``, building and driving every op of the
workload (everything before its first simulated event), and a tiny
first-use run of every design that binds guest programs and fills the
decode caches a real run would otherwise fill on its first requests.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import repro  # noqa: F401  (the import is part of what is timed)
    from ops import build, run_op
    from workloads import FIRST_USE_REQUESTS, ops_for

    for op in ops_for(args.workload, args.seed):
        build(op)
    for op in ops_for(args.workload, args.seed, FIRST_USE_REQUESTS, 1):
        run_op(op)
    print(f"{time.perf_counter() - start:.6f}")


if __name__ == "__main__":
    main()
