"""One benchmark worker process: import psp4nse from the checkout, set up, run one pass.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|plain|traced --t0 T

T is time.monotonic() read by the parent just before it started this process;
CLOCK_MONOTONIC is system-wide on Linux, so "ready <seconds>" on the first
output line is the set-up time from process start to ready. Unless the mode is
"setup", one JSON line with the pass result follows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    if not (SRC / "psp4nse" / "__init__.py").is_file():
        print(f"worker: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up()
    print(f"ready {time.monotonic() - args.t0!r}", flush=True)
    if args.mode == "setup":
        return 0
    result = workloads.run_pass(args.workload, args.seed, traced=args.mode == "traced")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
