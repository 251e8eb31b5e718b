"""Benchmark of the trimodal reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

It imports the program from the checkout's `src/`, runs one workload for the
given time, checks the program's outputs and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones (and the spans
are written to `.perfbench_out/`). See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

_IMPORTED_AT = time.perf_counter()


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's record of its
    start time (10 ms resolution); falls back to the time since this module
    was imported where /proc is not readable."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        start_s = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_s
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def _import_program(checkout: Path) -> None:
    src = checkout / "src"
    if not (src / "trimodal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'trimodal'}; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    import trimodal
    if Path(trimodal.__file__).resolve().parent != (src / "trimodal").resolve():
        raise SystemExit(f"perfbench: imported trimodal from {trimodal.__file__}, "
                         f"not from {src}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    _import_program(checkout)
    out = checkout / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            work=work, out=out, setup_clock=process_age_s)
        result = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in run.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
