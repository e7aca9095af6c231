"""Run one tdabc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iris-cv --seed 0 --seconds 32 --trace 0

Run from the repository root.  The library is used from ``src/`` as it is;
nothing is built.  Each run starts fresh worker processes, one at a time,
with BLAS and OpenMP pinned to one thread:

* with ``--trace 0``, ``SETUP_SAMPLES - 1`` processes that only set up, then
  the measuring process; ``setup_s`` is the median set-up time of all of
  them and the other end-to-end metrics come from the measuring process;
* with ``--trace 1``, one measuring process that alternates untraced and
  traced iterations and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the prediction digest and the run
environment.  The exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("iris-cv", "shells-classify", "ramp-sweep")
SETUP_SAMPLES = 3
# A run must end within 180 s; leave room to report after the last child.
RUN_LIMIT_S = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # Same bytecode work on every run: never reuse or leave behind .pyc files.
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class RunFailed(Exception):
    pass


def spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its JSON line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(args: argparse.Namespace, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit, then context."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for kind, times in result["iterations"].items():
        if times:
            print(f"# {kind} iterations (s): {' '.join(f'{t:.4f}' for t in times)}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']!r} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"{name:40s} {value!r} ratio (not gated)")
    print(f"# predictions {result['digest']}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="tdabc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tdabc" / "__init__.py").is_file():
        print(f"perfbench: no tdabc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn(args, deadline, setup_only=True)["setup_s"])
        result = spawn(args, deadline, setup_only=False)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        samples.append(result["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(samples)

    report(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
