"""One benchmark process: set up a workload, run it for a while, check it.

Started by ``run.py``, which passes the monotonic time at which it spawned
this process as ``--t0``, so set-up time counts interpreter start, imports
and input generation.  With ``--setup-only`` the process stops once the
inputs are ready.  Otherwise it runs the workload in a closed loop, one
call at a time, for as long as another call, as long as the last one, still
ends within ``--seconds`` (at least once; with ``--trace 1`` untraced and
traced iterations alternate, at least one of each), checks every
iteration's outputs, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import PINNED

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import ITERATION, SETUP, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402



def parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True, help="monotonic spawn time")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "pinned": {v: os.environ.get(v) for v in PINNED},
    }


def measure(workload, seconds: float, tracer) -> dict:
    """Closed-loop iterations within the window; every output is checked."""
    untraced: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    digests: list[str] = []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if tracer is not None and len(untraced) > len(traced):
            with tracer.installed(), tracer.root(ITERATION) as span:
                out = workload.run()
            last = span[5] - span[4]
            traced.append(last)
        else:
            start = time.perf_counter()
            out = workload.run()
            last = time.perf_counter() - start
            untraced.append(last)
        if first is None:
            # Set-up plus one call, as a one-shot user sees it; later calls
            # would add allocator growth that depends on the iteration count.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked = workload.check(out)
        del out
        first = first or checked
        attempted += checked.attempted
        failed += checked.failed
        problems += checked.problems
        digests.append(checked.digest)
        if time.perf_counter() + last > deadline and (tracer is None or traced):
            break
    if len(set(digests)) > 1:
        problems.append(f"predictions differ between iterations: {sorted(set(digests))}")
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digests[0],
        "f1_macro": first.f1_macro,
        "f1_minority": first.f1_minority,
        "peak_mib": peak_kib / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    make = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer() if args.trace else None
        if tracer is None:
            workload = make(args.seed, workdir)
        else:
            with tracer.installed(), tracer.root(SETUP):
                workload = make(args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        m = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = statistics.median(m["untraced"])
    if tracer is None:
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": m["peak_mib"],
            "f1_macro.tdabc-m": m["f1_macro"],
        }
    else:
        values = tracer.layer_metrics(statistics.fmean(m["untraced"]))
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    units = declared(args.trace)
    if values.keys() != units.keys():
        m["problems"].append(f"metrics {sorted(values.keys() ^ units.keys())} "
                             "are measured or declared but not both")
    values = {k: values[k] for k in [*units, *values] if k in values}
    print(json.dumps({
        "correct": not m["problems"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in values.items()},
        "setup_s": setup_s,
        "iterations": {"untraced": m["untraced"], "traced": m["traced"]},
        "extra": {
            "f1_minority.tdabc-m": m["f1_minority"],
            "failed_share": m["failed"] / m["attempted"],
        },
        "digest": m["digest"],
        "problems": m["problems"][:20],
        "env": environment(args.seed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
