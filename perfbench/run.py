#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; helmdec is imported from its `src/`.
The run repeats whole rounds of its workload until `--seconds` have passed
(at least one round).  With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it records spans around the program's entry points and
prints the per-layer metrics, averaged over its rounds.  A traced and an
untraced run with the same seed make the same calls on the same inputs, so
the difference of their `run_s` is the tracing overhead (`compare.py
--layers` prints it).  `--out FILE` also writes the whole record (seed,
machine, versions) as JSON, which `compare.py` reads.
"""

import os

# one closed loop, single-threaded: set before numpy loads its BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HELMDEC_THREADS", None)

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3      # set-ups per run at least; setup_s is their median


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def end_to_end(tallies, setups):
    """Warm calls of one class (a mesh and trace, or an HX system) do the
    same work on different inputs, so each class is timed by its fastest
    call: interference from other load on the machine only ever adds time."""
    warm: dict = {}
    for t in tallies:
        for key, times in t.warm.items():
            warm.setdefault(key, []).extend(times)
    count = sum(len(v) for v in warm.values())
    best = {key: min(v) for key, v in warm.items()}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(t.program_s for t in tallies), "s"),
        "cold_s": (statistics.median(t.cold_s for t in tallies), "s"),
        "warm_per_s": (count / sum(len(warm[k]) * best[k] for k in warm), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def traced_round(workload, seed, rnd):
    import tracer as tr
    from workloads import Tally

    tracer = tr.Tracer()
    tally = Tally(tracer)
    restore = tr.install(tracer)
    try:
        workload.round(seed, rnd, tally)
    finally:
        restore()
    layers = tr.per_layer(tracer)
    layers["hx.pcg_iterations"] = (tally.pcg_iterations, "count")
    layers["hx.true_rel_residual_max"] = (tally.true_residual_max, "ratio")
    layers["bench.traced_run_s"] = (tally.program_s, "s")
    return tally, layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "helmdec" / "__init__.py").is_file():
        print(f"perfbench: no helmdec sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import helmdec

    if Path(helmdec.__file__).resolve().parent != SRC / "helmdec":
        print(f"perfbench: helmdec imported from {helmdec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally, build

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"perfbench: {args.workload} {json.dumps(env)}", file=sys.stderr)

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        t = Tally()
        build(workload.items, t)
        setups.append(t.setup_s)
        del t
        gc.collect()

    tallies = []
    layer_rounds = []
    t_start = time.perf_counter()
    rnd = 0
    while True:
        if args.trace:
            tally, layers = traced_round(workload, args.seed, rnd)
            layer_rounds.append(layers)
        else:
            tally = Tally()
            workload.round(args.seed, rnd, tally)
        tallies.append(tally)
        setups.append(tally.setup_s)
        gc.collect()
        print(f"perfbench: round {rnd}: program {tally.program_s:.3f} s, "
              f"{tally.attempted} operations, {tally.failed} failed", file=sys.stderr)
        rnd += 1
        if time.perf_counter() - t_start >= args.seconds:
            break

    for t in tallies:
        for p in t.problems:
            print(f"perfbench: FAILED {p}", file=sys.stderr)
    if args.trace:
        metrics = {name: (statistics.fmean(lr[name][0] for lr in layer_rounds), unit)
                   for name, (_, unit) in layer_rounds[0].items()}
    else:
        metrics = end_to_end(tallies, setups)
    result = {
        "correct": not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "rounds": rnd,
                  **env, "result": result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
