#!/usr/bin/env python3
"""Summarise and compare sets of benchmark records.

A record is the JSON file `run.py --out FILE` writes; a set is a directory
of them (any seeds, any workloads).

    python3 perfbench/compare.py SET           # medians, quartiles, spread vs bound
    python3 perfbench/compare.py BASE NEW      # verdict per workload and metric
    python3 perfbench/compare.py --layers SET  # per-layer medians, tracing overhead

Verdicts use the bounds in BENCHMARK.json.  `worse`: the new median is
worse than the base median by more than the metric's bound.  `better`: the
new median is better by more than the base's quartile spread and the new
run wins at least nine tenths of the seeds both sets ran.  Anything else is
`unresolved`.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCH["end_to_end"]}


def load(directory, trace):
    """{workload: {seed: record}} for the records of one trace mode."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == trace:
            out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def values(recs, name):
    return {seed: r["result"]["metrics"][name]["value"] for seed, r in recs.items()}


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def failed_share(recs):
    att = sum(r["result"]["attempted"] for r in recs.values())
    fail = sum(r["result"]["failed"] for r in recs.values())
    correct = all(r["result"]["correct"] for r in recs.values())
    return f"{fail}/{att} failed, correct={correct}"


def summary(directory):
    sets = load(directory, 0)
    for wl, recs in sets.items():
        print(f"{wl}: {len(recs)} runs, {failed_share(recs)}")
        for name, m in END_TO_END.items():
            q1, med, q3 = quartiles(values(recs, name).values())
            spread = (q3 - q1) / med
            flag = "  SPREAD > bound/3" if spread > m["bound"] / 3 else ""
            print(f"  {name:14s} {med:12.5g} {m['unit']:4s} [{q1:.5g}, {q3:.5g}] "
                  f"spread {spread:6.2%} bound {m['bound']:.0%}{flag}")


def verdict(m, base, new):
    b1, bmed, b3 = quartiles(base.values())
    n1, nmed, n3 = quartiles(new.values())
    sign = 1.0 if m["better"] == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    if worse_by > m["bound"]:
        word = "worse"
    elif (-sign * (nmed - bmed) > (b3 - b1)) and seeds and wins >= 0.9 * len(seeds):
        word = "better"
    else:
        word = "unresolved"
    return (f"{bmed:11.5g} [{b1:.5g}, {b3:.5g}]  {nmed:11.5g} [{n1:.5g}, {n3:.5g}]  "
            f"{(nmed - bmed) / bmed:+7.2%}  wins {wins}/{len(seeds)}  {word}")


def compare(base_dir, new_dir):
    base, new = load(base_dir, 0), load(new_dir, 0)
    for wl in sorted(set(base) | set(new)):
        if wl not in base or wl not in new:
            print(f"{wl}: only in {'base' if wl in base else 'new'}")
            continue
        print(f"{wl}: base {failed_share(base[wl])}; new {failed_share(new[wl])}")
        for name, m in END_TO_END.items():
            print(f"  {name:14s} {verdict(m, values(base[wl], name), values(new[wl], name))}")


def layers(directory):
    traced, plain = load(directory, 1), load(directory, 0)
    for wl, recs in traced.items():
        print(f"{wl}: {len(recs)} traced runs, {failed_share(recs)}")
        names = next(iter(recs.values()))["result"]["metrics"]
        for name, meta in names.items():
            med = statistics.median(values(recs, name).values())
            print(f"  {name:38s} {med:14.6g} {meta['unit']}")
        pairs = [(r["result"]["metrics"]["bench.traced_run_s"]["value"],
                  plain[wl][s]["result"]["metrics"]["run_s"]["value"])
                 for s, r in recs.items() if s in plain.get(wl, {})]
        if pairs:
            over = statistics.median(t - p for t, p in pairs)
            base = statistics.median(p for _, p in pairs)
            print(f"  tracing overhead (traced run_s - untraced run_s, same seeds, "
                  f"{len(pairs)} pairs): {over:+.3f} s ({over / base:+.1%})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="one set to summarise, or BASE NEW")
    ap.add_argument("--layers", action="store_true", help="per-layer table of traced runs")
    args = ap.parse_args(argv)
    if args.layers:
        for d in args.sets:
            layers(d)
    elif len(args.sets) == 1:
        summary(args.sets[0])
    elif len(args.sets) == 2:
        compare(*args.sets)
    else:
        ap.error("give one set, or two to compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
