#!/usr/bin/env python3
"""Measures the benchmark baseline and writes it to perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/ledger.py --seeds 10 --out perfbench/BASELINE.json

For every workload in BENCHMARK.json it makes one untraced run per seed
and records, for each end-to-end metric, the median, the quartiles and
the spread (interquartile distance over the median) of the runs, beside
the metric's bound. It then makes --traced traced runs per workload, on
the first seeds, and records the median and quartiles of each per-layer
metric, and from those the two shares that decide whether batched
multi-run replay is worth building: the replay share of an mbpta-rm
campaign and the trace build+compile share of a baseline-hwm campaign.
Runs go one at a time, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    rep = json.loads(p.stdout.strip().splitlines()[-1])
    if not rep["correct"] or rep["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: {rep['failed']} of {rep['attempted']} failed")
    return rep


def summary(vals):
    """Median, quartiles and spread of a list of values."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": vals}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--out", default="perfbench/BASELINE.json")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "seeds": list(range(args.seed0, args.seed0 + args.seeds)),
           "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        reps = []
        for seed in out["seeds"]:
            start = time.time()
            reps.append(run(bench, w, seed, 0))
            print(f"{w} seed {seed}: {time.time() - start:.1f}s", file=sys.stderr, flush=True)
        e2e = {}
        for name, bound in bounds.items():
            e2e[name] = {"unit": reps[0]["metrics"][name]["unit"], "bound": bound,
                         **summary([r["metrics"][name]["value"] for r in reps])}
        traced = [run(bench, w, seed, 1) for seed in out["seeds"][:args.traced]]
        out["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in reps), "failed": sum(r["failed"] for r in reps),
            "end_to_end": e2e,
            "per_layer": {k: {"unit": v["unit"], **summary([t["metrics"][k]["value"] for t in traced])}
                          for k, v in sorted(traced[0]["metrics"].items())},
        }
    wl = out["workloads"]
    out["shares"] = {
        "mbpta-rm replay share": wl["mbpta-rm"]["per_layer"]["core.replay_share"],
        "baseline-hwm build+compile share": wl["baseline-hwm"]["per_layer"]["core.build_compile_share"],
    }
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w, r in wl.items():
        for name, s in r["end_to_end"].items():
            print(f"{w:13s} {name:16s} median={s['median']:<12.6g} spread={s['spread']:.3f} bound={s['bound']}")
    for name, s in out["shares"].items():
        print(f"{name}: median={s['median']:.3f} q1={s['q1']:.3f} q3={s['q3']:.3f}")


if __name__ == "__main__":
    main()
