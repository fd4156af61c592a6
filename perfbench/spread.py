#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and, per
metric, prints the median, the quartile spread (Q3 - Q1, as
statistics.quantiles(values, n=4) gives them) as a share of the median, and
whether that spread is within a third of the metric's bound. With --save
the medians are written to a JSON file; with --against an earlier such file
each median is compared with the earlier one, and the change in the
metric's worse direction is printed as a share of the earlier median next
to the bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --save set1.json
    python3 perfbench/spread.py --seeds 11-20 --against set1.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=names)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save", help="write the medians to this JSON file")
    ap.add_argument("--against", help="compare the medians with this file")
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.load(open(args.against)) if args.against else {}
    medians = {}
    worst, worst_shift = 0.0, 0.0
    for w in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(last)
            if out.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
                sys.exit(1)
            runs.append(res["metrics"])
        print(f"== {w} ({len(runs)} runs)")
        medians[w] = {}
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            medians[w][name] = med
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            m = metrics.get(name)
            line = f"  {name:<22} median {med:>14.4f}  spread {spread:6.3f}"
            if m is not None:
                bound = m["bound"]
                line += "  ok" if spread < bound / 3 else f"  OVER {bound / 3:.3f}"
                worst = max(worst, spread / bound)
                before = earlier.get(w, {}).get(name)
                if before:
                    sign = 1 if m["better"] == "lower" else -1
                    shift = sign * (med - before) / before
                    worst_shift = max(worst_shift, shift / bound)
                    verdict = "ok" if shift <= bound else "WORSE"
                    line += f"  vs earlier {shift:+.3f} (bound {bound}) {verdict}"
            print(line)
            print("    runs " + " ".join(f"{v:.4g}" for v in vals))
    print(f"worst spread / bound: {worst:.3f}")
    if earlier:
        print(f"worst change in the worse direction / bound: {worst_shift:.3f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)


if __name__ == "__main__":
    main()
