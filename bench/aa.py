#!/usr/bin/env python3
"""A/A harness: runs the benchmark as two sets of runs of the same code and
checks that they agree within the benchmark's own bounds.

For each workload and end-to-end metric it prints both sets' medians, each
set's spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median), how
much worse the second median is than the first, and the bound. It exits
non-zero when a spread (setup_s excepted) or a worsening exceeds the bound.

Run from the repository root:  python3 bench/aa.py [--runs 10] [--md bench/AA.md]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)}: failed {result['failed']} of {result['attempted']}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - started


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload (>= 3)")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--md", default="", help="also write the table to this file")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    # Each set has its own seeds (the driver's two sets need not share
    # theirs); seed 123 is in the first.
    seeds = [[123] + list(range(101, 100 + args.runs)), list(range(201, 201 + args.runs))]

    lines = [f"A/A: 2 sets x {args.runs} runs per workload, run_seconds={spec['run_seconds']}, "
             f"seeds {seeds[0]} and {seeds[1]}", "",
             "| workload | metric | median A | spread A | median B | spread B | B worse by | bound | verdict |",
             "|---|---|---|---|---|---|---|---|---|"]
    bad = 0
    wall = []
    for name in names:
        sets = []
        for seed_list in seeds:
            runs = []
            for seed in seed_list:
                metrics, took = run_once(spec["command"], name, seed, spec["run_seconds"])
                runs.append(metrics)
                wall.append(took)
                print(f"{name} seed {seed}: {took:.1f}s", file=sys.stderr, flush=True)
            sets.append(runs)
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in sets[0]]
            b = [r[m["name"]] for r in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            sp_a, sp_b = spread(a), spread(b)
            too_wide = m["name"] != "setup_s" and max(sp_a, sp_b) > m["bound"]
            ok = not too_wide and worse <= m["bound"]
            bad += not ok
            verdict = "ok" if ok else "EXCEEDS"
            if ok and m["name"] != "setup_s" and max(sp_a, sp_b) > m["bound"] / 3:
                verdict = "ok (spread > bound/3)"
            lines.append(f"| {name} | {m['name']} ({m['unit']}) | {med_a:.6g} | {sp_a:.4f} | {med_b:.6g} | "
                         f"{sp_b:.4f} | {worse:+.4f} | {m['bound']} | {verdict} |")
    lines += ["", f"{len(wall)} runs, {sum(wall):.0f} s in total, slowest {max(wall):.1f} s; "
              f"{'all rows within bound' if not bad else str(bad) + ' rows exceed their bound'}"]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.md:
        open(args.md, "w").write(text)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
