#!/usr/bin/env python3
"""Steadiness check: run one workload k times on seeds 1..k and print, per
end-to-end metric, the median, the quartiles and (q3 - q1) / median next to
the metric's bound in BENCHMARK.json.

With --sets 2 it runs the k seeds twice and also prints, per metric, how
far the second set's median moved from the first's, against the bound.

Exits non-zero when a run fails or is incorrect, when the share of failed
operations differs between runs, or when a spread or a median's move in
the worse direction exceeds its bound. A spread above a third of its bound
is flagged.

Run from the root of the repository:

    python3 benchmark/steady.py --workload cold_suite --runs 10 [--sets 2]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workload, runs, label):
    values = {}
    units = {}
    shares = set()
    for seed in range(1, runs + 1):
        cmd = bench["command"] + [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stdout}")
        shares.add(result["failed"] / result["attempted"])
        brief = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"{label}seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} {brief}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return values, units, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}

    sets = [run_set(bench, args.workload, args.runs, f"set {i + 1} " if args.sets > 1 else "")
            for i in range(args.sets)]
    ok = True
    for i, (values, units, _) in enumerate(sets):
        if args.sets > 1:
            print(f"\nset {i + 1}:")
        print(f"\n{'metric':40} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = spec[name]["bound"]
            flag = ""
            if spread > bound:
                # setup_s is compared by its median only.
                if name != "setup_s":
                    ok = False
                flag = "  > bound"
            elif spread > bound / 3:
                flag = "  > bound/3"
            print(f"{name:40} {units[name]:7} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")

    if args.sets == 2:
        (first, _, _), (second, _, _) = sets
        print(f"\n{'metric':40} {'median 1':>12} {'median 2':>12} {'worse by':>9} {'bound':>6}")
        for name in first:
            m1, m2 = statistics.median(first[name]), statistics.median(second[name])
            lower = spec[name]["better"] == "lower"
            worse = ((m2 - m1) if lower else (m1 - m2)) / m1 if m1 else 0.0
            bound = spec[name]["bound"]
            flag = "  > bound" if worse > bound else ""
            ok = ok and not flag
            print(f"{name:40} {m1:12.6g} {m2:12.6g} {worse:9.4f} {bound:6.3f}{flag}")

    shares = set().union(*(s for _, _, s in sets))
    print(f"\nfailed share per run: {sorted(shares)}")
    if len(shares) != 1:
        print("the failed share is NOT the same in every run")
        ok = False
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
