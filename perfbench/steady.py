#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs every workload in BENCHMARK.json in two interleaved sets of runs:
for each seed from 1 to 10 in turn, one run of set A, then one of set B,
with the command and run length in BENCHMARK.json. For each
workload/metric it prints each set's median and quartiles, the spread
(quartile distance over median) and the drift of set B's median from set
A's, and checks them against the metric's bound:

- spread must stay within the bound, and should stay within a third of it;
- drift in the worse direction must stay within the bound;
- sdc_bound is exact for a seed, so the A and B runs of one seed must
  read the same value.

Then it makes one traced run per workload in each set on seed 1 and
checks that every count metric is identical between the two.

Run from the repository root, with no arguments:

    python3 perfbench/steady.py

Exits non-zero if a run fails or a check does not hold.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)
SETS = "AB"


def run(spec, workload, seed, trace):
    args = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}\n{p.stderr}")
    return result


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]]

    values = {(w, s): {} for w in workloads for s in SETS}
    ok = True
    for seed in SEEDS:
        for w in workloads:
            for s in SETS:
                r = run(spec, w, seed, 0)
                line = " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items())
                print(f"run {s} {w} seed {seed}: {line} "
                      f"attempted={r['attempted']} failed={r['failed']}", flush=True)
                for k, m in r["metrics"].items():
                    values[(w, s)].setdefault(k, []).append(m["value"])
            a, b = (values[(w, s)]["sdc_bound"][-1] for s in SETS)
            if a != b:
                print(f"{w} seed {seed}: sdc_bound differs between sets: {a} != {b}")
                ok = False

    print()
    print(f"{'workload/metric':<22} {'unit':<12}"
          + "".join(f" {s + ' median':>12} {'q1':>10} {'q3':>10} {'spread':>7}" for s in SETS)
          + f" {'drift':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, meds, notes = "", [], []
            for s in SETS:
                med, q1, q3, spread = summary(values[(w, s)][name])
                meds.append(med)
                cells += f" {med:>12.6g} {q1:>10.6g} {q3:>10.6g} {spread:>7.2%}"
                if spread > bound:
                    notes.append(f"set {s} spread over bound")
                    ok = False
                elif spread > bound / 3:
                    notes.append(f"set {s} spread over a third of bound")
            worse = meds[1] - meds[0] if m["better"] == "lower" else meds[0] - meds[1]
            drift = worse / meds[0]
            if drift > bound:
                notes.append("drift over bound")
                ok = False
            print(f"{w + '/' + name:<22} {m['unit']:<12}{cells} {drift:>7.2%} {bound:>6}  "
                  + ("; ".join(notes) or "ok"))

    print()
    for w in workloads:
        counts = [
            {k: m["value"] for k, m in run(spec, w, SEEDS[0], 1)["metrics"].items()
             if m["unit"] == "count"}
            for _ in SETS
        ]
        same = counts[0] == counts[1]
        ok &= same
        print(f"{w}: traced runs on seed {SEEDS[0]}: {len(counts[0])} count metrics "
              + ("identical" if same else f"DIFFER: {counts}"))

    print()
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
