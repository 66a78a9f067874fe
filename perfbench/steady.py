#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--runs 10]

For each run index, every workload runs once in set A and once in set B
(seeds 1.. and 1001..), alternating which set goes first.  For each workload
and end-to-end metric it prints both medians, both quartile spreads (the
distance between the first and third quartile over the median), how much
worse set B's median is than set A's, and whether both spreads and that
worsening stay within the metric's bound in BENCHMARK.json.  It exits 1 if
any does not.  Before every run a fixed calibration loop
that does not touch extenso is timed; its spread is the host's own drift.
The full record goes to perfbench/out/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += math.sin(i)
    x = np.random.default_rng(0).random(1_000_000)
    for _ in range(5):
        np.sort(x)
    return time.perf_counter() - t0


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    base = {"A": 1, "B": 1001}

    record = {"runs": {w: {s: [] for s in "AB"} for w in names}, "calibration_s": []}
    for i in range(args.runs):
        for w in names:
            for s in ("AB" if i % 2 == 0 else "BA"):
                cal = calibrate()
                res = run_once(w, base[s] + i, args.seconds)
                record["calibration_s"].append(cal)
                record["runs"][w][s].append(res)
                m = res["metrics"]
                print(f"[{i + 1}/{args.runs}] {w:9s} set {s} seed {base[s] + i:5d} "
                      f"calib {cal:.3f}s correct {res['correct']} failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    print()
    print(f"{'workload':9s} {'metric':12s} {'med A':>10s} {'IQR A':>7s} {'med B':>10s} {'IQR B':>7s} "
          f"{'B worse':>8s} {'bound':>6s}  verdict")
    ok = True
    for w in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = {s: [r["metrics"][name]["value"] for r in record["runs"][w][s]] for s in "AB"}
            meds = {s: statistics.median(v) for s, v in vals.items()}
            spreads = {s: spread(v) for s, v in vals.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (meds["B"] - meds["A"]) / meds["A"]
            agree = spreads["A"] <= bound and spreads["B"] <= bound and worse <= bound
            ok = ok and agree
            print(f"{w:9s} {name:12s} " + " ".join(f"{meds[s]:10.4g} {spreads[s]:7.1%}" for s in "AB")
                  + f" {worse:8.1%} {bound:6.2f}  {'ok' if agree else 'NOT STEADY'}")
        for s in "AB":
            fracs = {r["failed"] / r["attempted"] for r in record["runs"][w][s]}
            print(f"{w:9s} failed share, set {s}: {sorted(fracs)}  correct: "
                  f"{all(r['correct'] for r in record['runs'][w][s])}")
    cal = record["calibration_s"]
    print(f"host calibration loop: min {min(cal):.3f}s median {statistics.median(cal):.3f}s "
          f"max {max(cal):.3f}s, quartile spread {spread(cal):.1%}, max/min {max(cal) / min(cal):.2f}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
