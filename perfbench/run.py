#!/usr/bin/env python3
"""Benchmark extenso on one workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload {sandwich,residual,axioms} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics, also written to perfbench/out/trace-<workload>-<seed>.json.
See perfbench/README.md for what each workload and metric is.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 12  # fresh processes timed for setup_s; the median is reported
CLI_REPS = 4  # passes over the workload's CLI commands; the median sum is reported
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("EXTENSO_SEED", None)
    return env


def _run(args: list[str], ok_codes=(0,)) -> tuple[int, float]:
    """Run a child to completion; returns (exit code, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(args, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode not in ok_codes:
        raise ChildError(f"{' '.join(args[1:4])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.returncode, wall


def _child(mode: str, *args) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, *map(str, args)]


def _cli_argv(argv: list[str], out: Path) -> list[str]:
    return [sys.executable, "-m", "extenso.cli", *argv, "--output", str(out)]


def setup_probe(w, tmp: Path) -> float:
    out = tmp / "setup.json"
    _run(_child("setup", w.name, out))
    return workloads.load_json(out)["setup_s"]


def cli_pass(w, seed: int, tmp: Path, problems: list) -> float:
    """Summed wall time of the workload's CLI commands, each in a fresh process."""
    total = 0.0
    for k, argv in enumerate(w.cli(seed)):
        out = tmp / f"cli-{k}.json"
        code, wall = _run(_cli_argv(argv, out), ok_codes=(0, 1))
        total += wall
        problems += checks.cli_payload(argv, out.read_text(encoding="utf-8"), code)
    return total


def trace_cli(w, seed: int, tmp: Path, problems: list) -> dict:
    sums = {"import_ms": 0.0, "emit_ms": 0.0, "payload_bytes": 0}
    for k, argv in enumerate(w.cli(seed)):
        out, stats = tmp / f"cli-{k}.json", tmp / f"cli-{k}-stats.json"
        _run(_child("cli", stats, *argv, "--output", out))
        s = workloads.load_json(stats)
        problems += checks.cli_payload(argv, out.read_text(encoding="utf-8"), s["exit"])
        sums["import_ms"] += s["import_ms"]
        sums["emit_ms"] += s["emit_ms"]
        sums["payload_bytes"] += out.stat().st_size
    return sums


def _inputs(w, seed: int, tmp: Path) -> tuple[dict, Path]:
    inputs = w.inputs(seed)
    path = tmp / "inputs.npz"
    workloads.save_inputs(path, inputs)
    return inputs, path


def _check(w, seed: int, inputs: dict, outputs: list) -> tuple[list, list]:
    rng = np.random.default_rng([seed, 99])
    return checks.CHECKS[w.name](inputs, outputs, rng, checks.ORACLE_SAMPLE[w.name])


def untraced(w, seed: int, seconds: float, tmp: Path) -> dict:
    inputs, inputs_path = _inputs(w, seed, tmp)
    problems: list[str] = []

    # Set-up probes and CLI passes alternate, half before the loop and half
    # after it, so that their medians span the whole run rather than one
    # moment of the host's speed.
    setup_probe(w, tmp)  # compiles bytecode and warms the file cache; not counted
    setup, cli = [], []

    def probes(n_passes: int) -> None:
        for _ in range(n_passes):
            cli.append(cli_pass(w, seed, tmp, problems))
            setup.extend(setup_probe(w, tmp) for _ in range(SETUP_REPS // CLI_REPS))

    probes(CLI_REPS // 2)
    loop_out = tmp / "loop.json"
    _run(_child("loop", w.name, inputs_path, seconds, loop_out))
    loop = workloads.load_json(loop_out)
    probes(CLI_REPS - CLI_REPS // 2)

    lat = np.array(loop["latencies_s"])
    failed_idx, more = _check(w, seed, inputs, loop["outputs"])
    problems += more
    if not loop["repeats_equal"]:
        problems.append("repeated inputs gave different outputs")
    failed_set = set(failed_idx)
    failed = sum(1 for i in range(lat.size) if i % w.pool_size in failed_set)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cli_s": (statistics.median(cli), "s"),
        "ops_per_s": (lat.size / loop["elapsed_s"], "1/s"),
        "op_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    return {"attempted": int(lat.size), "failed": failed, "problems": problems, "metrics": metrics}


def traced(w, seed: int, tmp: Path) -> dict:
    inputs, inputs_path = _inputs(w, seed, tmp)
    problems: list[str] = []

    trace_out = tmp / "trace.json"
    _run(_child("trace", w.name, inputs_path, trace_out))
    t = workloads.load_json(trace_out)
    cli = trace_cli(w, seed, tmp, problems)

    failed_idx, more = _check(w, seed, inputs, t["outputs"])
    problems += more
    if not t["traced_equal"]:
        problems.append("traced ops gave different outputs from untraced ones")

    spans = t["spans"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    scans = get("numerics.scan", "calls")
    n_bounds = get("bounds.coefficient_bounds", "calls")
    metrics = {
        "simplex.joint.ms": (get("simplex.joint", "ms"), "ms"),
        "simplex.factorize.calls": (get("simplex.marginal", "calls") + get("simplex.conditional", "calls"), "count"),
        "simplex.factorize.ms": (get("simplex.marginal", "ms") + get("simplex.conditional", "ms"), "ms"),
        "densities.entropy.calls": (get("densities.entropy", "calls"), "count"),
        "densities.entropy.points": (get("densities.entropy", "points"), "count"),
        "densities.entropy.self_ms": (get("densities.entropy", "self_ms"), "ms"),
        "densities.eval_s.calls": (get("densities.eval_s", "calls"), "count"),
        "densities.eval_s.points": (get("densities.eval_s", "points"), "count"),
        "densities.eval_s.ms": (get("densities.eval_s", "ms"), "ms"),
        "densities.eval_s2.vector_calls": (get("densities.eval_s2.vector", "calls"), "count"),
        "densities.eval_s2.vector_points": (get("densities.eval_s2.vector", "points"), "count"),
        "densities.eval_s2.vector_ms": (get("densities.eval_s2.vector", "ms"), "ms"),
        "densities.eval_s2.scalar_calls": (get("densities.eval_s2.scalar", "calls"), "count"),
        "densities.eval_s2.scalar_ms": (get("densities.eval_s2.scalar", "ms"), "ms"),
        "densities.remark2_table.ms": (t["remark2_table_ms"], "ms"),
        "kernels.logsinc.calls": (get("kernels.logsinc", "calls"), "count"),
        "kernels.logsinc.points": (get("kernels.logsinc", "points"), "count"),
        "kernels.logsinc.ms": (get("kernels.logsinc", "ms"), "ms"),
        "kernels.osc_panel.calls": (get("kernels.osc_panel", "calls"), "count"),
        "kernels.osc_panel.panels": (get("kernels.osc_panel", "points"), "count"),
        "kernels.osc_panel.ms": (get("kernels.osc_panel", "ms"), "ms"),
        "kernels.osc_panel.table_panels": (t["table_panels"], "count"),
        "numerics.scan.calls": (scans, "count"),
        "numerics.scan.self_ms": (get("numerics.scan", "self_ms"), "ms"),
        "numerics.refine.evals_per_scan": (get("densities.eval_s2.scalar", "calls") / scans if scans else 0.0, "count"),
        "numerics.refine.useful_frac": (t["refine_useful"] / n_bounds if n_bounds else 0.0, "fraction"),
        "bounds.coefficient_bounds.calls": (n_bounds, "count"),
        "bounds.coefficient_bounds.self_ms": (get("bounds.coefficient_bounds", "self_ms"), "ms"),
        "bounds.coefficient_bounds.divergent": (t["bounds_divergent"], "count"),
        "extensivity.sandwich_check.self_ms": (get("extensivity.sandwich_check", "self_ms"), "ms"),
        "extensivity.residual.self_ms": (get("extensivity.residual", "self_ms"), "ms"),
        "extensivity.axiom_suite.self_ms": (get("extensivity.axiom_suite", "self_ms"), "ms"),
        "cli.import_ms": (cli["import_ms"], "ms"),
        "cli.emit_ms": (cli["emit_ms"], "ms"),
        "cli.payload_bytes": (cli["payload_bytes"], "bytes"),
        "trace.overhead_s": (t["overhead_s"], "s"),
    }
    return {"attempted": t["n_ops"], "failed": len(failed_idx), "problems": problems,
            "metrics": metrics, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "extenso" / "__init__.py").is_file():
        print(f"no extenso sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        res = traced(w, args.seed, tmp) if args.trace else untraced(w, args.seed, args.seconds, tmp)
    except (ChildError, subprocess.TimeoutExpired) as e:
        print(f"benchmark child failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in res["problems"][:50]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    line = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    kind = "trace" if args.trace else "result"
    record = dict(line, workload=w.name, seed=args.seed, seconds=args.seconds,
                  problems=res["problems"], spans=res.get("spans"))
    (OUT / f"{kind}-{w.name}-{args.seed}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for name, m in line["metrics"].items():
        print(f"{w.name:9s} {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"{w.name:9s} attempted {line['attempted']} failed {line['failed']} correct {line['correct']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
