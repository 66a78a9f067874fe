"""The fresh, single-threaded processes a benchmark run starts.

    child.py setup WORKLOAD OUT            time import + density set-up once
    child.py loop WORKLOAD INPUTS SECONDS OUT   the timed in-process loop
    child.py trace WORKLOAD INPUTS OUT     fixed rounds, untraced and traced by turns
    child.py cli OUT ARGV...               one CLI command with import and emit timed

Each mode writes one JSON file.  Only numpy and extenso are imported, so the
process's peak resident memory is the workload's own.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np  # noqa: F401  - imported before the set-up clock starts

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

TRACE_PAIRS = 3


def _setup(workload):
    """Build the workload's functionals; each density answers one evaluation."""
    from extenso import EntropyFunctional

    dens = workload.densities()
    for d in dens:
        d.eval_s(0.5)
    return dens, [EntropyFunctional(d) for d in dens]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def mode_setup(name: str, out: str) -> None:
    t0 = time.perf_counter()
    import extenso  # noqa: F401

    _setup(workloads.WORKLOADS[name])
    workloads.dump_json(out, {"setup_s": time.perf_counter() - t0})


def mode_loop(name: str, inputs_path: str, seconds: float, out: str) -> None:
    w = workloads.WORKLOADS[name]
    inputs = workloads.load_inputs(inputs_path)
    _, functionals = _setup(w)
    op, pool = w.op, w.pool_size
    latencies, results = [], []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(w.round_size):
            a = time.perf_counter()
            res = op(functionals, inputs, i % pool)
            latencies.append(time.perf_counter() - a)
            results.append(res)
            i += 1
    elapsed = time.perf_counter() - start
    # after the clock stops, the first round again: a repeated input must give
    # the same output
    again = [w.encode(op(functionals, inputs, k)) for k in range(w.round_size)]
    workloads.dump_json(out, {
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "outputs": [w.encode(r) for r in results[:pool]],
        "repeats_equal": again == [w.encode(r) for r in results[: w.round_size]],
        "peak_rss_mb": _peak_rss_mb(),
    })


def mode_trace(name: str, inputs_path: str, out: str) -> None:
    import dataclasses

    import tracer as tr
    from extenso import EntropyFunctional, coefficient_bounds
    from extenso.bounds import BoundsConfig

    w = workloads.WORKLOADS[name]
    inputs = workloads.load_inputs(inputs_path)
    n_ops = w.round_size * w.trace_rounds

    # set-up with the kernels traced: the remark2 table is built by the first
    # remark2 evaluation
    setup_tracer = tr.Tracer()
    with tr.patched(setup_tracer, kernels_only=True):
        dens = w.densities()
        for d in dens:
            setup_tracer.wrap(f"setup.{d.label}", d.eval_s)(0.5)
    functionals = [EntropyFunctional(d) for d in dens]

    def run(fs):
        t0 = time.perf_counter()
        res = [w.op(fs, inputs, i) for i in range(n_ops)]
        return time.perf_counter() - t0, res

    # alternate untraced and traced passes over the same ops; the overhead is
    # the median of the paired differences, which keeps host drift out of it
    overheads = []
    for _ in range(TRACE_PAIRS):
        untraced_s, plain = run(functionals)
        op_tracer = tr.Tracer()
        traced_fs = [EntropyFunctional(tr.wrap_density(op_tracer, d)) for d in dens]
        with tr.patched(op_tracer):
            traced_s, traced = run(traced_fs)
        overheads.append(traced_s - untraced_s)

    # the same calls without golden-section refinement
    by_label = {d.label: d for d in dens}
    useful = 0
    for label, r, cfg, cb in op_tracer.bounds_calls:
        flat = coefficient_bounds(by_label[label], r,
                                  dataclasses.replace(cfg or BoundsConfig(), refine=False))
        # the column's propagated slack, per unit of its weight |S_j| + |s'(1)|
        slack = cb.r * cb.r * (cb.lower_meta.est_error + cb.upper_meta.est_error)
        if max(abs(cb.lower - flat.lower), abs(cb.upper - flat.upper)) > slack:
            useful += 1

    setup = setup_tracer.summary()
    table = "setup.remark2" in setup
    workloads.dump_json(out, {
        "n_ops": n_ops,
        "overhead_s": statistics.median(overheads),
        "spans": op_tracer.summary(),
        "bounds_divergent": sum(1 for *_, cb in op_tracer.bounds_calls if cb.divergent),
        "refine_useful": useful,
        "remark2_table_ms": setup["setup.remark2"]["ms"] if table else 0.0,
        "table_panels": setup_tracer.descendants_points("setup.remark2", "kernels.osc_panel") if table else 0,
        "outputs": [w.encode(r) for r in traced],
        "traced_equal": [w.encode(r) for r in plain] == [w.encode(r) for r in traced],
    })


class _TimedJson:
    """Stands in for the json module inside extenso.cli; times dumps."""

    def __init__(self):
        import json

        self._json = json
        self.dumps_s = 0.0

    def dumps(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._json.dumps(*args, **kwargs)
        finally:
            self.dumps_s += time.perf_counter() - t0

    def __getattr__(self, attr):
        return getattr(self._json, attr)


def mode_cli(out: str, argv: list[str]) -> None:
    t0 = time.perf_counter()
    import extenso.cli as cli

    import_s = time.perf_counter() - t0
    timed = _TimedJson()
    cli.json = timed
    code = cli.main(argv)
    workloads.dump_json(out, {"import_ms": import_s * 1e3, "emit_ms": timed.dumps_s * 1e3, "exit": code})


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        mode_setup(*rest)
    elif mode == "loop":
        mode_loop(rest[0], rest[1], float(rest[2]), rest[3])
    elif mode == "trace":
        mode_trace(*rest)
    elif mode == "cli":
        mode_cli(rest[0], rest[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
