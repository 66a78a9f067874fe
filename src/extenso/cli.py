"""Command-line front end: batch verification and counterexample reproduction.

Reports are JSON (canonical) or CSV (a projection).  Payloads are pure
functions of the arguments: identical invocations produce byte-identical
output, and the seed falls back to the EXTENSO_SEED environment variable.
One null rule covers every report: the emitter writes each non-finite float,
at any depth, as null (None in CSV), as JSON has no NaN or Infinity.  Exit
status is 0 for clean runs (divergent instances are reported, not failures),
1 when any check fails, 2 for usage errors, an unwritable --output among them.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import BoundsConfig, coefficient_bounds, column_bounds, phi_from_density, theta_phi
from .densities import (
    EntropyFunctional,
    density_from_spec,
    remark2_density,
    remark5_density,
)
from .extensivity import (
    axiom_suite,
    extensivity_residual,
    iff_counterexample_matrix,
    iff_lhs,
    power_coefficient,
    recover_f,
    sandwich_check,
)
from .simplex import RandomGenerationError, random_joint

_IFF_LIMIT_FACTOR = (math.sqrt(2.0) - 1.0) / 2.0


def _add_density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--density", choices=["bg", "tsallis", "remark2", "remark5"])
    p.add_argument("--q", type=float, help="tsallis exponent (q > 0, q != 1)")
    p.add_argument("--density-spec", help="JSON density spec, or @path to one")


def _add_batch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--concentration", type=float, default=1.0)


def _add_numeric_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-min", type=float, default=BoundsConfig.t_min)
    p.add_argument("--grid-n", type=int, default=BoundsConfig.grid_n)
    p.add_argument("--tolerance", type=float, default=None)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="extenso",
        description="entropy functionals on finite simplices: verification and counterexamples",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-sandwich", help="two-sided envelope check on random joints")
    _add_density_args(p)
    _add_batch_args(p)
    _add_numeric_args(p)
    _add_output_args(p)

    p = sub.add_parser("residual", help="chain-rule residual with a power coefficient")
    _add_density_args(p)
    _add_batch_args(p)
    p.add_argument("--power", type=float, default=None, help="coefficient exponent (default: the density's own)")
    p.add_argument("--tolerance", type=float, default=1e-10)
    _add_output_args(p)

    p = sub.add_parser(
        "bounds",
        help="coefficient bounds over an r grid",
        epilog="CSV columns: r,lower,upper,arg_inf,arg_sup,divergent",
    )
    _add_density_args(p)
    _add_numeric_args(p)
    p.add_argument("--r", type=float, action="append", help="r value (repeatable)")
    p.add_argument("--r-grid", help="START:STOP:COUNT evenly spaced r values")
    _add_output_args(p)

    p = sub.add_parser("recover-f", help="power-law coefficient recovery")
    _add_density_args(p)
    _add_output_args(p)

    p = sub.add_parser(
        "counterexample",
        help="reproduce a failure construction",
        epilog="remark2 CSV columns: k,t_k,ratio,closed_form,abs_err",
    )
    p.add_argument("kind", choices=["remark5", "remark2"])
    p.add_argument("--x", type=float, default=0.01, help="remark5 family parameter in (0,1)")
    p.add_argument("--k-max", type=int, default=20, help="remark2 ladder depth")
    _add_numeric_args(p)
    _add_output_args(p)

    p = sub.add_parser("axioms", help="continuity/maximality/expandability suite")
    _add_density_args(p)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    _add_output_args(p)

    p = sub.add_parser("theta-phi", help="growth index of the density's phi profile")
    _add_density_args(p)
    _add_output_args(p)

    for p in sub.choices.values():
        p.set_defaults(_parser=p)
    return ap


def _resolve_seed(args, parser: argparse.ArgumentParser) -> int:
    """--seed (checked by _validate), else EXTENSO_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EXTENSO_SEED") or "0"
    if not (env.isascii() and env.isdigit()):
        parser.error(f"EXTENSO_SEED must be a non-negative integer, got {env!r}")
    return int(env)


def _resolve_density(args, parser: argparse.ArgumentParser):
    if args.density_spec:
        spec = args.density_spec
        if spec.startswith("@"):
            try:
                with open(spec[1:], encoding="utf-8") as fh:
                    spec = fh.read()
            except OSError as e:
                parser.error(f"--density-spec: cannot read {spec[1:]!r}: {e.strerror}")
    else:
        if not args.density:
            parser.error("one of --density or --density-spec is required")
        spec = {"kind": args.density, "params": {}}
        if args.density == "tsallis":
            if args.q is None:
                parser.error("--density tsallis requires --q")
            spec["params"]["q"] = args.q
    try:
        return density_from_spec(spec)
    except ValueError as e:
        parser.error(f"bad density: {e}")


def _bounds_cfg(args) -> BoundsConfig:
    return BoundsConfig(t_min=args.t_min, grid_n=args.grid_n)


def _instance_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _validate(args, parser: argparse.ArgumentParser) -> None:
    """Reject out-of-range numeric arguments as usage errors (exit 2)."""
    # NaN or inf makes no sense as any of these, so it is bad input
    for name in ("concentration", "tolerance", "power", "q"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            parser.error(f"--{name} must be finite, got {value!r}")
    checks = [
        ("m", lambda v: v >= 1, ">= 1"),
        ("n", lambda v: v >= 1, ">= 1"),
        ("instances", lambda v: v >= 0, ">= 0"),
        ("concentration", lambda v: v > 0.0, "> 0"),
        ("grid_n", lambda v: v >= 256, ">= 256"),
        ("t_min", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
        ("k_max", lambda v: v >= 1, ">= 1"),
        ("max_size", lambda v: v >= 2, ">= 2"),
        ("tolerance", lambda v: v >= 0.0, ">= 0"),
        ("seed", lambda v: v >= 0, ">= 0"),
    ]
    for name, ok, want in checks:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            parser.error(f"--{name.replace('_', '-')} must be {want}, got {value!r}")


def batch_report(density_label: str, check: str, seed: int, outcomes: list[str], slacks: list[float]) -> dict:
    """Summary dict in the stable report schema of the batch commands.

    outcomes are per-instance verdict strings ('pass'/'fail'/'divergent');
    worst_slack is the minimum finite slack across instances (None when
    there is none).
    """
    finite_slacks = [s for s in slacks if math.isfinite(s)]
    return {
        "density": density_label,
        "check": check,
        "instances": len(outcomes),
        "pass_count": sum(1 for o in outcomes if o == "pass"),
        "fail_count": sum(1 for o in outcomes if o == "fail"),
        "divergent_count": sum(1 for o in outcomes if o == "divergent"),
        "worst_slack": min(finite_slacks) if finite_slacks else None,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# command implementations: each returns (payload dict, exit_code)
# ---------------------------------------------------------------------------


def _random_joint(args, parser, seed: int):
    try:
        return random_joint(args.m, args.n, seed=seed, concentration=args.concentration)
    except RandomGenerationError as e:
        parser.error(f"--concentration {args.concentration!r} is too low: {e}")


def _cmd_verify_sandwich(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    if not (d.s0_zero and d.s1_zero and d.concave):
        parser.error(f"density {d.label} lacks s(0) = 0, s(1) = 0 or concavity, which the envelope needs")
    F = EntropyFunctional(d)
    seed = _resolve_seed(args, parser)
    cfg = _bounds_cfg(args)
    seeds = _instance_seeds(seed, args.instances)

    def worker(i: int) -> dict:
        P = _random_joint(args, parser, seeds[i])
        rep = sandwich_check(F, P, cfg, tolerance=args.tolerance)
        return {"instance": i, **rep.to_dict()}

    details = [worker(i) for i in range(args.instances)]
    outcomes = [row["verdict"] for row in details]
    slacks = [min(row["slack_lower"], row["slack_upper"]) for row in details]
    payload = batch_report(d.label, "verify-sandwich", seed, outcomes, slacks)
    worst_gap = max((row["upper"] - row["lower"] for row in details), default=math.nan)
    collapse_tol = max((row["tolerance"] for row in details), default=math.nan)
    payload["worst_bound_gap"] = worst_gap
    payload["equality_collapse"] = bool(worst_gap <= collapse_tol)
    payload["details"] = details
    return payload, 0 if payload["fail_count"] == 0 else 1


def _cmd_residual(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    F = EntropyFunctional(d)
    seed = _resolve_seed(args, parser)
    if args.power is not None:
        q = args.power
    elif d.label == "bg":
        q = 1.0
    elif "q" in d.params:
        q = float(d.params["q"])
    else:
        parser.error(f"density {d.label} has no natural coefficient power; pass --power")
    f = power_coefficient(q)
    seeds = _instance_seeds(seed, args.instances)

    def worker(i: int) -> dict:
        P = _random_joint(args, parser, seeds[i])
        res = extensivity_residual(F, P, f)
        ok = abs(res) <= args.tolerance
        return {"instance": i, "residual": res, "verdict": "pass" if ok else "fail"}

    details = [worker(i) for i in range(args.instances)]
    outcomes = [row["verdict"] for row in details]
    slacks = [args.tolerance - abs(row["residual"]) for row in details]
    payload = batch_report(d.label, "residual", seed, outcomes, slacks)
    payload["power"] = q
    payload["tolerance"] = args.tolerance
    payload["max_abs_residual"] = max((abs(r["residual"]) for r in details), default=math.nan)
    payload["details"] = details
    return payload, 0 if payload["fail_count"] == 0 else 1


def _parse_r_values(args, parser) -> list[float]:
    rs: list[float] = []
    if args.r:
        rs.extend(args.r)
    if args.r_grid:
        try:
            start, stop, count = args.r_grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            parser.error("--r-grid must be START:STOP:COUNT")
        if count < 1:
            parser.error(f"--r-grid COUNT must be >= 1, got {count}")
        rs.extend(np.linspace(start, stop, count).tolist())
    if not rs:
        rs = np.linspace(0.1, 0.9, 9).tolist()
    for r in rs:
        if not 0.0 < r <= 1.0:
            parser.error(f"r values must lie in (0, 1], got {r!r}")
    return rs


def _cmd_bounds(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    cb = column_bounds(d, _parse_r_values(args, parser), _bounds_cfg(args))
    # a column without a finite ratio has no finite bound (null) and is divergent
    cols = {"r": cb.r, "lower": cb.lower, "upper": cb.upper,
            "arg_inf": cb.arg_inf, "arg_sup": cb.arg_sup, "divergent": cb.divergent}
    rows = [dict(zip(cols, row)) for row in zip(*(v.tolist() for v in cols.values()))]
    payload = {"density": d.label, "check": "bounds", "rows": rows}
    return payload, 0


def _cmd_recover_f(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    rec = recover_f(d)
    payload = {"density": d.label, "check": "recover-f", **rec.to_dict()}
    return payload, 0


def _cmd_counterexample(args, parser) -> tuple[dict, int]:
    if args.kind == "remark5":
        if not 0.0 < args.x < 1.0:
            parser.error("--x must lie in (0, 1)")
        d = remark5_density()
        F = EntropyFunctional(d)
        cfg = _bounds_cfg(args)
        value = iff_lhs(F, iff_counterexample_matrix(args.x), cfg)
        limit = float(np.asarray(d.eval_s1(1.0))) * _IFF_LIMIT_FACTOR
        payload = {
            "density": d.label,
            "check": "counterexample-remark5",
            "x": args.x,
            "iff_lhs": value,
            "negative": value < 0.0,
            "limit": limit,
            "distance_to_limit": abs(value - limit),
        }
        return payload, 0
    # remark2: curvature half-ratio ladder against its closed form
    d = remark2_density()
    rows = []
    prev = -math.inf
    monotone = True
    for k in range(1, args.k_max + 1):
        t_k = 1.0 / ((k + 0.5) * math.pi)
        ratio = float(np.asarray(d.eval_s2(t_k / 2.0)) / np.asarray(d.eval_s2(t_k)))
        closed = 0.5 * ((k + 0.5) * math.pi + 0.5)
        rows.append({"k": k, "t_k": t_k, "ratio": ratio, "closed_form": closed,
                     "abs_err": abs(ratio - closed)})
        monotone = monotone and ratio > prev
        prev = ratio
    cb = coefficient_bounds(d, 0.5, _bounds_cfg(args))
    payload = {
        "density": d.label,
        "check": "counterexample-remark2",
        "k_max": args.k_max,
        "monotone_growth": monotone,
        "half_ratio_divergent": cb.divergent,
        "rows": rows,
    }
    return payload, 0


def _cmd_axioms(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    if args.instances < 1:  # no draws: continuity and expandability hold vacuously
        parser.error(f"--instances must be >= 1, got {args.instances!r}")
    F = EntropyFunctional(d)
    seed = _resolve_seed(args, parser)
    rep = axiom_suite(F, sizes=tuple(range(2, args.max_size + 1)), seed=seed, trials=args.instances)
    payload = {
        "density": d.label,
        "check": "axioms",
        "instances": args.instances,
        "seed": seed,
        **rep.to_dict(),
    }
    return payload, 0 if rep.all_pass else 1


def _cmd_theta_phi(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    try:
        phi = phi_from_density(d)
    except ValueError as e:
        parser.error(f"density {d.label} has no deformation profile: {e}")
    value = theta_phi(phi)
    payload = {"density": d.label, "check": "theta-phi", "theta": value}
    return payload, 0


_COMMANDS = {
    "verify-sandwich": _cmd_verify_sandwich,
    "residual": _cmd_residual,
    "bounds": _cmd_bounds,
    "recover-f": _cmd_recover_f,
    "counterexample": _cmd_counterexample,
    "axioms": _cmd_axioms,
    "theta-phi": _cmd_theta_phi,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _csv_escape(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _to_csv(payload: dict) -> str:
    """CSV projection: tabular payloads dump their rows, scalar payloads
    dump key,value pairs; nested details are flattened per instance, and a
    field holding a comma is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    rows = payload.get("rows") or payload.get("details")
    if rows:
        cols = list(rows[0].keys())
        writer.writerow(cols)
        writer.writerows([_csv_escape(row[c]) for c in cols] for row in rows)
    else:
        writer.writerow(["key", "value"])
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            writer.writerow([k, _csv_escape(v)])
    return out.getvalue()


def _finite(v):
    """v with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(payload: dict, args) -> None:
    payload = _finite(payload)
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        args._parser.error(f"--output: cannot write {args.output!r}: {e.strerror}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # usage errors name the subcommand and show its own flags
    _validate(args, args._parser)
    payload, code = _COMMANDS[args.command](args, args._parser)
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
