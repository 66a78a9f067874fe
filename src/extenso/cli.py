"""Command-line front end: batch verification and counterexample reproduction.

Reports are JSON (canonical) or CSV (a projection).  Payloads are pure
functions of the arguments: identical invocations produce byte-identical
output.  A density is named by --density (with --q for tsallis) only, and
the seed comes from --seed (default 0) only.
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
import sys

import numpy as np

from . import __version__
from .bounds import coefficient_bounds, column_bounds, theta_phi
from .densities import bg_density, remark2_density, remark5_density, tsallis_density
from .extensivity import (
    axiom_suite,
    iff_counterexample_matrix,
    iff_lhs,
    power_coefficient,
    recover_f,
    residual_block,
    sandwich_block,
)
from .simplex import RandomGenerationError, factor_grids, random_grids

_IFF_LIMIT_FACTOR = (math.sqrt(2.0) - 1.0) / 2.0
# Deepest remark2 ladder.  The ratio's rounding error grows like k^3: abs_err
# is 1.6e-11 at k = 20 and 1.9e-9 at k = 100, and it first passes 1e-8, the
# tolerance the ladder is checked against its closed form to, at k = 155.
# Deeper rows would compare float noise, not the density, with the closed form.
K_MAX_LIMIT = 100
# numpy refuses a shape whose byte count overflows its index type with a
# ValueError, before it tries to allocate: a MemoryError by another name
_TOO_BIG = ("array is too big", "Maximum allowed size exceeded")


def _add_density_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--density", required=True, choices=["bg", "tsallis", "remark2", "remark5"])
    p.add_argument("--q", type=float, help="tsallis exponent (q > 0, q != 1)")


def _add_batch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--concentration", type=float, default=1.0)


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
    _add_output_args(p)

    p = sub.add_parser("residual", help="chain-rule residual with a power coefficient")
    _add_density_args(p)
    _add_batch_args(p)
    p.add_argument("--power", type=float, default=None, help="coefficient exponent, > 0 (default: the density's own)")
    p.add_argument("--tolerance", type=float, default=1e-10)
    _add_output_args(p)

    p = sub.add_parser(
        "bounds",
        help="coefficient bounds over an r grid",
        epilog="CSV columns: r,lower,upper,arg_inf,arg_sup,err_inf,err_sup,divergent",
    )
    _add_density_args(p)
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
    kinds = p.add_subparsers(dest="kind", required=True)
    kind = kinds.add_parser("remark5", help="the iff line's limit along the 2x2 family")
    kind.add_argument("--x", type=float, default=0.01, help="family parameter in (0,1)")
    kind = kinds.add_parser("remark2", help="the curvature half-ratio ladder")
    kind.add_argument("--k-max", type=int, default=20, help="ladder depth")
    for kind in kinds.choices.values():
        _add_output_args(kind)

    p = sub.add_parser("axioms", help="continuity/maximality/expandability suite")
    _add_density_args(p)
    p.add_argument("--max-size", type=int, default=8)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p)

    p = sub.add_parser("theta-phi", help="growth index of the density's phi profile")
    _add_density_args(p)
    _add_output_args(p)

    for p in sub.choices.values():
        p.set_defaults(_parser=p)
    return ap


def _resolve_density(args, parser: argparse.ArgumentParser):
    """The catalog density that --density names, tsallis with its --q."""
    if args.density != "tsallis":
        return {"bg": bg_density, "remark2": remark2_density, "remark5": remark5_density}[args.density]()
    if args.q is None:
        parser.error("--density tsallis requires --q")
    try:
        return tsallis_density(args.q)
    except ValueError as e:
        parser.error(f"bad density: {e}")


def _validate(args, parser: argparse.ArgumentParser) -> None:
    """Reject out-of-range numeric arguments as usage errors (exit 2)."""
    if getattr(args, "q", None) is not None and args.density != "tsallis":
        parser.error(f"--q applies to --density tsallis only, not {args.density}")
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
        ("power", lambda v: v > 0.0, "> 0"),
        ("k_max", lambda v: 1 <= v <= K_MAX_LIMIT, f"in [1, {K_MAX_LIMIT}]"),
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


def _random_grids(args, parser) -> np.ndarray:
    """Every instance's joint grid, drawn before any is checked or used."""
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(args.instances)]
    try:
        return random_grids(args.m, args.n, seeds, concentration=args.concentration)
    except RandomGenerationError as e:
        parser.error(f"--concentration {args.concentration!r} is too low: {e}")
    except OverflowError:  # the gamma draws of one grid sum past the float range
        parser.error(f"--concentration {args.concentration!r} is too high: a draw's sum overflows")


def _cmd_verify_sandwich(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    if not (d.s0_zero and d.s1_zero and d.concave):
        parser.error(f"density {d.label} lacks s(0) = 0, s(1) = 0 or concavity, which the envelope needs")
    grids = _random_grids(args, parser)
    block = sandwich_block(d, grids, *factor_grids(grids))
    cols = {"instance": range(args.instances), **{k: v.tolist() for k, v in block._asdict().items()}}
    details = [dict(zip(cols, row)) for row in zip(*cols.values())]
    slacks = list(map(min, cols["slack_lower"], cols["slack_upper"]))
    payload = batch_report(d.label, "verify-sandwich", args.seed, cols["verdict"], slacks)
    worst_gap = max((block.upper - block.lower).tolist(), default=math.nan)
    collapse_tol = max(cols["tolerance"], default=math.nan)
    payload["worst_bound_gap"] = worst_gap
    payload["equality_collapse"] = bool(worst_gap <= collapse_tol)
    payload["details"] = details
    return payload, 0 if payload["fail_count"] == 0 else 1


def _cmd_residual(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    # the density's own coefficient: p for bg, p^q for tsallis, none for the rest
    q = args.power if args.power is not None else {"bg": 1.0, "tsallis": args.q}.get(args.density)
    if q is None:
        parser.error(f"density {d.label} has no natural coefficient power; pass --power")
    grids = _random_grids(args, parser)
    residuals = residual_block(d, grids, *factor_grids(grids), power_coefficient(q)).tolist()
    cols = {"instance": range(args.instances), "residual": residuals,
            "verdict": ["pass" if abs(r) <= args.tolerance else "fail" for r in residuals]}
    payload = batch_report(d.label, "residual", args.seed, cols["verdict"], [args.tolerance - abs(r) for r in residuals])
    payload["power"] = q
    payload["tolerance"] = args.tolerance
    payload["max_abs_residual"] = max(map(abs, residuals), default=math.nan)
    payload["details"] = [dict(zip(cols, row)) for row in zip(*cols.values())]
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
    # a column without a finite ratio has no finite bound (null) and is divergent
    cb = column_bounds(d, _parse_r_values(args, parser))
    rows = [dict(zip(cb._fields, row)) for row in zip(*(v.tolist() for v in cb))]
    return {"density": d.label, "check": "bounds", "rows": rows}, 0


def _cmd_recover_f(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    return {"density": d.label, "check": "recover-f", **recover_f(d).to_dict()}, 0


def _cmd_counterexample(args, parser) -> tuple[dict, int]:
    if args.kind == "remark5":
        if not 0.0 < args.x < 1.0:
            parser.error("--x must lie in (0, 1)")
        d = remark5_density()
        value = iff_lhs(d, iff_counterexample_matrix(args.x))
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
    k = np.arange(1, args.k_max + 1)
    t_k = 1.0 / ((k + 0.5) * math.pi)
    ratio = np.asarray(d.eval_s2(t_k / 2.0)) / np.asarray(d.eval_s2(t_k))
    closed = 0.5 * ((k + 0.5) * math.pi + 0.5)
    cols = {"k": k, "t_k": t_k, "ratio": ratio, "closed_form": closed, "abs_err": np.abs(ratio - closed)}
    rows = [dict(zip(cols, row)) for row in zip(*(v.tolist() for v in cols.values()))]
    monotone = bool(np.all(np.diff(ratio, prepend=-math.inf) > 0.0))
    cb = coefficient_bounds(d, 0.5)
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
    rep = axiom_suite(d, sizes=tuple(range(2, args.max_size + 1)), seed=args.seed, trials=args.instances)
    payload = {
        "density": d.label,
        "check": "axioms",
        "instances": args.instances,
        "seed": args.seed,
        **rep.to_dict(),
    }
    return payload, 0 if rep.all_pass else 1


def _cmd_theta_phi(args, parser) -> tuple[dict, int]:
    d = _resolve_density(args, parser)
    try:
        value = theta_phi(d)
    except ValueError as e:
        parser.error(f"density {d.label} has no deformation profile: {e}")
    return {"density": d.label, "check": "theta-phi", "theta": value}, 0


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
    args, extra = parser.parse_known_args(argv)
    # usage errors name the subcommand and show its own flags; a flag the
    # subcommand does not read is one of them
    if extra:
        args._parser.error(f"unrecognized arguments: {' '.join(extra)}")
    _validate(args, args._parser)
    try:
        payload, code = _COMMANDS[args.command](args, args._parser)
    except MemoryError as e:  # sizes, counts or grids too large to allocate
        args._parser.error(f"out of memory: {e}")
    except ValueError as e:  # only numpy's refusal of such a size; others are faults
        if not str(e).startswith(_TOO_BIG):
            raise
        args._parser.error(f"out of memory: {e}")
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
