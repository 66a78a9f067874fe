"""Curvature-ratio coefficient bounds, and the growth index theta of phi = -1/s''.

For a density with negative curvature, the coefficient envelope at r is
r^2 times the inf/sup over t in (0,1] of s''(rt)/s''(t).  The scan truncates
at numerics.T_MIN and carries one-sided grid error; divergence (ratios growing
without bound toward 0) is evidenced via probe trends and a magnitude threshold
on the coefficient r^2 * ratio, not proved.  column_bounds scans all the r of a joint's
columns in one (r x t) grid; coefficient_bounds is its one-column case.

theta_phi is the max of the index psi = -t s'''/s'' on the scan's grid, so
upper(r) <= r^(2-theta), tsallis' r^q at theta = 2 - q.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .densities import Density
from .numerics import _GRID, Scan, scan_extrema

__all__ = [
    "CoefficientBounds",
    "coefficient_bounds",
    "column_bounds",
    "psi_on_grid",
    "theta_phi",
]

# A column whose coefficient r^2 * ratio passes this on any probe is divergent.
DIVERGENCE_THRESHOLD = 1e12
# Rows per envelope scan; a scan holds several (rows x GRID_N) blocks.  A 2000-joint 4 x 4
# verify-sandwich peaks at 44.2 MB, against 42.7 at one joint a scan and 74.6 at 800 rows.
SCAN_ROWS = 128
_NORMAL_MIN = float(np.finfo(np.float64).tiny)  # smallest normal float64


class BoundsConfig:
    """A stand-in that nothing in the package reads: the scan's grid is fixed
    (numerics.T_MIN, numerics.GRID_N).  perfbench/child.py still imports
    the name in its trace mode; it goes when that harness stops patching."""


class CoefficientBounds(NamedTuple):
    """Envelope (lower, upper) = r^2 (inf, sup) of the curvature ratio at r.

    arg_inf/arg_sup locate the ratio's inf/sup; err_inf/err_sup are the
    scan's one-sided errors there on the ratio scale, so the f-scale slack is
    r^2 (err_inf + err_sup).  Fields are per-column arrays from column_bounds
    and Python scalars from coefficient_bounds, its one-column case.
    """

    r: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    arg_inf: np.ndarray
    arg_sup: np.ndarray
    err_inf: np.ndarray
    err_sup: np.ndarray
    divergent: np.ndarray


@np.errstate(invalid="ignore")
def column_bounds(d: Density, rs) -> CoefficientBounds:
    """coefficient_bounds for every r in rs, from scans of the (r x t) grid,
    SCAN_ROWS values of rs at a time.

    The grid denominator s''(t) and the probe ladders are evaluated once per
    scan; each r keeps its own lanes, so its result does not depend on the
    other values in rs.  r^2 may underflow to 0 and meet an infinite ratio:
    the bound is then NaN, without a warning.
    """
    if not d.concave:
        raise ValueError(f"density {d.label!r} lacks the concave flag")
    r = np.array(rs, dtype=np.float64).reshape(-1)
    ok = (r > 0.0) & (r <= 1.0)  # false for NaN too
    if not ok.all():
        raise ValueError(f"r must lie in (0, 1], got {float(r[np.argmin(ok)])!r}")
    s2 = d.eval_s2
    scans = []
    for k in range(0, max(r.size, 1), SCAN_ROWS):
        rt = r[k : k + SCAN_ROWS, None]

        def ratio(t, rt=rt):
            # t is the 1-d grid or a probe family, shared by all rows
            return np.asarray(s2(rt * t)) / np.asarray(s2(t))

        scans.append(scan_extrema(ratio, d.probe_points))
    scan = scans[0] if len(scans) == 1 else Scan._make(map(np.concatenate, zip(*scans)))
    f_scale = r * r
    lower, upper = (f_scale[:, None] * scan.value).T
    # the magnitude threshold applies to the coefficient r^2 * ratio; a NaN
    # probe_max (no finite probe) never breaches it
    breach = f_scale * np.abs(scan.probe_max) > DIVERGENCE_THRESHOLD
    divergent = scan.diverging.any(axis=1) | breach
    return CoefficientBounds(r, lower, upper, *scan.arg.T, *scan.est_error.T, divergent)


def coefficient_bounds(d: Density, r: float) -> CoefficientBounds:
    """Scan t -> s''(r t)/s''(t) over (0, 1] and scale by r^2.

    Requires the concave flag (negative curvature keeps the ratio positive
    and the envelope meaningful).  divergent is set when a probe family
    trends away without slowing, or when r^2 times the largest probe value
    breaches the magnitude threshold.
    """
    return CoefficientBounds._make(v.item() for v in column_bounds(d, [r]))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def psi_on_grid(d: Density) -> np.ndarray:
    """psi = -t s'''/s'' = t phi'/phi, phi = -1/s'', on the scan's grid: constant
    exactly where a coefficient function, r^(2 - psi), exists.  Raises
    ValueError, naming the failed property and a witness t, unless d declares
    s''', s'' is negative and normal, s''' zero (tsallis, q = 2) or normal, and
    psi finite at every grid point: no psi rests on an infinite or underflowed
    value.  Runs with floating-point warnings off."""
    if d.eval_s3 is None:
        raise ValueError(f"phi' undefined: density {d.label!r} declares no s'''")
    s2, s3 = (np.asarray(f(_GRID), dtype=np.float64) for f in (d.eval_s2, d.eval_s3))
    psi = -_GRID * s3 / s2
    # every test is false for NaN, so NaN fails it
    for ok, what in (
        ((s2 <= -_NORMAL_MIN) & (s2 > -np.inf), "phi undefined: s'' not negative and normal"),
        ((s3 == 0.0) | (np.abs(s3) >= _NORMAL_MIN) & np.isfinite(s3), "phi' undefined: s''' not zero or normal"),
        (np.isfinite(psi), "psi not finite"),
    ):
        if not ok.all():
            raise ValueError(f"{what} at t={float(_GRID[np.argmin(ok)])}")
    return psi


def theta_phi(d: Density) -> float:
    """Growth index theta of phi = -1/s'' on (0, 1]: the max of psi_on_grid, 0.0
    for -0.0.  As log(s''(rt)/s''(t)) = int_rt^t psi(u) du/u <= theta log(1/r),
    upper(r) <= r^(2-theta).  The grid max is the sup where psi is monotone, as
    for bg (1), tsallis (2 - q) and remark5 ((pi t/2)/sin(pi t/2), up to pi/2).
    Raises ValueError where psi_on_grid does, and where psi < 0 (phi decreasing),
    naming a witness t."""
    psi = psi_on_grid(d)
    if (psi < 0.0).any():
        k = np.argmax(psi < 0.0)
        raise ValueError(f"phi not nondecreasing: psi = {float(psi[k])!r} < 0 at t={float(_GRID[k])}")
    return float(psi.max()) + 0.0
