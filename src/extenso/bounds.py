"""Curvature-ratio coefficient bounds, and the growth index theta of phi = -1/s''.

For a density with negative curvature, the coefficient envelope at r is
r^2 times the inf/sup over t in (0,1] of s''(rt)/s''(t).  The scan truncates
at numerics.T_MIN and carries one-sided grid error; divergence (ratios growing
without bound toward 0) is evidenced via probe trends and a magnitude threshold
on the coefficient r^2 * ratio, not proved.  column_bounds scans all the r of a joint's
columns in one (r x t) grid; coefficient_bounds is its one-column case.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .densities import Density
from .numerics import Scan, scan_extrema

__all__ = [
    "CoefficientBounds",
    "coefficient_bounds",
    "column_bounds",
    "theta_phi",
]

# A column whose coefficient r^2 * ratio passes this on any probe is divergent.
DIVERGENCE_THRESHOLD = 1e12
# Rows per envelope scan; a scan holds several (rows x GRID_N) blocks.  A 2000-joint 4 x 4
# verify-sandwich peaks at 44.2 MB, against 42.7 at one joint a scan and 74.6 at 800 rows.
SCAN_ROWS = 128


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


# ---------------------------------------------------------------------------
# the growth index theta of phi = -1/s''
# ---------------------------------------------------------------------------


# theta's log grid over r; the odd count keeps r = 1 exactly on it
THETA_R_RANGE = (1e-4, 1e4)
THETA_GRID_N = 2001
THETA_EPS = (1e-4, 1e-5, 1e-6)  # forward steps relative to r


def theta_phi(d: Density) -> float:
    """Growth index of phi = -1/s'' on (0, 1], continued linearly beyond 1
    with the one-sided slope at 1: sup over r of (r/phi(r)) times phi's upper
    forward difference quotient over steps eps*r, eps in THETA_EPS (r phi'/phi
    for differentiable phi); an absolute step would inflate convex profiles.

    Raises ValueError unless s'' < 0 on {k/2048} and phi is positive and
    nondecreasing there and on 64 continuation points.  Returns math.inf on
    overflow or non-finite quotients.
    """
    s2 = d.eval_s2
    grid = np.arange(1, 2049, dtype=np.float64) / 2048
    vals = np.asarray(s2(grid), dtype=np.float64)
    if not np.all(vals < 0.0):
        raise ValueError(f"s'' >= 0 at t={float(grid[np.argmax(vals >= 0.0)])}; phi undefined")
    # one-sided O(h^2) slope of phi at 1, h = 1e-5, for the linear continuation
    p0, p1, p2 = (float(-1.0 / np.asarray(s2(t))) for t in (1.0, 1.0 - 1e-5, 1.0 - 2e-5))
    slope = (3.0 * p0 - 4.0 * p1 + p2) / 2e-5

    def phi(r):
        inner = -1.0 / np.asarray(s2(np.minimum(r, 1.0)))
        return np.where(r <= 1.0, inner, p0 + slope * (r - 1.0))

    pv = phi(np.concatenate([grid, 1.0 + np.linspace(0.01, 9.0, 64)]))
    if not np.all(pv > 0.0):
        raise ValueError("phi not positive on the sample grid")
    if np.any(np.diff(pv) < -1e-10):
        raise ValueError("phi not nondecreasing on the sample grid")
    rs = np.geomspace(*THETA_R_RANGE, THETA_GRID_N)
    base = phi(rs)
    if not np.all(base > 0.0):
        return math.inf
    best = np.full(rs.shape, -np.inf)
    for eps in THETA_EPS:
        shifted = rs * (1.0 + eps)
        h_eff = shifted - rs  # exactly representable step
        best = np.maximum(best, (phi(shifted) - base) / h_eff)
    theta = (rs / base) * best
    if not np.all(np.isfinite(theta)):
        return math.inf
    return float(theta.max())
