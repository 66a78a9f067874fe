"""Curvature-ratio coefficient bounds, the phi correspondence, and theta.

For a density with negative curvature, the coefficient envelope at r is
r^2 times the inf/sup over t in (0,1] of s''(rt)/s''(t).  The scan truncates
at t_min and carries one-sided grid error; divergence (ratios growing without
bound toward 0) is evidenced via probe trends and a magnitude threshold on the
coefficient r^2 * ratio, not proved.  column_bounds scans all the r of a joint's
columns in one (r x t) grid; coefficient_bounds is its one-column case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .densities import Density, canonical_grid
from .numerics import Scan, scan_extrema

__all__ = [
    "BoundsConfig",
    "CoefficientBounds",
    "coefficient_bounds",
    "column_bounds",
    "phi_from_density",
    "theta_phi",
]

# A column whose coefficient r^2 * ratio passes this on any probe is divergent.
DIVERGENCE_THRESHOLD = 1e12
# Rows per envelope scan: a scan holds several (rows x grid_n) blocks.  On a
# 2000-joint 4 x 4 verify-sandwich, 128 rows peak at 46.6 MB against 41.8 MB
# for one scan per joint and 79.7 MB for 800 rows; 32 to 512 rows run at one speed.
SCAN_ROWS = 128


@dataclass(frozen=True)
class BoundsConfig:
    t_min: float = 1e-6
    grid_n: int = 2048
    refine: bool = True


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
def column_bounds(d: Density, rs, cfg: BoundsConfig | None = None) -> CoefficientBounds:
    """coefficient_bounds for every r in rs, from scans of the (r x t) grid,
    SCAN_ROWS values of rs at a time.

    The grid denominator s''(t) and the probe ladders are evaluated once per
    scan; each r keeps its own lanes, so its result does not depend on the
    other values in rs.  r^2 may underflow to 0 and meet an infinite ratio:
    the bound is then NaN, without a warning.
    """
    cfg = cfg or BoundsConfig()
    if not d.concave:
        raise ValueError(f"density {d.label!r} lacks the concave flag")
    r = np.array(rs, dtype=np.float64).reshape(-1)
    ok = (r > 0.0) & (r <= 1.0 + 1e-12)  # false for NaN too
    if not ok.all():
        raise ValueError(f"r must lie in (0, 1], got {float(r[np.argmin(ok)])!r}")
    r = np.minimum(r, 1.0)  # marginals carry float dust one ulp above 1
    s2 = d.eval_s2
    scans = []
    for k in range(0, max(r.size, 1), SCAN_ROWS):
        rt = r[k : k + SCAN_ROWS, None]

        def ratio(t, rt=rt):
            # t is the 1-d grid or ladder (shared by all rows) or (rows, L)
            return np.asarray(s2(rt * t)) / np.asarray(s2(t))

        scans.append(scan_extrema(ratio, cfg.t_min, cfg.grid_n, d.probe_points, cfg.refine))
    scan = scans[0] if len(scans) == 1 else Scan._make(map(np.concatenate, zip(*scans)))
    f_scale = r * r
    lower, upper = (f_scale[:, None] * scan.value).T
    # the magnitude threshold applies to the coefficient r^2 * ratio; a NaN
    # probe_max (no finite probe) never breaches it
    breach = f_scale * np.abs(scan.probe_max) > DIVERGENCE_THRESHOLD
    divergent = scan.diverging.any(axis=1) | breach
    return CoefficientBounds(r, lower, upper, *scan.arg.T, *scan.est_error.T, divergent)


def coefficient_bounds(d: Density, r: float, cfg: BoundsConfig | None = None) -> CoefficientBounds:
    """Scan t -> s''(r t)/s''(t) over (0, 1] and scale by r^2.

    Requires the concave flag (negative curvature keeps the ratio positive
    and the envelope meaningful).  divergent is set when a probe family
    trends away without slowing, or when r^2 times the largest probe value
    breaches the magnitude threshold.
    """
    return CoefficientBounds._make(v.item() for v in column_bounds(d, [r], cfg))


# ---------------------------------------------------------------------------
# phi = -1/s'' and the growth index theta
# ---------------------------------------------------------------------------


def phi_from_density(d: Density) -> Callable:
    """Deformation profile phi, vectorized: -1/s'' on (0, 1], continued
    linearly beyond 1 with the one-sided slope at 1.  Rejects curvature that
    is not negative or a profile that is not positive and nondecreasing on
    the sample grid."""
    s2 = d.eval_s2
    grid = canonical_grid()
    vals = np.asarray(s2(grid), dtype=np.float64)
    if not np.all(vals < 0.0):
        t_bad = float(grid[np.argmax(vals >= 0.0)])
        raise ValueError(f"s'' >= 0 at t={t_bad}; phi undefined")

    phi_at_1 = float(-1.0 / np.asarray(s2(1.0)))
    h = 1e-5
    # one-sided O(h^2) slope of phi at 1 for the linear continuation
    p0 = phi_at_1
    p1 = float(-1.0 / np.asarray(s2(1.0 - h)))
    p2 = float(-1.0 / np.asarray(s2(1.0 - 2 * h)))
    slope = (3.0 * p0 - 4.0 * p1 + p2) / (2.0 * h)

    def eval_phi(r):
        r = np.asarray(r, dtype=np.float64)
        inner = -1.0 / np.asarray(s2(np.minimum(r, 1.0)))
        outer = phi_at_1 + slope * (r - 1.0)
        out = np.where(r <= 1.0, inner, outer)
        return float(out) if out.ndim == 0 else out

    sample = np.concatenate([grid, 1.0 + np.linspace(0.01, 9.0, 64)])
    pv = eval_phi(sample)
    if not np.all(pv > 0.0):
        raise ValueError("phi not positive on the sample grid")
    if np.any(np.diff(pv) < -1e-10):
        raise ValueError("phi not nondecreasing on the sample grid")
    return eval_phi


# theta's log grid over r; the odd count keeps r = 1 exactly on it
THETA_R_RANGE = (1e-4, 1e4)
THETA_GRID_N = 2001
THETA_EPS = (1e-4, 1e-5, 1e-6)  # forward steps relative to r


def theta_phi(phi: Callable) -> float:
    """Growth index: sup over r of (r/phi(r)) times the upper forward
    difference quotient of phi, the quotient maximized over an eps-ladder
    of steps eps*r (equals r phi'/phi for differentiable phi).

    Steps must scale with r: an absolute step is not small against the low
    end of the r grid and would inflate the quotient for convex profiles.
    Returns math.inf on overflow or non-finite quotients.
    """
    rs = np.geomspace(*THETA_R_RANGE, THETA_GRID_N)
    base = np.asarray(phi(rs), dtype=np.float64)
    if not np.all(base > 0.0):
        return math.inf
    best = np.full(rs.shape, -np.inf)
    for eps in THETA_EPS:
        shifted = rs * (1.0 + eps)
        h_eff = shifted - rs  # exactly representable step
        quot = (np.asarray(phi(shifted)) - base) / h_eff
        best = np.maximum(best, quot)
    theta = (rs / base) * best
    if not np.all(np.isfinite(theta)):
        return math.inf
    return float(theta.max())
