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
from typing import Callable

import numpy as np

from .densities import Density, canonical_grid
from .numerics import OptResult, scan_extrema

__all__ = [
    "BoundsConfig",
    "CoefficientBounds",
    "PhiFunction",
    "coefficient_bounds",
    "column_bounds",
    "phi_from_density",
    "theta_phi",
]

# A column whose coefficient r^2 * ratio passes this on any probe is divergent.
DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class BoundsConfig:
    t_min: float = 1e-6
    grid_n: int = 2048
    refine: bool = True


@dataclass(frozen=True)
class CoefficientBounds:
    """Envelope (lower, upper) = r^2 (inf, sup) of the curvature ratio at r.

    lower/upper carry the scan metadata; est_error lives there on the ratio
    scale, so the f-scale slack is r^2 * meta.est_error.
    """

    r: float
    lower: float
    upper: float
    lower_meta: OptResult
    upper_meta: OptResult
    divergent: bool


def column_bounds(d: Density, rs, cfg: BoundsConfig | None = None) -> list[CoefficientBounds]:
    """coefficient_bounds for every r in rs, from one scan of the (r x t) grid.

    The grid denominator s''(t) and the probe ladders are evaluated once per
    call; each r keeps its own lanes, so its result does not depend on the
    other values in rs.
    """
    cfg = cfg or BoundsConfig()
    if not d.concave:
        raise ValueError(f"density {d.label!r} lacks the concave flag")
    r = np.array(rs, dtype=np.float64).reshape(-1)
    for x in r:
        if not 0.0 < x <= 1.0 + 1e-12:
            raise ValueError(f"r must lie in (0, 1], got {float(x)!r}")
    r = np.minimum(r, 1.0)  # marginals carry float dust one ulp above 1
    s2 = d.eval_s2
    rt = r[:, None]

    def ratio(t):
        # t is the 1-d grid or ladder (shared by all rows) or (rows, L)
        return np.asarray(s2(rt * t)) / np.asarray(s2(t))

    scans = scan_extrema(
        ratio,
        t_min=cfg.t_min,
        grid_n=cfg.grid_n,
        probe_points=d.probe_points,
        refine=cfg.refine,
    )
    out = []
    for rj, (inf_res, sup_res) in zip(r.tolist(), scans):
        f_scale = rj * rj
        # the magnitude threshold applies to the coefficient r^2 * ratio
        breach = math.isfinite(sup_res.probe_max) and f_scale * abs(sup_res.probe_max) > DIVERGENCE_THRESHOLD
        out.append(
            CoefficientBounds(
                r=rj,
                lower=f_scale * inf_res.value,
                upper=f_scale * sup_res.value,
                lower_meta=inf_res,
                upper_meta=sup_res,
                divergent=inf_res.diverging or sup_res.diverging or breach,
            )
        )
    return out


def coefficient_bounds(d: Density, r: float, cfg: BoundsConfig | None = None) -> CoefficientBounds:
    """Scan t -> s''(r t)/s''(t) over (0, 1] and scale by r^2.

    Requires the concave flag (negative curvature keeps the ratio positive
    and the envelope meaningful).  divergent is set when a probe family
    trends away without slowing, or when r^2 times the largest probe value
    breaches the magnitude threshold.
    """
    return column_bounds(d, [r], cfg)[0]


# ---------------------------------------------------------------------------
# phi = -1/s'' and the growth index theta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiFunction:
    """Positive nondecreasing deformation profile on (0, inf).

    Given by -1/s'' on (0, 1] and continued linearly (continuous, with the
    one-sided slope at 1) beyond 1.
    """

    eval_phi: Callable
    label: str
    domain_note: str = "-1/s'' on (0,1]; linear continuation beyond 1"


def phi_from_density(d: Density) -> PhiFunction:
    """Deformation profile phi = -1/s''; rejects curvature that is not
    negative or a profile that fails to be nondecreasing on the sample grid."""
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
    return PhiFunction(eval_phi=eval_phi, label=f"phi[{d.label}]")


# theta's log grid over r; the odd count keeps r = 1 exactly on it
THETA_R_RANGE = (1e-4, 1e4)
THETA_GRID_N = 2001
THETA_EPS = (1e-4, 1e-5, 1e-6)  # forward steps relative to r


def theta_phi(phi: PhiFunction) -> float:
    """Growth index: sup over r of (r/phi(r)) times the upper forward
    difference quotient of phi, the quotient maximized over an eps-ladder
    of steps eps*r (equals r phi'/phi for differentiable phi).

    Steps must scale with r: an absolute step is not small against the low
    end of the r grid and would inflate the quotient for convex profiles.
    Returns math.inf on overflow or non-finite quotients.
    """
    rs = np.geomspace(*THETA_R_RANGE, THETA_GRID_N)
    base = np.asarray(phi.eval_phi(rs), dtype=np.float64)
    if not np.all(base > 0.0):
        return math.inf
    best = np.full(rs.shape, -np.inf)
    for eps in THETA_EPS:
        shifted = rs * (1.0 + eps)
        h_eff = shifted - rs  # exactly representable step
        quot = (np.asarray(phi.eval_phi(shifted)) - base) / h_eff
        best = np.maximum(best, quot)
    theta = (rs / base) * best
    if not np.all(np.isfinite(theta)):
        return math.inf
    return float(theta.max())
