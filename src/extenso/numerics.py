"""The extremum scan: inf and sup of row-batched functions over (0, 1].

The scan works on (0, 1] truncated at a configurable t_min.  Grid minima
overestimate the true infimum and grid maxima underestimate the true
supremum; consumers receive est_error and must apply it as slack, which keeps
one-sided-error reasoning sound.  Limit behavior toward 0 is probed on a
geometric ladder (plus caller-declared points) and only reported as a trend,
never asserted as an attained extremum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OptResult", "scan_extrema"]

@dataclass(frozen=True)
class OptResult:
    """Result of a 1-d extremum scan.

    est_error is the neighbor-cell value gap at the winning grid cell: the
    scan's resolution, to be applied as slack by consumers.  At the t_min
    edge it also covers how far the probes below t_min pass the value.
    diverging is set when a probe family trends away without slowing, or the
    grid meets an infinity in the unbounded direction; attainment toward t=0
    is never asserted.  Magnitude thresholds on probe_max are the caller's to
    apply.
    """

    value: float
    arg: float
    grid_points: int
    refined: bool
    est_error: float
    diverging: bool = False
    probe_trend: str = "none"
    probe_max: float = math.nan
    offending_t: float | None = None


# Bracket zoom: each round samples _ZOOM_POINTS interior points per lane and
# keeps the two cells around the lane's best sample, so a bracket shrinks
# (_ZOOM_POINTS + 1)/2 = 16-fold per round.  Twelve rounds take a cell of the
# default 2048-point log grid (relative width ~1.4e-2) below float
# resolution.  The round count is fixed: a lane's result never depends on the
# other lanes of its batch.
_ZOOM_POINTS = 31
_ZOOM_ROUNDS = 12
# Depth of the geometric probe ladder t = 2^-k, k = 1.._LADDER_K.
_LADDER_K = 40


def _zoom(h, lo: np.ndarray, hi: np.ndarray, best: np.ndarray):
    """Minimize each lane's signed h inside its bracket [lo, hi], all at once.

    lo, hi and best have shape (rows, 2): column 0 holds the infimum lanes,
    column 1 the supremum lanes, and best each lane's grid value with the
    sign applied (negated for the supremum).  h maps a (rows, L) array of t
    to (rows, L) values.  Returns (arg, best) of the same shape; arg is nan
    in lanes where no finite sample beat the grid value.
    """
    shape = lo.shape
    frac = np.arange(1, _ZOOM_POINTS + 1, dtype=np.float64) / (_ZOOM_POINTS + 1)
    sign = np.tile([1.0, -1.0], shape[0])[:, None]
    lanes = np.arange(lo.size)
    lo, hi, best = lo.ravel(), hi.ravel(), best.ravel()
    arg = np.full(lo.shape, np.nan)
    for _ in range(_ZOOM_ROUNDS):
        xs = lo[:, None] + (hi - lo)[:, None] * frac
        vals = h(xs.reshape(shape[0], -1)).reshape(xs.shape)
        work = np.where(np.isfinite(vals), sign * vals, np.inf)
        j = np.argmin(work, axis=1)
        w = work[lanes, j]
        better = w < best
        best = np.where(better, w, best)
        arg = np.where(better, xs[lanes, j], arg)
        edges = np.concatenate([lo[:, None], xs, hi[:, None]], axis=1)
        lo, hi = edges[lanes, j], edges[lanes, j + 2]
    return arg.reshape(shape), best.reshape(shape)


def _trend_labels(values: np.ndarray, window: int = 8) -> tuple[str, str]:
    """Trend of h along a probe family ordered by decreasing t, judged for
    the infimum and for the supremum.

    'diverging' means the last `window` values move monotonically in the
    unbounded direction for the given mode and the move has not slowed below
    5% of scale: the limit-style growth a fixed grid would miss.
    """
    v = values[np.isfinite(values)]
    if v.size < window + 1:
        return "short", "short"
    w = v[-window:].tolist()
    d = [b - a for a, b in zip(w, w[1:])]
    away = abs(w[-1] - w[0]) > max(1e-9, 0.05 * abs(w[0]))
    if all(x > 0 for x in d):
        return "increasing", "diverging" if away else "increasing"
    if all(x < 0 for x in d):
        # a positive decreasing sequence is bounded below; only a genuinely
        # negative-heading tail counts as divergence for the infimum
        return "diverging" if away and w[-1] < 0 else "decreasing", "decreasing"
    if all(abs(x) <= 1e-12 * (1.0 + abs(a)) for x, a in zip(d, w)):
        return "flat", "flat"
    return "mixed", "mixed"


@functools.lru_cache(maxsize=8)
def _log_grid(t_min: float, grid_n: int) -> np.ndarray:
    """Read-only log-spaced grid over [t_min, 1] with exact end points."""
    ts = np.geomspace(t_min, 1.0, grid_n)
    ts[0], ts[-1] = t_min, 1.0
    ts.flags.writeable = False
    return ts


def scan_extrema(
    h,
    t_min: float = 1e-6,
    grid_n: int = 2048,
    probe_points: tuple[float, ...] = (),
    refine: bool = True,
) -> list[tuple[OptResult, OptResult]]:
    """One grid scan of each row of h over [t_min, 1]: an (inf, sup) pair per row.

    h is row-batched: it maps a 1-d t of length L to a (rows, L) array, and
    a (rows, L) t to (rows, L) values with row i taken at t[i].

    Log-spaced coarse grid, a vectorized bracket zoom over the two cells
    around every row's grid extremum, then limit diagnostics on a geometric
    ladder t = 2^-k (k <= 40) and on any caller-declared probe points, each
    family judged separately per row.
    """
    if grid_n < 256:
        raise ValueError("grid_n must be >= 256")
    if not 0.0 < t_min < 1.0:
        raise ValueError("t_min must lie in (0, 1)")
    ts = _log_grid(float(t_min), int(grid_n))
    vs = np.asarray(h(ts), dtype=np.float64)
    finite = np.isfinite(vs)
    bad = ~finite
    has_bad = bad.any(axis=1)
    first_bad = np.argmax(bad, axis=1)
    # lanes (row, mode), mode 0 the infimum and 1 the supremum
    blowup = np.stack([np.isneginf(vs).any(axis=1), np.isposinf(vs).any(axis=1)], axis=1)
    sign = np.array([1.0, -1.0])
    work = np.where(finite[:, None, :], sign[:, None] * vs[:, None, :], np.inf)
    idx = np.argmin(work, axis=-1)
    rix = np.arange(vs.shape[0])[:, None]
    value = vs[rix, idx]
    arg = ts[idx]
    # resolution: the larger value gap to a finite grid neighbour
    est_error = np.full(idx.shape, -np.inf)
    for step in (-1, 1):
        nb = np.clip(idx + step, 0, grid_n - 1)
        ok = (nb != idx) & finite[rix, nb]
        gap = np.abs(value - vs[rix, nb])
        est_error = np.maximum(est_error, np.where(ok, gap, -np.inf))
    est_error[est_error == -np.inf] = np.inf

    if refine:
        lo = ts[np.maximum(idx - 1, 0)]
        hi = ts[np.minimum(idx + 1, grid_n - 1)]
        z_arg, z_best = _zoom(h, lo, hi, sign * value)
        moved = ~np.isnan(z_arg)
        value = np.where(moved, sign * z_best, value)
        arg = np.where(moved, z_arg, arg)

    # probe families: geometric ladder toward 0, then declared points
    families = [2.0 ** -np.arange(1, _LADDER_K + 1, dtype=np.float64)]
    if len(probe_points):
        pts = np.sort(np.asarray(probe_points, dtype=np.float64))[::-1]
        families.append(pts[pts > 0.0])
    probe_vals = [np.asarray(h(fam), dtype=np.float64) for fam in families]
    # the t_min edge truncates the scan: widen an edge lane's error by how
    # far the probes below t_min pass its value in the lane's direction
    below = [pv[:, fam < t_min] for fam, pv in zip(families, probe_vals)]
    below = np.concatenate(below, axis=1)
    signed = np.where(np.isfinite(below)[:, None, :], sign[:, None] * below[:, None, :], np.inf)
    past = sign * value - signed.min(axis=-1, initial=np.inf)
    est_error = np.where((idx == 0) & (past > 0), est_error + past, est_error)
    allv = np.concatenate(probe_vals, axis=1)
    top = np.where(np.isfinite(allv), allv, -np.inf).max(axis=1)
    probe_max = np.where(top > -np.inf, top, math.nan)

    results = []
    for row in range(vs.shape[0]):
        offending = float(ts[first_bad[row]]) if has_bad[row] else None
        pair = []
        labels = [_trend_labels(pv[row]) for pv in probe_vals]
        for m in range(2):
            trends = [lab[m] for lab in labels]
            diverging = "diverging" in trends or bool(blowup[row, m])
            trend = "diverging" if diverging else trends[0]
            pair.append(
                OptResult(
                    value=float(value[row, m]),
                    arg=float(arg[row, m]),
                    grid_points=grid_n,
                    # the t_min edge is an artificial truncation: the true
                    # extremum may sit below it, so refinement there is not
                    # trusted
                    refined=bool(refine and idx[row, m] > 0),
                    est_error=float(est_error[row, m]),
                    diverging=diverging,
                    probe_trend=trend,
                    probe_max=float(probe_max[row]),
                    offending_t=offending,
                )
            )
        results.append(tuple(pair))
    return results

