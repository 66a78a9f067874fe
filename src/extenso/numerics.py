"""The extremum scan: inf and sup of row-batched functions over (0, 1].

The scan works on (0, 1] truncated at T_MIN, on one fixed log grid.  Grid
minima overestimate the true infimum and grid maxima underestimate the true
supremum; consumers receive est_error and must apply it as slack, which keeps
one-sided-error reasoning sound.  Limit behavior toward 0 is probed on a
geometric ladder (plus caller-declared points) and only reported as a trend,
never asserted as an attained extremum.  ``scan_extrema`` runs under one
floating-point state that ignores overflow, invalid operations and division
by zero: what it scans may yield inf and NaN quietly, and the scan sees to
it that those never win.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["scan_extrema"]

class Scan(NamedTuple):
    """Result of a row-batched extremum scan.  value, arg, est_error and
    diverging are (rows, 2), column 0 the infimum lanes and 1 the supremum.

    value and arg are a lane's grid extremum and its grid point.  est_error
    is the neighbour-cell value gap there, to be applied as slack; at the
    T_MIN edge it also covers how far the probes below T_MIN pass the value.
    diverging: a probe family trends away, or the grid meets an infinity in
    the unbounded direction.  probe_max, (rows,), is a row's largest finite
    probe value (NaN without one), for the caller's magnitude thresholds.
    """

    value: np.ndarray
    arg: np.ndarray
    est_error: np.ndarray
    diverging: np.ndarray
    probe_max: np.ndarray


# The scan's grid: GRID_N log-spaced points over [T_MIN, 1], ends exact.
T_MIN = 1e-6
GRID_N = 2048
_GRID = np.geomspace(T_MIN, 1.0, GRID_N)
_GRID[0], _GRID[-1] = T_MIN, 1.0
_GRID.flags.writeable = False
# Lane signs: the infimum lanes as they are, the supremum lanes negated, so
# every lane minimizes.  _LANE_SIGN broadcasts over (rows, 2, points).
_SIGN = np.array([1.0, -1.0])
_LANE_SIGN = _SIGN[:, None]
# Depth of the geometric probe ladder t = 2^-k, k = 1.._LADDER_K.
_LADDER_K = 40
_LADDER = 2.0 ** -np.arange(1, _LADDER_K + 1, dtype=np.float64)
_LADDER.flags.writeable = False
# A probe family's trend is judged on its last _TREND_WINDOW finite values.
_TREND_WINDOW = 8
# Offsets of a grid lane's left neighbour, itself and its right neighbour.
_NEIGHBOURS = np.array([-1, 0, 1])


def _diverging(values: np.ndarray) -> np.ndarray:
    """(rows, 2) flags, inf and sup: which rows of a probe family, ordered
    by decreasing t, diverge.

    A row diverges when its last _TREND_WINDOW finite values (it needs more
    than that many) move strictly monotonically in the unbounded direction
    and the move has not slowed below 5% of scale: the limit-style growth a
    fixed grid would miss.  Rows holding NaN or +-inf are compacted stably,
    finite values last.  Runs under scan_extrema's floating-point state.
    """
    rows, n = values.shape
    if n <= _TREND_WINDOW:
        return np.zeros((rows, 2), dtype=bool)
    finite = np.isfinite(values)
    enough = True
    if not finite.all():
        values = np.take_along_axis(values, np.argsort(finite, axis=1, kind="stable"), axis=1)
        enough = finite.sum(axis=1) > _TREND_WINDOW
    w = values[:, -_TREND_WINDOW:]
    step = w[:, 1:] - w[:, :-1]
    first, last = w[:, 0], w[:, -1]
    away = enough & (np.abs(last - first) > np.maximum(1e-9, 0.05 * np.abs(first)))
    # a positive decreasing sequence is bounded below; only a genuinely
    # negative-heading tail counts as divergence for the infimum
    down = away & (step < 0).all(axis=1) & (last < 0)
    return np.array([down, away & (step > 0).all(axis=1)]).T


def _neighbourhood(vs: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices and values of each lane's left neighbour, the lane itself
    and its right neighbour, clamped to the grid: two (rows, 2, 3) arrays."""
    rows, n = vs.shape
    near = np.minimum(np.maximum(idx[..., None] + _NEIGHBOURS, 0), n - 1)
    return near, vs.ravel()[np.arange(0, rows * n, n)[:, None, None] + near]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def scan_extrema(h, probe_points: tuple[float, ...] = ()) -> Scan:
    """One grid scan of each row of h over [T_MIN, 1]: an (inf, sup) lane pair per row.

    h is row-batched: it maps a 1-d t of length L to a (rows, L) array.

    Log-spaced coarse grid, whose extremes and their grid points are the
    reported value and arg, then limit diagnostics on a geometric ladder
    t = 2^-k (k <= 40) and on any caller-declared probe points, each family
    judged separately per row.

    NaN and +-inf never win: a row's grid extremes are its first finite
    minimum and maximum, and a row without a finite value keeps index 0.
    argmin and argmax pick a row's first NaN if it has one, else argmin its
    first -inf and argmax its first +inf, so finite picks prove every row
    finite.  Only otherwise is the grid masked, picked again and checked for
    blow-ups.  A lane's error is the larger gap to a finite grid neighbour
    (inf without one); the T_MIN edge widens it only where the lane's value
    is finite.  Every evaluation of h, grid and probes, runs inside this
    function's floating-point state, so none of it raises a warning.
    """
    vs = np.asarray(h(_GRID), dtype=np.float64)
    # lanes (row, mode), mode 0 the infimum and 1 the supremum
    idx = np.array([vs.argmin(axis=1), vs.argmax(axis=1)]).T
    near, near_vals = _neighbourhood(vs, idx)
    finite = None
    if not np.isfinite(near_vals[..., 1]).all():
        finite = np.isfinite(vs)
        idx = np.array([
            np.where(finite, vs, np.inf).argmin(axis=1),
            np.where(finite, vs, -np.inf).argmax(axis=1),
        ]).T
        near, near_vals = _neighbourhood(vs, idx)
    value = near_vals[..., 1]
    # resolution: the larger value gap to a finite grid neighbour
    if finite is None:
        # the lane itself adds a gap of 0, below both neighbour gaps
        est_error = np.abs(value[..., None] - near_vals).max(axis=-1)
    else:
        ok = np.isfinite(near_vals) & (near != idx[..., None])
        gap = np.abs(value[..., None] - near_vals)  # inf - inf is NaN where no value is finite
        est_error = np.where(ok, gap, -np.inf).max(axis=-1)
        est_error[est_error == -np.inf] = np.inf
    arg = _GRID[idx]

    # probe families: geometric ladder toward 0, then declared points
    families = [_LADDER]
    if len(probe_points):
        pts = np.sort(np.asarray(probe_points, dtype=np.float64))[::-1]
        families.append(pts[pts > 0.0])
    probe_vals = [np.asarray(h(fam), dtype=np.float64) for fam in families]
    allv = probe_vals[0] if len(families) == 1 else np.concatenate(probe_vals, axis=1)
    # the T_MIN edge truncates the scan: widen an edge lane's error by how
    # far the probes below T_MIN pass its value in the lane's direction.  A
    # lane without a finite value has no finite neighbour: its error is inf.
    edge = idx == 0
    if finite is not None:
        edge &= np.isfinite(value)
    if np.count_nonzero(edge):
        probe_ts = families[0] if len(families) == 1 else np.concatenate(families)
        signed = _LANE_SIGN * allv[:, None, probe_ts < T_MIN]
        reach = np.where(np.isfinite(signed), signed, np.inf).min(axis=-1, initial=np.inf)
        past = _SIGN * np.where(edge, value, 0.0) - reach
        est_error = est_error + np.where(edge & (past > 0), past, 0.0)
    probe_max = allv.max(axis=1)
    if not np.isfinite(probe_max).all():
        top = np.where(np.isfinite(allv), allv, -np.inf).max(axis=1)
        probe_max = np.where(top > -np.inf, top, math.nan)

    diverging = np.logical_or.reduce([_diverging(pv) for pv in probe_vals])
    if finite is not None:
        diverging |= np.stack([np.isneginf(vs).any(axis=1), np.isposinf(vs).any(axis=1)], axis=1)
    return Scan(value, arg, est_error, diverging, probe_max)
