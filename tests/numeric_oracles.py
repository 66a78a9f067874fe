"""Reference numerics for the tests: quadrature, finite differences, a
one-function view of the extremum scan, the plain extremum scan and its
per-row trend labels, remark5's log-sinc series by allocating Horner
steps, remark2's panel ladder by the Gauss rule alone and
its moments in closed form at 30 digits, per-vector entropy loops, psi and
theta point by point on a grid of their own, the catalog's s'' in mpmath,
and the test-only constructions: a joint rebuilt from its factors, the
shifted density, the mixture of two densities and the 3x2 family behind
the twice-differentiated curvature relation.

None of this runs in the package.  The two quadrature rules share no code
path beyond the integrand, so the tests use them as independent oracles for
the densities' closed forms and integral identities.  The plain scan and
the per-vector loops (each entropy from its own eval_s call) are what the
package's scan and batched evaluation must reproduce bit for bit.
theta_phi reads theta on the scan's grid, so it matches the point-by-point
theta to rounding where psi is monotone, not bit for bit.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from extenso.bounds import column_bounds
from extenso.densities import Density, DensityDomainError
from extenso.extensivity import _require_sandwich_flags
from extenso.numerics import (
    _LADDER_K,
    _TREND_WINDOW,
    GRID_N,
    T_MIN,
    Scan,
    scan_extrema,
)
from extenso.simplex import (
    SUM_TOL,
    InvalidDistributionError,
    JointMatrix,
    conditional,
    marginal,
)


class NoConvergenceError(ArithmeticError):
    """Quadrature hit its depth cap; carries the partial estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


def _finite(x: float) -> bool:
    return math.isfinite(x)


# ---------------------------------------------------------------------------
# adaptive Simpson with singular-endpoint shells
# ---------------------------------------------------------------------------


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width * (fa + 4.0 * fm + fb) / 6.0


def _adaptive_core(g, a: float, b: float, abs_tol: float, max_depth: int) -> float:
    """Classic adaptive Simpson on a finite integrand; iterative stack."""
    m = 0.5 * (a + b)
    fa, fm, fb = float(g(a)), float(g(m)), float(g(b))
    for x, fx in ((a, fa), (m, fm), (b, fb)):
        if not _finite(fx):
            raise ValueError(f"integrand non-finite at x={x!r}")
    whole = _simpson(fa, fm, fb, b - a)
    stack = [(a, m, b, fa, fm, fb, whole, abs_tol, 0)]
    total = 0.0
    while stack:
        a0, m0, b0, f0, f1, f2, s0, tol, depth = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm, frm = float(g(lm)), float(g(rm))
        if not (_finite(flm) and _finite(frm)):
            bad = lm if not _finite(flm) else rm
            raise ValueError(f"integrand non-finite at x={bad!r}")
        left = _simpson(f0, flm, f1, m0 - a0)
        right = _simpson(f1, frm, f2, b0 - m0)
        err = left + right - s0
        if abs(err) <= 15.0 * tol or (b0 - a0) <= 1e-15 * (abs(a0) + abs(b0) + 1.0):
            total += left + right + err / 15.0
            continue
        if depth >= max_depth:
            partial = total + left + right + err / 15.0
            partial += math.fsum(item[6] for item in stack)
            raise NoConvergenceError(
                f"adaptive Simpson exceeded depth {max_depth} on [{a0!r}, {b0!r}]",
                partial=partial,
            )
        stack.append((a0, lm, m0, f0, flm, f1, left, tol / 2.0, depth + 1))
        stack.append((m0, rm, b0, f1, frm, f2, right, tol / 2.0, depth + 1))
    return total


def _shells(g, a: float, b: float, abs_tol: float, max_depth: int, singular_left: bool) -> float:
    """Geometric approach to one singular endpoint; integrable singularities only.

    Shell k covers offsets [width 2^-(k+1), width 2^-k] from the singular end.
    Stops when a shell's contribution falls below the tolerance or the shell
    edge reaches float resolution at the endpoint; the remaining tail is
    extrapolated from the observed geometric shell ratio.
    """
    width = b - a
    if singular_left:
        seg = lambda lo, hi: (a + lo, a + hi)
        edge = a
    else:
        seg = lambda lo, hi: (b - hi, b - lo)
        edge = b
    granularity = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(edge))
    lo_off, hi_off = 0.5 * width, width
    x0, x1 = seg(lo_off, hi_off)
    total = _adaptive_core(g, x0, x1, abs_tol / 4.0, max_depth)
    prev = math.inf
    rho = 0.5
    max_shells = 400
    for k in range(1, max_shells + 1):
        hi_off = lo_off
        lo_off = 0.5 * lo_off
        if lo_off <= granularity:
            # the rest of the approach is below float resolution: the tail
            # from the current shell onward is prev * (rho + rho^2 + ...)
            last = prev if math.isfinite(prev) else 0.0
            return total + last * rho / (1.0 - rho)
        x0, x1 = seg(lo_off, hi_off)
        tol_k = max(abs_tol * 2.0 ** (-k - 2), 1e-18)
        piece = _adaptive_core(g, x0, x1, tol_k, max_depth)
        total += piece
        if math.isfinite(prev) and prev != 0.0:
            ratio = piece / prev
            if 0.0 < ratio < 0.95:
                rho = ratio
        if k >= 4 and abs(piece) <= abs_tol / 8.0:
            return total + piece * rho / (1.0 - rho)
        prev = piece
    raise NoConvergenceError(
        f"singular-endpoint shells did not contract after {max_shells} levels",
        partial=total,
    )


def adaptive_quadrature(g, a: float, b: float, abs_tol: float = 1e-10, max_depth: int = 60) -> float:
    """Integral of g over [a, b] to absolute tolerance abs_tol.

    Non-finite values at an endpoint trigger a geometric-shell split toward
    that endpoint, which converges for integrable singularities (log, inverse
    square root, ...).  Raises NoConvergenceError (with .partial) if the depth
    cap or shell budget is exhausted.
    """
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be > 0")
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_quadrature(g, b, a, abs_tol, max_depth)
    with np.errstate(divide="ignore"):  # singular endpoints are probed on purpose
        fa, fb = float(g(a)), float(g(b))
    sing_a, sing_b = not _finite(fa), not _finite(fb)
    if sing_a and sing_b:
        m = 0.5 * (a + b)
        left = _shells(g, a, m, abs_tol / 2.0, max_depth, singular_left=True)
        right = _shells(g, m, b, abs_tol / 2.0, max_depth, singular_left=False)
        return left + right
    if sing_a:
        return _shells(g, a, b, abs_tol, max_depth, singular_left=True)
    if sing_b:
        return _shells(g, a, b, abs_tol, max_depth, singular_left=False)
    return _adaptive_core(g, a, b, abs_tol, max_depth)


# ---------------------------------------------------------------------------
# composite midpoint with Richardson extrapolation (independent second rule)
# ---------------------------------------------------------------------------


def _eval_vectorized(g, xs: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(g(xs), dtype=np.float64)
        if vals.shape == xs.shape:
            return vals
    except Exception:
        pass
    return np.array([float(g(x)) for x in xs], dtype=np.float64)


def midpoint_richardson(
    g, a: float, b: float, abs_tol: float = 1e-10, max_level: int = 16, n0: int = 8
) -> float:
    """Composite midpoint rule refined by halving plus a Richardson table.

    Never evaluates the endpoints, so it tolerates endpoint singularities.
    The table assumes an error series in all powers of h (factors 2^j):
    integrable endpoint singularities contribute odd powers that the usual
    h^2-only table cannot cancel, while for smooth integrands the odd
    coefficients vanish and the extra columns are harmless.
    """
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be > 0")
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    rows: list[list[float]] = []
    for level in range(max_level + 1):
        n = n0 * 2**level
        h = (b - a) / n
        xs = a + (np.arange(n) + 0.5) * h
        m = float(h * math.fsum(_eval_vectorized(g, xs).tolist()))
        row = [m]
        if rows:
            prev = rows[-1]
            for j in range(1, len(prev) + 1):
                factor = 2.0**j
                row.append((factor * row[j - 1] - prev[j - 1]) / (factor - 1.0))
        rows.append(row)
        if level >= 2 and abs(row[-1] - rows[-2][-1]) <= abs_tol:
            return row[-1]
    raise NoConvergenceError(
        f"midpoint/Richardson did not reach {abs_tol} after {max_level} levels",
        partial=rows[-1][-1],
    )


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def finite_difference(
    g,
    r: float,
    order: int,
    h_step: float | None = None,
    domain: tuple[float, float] = (0.0, 1.0),
) -> float:
    """Centered O(h^2) stencil for g' or g''; one-sided when the stencil
    would leave the domain.

    Default steps balance truncation against float64 cancellation:
    ~eps^(1/3) for first derivatives, ~eps^(1/4) for second.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    lo, hi = domain
    if not lo < r < hi:
        raise ValueError(f"r={r!r} not interior to {domain}")
    if h_step is None:
        h_step = 6e-6 if order == 1 else 1.2e-4
    h = float(h_step)
    # exact representable step
    h = (r + h) - r

    if r + h <= hi and r - (3 * h if order == 2 else h) >= lo:
        if order == 1:
            return (g(r + h) - g(r - h)) / (2.0 * h)
        return (g(r + h) - 2.0 * g(r) + g(r - h)) / (h * h)

    if r + h > hi:  # backward stencils, still O(h^2)
        if order == 1:
            return (3.0 * g(r) - 4.0 * g(r - h) + g(r - 2 * h)) / (2.0 * h)
        return (2.0 * g(r) - 5.0 * g(r - h) + 4.0 * g(r - 2 * h) - g(r - 3 * h)) / (h * h)

    # forward stencils near the lower edge
    if order == 1:
        return (-3.0 * g(r) + 4.0 * g(r + h) - g(r + 2 * h)) / (2.0 * h)
    return (2.0 * g(r) - 5.0 * g(r + h) + 4.0 * g(r + 2 * h) - g(r + 3 * h)) / (h * h)


class Extremum(NamedTuple):
    """One lane of a scan: the inf or the sup of one row."""

    value: float
    arg: float
    est_error: float
    diverging: bool


def global_extremum(h, mode: str, probe_points: tuple[float, ...] = ()) -> Extremum:
    """Infimum or supremum of a 1-d h over (0, 1] truncated at T_MIN: the
    one-row case of scan_extrema."""
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")

    def one_row(t):
        return np.asarray(h(np.ravel(t)), dtype=np.float64).reshape(1, -1)

    scan = scan_extrema(one_row, probe_points)
    lane = 0 if mode == "inf" else 1
    return Extremum(*(field[0, lane].item() for field in scan[:4]))


# ---------------------------------------------------------------------------
# the extremum scan as a plain, unoptimized reference
# ---------------------------------------------------------------------------


def reference_trend_labels(values: np.ndarray) -> tuple[str, str]:
    """Trend of h along a probe family ordered by decreasing t, judged for
    the infimum and for the supremum.

    'diverging' means the last _TREND_WINDOW values move monotonically in the
    unbounded direction for the given mode and the move has not slowed below
    5% of scale: the limit-style growth a fixed grid would miss.
    """
    v = values[np.isfinite(values)]
    if v.size < _TREND_WINDOW + 1:
        return "short", "short"
    w = v[-_TREND_WINDOW:].tolist()
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


def reference_scan_extrema(h, probe_points: tuple[float, ...] = ()) -> Scan:
    """scan_extrema as it was before its grid reduction was rewritten with
    fewer numpy calls; the rewrite must match it bit for bit.  Its
    divergence flags come from the per-row trend labels that the scan's
    block judge replaced.

    One grid scan of each row of h over [T_MIN, 1]: an (inf, sup) pair per row.

    h is row-batched: it maps a 1-d t of length L to a (rows, L) array.

    Log-spaced coarse grid, whose extremes and their grid points are the
    reported value and arg, then limit diagnostics on a geometric ladder
    t = 2^-k (k <= 40) and on any caller-declared probe points, each family
    judged separately per row.
    """
    ts = np.geomspace(T_MIN, 1.0, GRID_N)
    ts[0], ts[-1] = T_MIN, 1.0
    vs = np.asarray(h(ts), dtype=np.float64)
    finite = np.isfinite(vs)
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
        nb = np.clip(idx + step, 0, GRID_N - 1)
        ok = (nb != idx) & finite[rix, nb]
        gap = np.abs(value - vs[rix, nb])
        est_error = np.maximum(est_error, np.where(ok, gap, -np.inf))
    est_error[est_error == -np.inf] = np.inf

    # probe families: geometric ladder toward 0, then declared points
    families = [2.0 ** -np.arange(1, _LADDER_K + 1, dtype=np.float64)]
    if len(probe_points):
        pts = np.sort(np.asarray(probe_points, dtype=np.float64))[::-1]
        families.append(pts[pts > 0.0])
    probe_vals = [np.asarray(h(fam), dtype=np.float64) for fam in families]
    # the T_MIN edge truncates the scan: widen an edge lane's error by how
    # far the probes below T_MIN pass its value in the lane's direction
    below = [pv[:, fam < T_MIN] for fam, pv in zip(families, probe_vals)]
    below = np.concatenate(below, axis=1)
    signed = np.where(np.isfinite(below)[:, None, :], sign[:, None] * below[:, None, :], np.inf)
    past = sign * value - signed.min(axis=-1, initial=np.inf)
    est_error = np.where((idx == 0) & (past > 0), est_error + past, est_error)
    allv = np.concatenate(probe_vals, axis=1)
    top = np.where(np.isfinite(allv), allv, -np.inf).max(axis=1)
    probe_max = np.where(top > -np.inf, top, math.nan)

    diverging = blowup
    for pv in probe_vals:
        for row, values in enumerate(pv):
            diverging[row] |= [label == "diverging" for label in reference_trend_labels(values)]
    return Scan(value, arg, est_error, diverging, probe_max)


# ---------------------------------------------------------------------------
# remark5's log-sinc series, one fresh array per Horner step
# ---------------------------------------------------------------------------


def allocating_logsinc_integral(r):
    """The log-sinc integral by plain Horner steps, each into a new array:
    the operations of _kernels.logsinc_integral in the same order."""
    from extenso._kernels import LOGSINC_SERIES

    r = np.asarray(r, dtype=np.float64)
    r2 = r * r
    acc = LOGSINC_SERIES[-1]
    for c in LOGSINC_SERIES[-2::-1]:
        acc = acc * r2 + c
    return acc * r2 * r


# ---------------------------------------------------------------------------
# remark2's panel ladder by the 12-node Gauss rule alone
# ---------------------------------------------------------------------------


def _gl12_moments(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of u|cos(1/u)| and u^2|cos(1/u)| over each [lo_i, hi_i]."""
    x, w = np.polynomial.legendre.leggauss(12)
    half = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo)[:, None] + half[:, None] * x
    f = u * np.abs(np.cos(1.0 / u))
    return (f * w).sum(axis=1) * half, ((f * u) * w).sum(axis=1) * half


@functools.lru_cache(maxsize=1)
def gl12_remark2_ladder(cutoff: float = 1e-4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(breaks, G prefix, H prefix) of remark2's ladder: breaks 2/(j pi) from
    the first below cutoff up to 1.0, each prefix the panel sums plus the
    [0, b0] tail through the 2/pi mean of |cos|."""
    j_max = int(math.floor(2.0 / (math.pi * cutoff)))
    j = np.arange(j_max, 0, -1, dtype=np.float64)
    breaks = np.concatenate([2.0 / (j * math.pi), [1.0]])
    g, h = _gl12_moments(breaks[:-1], breaks[1:])
    b0 = breaks[0]
    prefix_g = np.concatenate([[0.0], np.cumsum(g)]) + (2.0 / math.pi) * b0 * b0 / 2.0
    prefix_h = np.concatenate([[0.0], np.cumsum(h)]) + (2.0 / math.pi) * b0**3 / 3.0
    return breaks, prefix_g, prefix_h


def gl12_remark2_moments(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G(r), H(r) for r in [b0, 1]: the ladder prefix up to r's panel, found
    by searchsorted, plus the Gauss rule over the partial panel up to r."""
    breaks, prefix_g, prefix_h = gl12_remark2_ladder()
    r = np.asarray(r, dtype=np.float64)
    idx = np.searchsorted(breaks, r, side="right") - 1
    g, h = _gl12_moments(breaks[idx], r)
    return prefix_g[idx] + g, prefix_h[idx] + h


def _cos_recip_antiderivatives(u):
    """Antiderivatives of u cos(1/u) and u^2 cos(1/u), in mpmath:
    u^2 cos/2 - u sin/2 + Ci(1/u)/2 and u^3 cos/3 - u^2 sin/6 - u cos/6 - Si(1/u)/6."""
    import mpmath as mp

    t = 1 / u
    c, s = mp.cos(t), mp.sin(t)
    return (
        u * u * c / 2 - u * s / 2 + mp.ci(t) / 2,
        u**3 * c / 3 - u * u * s / 6 - u * c / 6 - mp.si(t) / 6,
    )


def _cos_sign_above(n_points: int, i: int) -> int:
    """Sign of cos(1/u) just above the i-th of n_points: the last is the
    zero at 2/pi, above which cos(1/u) > 0, and each zero below flips it."""
    return 1 if (n_points - 1 - i) % 2 == 0 else -1


@functools.lru_cache(maxsize=1)
def _mp_remark2_zeros(cutoff: float, dps: int):
    """(points, antiderivatives, G, H): b0 and every zero of cos(1/u) in
    (b0, 1), ascending, with G and H from 0 up to each, at dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        j_max = int(math.floor(2.0 / (math.pi * cutoff)))
        b0 = mp.mpf(2.0 / (j_max * math.pi))
        zeros = [2 / ((2 * k + 1) * mp.pi) for k in range((j_max - 1) // 2, -1, -1)]
        pts = [b0] + [z for z in zeros if z > b0]
        anti = [_cos_recip_antiderivatives(u) for u in pts]
        G = [2 / mp.pi * b0**2 / 2]
        H = [2 / mp.pi * b0**3 / 3]
        for i in range(1, len(pts)):
            sign = _cos_sign_above(len(pts), i - 1)
            G.append(G[-1] + sign * (anti[i][0] - anti[i - 1][0]))
            H.append(H[-1] + sign * (anti[i][1] - anti[i - 1][1]))
        return pts, anti, G, H


def mp_remark2_moments(r, cutoff: float = 1e-4, dps: int = 30):
    """G(r), H(r) as lists of mpmath numbers at dps digits, for r in [b0, 1]:
    the [0, b0] tail through the 2/pi mean of |cos|, as the package folds it
    in, plus the exact integrals from b0 through the antiderivatives
    (Ci and Si) between consecutive zeros of cos(1/u)."""
    import bisect

    import mpmath as mp

    pts, anti, G, H = _mp_remark2_zeros(cutoff, dps)
    out_g, out_h = [], []
    with mp.workdps(dps):
        for x in np.asarray(r, dtype=np.float64).tolist():
            u = mp.mpf(x)
            i = bisect.bisect_right(pts, u) - 1
            sign = _cos_sign_above(len(pts), i)
            ag, ah = _cos_recip_antiderivatives(u)
            out_g.append(G[i] + sign * (ag - anti[i][0]))
            out_h.append(H[i] + sign * (ah - anti[i][1]))
    return out_g, out_h


# ---------------------------------------------------------------------------
# per-vector entropy loops: one eval_s call per simplex vector
# ---------------------------------------------------------------------------


def count_eval_s(d):
    """(d with eval_s wrapped, the list of sizes it was called with)."""
    calls = []

    def eval_s(r):
        calls.append(int(np.size(r)))
        return d.eval_s(r)

    return dataclasses.replace(d, eval_s=eval_s), calls


def entropy_one(d, p) -> float:
    """S(p) = sum_j s(p_j) from an eval_s call on p alone."""
    if not d.s0_zero and np.any(p == 0.0):
        raise DensityDomainError(f"density {d.label!r} has no s(0) convention")
    return math.fsum(np.asarray(d.eval_s(p), dtype=np.float64).tolist())


def reference_residual(d, P, f) -> float:
    p = marginal(P)
    pieces = [entropy_one(d, P.entries.ravel()), -entropy_one(d, p)]
    for j in range(1, P.n + 1):
        pieces.append(-f(float(p[j - 1])) * entropy_one(d, conditional(P, j)))
    return math.fsum(pieces)


def reference_sandwich(d, P) -> dict:
    """sandwich_check(d, P).to_dict() with per-vector entropies."""
    _require_sandwich_flags(d)
    s1_at_1 = float(np.asarray(d.eval_s1(1.0)))
    p = marginal(P)
    cond = [entropy_one(d, conditional(P, j)) for j in range(1, P.n + 1)]
    cb = column_bounds(d, p)
    per_col = zip(cb.r.tolist(), cb.lower.tolist(), cb.upper.tolist(), (cb.err_inf + cb.err_sup).tolist())
    divergent = bool(cb.divergent.any())
    lower_terms, upper_terms, gap_terms, tol_terms = [], [], [], [1e-9]
    for (r, lo, up, ratio_err), Sj in zip(per_col, cond):
        lower_terms.append(lo * Sj)
        upper_terms.append(up * Sj)
        gap_terms.append(up - lo)
        err = r * r * ratio_err
        tol_terms.append(err * (abs(Sj) + abs(s1_at_1)))
    gap = math.fsum(gap_terms)
    lower = math.fsum(lower_terms) + s1_at_1 * gap
    upper = math.fsum(upper_terms) - s1_at_1 * gap
    tol = math.fsum(tol_terms)
    divergent = divergent or not math.isfinite(tol)
    diff = entropy_one(d, P.entries.ravel()) - entropy_one(d, p)
    slack_lower = diff - lower
    slack_upper = upper - diff
    if divergent:
        verdict = "divergent"
    elif slack_lower >= -tol and slack_upper >= -tol:
        verdict = "pass"
    else:
        verdict = "fail"
    return {
        "diff": diff,
        "lower": lower,
        "upper": upper,
        "slack_lower": slack_lower,
        "slack_upper": slack_upper,
        "tolerance": tol,
        "verdict": verdict,
        "divergent": divergent,
    }


def reference_monotonicity(d, P) -> bool:
    return entropy_one(d, P.entries.ravel()) - entropy_one(d, marginal(P)) >= -1e-10


def reference_check_rows(block) -> None:
    """check_rows as a plain loop over Python floats: every row summed with
    its own math.fsum, and the first row off by more than SUM_TOL named."""
    if np.ndim(block) != 2 or np.shape(block)[1] < 1:
        raise InvalidDistributionError("entries must be a nonempty 1-d vector")
    rows = np.asarray(block).tolist()
    entries = [v for row in rows for v in row]
    if any(math.isnan(v) for v in entries):
        raise InvalidDistributionError("NaN entry in simplex vector")
    if any(v < 0.0 for v in entries):
        raise InvalidDistributionError("negative entry in simplex vector")
    totals = [math.fsum(row) for row in rows]
    for total in totals:
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidDistributionError(f"entries sum to {total!r}, not 1")


def simplex_vector(entries) -> np.ndarray:
    """entries as a float vector, checked as one row by reference_check_rows."""
    v = np.asarray(entries, dtype=np.float64)
    reference_check_rows(v[None])
    return v


def uniform_vector(n: int) -> np.ndarray:
    if n < 1:
        raise InvalidDistributionError("n must be >= 1")
    return simplex_vector(np.full(n, 1.0 / n))


def _random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """One normalized gamma draw per vector: pins the order of the rng stream."""
    g = rng.gamma(shape=1.0, scale=1.0, size=n)
    total = math.fsum(g.tolist())
    if total <= 0.0:
        g = np.full(n, 1.0)
        total = float(n)
    return simplex_vector(g / total)


def reference_axiom_suite(d, sizes, seed, trials, eps_seq=(1e-3, 1e-5, 1e-7)) -> dict:
    """axiom_suite(...).to_dict(), drawing and evaluating one vector at a time."""
    rng = np.random.default_rng(seed)
    modulus = {eps: 0.0 for eps in eps_seq}
    maximality_ok = True
    expandability_ok = True
    worst_gap = -math.inf
    for n in sizes:
        u_val = entropy_one(d, uniform_vector(n))
        for _ in range(trials):
            p = _random_simplex(rng, n)
            sp = entropy_one(d, p)
            gap = sp - u_val
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                maximality_ok = False
            q = _random_simplex(rng, n)
            for eps in eps_seq:
                mixed = simplex_vector((1.0 - eps) * p + eps * q)
                delta = abs(entropy_one(d, mixed) - sp)
                if delta > modulus[eps]:
                    modulus[eps] = delta
            if entropy_one(d, simplex_vector(np.append(p, 0.0))) != sp:
                expandability_ok = False
    levels = [modulus[eps] for eps in eps_seq]
    continuity_ok = (
        all(math.isfinite(v) for v in levels)
        and all(b <= max(a, 1e-12) for a, b in zip(levels, levels[1:]))  # 1e-12 and below: rounding
        and levels[-1] <= 1e-2
    )
    return {
        "continuity": continuity_ok,
        "maximality": maximality_ok,
        "expandability": expandability_ok,
        "modulus": {f"{eps:g}": v for eps, v in modulus.items()},
        "worst_maximality_gap": worst_gap,
        "all_pass": continuity_ok and maximality_ok and expandability_ok,
    }


# ---------------------------------------------------------------------------
# psi = -t s'''/s'' point by point, theta as its max, and s'' in mpmath
# ---------------------------------------------------------------------------


# the reference's own grid over (0, 1]: wider and finer than the scan's, and
# not the scan's points
_THETA_REF_GRID = np.geomspace(1e-8, 1.0, 4001)
_THETA_REF_GRID[-1] = 1.0


def reference_psi(d: Density) -> Callable[[float], float]:
    """psi(t) = -t s'''(t)/s''(t) at one float t, in Python floats, from one
    eval_s2 and one eval_s3 call each."""

    def psi(t: float) -> float:
        return -t * float(np.asarray(d.eval_s3(t))) / float(np.asarray(d.eval_s2(t)))

    return psi


def reference_theta(d: Density) -> float:
    """theta_phi(d) as the max of psi over _THETA_REF_GRID, one point at a
    time.  Refuses, property by property as theta_phi does: s'' not negative
    and normal, s''' not zero or normal, psi not finite, psi < 0 (phi not
    nondecreasing); -0.0 reads 0.0."""
    if d.eval_s3 is None:
        raise ValueError(f"phi' undefined: density {d.label!r} declares no s'''")
    tiny = float(np.finfo(np.float64).tiny)
    s2 = [float(np.asarray(d.eval_s2(t))) for t in _THETA_REF_GRID.tolist()]
    s3 = [float(np.asarray(d.eval_s3(t))) for t in _THETA_REF_GRID.tolist()]
    with np.errstate(all="ignore"):
        psi = [float(np.float64(-t) * c / b) for t, b, c in zip(_THETA_REF_GRID.tolist(), s2, s3)]
    for ok, what in (
        ([-math.inf < b <= -tiny for b in s2], "phi undefined: s'' not negative and normal"),
        ([c == 0.0 or tiny <= abs(c) < math.inf for c in s3], "phi' undefined: s''' not zero or normal"),
        ([math.isfinite(p) for p in psi], "psi not finite"),
        ([p >= 0.0 for p in psi], "phi not nondecreasing: psi < 0"),
    ):
        if not all(ok):
            raise ValueError(f"{what} at t={float(_THETA_REF_GRID[ok.index(False)])}")
    return max(psi) + 0.0


def mp_curvature(kind: str, q: float | None = None) -> Callable:
    """s'' of a catalog density as an mpmath function, exact to the working
    precision: mpmath.diff of it is the oracle for eval_s3."""
    import mpmath as mp

    if kind == "bg":
        return lambda t: -1 / t
    if kind == "tsallis":
        qq = mp.mpf(q)
        return lambda t: -qq * t ** (qq - 2)
    if kind == "remark5":
        return lambda t: -(mp.pi / 4) * mp.cot(mp.pi * t / 4)
    if kind == "remark2":
        return lambda t: -t * (abs(mp.cos(1 / t)) + t)
    raise ValueError(f"no catalog density {kind!r}")


def mixed_density(d1: Density, d2: Density) -> Density:
    """(d1 + d2)/2, evaluator by evaluator, s''' included.  Of two tsallis
    densities with q1 != q2 it is concave with a psi that falls in t, so no
    coefficient function exists: recover_f must say not_power."""

    def half_sum(f1, f2):
        return lambda r: 0.5 * (np.asarray(f1(r)) + np.asarray(f2(r)))

    return Density(
        label=f"mix({d1.label}, {d2.label})",
        eval_s=half_sum(d1.eval_s, d2.eval_s),
        eval_s1=half_sum(d1.eval_s1, d2.eval_s1),
        eval_s2=half_sum(d1.eval_s2, d2.eval_s2),
        eval_s3=half_sum(d1.eval_s3, d2.eval_s3),
        s0_zero=d1.s0_zero and d2.s0_zero,
        s1_zero=d1.s1_zero and d2.s1_zero,
        concave=d1.concave and d2.concave,
    )


# ---------------------------------------------------------------------------
# test-only constructions
# ---------------------------------------------------------------------------


def rebuild(P) -> np.ndarray:
    """The joint's entries from its factors: column j is conditional(P, j) * p_j."""
    cols = [conditional(P, j) for j in range(1, P.n + 1)]
    return np.stack(cols, axis=1) * marginal(P)


def shifted_density(d: Density) -> Density:
    """r -> s(r) - s(1) r: kills the value at 1, keeps the curvature.

    Joint-minus-marginal entropy differences are invariant under this shift.
    """
    s1_val = float(np.asarray(d.eval_s(1.0), dtype=np.float64))

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        return np.asarray(d.eval_s(r)) - s1_val * r

    def eval_s1(r):
        return np.asarray(d.eval_s1(r)) - s1_val

    return Density(
        label=f"shifted({d.label})",
        eval_s=eval_s,
        eval_s1=eval_s1,
        eval_s2=d.eval_s2,
        eval_s3=d.eval_s3,
        s0_zero=d.s0_zero,
        s1_zero=True,
        concave=d.concave,
        probe_points=d.probe_points,
    )


def three_by_two_family(r: float, xi: float, x: float) -> JointMatrix:
    """The 3x2 construction behind the twice-differentiated relation.

    Column 1 holds (rx, r(xi - x), r(1 - xi)); column 2 is uniform mass
    (1-r)/3.  Differentiating the chain rule twice in x over this family
    isolates the curvature relation tested by check_twice_equation.
    """
    if not (0.0 < x < xi <= 1.0):
        raise ValueError(f"need 0 < x < xi <= 1, got x={x!r}, xi={xi!r}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"need r in (0, 1), got {r!r}")
    col2 = (1.0 - r) / 3.0
    return JointMatrix(
        [
            [r * x, col2],
            [r * (xi - x), col2],
            [r * (1.0 - xi), col2],
        ]
    )


def check_twice_equation(
    d: Density, f_candidate: Callable[[float], float], r: float, xi: float, x: float
) -> float:
    """Residual of r^2 {s''(rx) + s''(r(xi-x))} = f(r) {s''(x) + s''(xi-x)}.

    Vanishes for all admissible (r, xi, x) iff f_candidate matches the
    density's coefficient law; x = xi/2 reduces it to the single-ratio form
    f(r)/r^2 = s''(r xi/2)/s''(xi/2).
    """
    if not (0.0 < x < xi <= 1.0):
        raise ValueError(f"need 0 < x < xi <= 1, got x={x!r}, xi={xi!r}")
    if not 0.0 < r < 1.0:
        raise ValueError(f"need r in (0, 1), got {r!r}")
    s2 = d.eval_s2
    lhs = r * r * (float(np.asarray(s2(r * x))) + float(np.asarray(s2(r * (xi - x)))))
    rhs = f_candidate(r) * (float(np.asarray(s2(x))) + float(np.asarray(s2(xi - x))))
    return lhs - rhs
