"""Reference numerics for the tests: quadrature, finite differences, a
one-function view of the extremum scan, and per-vector entropy loops.

None of this runs in the package.  The two quadrature rules share no code
path beyond the integrand, so the tests use them as independent oracles for
the densities' closed forms and integral identities.  The per-vector loops
evaluate each entropy with its own eval_s call, which the package's batched
evaluation must reproduce bit for bit.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from extenso.bounds import column_bounds
from extenso.densities import DensityDomainError
from extenso.extensivity import _require_sandwich_flags
from extenso.numerics import OptResult, scan_extrema
from extenso.simplex import SimplexVector, conditional, marginal, uniform_vector


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


def global_extremum(
    h,
    mode: str,
    t_min: float = 1e-6,
    grid_n: int = 2048,
    probe_points: tuple[float, ...] = (),
    refine: bool = True,
) -> OptResult:
    """Infimum or supremum of a 1-d h over (0, 1] truncated at t_min: the
    one-row case of scan_extrema."""
    if mode not in ("inf", "sup"):
        raise ValueError("mode must be 'inf' or 'sup'")

    def one_row(t):
        return np.asarray(h(np.ravel(t)), dtype=np.float64).reshape(1, -1)

    [(lo, hi)] = scan_extrema(one_row, t_min, grid_n, probe_points, refine)
    return lo if mode == "inf" else hi


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


def entropy_one(F, p) -> float:
    """S(p) = sum_j s(p_j) from an eval_s call on p alone."""
    d = F.density
    if not d.s0_zero and np.any(p.entries == 0.0):
        raise DensityDomainError(f"density {d.label!r} has no s(0) convention")
    return math.fsum(np.asarray(d.eval_s(p.entries), dtype=np.float64).tolist())


def _flat(P) -> SimplexVector:
    return SimplexVector(P.entries.ravel())


def reference_residual(F, P, f) -> float:
    p = marginal(P)
    pieces = [entropy_one(F, _flat(P)), -entropy_one(F, p)]
    for j in range(1, P.n + 1):
        pieces.append(-f(float(p.entries[j - 1])) * entropy_one(F, conditional(P, j)))
    return math.fsum(pieces)


def reference_sandwich(F, P, cfg=None) -> dict:
    """sandwich_check(F, P, cfg).to_dict() with per-vector entropies."""
    d = F.density
    _require_sandwich_flags(d)
    s1_at_1 = float(np.asarray(d.eval_s1(1.0)))
    p = marginal(P)
    cond = [entropy_one(F, conditional(P, j)) for j in range(1, P.n + 1)]
    per_col = column_bounds(d, p.entries, cfg)
    divergent = any(cb.divergent for cb in per_col)
    lower_terms, upper_terms, gap_terms, tol_terms = [], [], [], [1e-9]
    for cb, Sj in zip(per_col, cond):
        lower_terms.append(cb.lower * Sj)
        upper_terms.append(cb.upper * Sj)
        gap_terms.append(cb.upper - cb.lower)
        err = cb.r * cb.r * (cb.lower_meta.est_error + cb.upper_meta.est_error)
        tol_terms.append(err * (abs(Sj) + abs(s1_at_1)))
    gap = math.fsum(gap_terms)
    lower = math.fsum(lower_terms) + s1_at_1 * gap
    upper = math.fsum(upper_terms) - s1_at_1 * gap
    tol = math.fsum(tol_terms)
    diff = entropy_one(F, _flat(P)) - entropy_one(F, p)
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


def reference_monotonicity(F, P) -> bool:
    return entropy_one(F, _flat(P)) - entropy_one(F, marginal(P)) >= -1e-10


def _random_simplex(rng: np.random.Generator, n: int) -> SimplexVector:
    """One normalized gamma draw per vector: pins the order of the rng stream."""
    g = rng.gamma(shape=1.0, scale=1.0, size=n)
    total = math.fsum(g.tolist())
    if total <= 0.0:
        g = np.full(n, 1.0)
        total = float(n)
    return SimplexVector(g / total)


def reference_axiom_suite(F, sizes, seed, trials, eps_seq=(1e-3, 1e-5, 1e-7)) -> dict:
    """axiom_suite(...).to_dict(), drawing and evaluating one vector at a time."""
    rng = np.random.default_rng(seed)
    modulus = {eps: 0.0 for eps in eps_seq}
    maximality_ok = True
    expandability_ok = True
    worst_gap = -math.inf
    for n in sizes:
        u_val = entropy_one(F, uniform_vector(n))
        for _ in range(trials):
            p = _random_simplex(rng, n)
            sp = entropy_one(F, p)
            gap = sp - u_val
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                maximality_ok = False
            q = _random_simplex(rng, n)
            for eps in eps_seq:
                mixed = SimplexVector((1.0 - eps) * p.entries + eps * q.entries)
                delta = abs(entropy_one(F, mixed) - sp)
                if delta > modulus[eps]:
                    modulus[eps] = delta
            if entropy_one(F, SimplexVector(np.append(p.entries, 0.0))) != sp:
                expandability_ok = False
    levels = [modulus[eps] for eps in eps_seq]
    continuity_ok = (
        all(math.isfinite(v) for v in levels)
        and all(b <= a for a, b in zip(levels, levels[1:]))
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
