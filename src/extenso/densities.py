"""Density catalog: scalar functions s on [0,1] and entropy evaluation.

A functional S(p) = sum_j s(p_j) is determined by its density s.  Densities
carry evaluators for s, s', s'' (vectorized: float or ndarray in, matching
shape out) plus regularity flags consumed by the verification layers.

Catalog kinds (also the CLI's --density choices): "bg", "tsallis" (with its
q), "remark2", "remark5".  The latter two are integral-defined stress
densities: remark2 has curvature -r(|cos(1/r)|+r), whose curvature
half-ratio blows up along t_k = 1/((k+1/2)pi); remark5 integrates
-log sin((pi/4) t), whose curvature half-ratio stays pinned inside
[2, 1+sqrt(2)].

remark2's s and s' read a panel table built on first use: a ladder of
prefix integrals and, per panel, the polynomial of G = int u|cos(1/u)| (the
antiderivative of the Gauss rule's node interpolant), that polynomial's own
antiderivative and one constant, with the ten widest panels cut into
sub-panels.  A point's panel comes from the ladder's closed form, and s' or
s from one Horner pass over the panel's polynomial, so evaluation runs no
trig at all.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .simplex import check_rows

__all__ = [
    "Density",
    "EntropyFunctional",
    "bg_density",
    "tsallis_density",
    "remark2_density",
    "remark5_density",
    "entropy",
    "joint_entropies",
]

QUARTER_PI = _kernels.QUARTER_PI


class DensityDomainError(ValueError):
    """Density evaluated outside its declared domain (e.g. s(0) undefined)."""


@dataclass(frozen=True)
class Density:
    """Scalar density with derivatives and regularity flags.

    eval_s covers [0,1]; eval_s1/eval_s2 cover (0,1].  Evaluators must be
    pure and reentrant; instances are immutable and safe to share across
    threads.
    """

    label: str
    eval_s: Callable
    eval_s1: Callable
    eval_s2: Callable
    s0_zero: bool = False
    s1_zero: bool = False
    concave: bool = False
    # extra t-values worth sampling in curvature-ratio scans (stress points)
    probe_points: tuple[float, ...] = ()


def EntropyFunctional(d: Density) -> Density:
    """The functional S(p) = sum_j s(p_j) is fixed by its density, so this
    returns d itself: every function here takes the density.  The name stays
    for the benchmark harness, which builds one per density."""
    return d


# joint_entropies hands eval_s whole joints, up to this many points a call
ENTROPY_BLOCK = 2**15


def _require_s0_convention(d: Density, values: np.ndarray) -> None:
    if not d.s0_zero and np.any(values == 0.0):
        raise DensityDomainError(f"density {d.label!r} has no s(0) convention")


def entropy(d: Density, p) -> float:
    """S(p) = sum_j s(p_j) of one simplex vector p by math.fsum, after
    check_rows on p as a one-row block; a zero entry needs the s0_zero flag."""
    p = np.asarray(p, dtype=np.float64)
    check_rows(p[None])
    _require_s0_convention(d, p)
    return math.fsum(np.asarray(d.eval_s(p), dtype=np.float64).tolist())


def joint_entropies(
    d: Density, grids: np.ndarray, marginals: np.ndarray, conditionals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S of N joints (N,), of their marginals (N,) and of their conditionals
    (N, n), from the checked blocks ``simplex.factor_grids`` returns: one
    eval_s call per block of joints (one joint may exceed ENTROPY_BLOCK) and
    one ``fsum_rows`` call per part, so each value is its vector's entropy.

    Where fsum_rows would sum the joints row by row but the conditionals by
    the tree (one or a few long joints), the joints' columns ride in the
    conditionals' tree instead: S(joint) is then math.fsum of its columns'
    exact partials s and e, the same correctly rounded sum."""
    N, m, n = grids.shape
    w = m * n
    step = max(1, ENTROPY_BLOCK // (2 * w + n))
    S_joint, S_marg, S_cond = np.empty(N), np.empty(N), np.empty((N, n))
    for a in range(0, N, step):
        b = slice(a, a + step)
        flat = np.concatenate([grids[b].reshape(-1, w), marginals[b], conditionals[b].reshape(-1, w)], axis=1)
        _require_s0_convention(d, flat)
        v = np.asarray(d.eval_s(flat.ravel()), dtype=np.float64).reshape(flat.shape)
        joints, conds = v[:, :w], v[:, w + n :].reshape(-1, m)
        S_marg[b] = _kernels.fsum_rows(v[:, w : w + n])
        if not _kernels.sums_by_loop(joints) or _kernels.sums_by_loop(conds):
            S_joint[b] = _kernels.fsum_rows(joints)
            S_cond[b] = _kernels.fsum_rows(conds).reshape(-1, n)
            continue
        k = len(conds)
        cols = joints.reshape(-1, m, n).transpose(0, 2, 1).reshape(k, m)
        s, e, exact = _kernels.twosum_rows(np.concatenate([conds, cols]))
        S_cond[b] = _kernels.fsum_fallback(conds, s[:k] + e[:k], exact[:k]).reshape(-1, n)
        whole = exact[k:].reshape(-1, n).all(axis=1)
        parts = np.concatenate([s[k:].reshape(-1, n), e[k:].reshape(-1, n)], axis=1).tolist()
        sums = np.array([math.fsum(p) if ok else 0.0 for p, ok in zip(parts, whole.tolist())])
        S_joint[b] = _kernels.fsum_fallback(joints, sums, whole)
    return S_joint, S_marg, S_cond


# ---------------------------------------------------------------------------
# closed-form catalog entries
# ---------------------------------------------------------------------------


def bg_density() -> Density:
    """s(r) = -r log r with s(0) = 0; s'(r) = -log r - 1; s''(r) = -1/r."""

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        safe = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, -safe * np.log(safe), 0.0)

    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        return -np.log(r) - 1.0

    def eval_s2(r):
        r = np.asarray(r, dtype=np.float64)
        return -1.0 / r

    return Density(
        label="bg",
        eval_s=eval_s,
        eval_s1=eval_s1,
        eval_s2=eval_s2,
        s0_zero=True,
        s1_zero=True,
        concave=True,
    )


def tsallis_density(q: float) -> Density:
    """Per-coordinate density s(r) = (r - r^q)/(q - 1), q > 0, q != 1.

    Summed over a probability vector this equals (1 - sum p_j^q)/(q - 1)
    because the entries sum to 1, and it satisfies s(0) = s(1) = 0.
    s''(r) = -q r^(q-2), as numpy gives it: -inf where r^(q-2) overflows
    (q < 2, tiny r), 0 or subnormal where it underflows (large q).

    s and s' use expm1 of a multiple of log r, exact to rounding as q nears
    1, where r - r^q cancels.  For s that argument is never positive:
    s = -r expm1((q-1) log r)/(q-1) for q > 1, r^q expm1((1-q) log r)/(q-1)
    for q < 1, and log is taken at 1 for r = 0, where s is 0.  s' takes
    r^q / r - 1 for expm1((q-1) log r) where |(q-1) log r| > 1.  Both run
    with overflow ignored: (q-1) log r is -inf for huge q at tiny r, and
    expm1 takes it to -1, the right limit.
    """
    q = float(q)
    if not 0.0 < q < math.inf or q == 1.0:
        raise ValueError(f"q must be finite, > 0 and != 1, got {q!r}")
    qm1 = q - 1.0

    @np.errstate(over="ignore")
    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        log_r = np.log(np.where(r > 0.0, r, 1.0))
        if qm1 > 0.0:
            return -r * np.expm1(qm1 * log_r) / qm1
        return r**q * np.expm1(-qm1 * log_r) / qm1

    @np.errstate(over="ignore")
    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        x = qm1 * np.log(r)
        # expm1 carries the rounding of log r and of q - 1 times |x| into
        # r^(q-1) - 1; beyond |x| = 1 r^q / r is closer and no longer cancels
        return -q * np.where(abs(x) > 1.0, r**q / r - 1.0, np.expm1(x)) / qm1 - 1.0

    def eval_s2(r):
        r = np.asarray(r, dtype=np.float64)
        return -q * r ** (q - 2.0)

    return Density(
        label=f"tsallis(q={q:g})",
        eval_s=eval_s,
        eval_s1=eval_s1,
        eval_s2=eval_s2,
        s0_zero=True,
        s1_zero=True,
        concave=True,
    )


# ---------------------------------------------------------------------------
# remark5: s(r) = -int_0^r log sin((pi/4) t) dt + C r
# ---------------------------------------------------------------------------


def _remark5_logsin_integral(r):
    """Integral over [0, r] of log sin((pi/4) t).

    Split off the exact log part: log sin(at) = log(at) + log(sin(at)/(at)),
    whose first term integrates to r log(a r) - r and whose second term is
    analytic on [0, 1] and integrates term by term through its even power
    series (``_kernels.logsinc_integral``).
    """
    r = np.asarray(r, dtype=np.float64)
    safe = np.where(r > 0.0, r, 1.0)
    exact = safe * np.log(QUARTER_PI * safe) - safe
    smooth = _kernels.logsinc_integral(safe)
    return np.where(r > 0.0, exact + smooth, 0.0)


@functools.cache
def _remark5_constant() -> float:
    return float(_remark5_logsin_integral(1.0))


def remark5_density() -> Density:
    """Catalog density with curvature s''(r) = -(pi/4) cot((pi/4) r).

    s(0) = s(1) = 0 and s'(1) < 0; the curvature half-ratio s''(t/2)/s''(t)
    spans exactly [2, 1 + sqrt(2)] over t in (0, 1].
    """
    C = _remark5_constant()

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        return -_remark5_logsin_integral(r) + C * r

    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        return -np.log(np.sin(QUARTER_PI * r)) + C

    def eval_s2(r):
        r = np.asarray(r, dtype=np.float64)
        return -QUARTER_PI / np.tan(QUARTER_PI * r)

    return Density(
        label="remark5",
        eval_s=eval_s,
        eval_s1=eval_s1,
        eval_s2=eval_s2,
        s0_zero=True,
        s1_zero=True,
        concave=True,
    )


# ---------------------------------------------------------------------------
# remark2: s''(r) = -r(|cos(1/r)| + r); s', s by quadrature ladders
# ---------------------------------------------------------------------------

# Panel ladder: breakpoints 2/(j pi) are exactly the zeros (odd j) and extrema
# (even j) of cos(1/u), so |cos(1/u)| is smooth inside every panel.  The ladder
# stops where the breakpoints drop below b0 = 1e-4 (6 366 panels); the tail
# [0, b0] is folded in via the 2/pi mean of |cos|, an absolute error of at
# most 0.43 b0^3, about 4e-13.
_LADDER_CUTOFF = 1e-4
_MEAN_ABS_COS = 2.0 / math.pi
# The ten widest panels, j <= 10 (r >= 2/(10 pi) ~ 0.064), are cut into
# sub-panels: a break's ladder step y = j_max - i is piecewise linear in
# x = 2/(pi r) through these knots, y = x on the narrow panels, then 2, 4, 32
# and 256 steps per unit of x below x = 10, 4, 3 and 1.  The knots sit at
# integer x, so each 2/(j pi) stays a break.  The antiderivative
# coefficients' rounding grows with a panel's width times u|cos(1/u)|; on
# this ladder a partial panel strays from the per-point Gauss rule by at
# most 3e-17 (sub-panels) and 5e-18 (narrow panels).
_LADDER_X = np.array([0.0, 1.0, 3.0, 4.0, 10.0, 2.0**40])
_LADDER_Y = np.array([-326.0, -70.0, -6.0, -2.0, 10.0, 2.0**40])
_WIDE_PANELS = 10
# points per partial-panel pass of _remark2_moments
_REMARK2_CHUNK = 2**14


class _Remark2Tables(NamedTuple):
    """The panel ladder of G = int u|cos(1/u)| and H = int u^2|cos(1/u)|.

    breaks holds each panel's left end, ascending, with +inf appended: the
    top panel ends at 1.0.  prefix_g[i] and prefix_h[i] hold the integrals
    from 0 to breaks[i].  With x = r - center[i], G(r) is prefix_g[i] plus
    the degree-12 polynomial with ascending coefficients coef[:, i].  Its
    antiderivative R_i(x) is x times the polynomial with coefficients
    anti[k, i] = coef[k, i] / (k + 1), and since (H - rG)' = -G,
    H(r) - r G(r) = const[i] - prefix_g[i] r - R_i(x), with
    const[i] = prefix_h[i] + R_i(breaks[i] - center[i]).
    """

    breaks: np.ndarray
    prefix_g: np.ndarray
    prefix_h: np.ndarray
    j_max: int
    center: np.ndarray
    coef: np.ndarray
    anti: np.ndarray
    const: np.ndarray


@functools.cache
def _remark2_tables() -> _Remark2Tables:
    """The ladder, built on first use from one Gauss-rule pass over its panels.

    The rule's node values give both the prefix sums and, through the
    interpolant at G's nodes, each panel's polynomial for G; H enters only
    through its prefix sums, in const.  6 356 narrow panels and 174
    sub-panels of the ten widest: coef and anti hold (13, 6 530)
    coefficients each, about 1.36 MB together.
    """
    j_max = int(math.floor(2.0 / (math.pi * _LADDER_CUTOFF)))
    # steps y down to the last break below r = 1; their x are exact, as every
    # slope is a power of two
    y = np.arange(j_max, math.ceil(np.interp(2.0 / math.pi, _LADDER_X, _LADDER_Y)) - 1, -1.0)
    x = np.interp(y, _LADDER_Y, _LADDER_X)
    edges = np.concatenate([2.0 / (x * math.pi), [1.0]])
    lo, hi = edges[:-1], edges[1:]
    g_panels, h_panels, g_nodes = _kernels.osc_panel_moments(lo, hi)
    b0 = edges[0]
    g_prefix = np.concatenate([[0.0], np.cumsum(g_panels[:-1])]) + _MEAN_ABS_COS * b0 * b0 / 2.0
    h_prefix = np.concatenate([[0.0], np.cumsum(h_panels[:-1])]) + _MEAN_ABS_COS * b0**3 / 3.0
    # the integral over [lo, r] is half * A(x), x = (r - center) / half, with
    # A the antiderivative of the node interpolant; fold half^(1 - k), from
    # running powers of 1/half, into the coefficient of x^k to evaluate in
    # r - center directly
    half = 0.5 * (hi - lo)
    center = 0.5 * (hi + lo)
    coef = _kernels.gl12_antiderivative_matrix() @ g_nodes.T
    coef[0] *= half
    inv = 1.0 / half
    power = inv.copy()
    for row in coef[2:]:
        row *= power
        power *= inv
    # fl(lo - center) is not -half, which costs up to 4e-17 on a sub-panel:
    # there the constant is solved to make the polynomial vanish at lo
    wide = j_max - _WIDE_PANELS
    sub = coef[:, wide:]
    sub[0] = 0.0
    sub[0] = -_kernels.horner_rows(sub, lo[wide:] - center[wide:])
    anti = coef / np.arange(1.0, len(coef) + 1.0)[:, None]
    x_lo = lo - center
    const = h_prefix + x_lo * _kernels.horner_rows(anti, x_lo)
    breaks = np.append(lo, math.inf)
    return _Remark2Tables(breaks, g_prefix, h_prefix, j_max, center, coef, anti, const)


def _remark2_panel(r: np.ndarray) -> np.ndarray:
    """Ladder index of each r >= b0: searchsorted(breaks, r, "right") - 1.

    Read off the closed form: ladder step y, piecewise linear in x = 2/(pi r),
    gives index j_max - ceil(y), then moved by one where an exact comparison
    with breaks says the estimate rounded across a break.  NaN and r >= 1
    map to the top panel.
    """
    t = _remark2_tables()
    top = len(t.center) - 1
    est = t.j_max - np.ceil(np.interp(2.0 / math.pi / r, _LADDER_X, _LADDER_Y))
    idx = np.fmax(np.fmin(est, top), 0.0).astype(np.intp)
    idx -= t.breaks[idx] > r
    idx += t.breaks[idx + 1] <= r
    return idx


def _remark2_moments(r: np.ndarray, of_s: bool) -> np.ndarray:
    """G(r) for array r in [0, 1], or with of_s H(r) - r G(r): a ladder
    prefix plus one Horner pass over the point's partial panel, and the mean
    tail below b0.  The partial panels run _REMARK2_CHUNK points at a time,
    which bounds the gathered coefficients (13 floats a point)."""
    t = _remark2_tables()
    r = np.asarray(r, dtype=np.float64)
    flat = np.atleast_1d(r).ravel()
    ra = np.maximum(flat, t.breaks[0])
    idx = _remark2_panel(ra)
    coef = t.anti if of_s else t.coef
    out = np.empty_like(ra)
    for a in range(0, ra.size, _REMARK2_CHUNK):
        c = slice(a, a + _REMARK2_CHUNK)
        i, rc = idx[c], ra[c]
        x = rc - t.center[i]
        part = _kernels.horner_rows(np.take(coef, i, axis=1), x)
        if of_s:
            part *= x
            out[c] = t.const[i] - t.prefix_g[i] * rc - part
        else:
            out[c] = t.prefix_g[i] + part
    below = flat < t.breaks[0]
    if below.any():
        rb = flat[below]
        out[below] = -_MEAN_ABS_COS * rb**3 / 6.0 if of_s else _MEAN_ABS_COS * rb * rb / 2.0
    return out.reshape(r.shape)


def remark2_density() -> Density:
    """Catalog density with curvature s''(r) = -r(|cos(1/r)| + r).

    s' and s come from the panel-ladder quadrature of s'' (absolute error
    <= 1e-9; in practice ~1e-12): s'(r) = -(G + r^3/3) and
    s(r) = r s'(r) + H + r^4/4 = (H - r G) - r^4/12, with G and H the
    integrals of u|cos(1/u)| and u^2|cos(1/u)| from 0 to r; see
    ``_Remark2Tables`` for how a point's partial panel is evaluated.
    The curvature half-ratio grows without bound along t_k = 1/((k+1/2) pi),
    which the probe_points expose to extremum scans.
    """

    def eval_s2(r):
        r = np.asarray(r, dtype=np.float64)
        safe = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, -safe * (np.abs(np.cos(1.0 / safe)) + safe), 0.0)

    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        return -(_remark2_moments(r, of_s=False) + r**3 / 3.0)

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        return _remark2_moments(r, of_s=True) - r**4 / 12.0

    k = np.arange(1, 65, dtype=np.float64)
    probes = tuple((1.0 / ((k + 0.5) * math.pi)).tolist())

    return Density(
        label="remark2",
        eval_s=eval_s,
        eval_s1=eval_s1,
        eval_s2=eval_s2,
        s0_zero=True,
        s1_zero=False,
        concave=True,
        probe_points=probes,
    )
