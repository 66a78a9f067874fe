"""Hot numeric kernels of the integral-defined catalog densities.

A fixed Gauss rule carries the oscillation panel moments behind remark2's s
and s'; a power series carries the log-sinc integral behind remark5's s.
The Gauss rule runs when ``densities`` builds remark2's panel table (its node
values also give each panel's antiderivative polynomial, through
``gl12_antiderivative_matrix``); remark2 points evaluate those polynomials
with ``horner_rows``.  ``fsum_rows`` sums rows exactly rounded.  Each kernel
works on a whole batch in vectorized numpy expressions.

All kernels are pure functions of arrays with a fixed reduction order, so
repeated calls are bit-reproducible.
"""
from __future__ import annotations

import math

import numpy as np

QUARTER_PI = float(np.pi / 4.0)


# 12 nodes resolve one half-oscillation panel far below 1e-12.  The rule is
# numpy.polynomial.legendre.leggauss(12) to the last bit, stored as literals so
# that importing the package does not load numpy.polynomial.
GL12_X = (
    -0.9815606342467192,
    -0.9041172563704748,
    -0.7699026741943047,
    -0.5873179542866175,
    -0.3678314989981802,
    -0.1252334085114689,
    0.1252334085114689,
    0.3678314989981802,
    0.5873179542866175,
    0.7699026741943047,
    0.9041172563704748,
    0.9815606342467192,
)
GL12_W = (
    0.04717533638651141,
    0.10693932599531907,
    0.16007832854334642,
    0.20316742672306573,
    0.2334925365383546,
    0.2491470458134027,
    0.2491470458134027,
    0.2334925365383546,
    0.20316742672306573,
    0.16007832854334642,
    0.10693932599531907,
    0.04717533638651141,
)

_GL12_X = np.array(GL12_X)
_GL12_W = np.array(GL12_W)

# log(sin x / x) = sum_n (-1)^n 2^(2n-1) B_2n x^2n / (n (2n)!) with Bernoulli
# numbers B_2n.  Put x = a t, a = pi/4, and integrate over [0, r]: the
# integral is r * sum_n LOGSINC_SERIES[n-1] r^2n, with coefficient
# (-1)^n 2^(2n-1) B_2n a^2n / (n (2n)! (2n+1)), n = 1..18, correctly rounded.
# Successive terms shrink by at least 16x for r <= 1 (x <= pi/4 against the
# radius of convergence pi), so the dropped tail is below 2e-26.
LOGSINC_SERIES = (
    -0.03426945972600472,
    -0.0004227825131684134,
    -1.1827370047252245e-05,
    -4.255834605738086e-07,
    -1.7356778493843392e-08,
    -7.643501625254429e-10,
    -3.548112824328807e-11,
    -1.712016189942384e-12,
    -8.509924431166576e-14,
    -4.330931282839732e-15,
    -2.2467759847885305e-16,
    -1.1842379635237765e-17,
    -6.326057214639349e-19,
    -3.418174349633954e-20,
    -1.8652940619273145e-21,
    -1.0267066029715345e-22,
    -5.694339141536835e-24,
    -3.1795531053552037e-25,
)


def osc_panel_moments(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-panel integrals g, h of u*|cos(1/u)| and u^2*|cos(1/u)| over [lo_i, hi_i].

    Panels must not straddle a zero or extremum of cos(1/u); the ladder
    construction in ``densities`` guarantees that, which keeps the fixed
    Gauss rule spectrally accurate.  Returns (g, h, g_nodes, h_nodes), the
    last two the (panels, 12) integrand values at the nodes, which
    ``gl12_antiderivative_matrix`` turns into antiderivatives.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    half = 0.5 * (hi - lo)
    # u = center + half * x and f = u |cos(1/u)|, in place: a cold table
    # build spends as much on fresh pages as on arithmetic
    u = half[:, None] * _GL12_X
    u += 0.5 * (hi + lo)[:, None]
    f = np.divide(1.0, u)
    np.cos(f, out=f)
    np.abs(f, out=f)
    f *= u
    fu = np.multiply(f, u, out=u)
    terms = f * _GL12_W
    g = terms.sum(axis=1) * half
    h = np.multiply(fu, _GL12_W, out=terms).sum(axis=1) * half
    return g, h, f, fu


def gl12_antiderivative_matrix() -> np.ndarray:
    """(13, 12) matrix from values at the GL12 nodes to the ascending monomial
    coefficients, in x on [-1, 1], of the interpolant's antiderivative from -1.

    The nodes are symmetric, so the interpolant splits into an even and an
    odd part, each a degree-5 polynomial in y = x^2 through the six positive
    nodes.  One 6 x 6 inverse in y serves both and is far better conditioned
    than the 12 x 12 Vandermonde system in x: on remark2's ladder the
    resulting partial-panel integrals stay within 6e-18 of the per-point
    Gauss rule, against 1.5e-17 from the 12 x 12 inverse.
    """
    xp = np.array(GL12_X[6:])
    inv = np.linalg.inv(xp[:, None] ** (2 * np.arange(6, dtype=np.float64)))
    # node 6 + m is xp[m] and node 5 - m is -xp[m]
    interp = np.empty((12, 12))
    interp[0::2, 6:] = interp[0::2, 5::-1] = 0.5 * inv
    interp[1::2, 6:] = 0.5 * inv / xp
    interp[1::2, 5::-1] = -interp[1::2, 6:]
    k = np.arange(1, 13, dtype=np.float64)
    out = np.empty((13, 12))
    out[1:] = interp / k[:, None]
    # the constant makes the antiderivative vanish at x = -1
    out[0] = (-1.0) ** (k - 1) / k @ interp
    return out


def horner_rows(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * x^k in Horner form, coef holding ascending rows."""
    acc = coef[-1] * x
    acc += coef[-2]
    for c in coef[-3::-1]:
        acc *= x
        acc += c
    return acc


def logsinc_integral(r: np.ndarray) -> np.ndarray:
    """Integral over [0, r_i] of log(sin(a t) / (a t)) with a = pi/4.

    Evaluates LOGSINC_SERIES in Horner form in r^2 for r in [0, 1]; the
    result is within a few ulps of the exact integral.
    """
    r = np.asarray(r, dtype=np.float64)
    r2 = r * r
    acc = LOGSINC_SERIES[-1]
    for c in LOGSINC_SERIES[-2::-1]:
        acc = acc * r2 + c
    return acc * r2 * r


# math.fsum row by row beats the tree's fixed cost up to _FSUM_TREE_MIN
# entries, and up to four times as many in blocks of fewer than
# _FSUM_FEW_ROWS rows, where each tree level does little work
_FSUM_TREE_MIN = 512
_FSUM_FEW_ROWS = 32


def sums_by_loop(block: np.ndarray) -> bool:
    """Whether fsum_rows sums this block row by row rather than by the tree."""
    return block.size <= _FSUM_TREE_MIN * (4 if block.shape[0] < _FSUM_FEW_ROWS else 1)


def twosum_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a nonempty 2-d array: the float sum s of a pairwise TwoSum
    tree, the float sum e of its error terms, and whether e is exact.

    The error terms add up to the rest of the row's sum, all multiples of
    the ulp of the row's smallest nonzero entry.  While their absolute sum
    stays below that entry, e is exact, so s + e is the row's exact sum.  A
    block with an entry beyond 2^1020 / (2 width) or not finite certifies
    no row.
    """
    rows, width = block.shape
    x = block.T.copy()  # rows along the last axis: each level adds two blocks
    mag = np.abs(x)
    if not mag.max() < 2.0**1020 / (2 * width):
        return x[0], np.zeros(rows), np.zeros(rows, dtype=bool)
    smallest = np.minimum.reduce(mag, axis=0, initial=np.inf, where=mag > 0.0)
    errors = np.empty((width - 1, rows))
    n = width
    while n > 1:  # the top m entries onto the bottom m; an odd middle one waits
        m = n // 2
        a, b = x[:m], x[n - m : n]
        s = a + b
        err = errors[n - m - 1 : n - 1]  # Knuth's TwoSum: a + b - s exactly
        back = s - a
        np.subtract(a, np.subtract(s, back, out=err), out=err)
        err += np.subtract(b, back, out=back)
        x[:m] = s
        n -= m
    return x[0], errors.sum(axis=0), np.abs(errors).sum(axis=0) < smallest


def fsum_fallback(block: np.ndarray, sums: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """sums, with math.fsum of the block's row in place of every sum not
    certified exact and every zero sum (math.fsum signs a zero sum)."""
    for i in np.flatnonzero(~exact | (sums == 0.0)).tolist():
        sums[i] = math.fsum(block[i].tolist())
    return sums


def fsum_rows(block: np.ndarray) -> np.ndarray:
    """math.fsum of every row of a 2-d array, bit for bit.

    Small blocks (see sums_by_loop) go to math.fsum row by row; the rest to
    twosum_rows, whose certified rows sum to fl(s + e), the correctly
    rounded sum.  Other rows go to math.fsum, which also raises as it does.
    """
    if sums_by_loop(block):
        return np.array([math.fsum(row) for row in block.tolist()], dtype=np.float64)
    s, e, exact = twosum_rows(block)
    return fsum_fallback(block, s + e, exact)
