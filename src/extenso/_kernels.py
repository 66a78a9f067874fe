"""Hot numeric kernels of the integral-defined catalog densities.

Two fixed Gauss rules carry the quadrature: the oscillation panel moments
behind remark2's s and s', and the log-sinc integral behind remark5's s.
``densities`` calls both once per array of points, so each kernel works on a
whole batch in one vectorized numpy expression.

All kernels are pure functions of arrays with a fixed reduction order, so
repeated calls are bit-reproducible.
"""
from __future__ import annotations

import numpy as np

QUARTER_PI = float(np.pi / 4.0)


# 12 nodes resolve one half-oscillation panel far below 1e-12; 32 nodes make
# the analytic log-sinc integrand exact to machine precision on [0, 1].
GL12_X, GL12_W = np.polynomial.legendre.leggauss(12)
GL32_X, GL32_W = np.polynomial.legendre.leggauss(32)


def osc_panel_moments(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel integrals of u*|cos(1/u)| and u^2*|cos(1/u)| over [lo_i, hi_i].

    Panels must not straddle a zero or extremum of cos(1/u); the ladder
    construction in ``densities`` guarantees that, which keeps the fixed
    Gauss rule spectrally accurate.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    half = 0.5 * (hi - lo)
    u = 0.5 * (hi + lo)[:, None] + half[:, None] * GL12_X[None, :]
    f = u * np.abs(np.cos(1.0 / u))
    g = (f * GL12_W).sum(axis=1) * half
    h = ((f * u) * GL12_W).sum(axis=1) * half
    return g, h


def logsinc_integral(r: np.ndarray) -> np.ndarray:
    """Integral over [0, r_i] of log(sin(a t) / (a t)) with a = pi/4.

    The integrand is analytic on [0, 1] and vanishes at 0, so a fixed
    32-node Gauss rule is exact to machine precision.  Entries with r_i = 0
    must be masked out by the caller.
    """
    r = np.asarray(r, dtype=np.float64)
    half = 0.5 * r
    t = half[..., None] * (GL32_X + 1.0)
    x = QUARTER_PI * t
    f = np.log(np.sin(x) / x)
    return (f * GL32_W).sum(axis=-1) * half
