"""Independent oracles: entropies and envelopes computed apart from extenso.

Nothing here imports the program.  Each density gets its own route:

* tsallis(q): S(p) = (1 - sum p^q)/(q - 1), summed with math.fsum.
* remark5, s'' = -(pi/4) cot(pi r/4), s(0) = s(1) = 0: integrating twice
  gives s(r) = (2/pi) (Cl2(pi r/2) - r K), with Cl2 the Clausen function
  (mpmath.clsin) and K = Cl2(pi/2) Catalan's constant.  This is the
  identity int_0^phi log sin x dx = -Cl2(2 phi)/2 - phi log 2.
* remark2, s'' = -u(|cos(1/u)| + u), s(0) = s'(0) = 0: s'(r) = -(G(r) + r^3/3)
  and s(r) = r s'(r) + H(r) + r^4/4, with G = int_0^r u|cos(1/u)| du and
  H = int_0^r u^2|cos(1/u)| du.  After v = 1/u these are integrals of
  |cos v| v^-3 and |cos v| v^-4 from 1/r to infinity, taken with
  scipy.integrate.quad panel by panel between the zeros of cos v up to V,
  plus the tail from V on.  The tail is the mean value 2/pi times the
  weight's integral; since |cos v| - 2/pi has an antiderivative bounded by
  0.2106, integration by parts bounds the tail error by 0.43 V^-3 for G and
  0.43 V^-4 for H (below 1e-12 here).

The closed-form envelopes at r in (0, 1] are lower = r and
upper = r^2 / tan(pi r/4) for remark5 (the ratio tan(pi t/4)/tan(pi r t/4)
increases in t, from 1/r at t -> 0 to its value at t = 1), and
lower = upper = r^q for tsallis.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

mpmath.mp.dps = 20

_TWO_OVER_PI = 2.0 / math.pi


def tsallis_entropy(p, q: float) -> float:
    p = np.asarray(p, dtype=np.float64).ravel()
    return (1.0 - math.fsum((p**q).tolist())) / (q - 1.0)


def tsallis_s1_at_1(q: float) -> float:
    """s'(1) for s(r) = (r - r^q)/(q - 1)."""
    return (1.0 - q) / (q - 1.0)


def tsallis_envelope(r: float, q: float) -> tuple[float, float]:
    return r**q, r**q


class Remark5:
    """s(r) = (2/pi)(Cl2(pi r/2) - r K), in mpmath at 20 digits."""

    def __init__(self):
        self.K = mpmath.catalan

    def s(self, r: float) -> mpmath.mpf:
        if r == 0.0:
            return mpmath.mpf(0)
        r = mpmath.mpf(float(r))
        return 2 / mpmath.pi * (mpmath.clsin(2, mpmath.pi * r / 2) - r * self.K)

    def entropy(self, p) -> float:
        p = np.asarray(p, dtype=np.float64).ravel()
        return float(mpmath.fsum(self.s(x) for x in p.tolist()))

    def s1_at_1(self) -> float:
        """s'(r) = -log(2 sin(pi r/4)) - 2K/pi, at r = 1."""
        return float(-mpmath.log(2) / 2 - 2 * self.K / mpmath.pi)

    @staticmethod
    def envelope(r: float) -> tuple[float, float]:
        return r, r * r / math.tan(math.pi * r / 4.0)


class Remark2:
    """s by quadrature between the zeros of cos(1/u), with a bounded tail."""

    def __init__(self, v_max: float = 1e4):
        k_max = int(math.ceil((v_max - math.pi / 2) / math.pi))
        self.zeros = math.pi / 2 + math.pi * np.arange(k_max + 1)
        self.V = float(self.zeros[-1])
        g = [self._quad(3, a, b) for a, b in zip(self.zeros[:-1], self.zeros[1:])]
        h = [self._quad(4, a, b) for a, b in zip(self.zeros[:-1], self.zeros[1:])]
        # integral from zeros[k] to V
        self.g_from = np.append(np.cumsum(g[::-1])[::-1], 0.0)
        self.h_from = np.append(np.cumsum(h[::-1])[::-1], 0.0)
        self.g_tail = _TWO_OVER_PI / (2.0 * self.V**2)
        self.h_tail = _TWO_OVER_PI / (3.0 * self.V**3)

    @staticmethod
    def _quad(power: int, a: float, b: float) -> float:
        val, _ = integrate.quad(lambda v: abs(math.cos(v)) * v**-power, a, b,
                                epsabs=0.0, epsrel=1e-12, limit=200)
        return val

    def moments(self, r: float) -> tuple[float, float]:
        if r == 0.0:
            return 0.0, 0.0
        w = 1.0 / r
        if w >= self.V:
            return _TWO_OVER_PI * r * r / 2.0, _TWO_OVER_PI * r**3 / 3.0
        k = int(np.searchsorted(self.zeros, w))
        G = math.fsum([self._quad(3, w, self.zeros[k]), self.g_from[k], self.g_tail])
        H = math.fsum([self._quad(4, w, self.zeros[k]), self.h_from[k], self.h_tail])
        return G, H

    def s(self, r: float) -> float:
        G, H = self.moments(r)
        s1 = -(G + r**3 / 3.0)
        return math.fsum([r * s1, H, r**4 / 4.0])

    def entropy(self, p) -> float:
        p = np.asarray(p, dtype=np.float64).ravel()
        return math.fsum(self.s(x) for x in p.tolist())


def joint_parts(entries) -> tuple[np.ndarray, list[np.ndarray]]:
    """Column marginals and conditional columns of a joint grid."""
    P = np.asarray(entries, dtype=np.float64)
    cols = P.sum(axis=0)
    return cols, [P[:, j] / cols[j] for j in range(P.shape[1])]


def residual(entropy, entries, power: float = 1.0) -> float:
    """S(P) - S(marginal) - sum_j p_j^power S(conditional_j)."""
    cols, conds = joint_parts(entries)
    pieces = [entropy(np.ravel(entries)), -entropy(cols)]
    pieces += [-(float(pj) ** power) * entropy(c) for pj, c in zip(cols, conds)]
    return math.fsum(pieces)


def sandwich(entropy, envelope, s1_at_1: float, entries) -> dict:
    """diff = S(P) - S(marginal) and the envelope's two lines.

    lower = sum_j l_j S_j + s'(1) sum_j (u_j - l_j),
    upper = sum_j u_j S_j - s'(1) sum_j (u_j - l_j).
    """
    cols, conds = joint_parts(entries)
    S = [entropy(c) for c in conds]
    env = [envelope(float(pj)) for pj in cols]
    gap = math.fsum(u - l for l, u in env)
    lower = math.fsum([l * Sj for (l, _), Sj in zip(env, S)] + [s1_at_1 * gap])
    upper = math.fsum([u * Sj for (_, u), Sj in zip(env, S)] + [-s1_at_1 * gap])
    diff = math.fsum([entropy(np.ravel(entries)), -entropy(cols)])
    return {"diff": diff, "lower": lower, "upper": upper}
