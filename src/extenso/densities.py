"""Density catalog: scalar functions s on [0,1] and entropy evaluation.

A functional S(p) = sum_j s(p_j) is determined by its density s.  Densities
carry evaluators for s, s', s'' (vectorized: float or ndarray in, matching
shape out) plus regularity flags consumed by the verification layers.

Catalog kinds (also the JSON wire tokens): "bg", "tsallis", "remark2",
"remark5".  The latter two are integral-defined stress densities: remark2 has
curvature -r(|cos(1/r)|+r), whose curvature half-ratio blows up along
t_k = 1/((k+1/2)pi); remark5 integrates -log sin((pi/4) t), whose curvature
half-ratio stays pinned inside [2, 1+sqrt(2)].
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _kernels
from .simplex import SimplexVector

__all__ = [
    "Density",
    "EntropyFunctional",
    "DensityDomainError",
    "bg_density",
    "tsallis_density",
    "remark2_density",
    "remark5_density",
    "shifted_density",
    "entropy",
    "entropies",
    "slice_entropies",
    "density_from_spec",
    "canonical_grid",
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
    params: Mapping[str, float] = field(default_factory=dict)
    # extra t-values worth sampling in curvature-ratio scans (stress points)
    probe_points: tuple[float, ...] = ()


@dataclass(frozen=True)
class EntropyFunctional:
    density: Density


def canonical_grid(n: int = 2048) -> np.ndarray:
    """The sampling grid {k/n : 1 <= k <= n} over (0, 1]."""
    return np.arange(1, n + 1, dtype=np.float64) / n


def entropies(F: EntropyFunctional, vectors: Sequence[SimplexVector]) -> list[float]:
    """[S(p) for p in vectors]: ``slice_entropies`` over their concatenation."""
    if not vectors:
        return []
    flat = np.concatenate([p.entries for p in vectors])
    return slice_entropies(F, flat, [p.entries.size for p in vectors])


def slice_entropies(F: EntropyFunctional, flat: np.ndarray, lengths: Sequence[int]) -> list[float]:
    """S over consecutive slices of flat, one per length, S(p) = sum_j s(p_j).

    One eval_s call covers flat; each sum is a math.fsum over its own slice,
    so every value equals a call on that slice alone.  The caller vouches
    that each slice is a simplex point.  Zero entries require the s0_zero
    flag (the s(0) = 0 convention).
    """
    if not len(lengths):
        return []
    d = F.density
    if not d.s0_zero and np.any(flat == 0.0):
        raise DensityDomainError(f"density {d.label!r} has no s(0) convention")
    vals = np.asarray(d.eval_s(flat), dtype=np.float64).tolist()
    out = []
    start = 0
    for size in lengths:
        stop = start + size
        out.append(math.fsum(vals[start:stop]))
        start = stop
    return out


def entropy(F: EntropyFunctional, p: SimplexVector) -> float:
    """S(p) = sum_j s(p_j): the one-vector case of ``entropies``."""
    return entropies(F, [p])[0]


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
    s''(r) = -q r^(q-2).
    """
    q = float(q)
    if not q > 0.0 or q == 1.0:
        raise ValueError(f"q must be > 0 and != 1, got {q!r}")

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        return (r - r**q) / (q - 1.0)

    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        return (1.0 - q * r ** (q - 1.0)) / (q - 1.0)

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
        params={"q": q},
    )


# ---------------------------------------------------------------------------
# remark5: s(r) = -int_0^r log sin((pi/4) t) dt + C r
# ---------------------------------------------------------------------------

_REMARK5_C: float | None = None


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


def _remark5_constant() -> float:
    global _REMARK5_C
    if _REMARK5_C is None:
        _REMARK5_C = float(_remark5_logsin_integral(1.0))
    return _REMARK5_C


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
_REMARK2_TABLES: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _remark2_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(breaks, G_prefix, H_prefix) with G = int u|cos(1/u)|, H = int u^2|cos(1/u)|.

    breaks is ascending, ending at 1.0; prefix[i] holds the integral from 0 to
    breaks[i].
    """
    global _REMARK2_TABLES
    if _REMARK2_TABLES is not None:
        return _REMARK2_TABLES
    j_max = int(math.floor(2.0 / (math.pi * _LADDER_CUTOFF)))
    j = np.arange(j_max, 0, -1, dtype=np.float64)
    breaks = np.concatenate([2.0 / (j * math.pi), [1.0]])
    g_panels, h_panels = _kernels.osc_panel_moments(breaks[:-1], breaks[1:])
    b0 = breaks[0]
    g_prefix = np.concatenate([[0.0], np.cumsum(g_panels)]) + _MEAN_ABS_COS * b0 * b0 / 2.0
    h_prefix = np.concatenate([[0.0], np.cumsum(h_panels)]) + _MEAN_ABS_COS * b0**3 / 3.0
    _REMARK2_TABLES = (breaks, g_prefix, h_prefix)
    return _REMARK2_TABLES


def _remark2_moments(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G(r), H(r) for array r in [0, 1]: ladder prefix plus a partial panel."""
    breaks, g_prefix, h_prefix = _remark2_tables()
    r = np.asarray(r, dtype=np.float64)
    flat = np.atleast_1d(r).ravel()
    G = np.empty(flat.shape)
    H = np.empty(flat.shape)
    below = flat < breaks[0]
    if below.any():
        rb = flat[below]
        G[below] = _MEAN_ABS_COS * rb * rb / 2.0
        H[below] = _MEAN_ABS_COS * rb**3 / 3.0
    above = ~below
    if above.any():
        ra = flat[above]
        idx = np.searchsorted(breaks, ra, side="right") - 1
        pg, ph = _kernels.osc_panel_moments(breaks[idx], ra)
        G[above] = g_prefix[idx] + pg
        H[above] = h_prefix[idx] + ph
    return G.reshape(np.shape(r)), H.reshape(np.shape(r))


def remark2_density() -> Density:
    """Catalog density with curvature s''(r) = -r(|cos(1/r)| + r).

    s' and s come from the panel-ladder quadrature of s'' (absolute error
    <= 1e-9; in practice ~1e-12), using s(r) = r s'(r) - int_0^r u s''(u) du.
    The curvature half-ratio grows without bound along t_k = 1/((k+1/2) pi),
    which the probe_points expose to extremum scans.
    """

    def eval_s2(r):
        r = np.asarray(r, dtype=np.float64)
        safe = np.where(r > 0.0, r, 1.0)
        return np.where(r > 0.0, -safe * (np.abs(np.cos(1.0 / safe)) + safe), 0.0)

    def eval_s1(r):
        r = np.asarray(r, dtype=np.float64)
        G, _ = _remark2_moments(r)
        return -(G + r**3 / 3.0)

    def eval_s(r):
        r = np.asarray(r, dtype=np.float64)
        G, H = _remark2_moments(r)
        s1 = -(G + r**3 / 3.0)
        M = -(H + r**4 / 4.0)
        return r * s1 - M

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


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


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
        s0_zero=d.s0_zero,
        s1_zero=True,
        concave=d.concave,
        params=dict(d.params, shift=s1_val),
        probe_points=d.probe_points,
    )


# ---------------------------------------------------------------------------
# JSON density specs: {"kind": "...", "params": {...}}
# ---------------------------------------------------------------------------

_CATALOG = {
    "bg": lambda params: bg_density(),
    "tsallis": lambda params: tsallis_density(params["q"]),
    "remark2": lambda params: remark2_density(),
    "remark5": lambda params: remark5_density(),
}


def density_from_spec(spec: str | Mapping) -> Density:
    """Resolve a density spec (JSON text or mapping) to a catalog density."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, Mapping):
        raise ValueError("a density spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in _CATALOG:
        raise ValueError(f"unknown density kind {kind!r}; expected one of {sorted(_CATALOG)}")
    params = spec.get("params", {}) or {}
    try:
        return _CATALOG[kind](params)
    except KeyError as e:
        raise ValueError(f"density kind {kind!r} missing parameter {e}") from e
