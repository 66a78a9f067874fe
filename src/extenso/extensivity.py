"""Extensivity residuals, the two-sided sandwich verifier, power-law
coefficient recovery, and the axiom property suite.

The residual measures how far a coefficient function f is from satisfying the
chain rule S(joint) = S(marginal) + sum_j f(p_j) S(conditional_j).  The
sandwich verifier checks the curvature-ratio envelope against the measured
joint-minus-marginal difference, widening the verdict by the scan's one-sided
grid error so a pass stays sound.  Coefficient recovery probes whether the
chain rule can hold for any f at all: the candidate r^2 s''(rt)/s''(t) is
free of t exactly when psi = -t s'''/s'' is constant, which forces a power
law, whose exponent and closed-form reconstruction are then reported.
"""
from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._kernels import fsum_rows
# coefficient_bounds stays importable from here: perfbench/tracer.py patches it
from .bounds import CoefficientBounds, coefficient_bounds, column_bounds, psi_on_grid  # noqa: F401
# entropy, marginal and conditional stay importable from here: perfbench/tracer.py patches them
from .densities import Density, entropy, joint_entropies  # noqa: F401
from .numerics import _GRID, T_MIN
from .simplex import InvalidDistributionError, JointMatrix, conditional, marginal  # noqa: F401

__all__ = [
    "extensivity_residual",
    "residual_block",
    "sandwich_check",
    "sandwich_block",
    "iff_lhs",
    "recover_f",
    "iff_counterexample_matrix",
    "axiom_suite",
    "power_coefficient",
]


def power_coefficient(q: float) -> Callable[[float], float]:
    """The coefficient function f(r) = r^q on (0, 1]."""
    q = float(q)

    def f(r: float) -> float:
        return float(r) ** q

    return f


def residual_block(
    d: Density, grids: np.ndarray, marginals: np.ndarray, conditionals: np.ndarray,
    f: Callable[[float], float],
) -> np.ndarray:
    """extensivity_residual of N joints, from the checked blocks factor_grids
    returns: each the math.fsum (by fsum_rows) of S(joint), -S(marginal) and
    every -f(p_j) S(conditional_j)."""
    S_joint, S_marg, S_cond = joint_entropies(d, grids, marginals, conditionals)
    neg_f = np.array([-f(p) for p in marginals.ravel().tolist()], dtype=np.float64).reshape(S_cond.shape)
    return fsum_rows(np.concatenate([S_joint[:, None], -S_marg[:, None], neg_f * S_cond], axis=1))


def extensivity_residual(d: Density, P: JointMatrix, f: Callable[[float], float]) -> float:
    """S(P) - S(marginal) - sum_j f(p_j) S(conditional_j).

    Zero within float noise iff f is the density's matching coefficient
    function; the value itself is the defect otherwise.  The one-joint case
    of residual_block, on P's own checked stack.
    """
    return residual_block(d, *P.stack, f).item()


# ---------------------------------------------------------------------------
# sandwich verifier
# ---------------------------------------------------------------------------


class SandwichReport(NamedTuple):
    """Two-sided envelope check of N joint matrices, as (N,) arrays.

    verdict is 'pass' iff both slacks clear -tolerance, 'divergent' when any
    column's coefficient bounds are flagged divergent or the propagated
    tolerance is not finite (check skipped).
    """

    diff: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack_lower: np.ndarray
    slack_upper: np.ndarray
    tolerance: np.ndarray
    verdict: np.ndarray
    divergent: np.ndarray


# verdict codes: 0 fail, 1 pass, 2 divergent (check skipped)
_VERDICT_NAMES = ("fail", "pass", "divergent")
_VERDICTS = np.array(_VERDICT_NAMES, dtype=object)
# one joint's diff, lower, upper and tolerance as float64, then its verdict code
_SANDWICH_NUMBERS = struct.Struct("<4dB")


class SandwichCheck(bytes):
    """One joint's row of a SandwichReport, as Python scalars, packed.

    Only diff, lower, upper, tolerance and the verdict code are stored, in
    33 bytes; the slacks and divergent are derived, bit-equal to
    sandwich_block's.  Batch callers, the benchmark loop among them, hold
    every report, so (as with AxiomReport) each stays small.  Every field is
    an explicit property: bytes has lower() and upper() methods of its own.
    """

    __slots__ = ()

    diff = property(lambda self: _SANDWICH_NUMBERS.unpack(self)[0])
    lower = property(lambda self: _SANDWICH_NUMBERS.unpack(self)[1])
    upper = property(lambda self: _SANDWICH_NUMBERS.unpack(self)[2])
    tolerance = property(lambda self: _SANDWICH_NUMBERS.unpack(self)[3])
    verdict = property(lambda self: _VERDICT_NAMES[self[-1]])
    slack_lower = property(lambda self: self.diff - self.lower)
    slack_upper = property(lambda self: self.upper - self.diff)
    divergent = property(lambda self: self.verdict == "divergent")

    def to_dict(self) -> dict:
        """SandwichReport's fields in order."""
        return {name: getattr(self, name) for name in SandwichReport._fields}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in ("diff", "lower", "upper", "tolerance", "verdict"))
        return f"SandwichCheck({fields})"

    __str__ = __repr__  # bytes.__str__ would show the raw bytes


# the last entry of the gap, lower, upper and tolerance sums: the tolerance's floor
_SUM_PAD = np.array([-0.0, -0.0, -0.0, 1e-9])


def _require_sandwich_flags(d: Density) -> None:
    missing = [name for name in ("s0_zero", "s1_zero", "concave") if not getattr(d, name)]
    if missing:
        raise ValueError(f"density {d.label!r} lacks flags required here: {missing}")


def sandwich_block(
    d: Density, grids: np.ndarray, marginals: np.ndarray, conditionals: np.ndarray,
) -> SandwichReport:
    """sandwich_check of N joints in one pass: a SandwichReport whose row k
    is bit-equal to sandwich_check(d, JointMatrix(grids[k])).

    grids (N, m, n), marginals (N, n) and conditionals (N, n, m) are as
    factor_grids returns them, checked.  joint_entropies gives every joint,
    marginal and conditional entropy.  The envelope sums gap, lower, upper
    and tolerance are row sums of one (N, 4, n + 1) block.
    """
    _require_sandwich_flags(d)
    s1_at_1 = float(np.asarray(d.eval_s1(1.0)))
    N, n = marginals.shape
    S_joint, S_marg, cond = joint_entropies(d, grids, marginals, conditionals)
    cb: CoefficientBounds = column_bounds(d, marginals)
    lo, up = cb.lower.reshape(N, n), cb.upper.reshape(N, n)
    # one-sided grid errors, propagated linearly on the f scale
    err = (cb.r * cb.r * (cb.err_inf + cb.err_sup)).reshape(N, n)
    terms = np.empty((N, 4, n + 1))
    np.subtract(up, lo, out=terms[:, 0, :n])
    np.multiply(lo, cond, out=terms[:, 1, :n])
    np.multiply(up, cond, out=terms[:, 2, :n])
    np.multiply(err, np.abs(cond) + abs(s1_at_1), out=terms[:, 3, :n])
    terms[:, :, n] = _SUM_PAD
    gap, lower, upper, tol = fsum_rows(terms.reshape(-1, n + 1)).reshape(N, 4).T
    lower = lower + s1_at_1 * gap
    upper = upper - s1_at_1 * gap
    diff = S_joint - S_marg
    # a propagated tolerance that is not finite would pass any slack: skip the joint
    divergent = cb.divergent.reshape(N, n).any(axis=1) | ~np.isfinite(tol)
    slack_lower, slack_upper = diff - lower, upper - diff
    verdict = _VERDICTS[np.where(divergent, 2, (slack_lower >= -tol) & (slack_upper >= -tol))]
    return SandwichReport(diff, lower, upper, slack_lower, slack_upper, tol, verdict, divergent)


def sandwich_check(d: Density, P: JointMatrix) -> SandwichCheck:
    """Verify lower <= S(P) - S(marginal) <= upper within propagated slack.

    Requires s(0) = 0, s(1) = 0 and negative curvature (the envelope's
    hypotheses).  The one-joint case of sandwich_block, on P's own checked
    stack.
    """
    b = sandwich_block(d, *P.stack)
    code = _VERDICT_NAMES.index(b.verdict[0])
    return SandwichCheck(_SANDWICH_NUMBERS.pack(b.diff[0], b.lower[0], b.upper[0], b.tolerance[0], code))


def iff_lhs(d: Density, P: JointMatrix) -> float:
    """The envelope's lower line: sum_j lower_j S_j + s'(1) sum_j (upper_j - lower_j).

    The two-sided estimate only sharpens the trivial monotonicity bound when
    this is nonnegative; it can go negative (see iff_counterexample_matrix).
    """
    return sandwich_block(d, *P.stack).lower.item()


def iff_counterexample_matrix(x: float) -> JointMatrix:
    """The 2x2 family (column 1 fixed at (1/2, 0), column 2 = (x, 1-x)/2).

    As x drops to 0 the envelope's lower line tends to s'(1)(sqrt(2)-1)/2,
    which is negative for the remark5 density.  An x outside [0, 1], or NaN,
    makes an entry negative or NaN, which JointMatrix refuses.
    """
    return JointMatrix([[0.5, 0.5 * x], [0.0, 0.5 * (1.0 - x)]])


# ---------------------------------------------------------------------------
# power-law coefficient recovery
# ---------------------------------------------------------------------------


# s'' and s''' are taken to err by u (5 + |e log t|) relative, as a power t^e of
# a rounded exponent does (tsallis: e = -psi, -psi - 1), so psi errs by
# u (10 + |log T_MIN| (2|psi| + 1)), and an exact power's spread by twice that
# times max |psi|.  q within rounding of 1 takes the log branch; the rebuilt
# density must match eval_s within _RECON_TOL on _RECON_GRID_N points.
_U, _LOG_T_MIN = 2.0**-53, -math.log(T_MIN)
_Q_ONE_WINDOW = 8 * 2.0**-52
_RECON_GRID_N = 256
_RECON_TOL = 1e-8


@dataclass(frozen=True)
class Reconstruction:
    """Closed-form density rebuilt from (q, s(1), s'(1), s''(1)).

    branch 'log' is the q = 1 form k r log r + a r + b; branch 'power' is
    k (r^q - r)/(q - 1) + a r + b, in expm1 so it stays exact as q nears 1.
    max_abs_err compares against eval_s on the recovery grid.
    """

    k_q: float
    a_q: float
    b_q: float
    branch: str
    max_abs_err: float


@dataclass(frozen=True)
class PowerRecovery:
    """q_est = 2 - mean psi; psi_spread = max - min of psi, at grid points t_psi_max, t_psi_min."""

    q_est: float
    psi_spread: float
    t_psi_max: float
    t_psi_min: float
    verdict: str
    reconstruction: Reconstruction | None

    def to_dict(self) -> dict:
        """The fields in order, without a reconstruction where there is none."""
        out = asdict(self)
        if self.reconstruction is None:
            del out["reconstruction"]
        return out


def recover_f(d: Density) -> PowerRecovery:
    """Probe whether any coefficient function can satisfy the chain rule: one
    exists exactly when s''(rt)/s''(t) is free of t, that is when psi =
    -t s'''/s'' is constant, and then f(r) = r^q with q = 2 - psi > 0.  The
    verdict is 'power' when psi's spread is within its rounding and the
    density rebuilt in closed form from s(1), s'(1), s''(1) and q_est
    matches eval_s; 'not_power' otherwise, with the reconstruction if only
    that failed; 'inconclusive' where bounds.psi_on_grid refuses."""
    try:
        psi = psi_on_grid(d)
    except ValueError:
        return PowerRecovery(math.nan, math.nan, math.nan, math.nan, "inconclusive", None)
    spread = float(psi.max() - psi.min())
    witness = (float(_GRID[psi.argmax()]), float(_GRID[psi.argmin()]))
    q_est = 2.0 - float(psi.mean())
    top = float(np.abs(psi).max())
    if spread > 2.0 * top * _U * (10.0 + _LOG_T_MIN * (2.0 * top + 1.0)) or q_est <= 0.0:
        return PowerRecovery(q_est, spread, *witness, "not_power", None)

    k = float(np.asarray(d.eval_s2(1.0))) / q_est
    a = float(np.asarray(d.eval_s1(1.0))) - k
    b = float(np.asarray(d.eval_s(1.0))) - a
    grid = np.arange(1, _RECON_GRID_N + 1, dtype=np.float64) / _RECON_GRID_N
    branch = "log" if abs(q_est - 1.0) <= _Q_ONE_WINDOW else "power"
    if branch == "log":
        rebuilt = k * grid * np.log(grid) + a * grid + b
    else:
        rebuilt = k * grid * np.expm1((q_est - 1.0) * np.log(grid)) / (q_est - 1.0) + a * grid + b
    max_err = float(np.abs(rebuilt - np.asarray(d.eval_s(grid))).max())
    recon = Reconstruction(k_q=k, a_q=a, b_q=b, branch=branch, max_abs_err=max_err)
    return PowerRecovery(q_est, spread, *witness, "power" if max_err <= _RECON_TOL else "not_power", recon)


# ---------------------------------------------------------------------------
# axiom property suite
# ---------------------------------------------------------------------------


# the continuity check's mixing weights, largest first, and their labels
_EPS_LADDER = (1e-3, 1e-5, 1e-7)
_EPS_LABELS = tuple(f"{eps:g}" for eps in _EPS_LADDER)


# an axiom report's levels, then its worst maximality gap, as float64
_AXIOM_NUMBERS = struct.Struct(f"<{len(_EPS_LADDER) + 1}d")


@dataclass(frozen=True, slots=True)
class AxiomReport:
    """Verdicts of one axiom suite.

    levels[k] is the observed continuity modulus L(eps) at _EPS_LADDER[k].
    Slots, and the numbers packed in one bytes object, keep each report at
    about 140 bytes: batch callers hold thousands of them.
    """

    continuity: bool
    maximality: bool
    expandability: bool
    numbers: bytes

    @property
    def levels(self) -> tuple[float, ...]:
        return _AXIOM_NUMBERS.unpack(self.numbers)[:-1]

    @property
    def worst_maximality_gap(self) -> float:
        return _AXIOM_NUMBERS.unpack(self.numbers)[-1]

    @property
    def modulus(self) -> dict:
        """{f"{eps:g}": L(eps)} in ladder order."""
        return dict(zip(_EPS_LABELS, self.levels))

    @property
    def all_pass(self) -> bool:
        return self.continuity and self.maximality and self.expandability

    def to_dict(self) -> dict:
        return {
            "continuity": self.continuity,
            "maximality": self.maximality,
            "expandability": self.expandability,
            "modulus": self.modulus,
            "worst_maximality_gap": self.worst_maximality_gap,
            "all_pass": self.all_pass,
        }


def axiom_suite(
    d: Density,
    sizes: Sequence[int] = tuple(range(2, 9)),
    seed: int = 0,
    trials: int = 200,
) -> AxiomReport:
    """Empirical check of continuity, maximality, and expandability.

    Continuity: mixing p toward another simplex point by weight eps moves
    every coordinate by at most eps; the observed modulus L(eps) must be
    finite, shrink along the eps ladder (a level at or below 1e-12 is
    rounding, and counts as shrunk), and end below 1e-2.  Maximality:
    S(p) <= S(uniform) + 1e-12.  Expandability: appending a zero coordinate
    changes nothing, exactly.  Without trials both would hold vacuously.
    Each entropy is a row sum (math.fsum, by ``_kernels.fsum_rows``) of one
    zero-padded block of s values.  The rows are built here and sum to 1
    within (n + 4) u, u = 2**-53, so none is checked.
    """
    if not d.s0_zero:
        raise ValueError("axiom suite needs the s(0) = 0 convention")
    if not len(sizes):
        raise ValueError("sizes must hold at least one size")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if min(sizes) < 1:
        raise InvalidDistributionError("n must be >= 1")
    rng = np.random.default_rng(seed)
    k = len(_EPS_LADDER)
    eps = np.asarray(_EPS_LADDER, dtype=np.float64)[:, None, None]
    # All sizes share one zero-padded layout: rows of width max(sizes) + 1
    # with a size-n vector in columns :n.  A zero column is always spare, so
    # each p row also serves as p with a zero appended.
    ns = np.array(sizes, dtype=np.int64).reshape(-1, 1)
    width = int(ns.max(initial=0)) + 1
    col = np.arange(width)
    # C order makes each draw the stream of drawing p, then q, trial by trial
    g = np.zeros((len(ns), trials, 2, width))
    for i, n in enumerate(sizes):
        g[i, ..., :n] = rng.gamma(shape=1.0, scale=1.0, size=(trials, 2, n))
    g = g.reshape(-1, width)
    totals = fsum_rows(g)[:, None]
    degenerate = totals[:, 0] <= 0.0
    row_n = np.repeat(ns, 2 * trials, axis=0)[degenerate]
    g[degenerate] = col < row_n  # an all-zero draw becomes the uniform vector
    totals[degenerate] = row_n
    pq = (g / totals).reshape(len(ns), 2 * trials, width)
    p, q = pq[:, 0::2], pq[:, 1::2]
    mixed = ((1.0 - eps) * p[:, None] + eps * q[:, None]).reshape(len(ns), k * trials, width)
    uniform = np.where(col < ns, 1.0 / ns, 0.0)[:, None]
    # Per size the rows are: the uniform vector, every p, the eps-mixtures of
    # each p toward its q (eps-major) and every p with a zero appended.
    rows = np.concatenate([uniform, p, mixed, p], axis=1)
    n_rows = rows.shape[1]
    # true lengths: n, or n + 1 where s is evaluated at the appended zero too
    lengths = ns + (np.arange(n_rows) >= n_rows - trials)
    cells = col < lengths[..., None]
    s_block = np.zeros(rows.shape)
    s_block[cells] = d.eval_s(rows[cells])
    values = fsum_rows(s_block.reshape(-1, width)).reshape(lengths.shape)
    u_val = values[:, :1]
    sp = values[:, 1 : 1 + trials]
    mix = values[:, 1 + trials : 1 + (k + 1) * trials].reshape(len(sizes), k, trials)
    ext = values[:, 1 + (k + 1) * trials :]

    # np.fmax skips NaN, as the comparisons of a per-vector loop would
    gaps = sp - u_val
    worst_gap = float(np.fmax.reduce(gaps, axis=None, initial=-math.inf))
    maximality_ok = not np.any(gaps > 1e-12)
    levels = tuple(np.fmax.reduce(np.abs(mix - sp[:, None, :]), axis=(0, 2), initial=0.0).tolist())
    expandability_ok = bool(np.all(ext == sp))
    continuity_ok = (
        all(math.isfinite(v) for v in levels)
        and all(b <= max(a, 1e-12) for a, b in zip(levels, levels[1:]))
        and levels[-1] <= 1e-2
    )
    return AxiomReport(
        continuity=continuity_ok,
        maximality=maximality_ok,
        expandability=expandability_ok,
        numbers=_AXIOM_NUMBERS.pack(*levels, worst_gap),
    )
