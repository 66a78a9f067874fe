"""Extensivity residuals, the two-sided sandwich verifier, power-law
coefficient recovery, and the axiom property suite.

The residual measures how far a coefficient function f is from satisfying the
chain rule S(joint) = S(marginal) + sum_j f(p_j) S(conditional_j).  The
sandwich verifier checks the curvature-ratio envelope against the measured
joint-minus-marginal difference, widening the verdict by the scan's one-sided
grid error so a pass stays sound.  Coefficient recovery probes whether the
chain rule can hold for any f at all: consistency of the candidate
f(r; x) = r^2 s''(rx)/s''(x) across base points x forces a power law, whose
exponent and closed-form reconstruction are then reported.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# coefficient_bounds stays importable from here: perfbench/tracer.py patches it
from .bounds import BoundsConfig, CoefficientBounds, coefficient_bounds, column_bounds  # noqa: F401
# entropy and conditional stay importable from here: perfbench/tracer.py patches them
from .densities import Density, EntropyFunctional, entropy, slice_entropies  # noqa: F401
from .simplex import (  # noqa: F401
    JointMatrix,
    SimplexVector,
    check_rows,
    conditional,
    marginal,
    uniform_vector,
)

__all__ = [
    "SandwichReport",
    "PowerRecovery",
    "Reconstruction",
    "AxiomReport",
    "extensivity_residual",
    "sandwich_check",
    "iff_lhs",
    "recover_f",
    "check_twice_equation",
    "three_by_two_family",
    "iff_counterexample_matrix",
    "axiom_suite",
    "monotonicity_check",
    "power_coefficient",
    "batch_report",
]


def power_coefficient(q: float) -> Callable[[float], float]:
    """The coefficient function f(r) = r^q on (0, 1]."""
    q = float(q)

    def f(r: float) -> float:
        return float(r) ** q

    return f


def _joint_entropies(F: EntropyFunctional, P: JointMatrix, p: SimplexVector) -> list[float]:
    """[S(P), S(p), S(conditional_1), ..., S(conditional_n)] from one eval_s call.

    p = marginal(P).  JointMatrix has already validated the flattened grid
    as a point of the mn-simplex.  Row j of the conditional block equals
    conditional(P, j + 1) bit for bit, and check_rows validates every row.
    """
    conds = (P.entries / P.column_marginals).T
    check_rows(conds)
    flat = np.concatenate([P.entries.ravel(), p.entries, conds.ravel()])
    return slice_entropies(F, flat, [P.entries.size, P.n] + [P.m] * P.n)


def extensivity_residual(F: EntropyFunctional, P: JointMatrix, f: Callable[[float], float]) -> float:
    """S(P) - S(marginal) - sum_j f(p_j) S(conditional_j).

    Zero within float noise iff f is the density's matching coefficient
    function; the value itself is the defect otherwise.
    """
    p = marginal(P)
    s_joint, s_marg, *cond = _joint_entropies(F, P, p)
    pieces = [s_joint, -s_marg]
    for pj, Sj in zip(p.entries.tolist(), cond):
        pieces.append(-f(pj) * Sj)
    return math.fsum(pieces)


# ---------------------------------------------------------------------------
# sandwich verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided envelope check for one joint matrix.

    verdict is 'pass' iff both slacks clear -tolerance, 'divergent' when any
    column's coefficient bounds are flagged divergent (check skipped).
    """

    diff: float
    lower: float
    upper: float
    slack_lower: float
    slack_upper: float
    tolerance: float
    verdict: str
    divergent: bool

    def to_dict(self) -> dict:
        return {
            "diff": self.diff,
            "lower": self.lower,
            "upper": self.upper,
            "slack_lower": self.slack_lower,
            "slack_upper": self.slack_upper,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "divergent": self.divergent,
        }


def _require_sandwich_flags(d: Density) -> None:
    missing = [
        name
        for name, ok in (("s0_zero", d.s0_zero), ("s1_zero", d.s1_zero), ("concave", d.concave))
        if not ok
    ]
    if missing:
        raise ValueError(f"density {d.label!r} lacks flags required here: {missing}")


def _sandwich_core(
    F: EntropyFunctional, P: JointMatrix, cfg: BoundsConfig | None
) -> tuple[float, float, float, float, bool]:
    """(diff, lower, upper, tolerance, divergent): diff = S(P) - S(marginal)."""
    d = F.density
    _require_sandwich_flags(d)
    s1_at_1 = float(np.asarray(d.eval_s1(1.0)))
    p = marginal(P)
    s_joint, s_marg, *cond_entropies = _joint_entropies(F, P, p)
    per_col: list[CoefficientBounds] = column_bounds(d, p.entries, cfg)
    divergent = any(cb.divergent for cb in per_col)

    lower_terms = []
    upper_terms = []
    gap_terms = []
    tol_terms = [1e-9]
    for cb, Sj in zip(per_col, cond_entropies):
        lower_terms.append(cb.lower * Sj)
        upper_terms.append(cb.upper * Sj)
        gap_terms.append(cb.upper - cb.lower)
        # one-sided grid errors, propagated linearly on the f scale
        err = cb.r * cb.r * (cb.lower_meta.est_error + cb.upper_meta.est_error)
        tol_terms.append(err * (abs(Sj) + abs(s1_at_1)))
    gap = math.fsum(gap_terms)
    lower = math.fsum(lower_terms) + s1_at_1 * gap
    upper = math.fsum(upper_terms) - s1_at_1 * gap
    return s_joint - s_marg, lower, upper, math.fsum(tol_terms), divergent


def sandwich_check(
    F: EntropyFunctional,
    P: JointMatrix,
    cfg: BoundsConfig | None = None,
    tolerance: float | None = None,
) -> SandwichReport:
    """Verify lower <= S(P) - S(marginal) <= upper within propagated slack.

    Requires s(0) = 0, s(1) = 0 and negative curvature (the envelope's
    hypotheses).  An explicit tolerance overrides the propagated one.
    """
    diff, lower, upper, auto_tol, divergent = _sandwich_core(F, P, cfg)
    tol = auto_tol if tolerance is None else float(tolerance)
    slack_lower = diff - lower
    slack_upper = upper - diff
    if divergent:
        verdict = "divergent"
    elif slack_lower >= -tol and slack_upper >= -tol:
        verdict = "pass"
    else:
        verdict = "fail"
    return SandwichReport(
        diff=diff,
        lower=lower,
        upper=upper,
        slack_lower=slack_lower,
        slack_upper=slack_upper,
        tolerance=tol,
        verdict=verdict,
        divergent=divergent,
    )


def iff_lhs(F: EntropyFunctional, P: JointMatrix, cfg: BoundsConfig | None = None) -> float:
    """The envelope's lower line: sum_j lower_j S_j + s'(1) sum_j (upper_j - lower_j).

    The two-sided estimate only sharpens the trivial monotonicity bound when
    this is nonnegative; it can go negative (see iff_counterexample_matrix).
    """
    return _sandwich_core(F, P, cfg)[1]


def iff_counterexample_matrix(x: float) -> JointMatrix:
    """The 2x2 family (column 1 fixed at (1/2, 0), column 2 = (x, 1-x)/2).

    As x drops to 0 the envelope's lower line tends to s'(1)(sqrt(2)-1)/2,
    which is negative for the remark5 density.
    """
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x!r}")
    return JointMatrix([[0.5, 0.5 * x], [0.0, 0.5 * (1.0 - x)]])


# ---------------------------------------------------------------------------
# power-law coefficient recovery
# ---------------------------------------------------------------------------


# recover_f samples the candidate f(r; x) at r in _R_GRID and x in _X_PROBES.
# A power law needs both defects within their tolerances; |q - 1| below
# _Q_ONE_WINDOW takes the log branch; the rebuilt density is compared with
# eval_s on _RECON_GRID_N points.
_R_GRID = tuple(np.linspace(0.1, 0.9, 17).tolist())
_X_PROBES = (0.125, 0.25, 0.375, 0.5)
_CONSISTENCY_TOL = 1e-4
_MULTIPLICATIVITY_TOL = 1e-6
_Q_ONE_WINDOW = 1e-3
_RECON_GRID_N = 256


@dataclass(frozen=True)
class Reconstruction:
    """Closed-form density rebuilt from (q, s(1), s'(1), s''(1)).

    branch 'log' is the q = 1 form k r log r + a r + b; branch 'power' is
    k (r^q - r)/(q - 1) + a r + b.  max_abs_err compares against eval_s on
    the recovery grid.
    """

    k_q: float
    a_q: float
    b_q: float
    branch: str
    max_abs_err: float


@dataclass(frozen=True)
class PowerRecovery:
    q_est: float
    consistency: float
    multiplicativity_defect: float
    verdict: str
    reconstruction: Reconstruction | None

    def to_dict(self) -> dict:
        out = {
            "q_est": self.q_est,
            "consistency": self.consistency,
            "multiplicativity_defect": self.multiplicativity_defect,
            "verdict": self.verdict,
        }
        if self.reconstruction is not None:
            out["reconstruction"] = {
                "k_q": self.reconstruction.k_q,
                "a_q": self.reconstruction.a_q,
                "b_q": self.reconstruction.b_q,
                "branch": self.reconstruction.branch,
                "max_abs_err": self.reconstruction.max_abs_err,
            }
        return out


def recover_f(d: Density) -> PowerRecovery:
    """Probe whether any coefficient function can satisfy the chain rule.

    Candidates f(r; x) = r^2 s''(rx)/s''(x) must agree across base points x;
    agreement plus multiplicativity f(r1) f(r2) = f(r1 r2) forces f(r) = r^q
    with q > 0, in which case the density itself is rebuilt in closed form
    from s(1), s'(1), s''(1) and compared to eval_s.
    """
    if not d.concave:
        raise ValueError(f"density {d.label!r} lacks the concave flag")
    s2 = d.eval_s2
    rs = np.asarray(_R_GRID)
    xs = np.asarray(_X_PROBES)
    cand = rs[:, None] ** 2 * np.asarray(s2(rs[:, None] * xs[None, :])) / np.asarray(s2(xs))[None, :]
    if not np.all(np.isfinite(cand)):
        return PowerRecovery(math.nan, math.nan, math.nan, "inconclusive", None)
    consistency = float((cand.max(axis=1) - cand.min(axis=1)).max())

    def f_hat(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        vals = r[..., None] ** 2 * np.asarray(s2(r[..., None] * xs)) / np.asarray(s2(xs))
        return vals.mean(axis=-1)

    pair_rs = rs[::3]
    r1, r2 = np.meshgrid(pair_rs, pair_rs)
    defect = float(
        np.abs(f_hat(r1) * f_hat(r2) - f_hat(r1 * r2)).max()
    )
    f_on_grid = f_hat(rs)
    if np.any(f_on_grid <= 0.0):
        return PowerRecovery(math.nan, consistency, defect, "not_power", None)
    q_est = float(np.mean(np.log(f_on_grid) / np.log(rs)))

    if consistency > _CONSISTENCY_TOL or defect > _MULTIPLICATIVITY_TOL or q_est <= 0.0:
        return PowerRecovery(q_est, consistency, defect, "not_power", None)

    s_1 = float(np.asarray(d.eval_s(1.0)))
    s1_1 = float(np.asarray(d.eval_s1(1.0)))
    s2_1 = float(np.asarray(s2(1.0)))
    grid = np.arange(1, _RECON_GRID_N + 1, dtype=np.float64) / _RECON_GRID_N
    if abs(q_est - 1.0) < _Q_ONE_WINDOW:
        k = s2_1
        a = -s2_1 + s1_1
        b = s2_1 - s1_1 + s_1
        rebuilt = k * grid * np.log(grid) + a * grid + b
        branch = "log"
    else:
        k = s2_1 / q_est
        a = -s2_1 / q_est + s1_1
        b = s2_1 / q_est - s1_1 + s_1
        rebuilt = k * (grid**q_est - grid) / (q_est - 1.0) + a * grid + b
        branch = "power"
    max_err = float(np.abs(rebuilt - np.asarray(d.eval_s(grid))).max())
    recon = Reconstruction(k_q=k, a_q=a, b_q=b, branch=branch, max_abs_err=max_err)
    return PowerRecovery(q_est, consistency, defect, "power", recon)


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


# ---------------------------------------------------------------------------
# axiom property suite and monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AxiomReport:
    """Verdicts of one axiom suite.

    levels[k] is the observed continuity modulus L(eps) at eps_seq[k], and
    eps_labels[k] is f"{eps:g}".  Reports of one eps ladder share a single
    label tuple, and slots keep each report small: batch callers hold
    thousands of them.
    """

    continuity: bool
    maximality: bool
    expandability: bool
    eps_labels: tuple[str, ...]
    levels: tuple[float, ...]
    worst_maximality_gap: float

    @property
    def modulus(self) -> dict:
        """{label: L(eps)} in ladder order."""
        return dict(zip(self.eps_labels, self.levels))

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


@functools.lru_cache(maxsize=16)
def _eps_labels(eps_seq: tuple[float, ...]) -> tuple[str, ...]:
    return tuple(f"{eps:g}" for eps in eps_seq)


def axiom_suite(
    F: EntropyFunctional,
    sizes: Sequence[int] = tuple(range(2, 9)),
    seed: int = 0,
    trials: int = 200,
    eps_seq: tuple[float, ...] = (1e-3, 1e-5, 1e-7),
) -> AxiomReport:
    """Empirical check of continuity, maximality, and expandability.

    Continuity: mixing p toward another simplex point by weight eps moves
    every coordinate by at most eps; the observed modulus L(eps) must be
    finite, shrink along the eps ladder, and end below 1e-2.  Maximality:
    S(p) <= S(uniform) + 1e-12.  Expandability: appending a zero coordinate
    changes nothing, exactly.
    """
    if not F.density.s0_zero:
        raise ValueError("axiom suite needs the s(0) = 0 convention")
    rng = np.random.default_rng(seed)
    eps = np.asarray(eps_seq, dtype=np.float64)[:, None, None]
    # Draw the whole suite first, then evaluate it with one eval_s call.  Per
    # size the rows are: the uniform vector, every p, the eps-mixtures of
    # each p toward its q (eps-major) and every p with a zero appended.
    parts = []
    lengths = []
    for n in sizes:
        u = uniform_vector(n).entries
        # C order makes this the stream of drawing p, then q, trial by trial
        g = rng.gamma(shape=1.0, scale=1.0, size=(trials, 2, n)).reshape(-1, n)
        totals = np.array([math.fsum(row) for row in g.tolist()]).reshape(-1, 1)
        degenerate = totals[:, 0] <= 0.0
        g[degenerate] = 1.0
        totals[degenerate] = float(n)
        pq = g / totals
        p, q = pq[0::2], pq[1::2]
        mixed = ((1.0 - eps) * p + eps * q).reshape(-1, n)
        expanded = np.concatenate([p, np.zeros((trials, 1))], axis=1)
        for block in (pq, mixed, expanded):
            check_rows(block)
        parts += [u, p.ravel(), mixed.ravel(), expanded.ravel()]
        lengths += [n] * (1 + trials + len(mixed)) + [n + 1] * trials
    flat = np.concatenate(parts) if parts else np.empty(0)
    # one row of values per size, in the order of the rows above
    k = len(eps_seq)
    values = np.array(slice_entropies(F, flat, lengths)).reshape(len(sizes), 1 + (k + 2) * trials)
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
        and all(b <= a for a, b in zip(levels, levels[1:]))
        and levels[-1] <= 1e-2
    )
    return AxiomReport(
        continuity=continuity_ok,
        maximality=maximality_ok,
        expandability=expandability_ok,
        eps_labels=_eps_labels(tuple(eps_seq)),
        levels=levels,
        worst_maximality_gap=worst_gap,
    )


def monotonicity_check(F: EntropyFunctional, P: JointMatrix) -> bool:
    """S(P) >= S(marginal) - 1e-10 (holds for concave densities with s(0)=0)."""
    d = F.density
    if not (d.s0_zero and d.concave):
        raise ValueError("monotonicity check needs s(0) = 0 and concavity")
    p = marginal(P)
    flat = np.concatenate([P.entries.ravel(), p.entries])
    s_joint, s_marg = slice_entropies(F, flat, [P.entries.size, p.n])
    return s_joint - s_marg >= -1e-10


# ---------------------------------------------------------------------------
# batch report schema shared with the CLI
# ---------------------------------------------------------------------------


def batch_report(
    density_label: str,
    check: str,
    seed: int,
    outcomes: Sequence[str],
    slacks: Sequence[float],
) -> dict:
    """Summary dict in the stable report schema.

    outcomes are per-instance verdict strings ('pass'/'fail'/'divergent');
    worst_slack is the minimum finite slack across instances (None when
    there is none).
    """
    outcomes = list(outcomes)
    finite_slacks = [s for s in slacks if math.isfinite(s)]
    return {
        "density": density_label,
        "check": check,
        "instances": len(outcomes),
        "pass_count": sum(1 for o in outcomes if o == "pass"),
        "fail_count": sum(1 for o in outcomes if o == "fail"),
        "divergent_count": sum(1 for o in outcomes if o == "divergent"),
        "worst_slack": min(finite_slacks) if finite_slacks else None,
        "seed": seed,
    }
