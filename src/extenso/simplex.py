"""Probability data types on finite simplices and joint-matrix factorization.

A joint matrix P holds p^i_j = P(row outcome i, column outcome j).  Column
marginals must be strictly positive; that standing assumption is enforced at
construction because every downstream operation conditions on columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InvalidDistributionError",
    "RandomGenerationError",
    "JointMatrix",
    "check_rows",
    "factor_grids",
    "marginal",
    "conditional",
    "random_grids",
    "random_joint",
]

SUM_TOL = 1e-12  # absolute tolerance on probability sums (<= 1e4 entries)
MIN_MARGINAL = 1e-9  # columns with smaller mass are rejected at construction
_MAX_DRAWS = 64  # random_joint gives up after this many draws


class InvalidDistributionError(ValueError):
    """Entries violate the simplex contract (negativity, wrong sum, shape)."""


class ZeroMarginalError(InvalidDistributionError):
    """A joint matrix has a column with (numerically) zero marginal."""


class RandomGenerationError(RuntimeError):
    """Seeded resampling exhausted its retry budget."""


def check_rows(block: np.ndarray) -> None:
    """Raise InvalidDistributionError unless every row of a 2-d float block
    is a point of the simplex: nonempty, no negative or NaN entry, and a
    math.fsum within SUM_TOL of 1.  It runs where outside input enters:
    densities.entropy on its vector as a one-row block, and factor_grids (so
    JointMatrix) on the flattened grids.

    Only rows near the tolerance edge need fsum.  Any summation order of n
    nonnegative entries with exact sum S errs by at most (n-1)*u*S, with
    u = 2**-53, and fsum by at most u*S.  So a row whose numpy sum s has
    |s-1| < SUM_TOL - 4*(n+1)*u also has an fsum within SUM_TOL of 1, and
    passes.  Every other row is summed with math.fsum, which raises
    OverflowError where its sum overflows, before the first row off by more
    than SUM_TOL is named.
    """
    if block.ndim != 2 or block.shape[1] < 1:
        raise InvalidDistributionError("entries must be a nonempty 1-d vector")
    if not np.all(block >= 0.0):  # false for NaN as well as for negatives
        kind = "NaN" if np.isnan(block).any() else "negative"
        raise InvalidDistributionError(f"{kind} entry in simplex vector")
    with np.errstate(over="ignore"):
        s = block.sum(axis=1)
    margin = SUM_TOL - 4.0 * (block.shape[1] + 1) * 2.0**-53
    unsure = np.flatnonzero(~(np.abs(s - 1.0) < margin)).tolist()
    totals = [math.fsum(block[i].tolist()) for i in unsure]
    for total in totals:
        if abs(total - 1.0) > SUM_TOL:
            raise InvalidDistributionError(f"entries sum to {total!r}, not 1")


@dataclass(frozen=True, eq=False)
class JointMatrix:
    """An m x n joint distribution with strictly positive column marginals.

    Construction factors the grid as the one-grid case of factor_grids:
    column_marginals (n,) and conditionals (n, m), whose row j is column
    j + 1 over its marginal, are read-only and valid by construction.
    """

    entries: np.ndarray
    column_marginals: np.ndarray = field(init=False)
    conditionals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.float64)
        if entries.ndim != 2 or min(entries.shape) < 1:
            raise InvalidDistributionError("entries must be a nonempty 2-d grid")
        cols, conds = factor_grids(entries[None])
        entries.flags.writeable = cols.flags.writeable = conds.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_marginals", cols[0])
        object.__setattr__(self, "conditionals", conds[0])

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(grids, marginals, conditionals) of the one-joint stack, as
        factor_grids' callers pass them to the block checks."""
        return self.entries[None], self.column_marginals[None], self.conditionals[None]


def factor_grids(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginals (N, n) and conditional blocks (N, n, m) of N stacked m x n
    grids, after check_rows on the flattened grids.  A column whose marginal
    falls below MIN_MARGINAL raises ZeroMarginalError; a marginal one ulp
    above 1 (an n = 1 grid) is read as 1.  Derived rows are valid by
    construction, so none is checked again: a conditional row sums to 1
    within (m + 1) u, u = 2**-53, and the marginals within the grid's own
    tolerance plus (m + 1) u; SUM_TOL dwarfs (m + 1) u at <= 1e4 entries.
    """
    N, m, n = grids.shape
    check_rows(grids.reshape(N, m * n))
    cols = grids.sum(axis=1)
    if np.any(cols < MIN_MARGINAL):
        k, j = np.unravel_index(np.argmin(cols), cols.shape)
        raise ZeroMarginalError(f"column {j + 1} has marginal {cols[k, j]!r} < {MIN_MARGINAL}")
    np.minimum(cols, 1.0, out=cols)
    # written in (N, n, m) order, so joint_entropies reads it without a copy
    conds = np.divide(grids.transpose(0, 2, 1), cols[:, :, None], out=np.empty((N, n, m)))
    return cols, conds


def marginal(P: JointMatrix) -> np.ndarray:
    """Column marginals (p_1, ..., p_n), P.column_marginals; every entry
    strictly positive."""
    return P.column_marginals


def conditional(P: JointMatrix, j: int) -> np.ndarray:
    """Column j (1-based) normalized by its marginal: row j - 1 of P.conditionals."""
    if not 1 <= j <= P.n:
        raise IndexError(f"column index {j} outside 1..{P.n}")
    return P.conditionals[j - 1]


def random_grids(m: int, n: int, seeds: Sequence[int], concentration: float = 1.0) -> np.ndarray:
    """Seeded Dirichlet-style joint grids, (len(seeds), m, n), left for
    factor_grids or JointMatrix to check; resamples thin columns.

    Gamma draws with the given shape parameter are normalized over all m*n
    cells.  Small concentrations stress near-degenerate matrices, large ones
    near-uniform; draws whose thinnest column falls below MIN_MARGINAL are
    rejected and redrawn from the same stream, keeping each grid a pure
    function of (m, n, seed, concentration).
    """
    if m < 1 or n < 1:
        raise InvalidDistributionError("m and n must be >= 1")
    if not concentration > 0.0:
        raise InvalidDistributionError("concentration must be > 0")
    grids = np.empty((len(seeds), m, n))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for _ in range(_MAX_DRAWS):
            g = rng.gamma(shape=concentration, scale=1.0, size=(m, n))
            total = math.fsum(g.ravel().tolist())
            if total <= 0.0:
                continue
            g /= total
            if g.sum(axis=0).min() >= MIN_MARGINAL:
                grids[k] = g
                break
        else:
            raise RandomGenerationError(
                f"no valid joint matrix after {_MAX_DRAWS} draws "
                f"(m={m}, n={n}, concentration={concentration})"
            )
    return grids


def random_joint(m: int, n: int, seed: int, concentration: float = 1.0) -> JointMatrix:
    """The one-seed case of random_grids, checked as a JointMatrix."""
    return JointMatrix(random_grids(m, n, [seed], concentration)[0])
