"""Probability data types on finite simplices and joint-matrix factorization.

A joint matrix P holds p^i_j = P(row outcome i, column outcome j).  Column
marginals must be strictly positive; that standing assumption is enforced at
construction because every downstream operation conditions on columns.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "InvalidDistributionError",
    "RandomGenerationError",
    "SimplexVector",
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


def _as_readonly(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def check_rows(block: np.ndarray) -> None:
    """Raise InvalidDistributionError unless every row of a 2-d float block
    is a point of the simplex: nonempty, no negative or NaN entry, and a
    math.fsum within SUM_TOL of 1.  SimplexVector runs exactly these checks
    on its entries, and JointMatrix on its flattened grid, as one-row blocks.

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
class SimplexVector:
    """A point of the n-simplex: nonnegative entries summing to 1."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        check_rows(self.entries[None])

    @property
    def n(self) -> int:
        return self.entries.size

    def __len__(self) -> int:
        return self.entries.size

    def __getitem__(self, i: int) -> float:
        return float(self.entries[i])


@dataclass(frozen=True, eq=False)
class JointMatrix:
    """An m x n joint distribution with strictly positive column marginals."""

    entries: np.ndarray
    column_marginals: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        if self.entries.ndim != 2 or min(self.entries.shape) < 1:
            raise InvalidDistributionError("entries must be a nonempty 2-d grid")
        check_rows(self.entries.reshape(1, -1))  # the grid is a point of the mn-simplex
        object.__setattr__(self, "column_marginals", _as_readonly(_column_sums(self.entries[None])[0]))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    # The marginal and the conditional block are validated on first use and
    # kept: every check of one joint shares them.
    @functools.cached_property
    def _marginal(self) -> SimplexVector:
        return SimplexVector(self.column_marginals)

    @functools.cached_property
    def conditionals(self) -> np.ndarray:
        """Read-only (n, m) block whose row j equals conditional(P, j + 1)
        bit for bit; check_rows has validated every row."""
        block = _conditional_blocks(self.entries[None], self.column_marginals[None])[0]
        block.flags.writeable = False
        return block


def _column_sums(grids: np.ndarray) -> np.ndarray:
    """(N, n) column sums of N stacked m x n grids; ZeroMarginalError below MIN_MARGINAL."""
    cols = grids.sum(axis=1)
    if np.any(cols < MIN_MARGINAL):
        k, j = np.unravel_index(np.argmin(cols), cols.shape)
        raise ZeroMarginalError(f"column {j + 1} has marginal {cols[k, j]!r} < {MIN_MARGINAL}")
    return cols


def _conditional_blocks(grids: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(N, n, m) blocks of each grid's columns over their marginals, checked as one block."""
    N, m, n = grids.shape
    # written in (N, n, m) order, so the row check reads it without a copy
    blocks = np.divide(grids.transpose(0, 2, 1), cols[:, :, None], out=np.empty((N, n, m)))
    check_rows(blocks.reshape(N * n, m))
    return blocks


def factor_grids(grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Marginals (N, n) and conditional blocks (N, n, m) of N stacked m x n
    grids, bit-equal to each grid's JointMatrix column_marginals and
    conditionals, after the same checks as three check_rows blocks."""
    N, m, n = grids.shape
    check_rows(grids.reshape(N, m * n))
    cols = _column_sums(grids)
    check_rows(cols)
    return cols, _conditional_blocks(grids, cols)


def marginal(P: JointMatrix) -> SimplexVector:
    """Column marginals (p_1, ..., p_n); every entry strictly positive."""
    return P._marginal


def conditional(P: JointMatrix, j: int) -> SimplexVector:
    """Column j (1-based) normalized by its marginal."""
    if not 1 <= j <= P.n:
        raise IndexError(f"column index {j} outside 1..{P.n}")
    col = P.entries[:, j - 1]
    return SimplexVector(col / P.column_marginals[j - 1])


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
