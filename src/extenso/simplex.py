"""Probability data types on finite simplices and joint-matrix factorization.

A joint matrix P holds p^i_j = P(row outcome i, column outcome j).  Column
marginals must be strictly positive; that standing assumption is enforced at
construction because every downstream operation conditions on columns.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12  # absolute tolerance on probability sums (<= 1e4 entries)
MIN_MARGINAL = 1e-9  # columns with smaller mass are rejected at construction


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
    """
    if block.ndim != 2 or block.shape[1] < 1:
        raise InvalidDistributionError("entries must be a nonempty 1-d vector")
    if not np.all(block >= 0.0):  # false for NaN as well as for negatives
        kind = "NaN" if np.isnan(block).any() else "negative"
        raise InvalidDistributionError(f"{kind} entry in simplex vector")
    totals = [math.fsum(row) for row in block.tolist()]
    off = np.abs(np.array(totals) - 1.0) > SUM_TOL
    if off.any():
        total = totals[int(np.argmax(off))]
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


class ConditionalColumn(SimplexVector):
    """Distribution of the row variable given a fixed column outcome."""


def uniform_vector(n: int) -> SimplexVector:
    if n < 1:
        raise InvalidDistributionError("n must be >= 1")
    return SimplexVector(np.full(n, 1.0 / n))


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
        cols = self.entries.sum(axis=0)
        if np.any(cols < MIN_MARGINAL):
            j = int(np.argmin(cols))
            raise ZeroMarginalError(
                f"column {j + 1} has marginal {cols[j]!r} < {MIN_MARGINAL}"
            )
        object.__setattr__(self, "column_marginals", _as_readonly(cols))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


def marginal(P: JointMatrix) -> SimplexVector:
    """Column marginals (p_1, ..., p_n); every entry strictly positive."""
    return SimplexVector(P.column_marginals)


def conditional(P: JointMatrix, j: int) -> ConditionalColumn:
    """Column j (1-based) normalized by its marginal."""
    if not 1 <= j <= P.n:
        raise IndexError(f"column index {j} outside 1..{P.n}")
    col = P.entries[:, j - 1]
    return ConditionalColumn(col / P.column_marginals[j - 1])


def random_joint(
    m: int,
    n: int,
    seed: int,
    concentration: float = 1.0,
    max_retries: int = 64,
) -> JointMatrix:
    """Seeded Dirichlet-style joint matrix; resamples thin columns.

    Gamma draws with the given shape parameter are normalized over all m*n
    cells.  Small concentrations stress near-degenerate matrices, large ones
    near-uniform; draws whose thinnest column falls below MIN_MARGINAL are
    rejected and redrawn from the same stream, keeping the output a pure
    function of (m, n, seed, concentration).
    """
    if m < 1 or n < 1:
        raise InvalidDistributionError("m and n must be >= 1")
    if not concentration > 0.0:
        raise InvalidDistributionError("concentration must be > 0")
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        g = rng.gamma(shape=concentration, scale=1.0, size=(m, n))
        total = math.fsum(g.ravel().tolist())
        if total <= 0.0:
            continue
        g /= total
        if g.sum(axis=0).min() >= MIN_MARGINAL:
            return JointMatrix(g)
    raise RandomGenerationError(
        f"no valid joint matrix after {max_retries} draws "
        f"(m={m}, n={n}, concentration={concentration})"
    )


def joint_from_marginal_and_conditionals(
    p: SimplexVector, cols: list[ConditionalColumn] | list[SimplexVector]
) -> JointMatrix:
    """Inverse of factorization: p^i_j = cols[j][i] * p_j."""
    if len(cols) != p.n:
        raise InvalidDistributionError(f"need {p.n} conditional columns, got {len(cols)}")
    if np.any(p.entries <= 0.0):
        raise InvalidDistributionError("marginal entries must be strictly positive")
    m = cols[0].n
    if any(c.n != m for c in cols):
        raise InvalidDistributionError("conditional columns must share one length")
    grid = np.empty((m, p.n))
    for j, c in enumerate(cols):
        grid[:, j] = c.entries * p.entries[j]
    return JointMatrix(grid)


# ---------------------------------------------------------------------------
# serialization: round-trips through decimal at full float precision
# ---------------------------------------------------------------------------


def joint_to_csv(P: JointMatrix) -> str:
    lines = [f"{P.m},{P.n}"]
    for row in P.entries:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def joint_from_csv(text: str) -> JointMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidDistributionError("empty CSV")
    header = lines[0].split(",")
    if len(header) != 2:
        raise InvalidDistributionError("CSV header must be 'm,n'")
    m, n = int(header[0]), int(header[1])
    if len(lines) != m + 1:
        raise InvalidDistributionError(f"expected {m} data rows, got {len(lines) - 1}")
    grid = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if grid.shape != (m, n):
        raise InvalidDistributionError(f"data shape {grid.shape} does not match header")
    return JointMatrix(grid)


def joint_to_json(P: JointMatrix) -> str:
    payload = {"m": P.m, "n": P.n, "entries": [[float(v) for v in row] for row in P.entries]}
    return json.dumps(payload, sort_keys=True)


def joint_from_json(text: str) -> JointMatrix:
    payload = json.loads(text)
    grid = np.array(payload["entries"], dtype=np.float64)
    if grid.shape != (payload["m"], payload["n"]):
        raise InvalidDistributionError("entries shape does not match m, n")
    return JointMatrix(grid)
