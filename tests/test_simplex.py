import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso.simplex import (
    SUM_TOL,
    InvalidDistributionError,
    JointMatrix,
    RandomGenerationError,
    SimplexVector,
    ZeroMarginalError,
    check_rows,
    conditional,
    factor_grids,
    marginal,
    random_grids,
    random_joint,
)
from numeric_oracles import rebuild, reference_check_rows, uniform_vector


def eq_x_matrix(x):
    return JointMatrix([[0.5, 0.5 * x], [0.0, 0.5 * (1.0 - x)]])


class TestSimplexVector:
    def test_valid(self):
        p = SimplexVector([0.25, 0.25, 0.5])
        assert p.n == 3
        assert p[2] == 0.5

    def test_rejects_negative(self):
        with pytest.raises(InvalidDistributionError):
            SimplexVector([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidDistributionError):
            SimplexVector([0.5, 0.6])

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            SimplexVector([])

    def test_sum_tolerance_is_tight(self):
        with pytest.raises(InvalidDistributionError):
            SimplexVector([0.5, 0.5 + 1e-10])

    def test_rejects_nan(self):
        with pytest.raises(InvalidDistributionError, match="NaN"):
            SimplexVector([math.nan, 1.0])

    def test_entries_immutable(self):
        p = SimplexVector([0.5, 0.5])
        with pytest.raises(ValueError):
            p.entries[0] = 0.9

    def test_uniform(self):
        u = uniform_vector(5)
        np.testing.assert_allclose(u.entries, 0.2)
        with pytest.raises(InvalidDistributionError):
            uniform_vector(0)


class TestJointMatrix:
    def test_marginal_direct_sums(self):
        P = JointMatrix([[0.5, 0.25], [0.0, 0.25]])
        np.testing.assert_allclose(marginal(P).entries, [0.5, 0.5])

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroMarginalError):
            JointMatrix([[0.5, 0.0], [0.5, 0.0]])

    def test_thin_column_rejected(self):
        eps = 1e-10
        with pytest.raises(ZeroMarginalError):
            JointMatrix([[0.5, eps], [0.5 - eps, 0.0]])

    def test_product_marginal_recovers_factor(self):
        p = np.array([0.3, 0.7])
        r = np.array([0.2, 0.8])
        P = JointMatrix(np.outer(r, p))  # columns indexed by p
        np.testing.assert_allclose(marginal(P).entries, p, atol=1e-15)

    def test_rejects_nan(self):
        with pytest.raises(InvalidDistributionError, match="NaN"):
            JointMatrix([[math.nan, 0.5], [0.0, 0.5]])

    def test_grand_total_checked(self):
        with pytest.raises(InvalidDistributionError):
            JointMatrix([[0.5, 0.5], [0.5, 0.5]])


class TestConditional:
    def test_eq_x_first_column(self):
        P = eq_x_matrix(0.5)
        c = conditional(P, 1)
        assert isinstance(c, SimplexVector)
        np.testing.assert_allclose(c.entries, [1.0, 0.0])

    def test_eq_x_second_column(self):
        x = 0.5
        c = conditional(eq_x_matrix(x), 2)
        np.testing.assert_allclose(c.entries, [x, 1.0 - x])

    def test_uniform_joint_gives_uniform_conditionals(self):
        P = JointMatrix(np.full((3, 4), 1.0 / 12.0))
        for j in range(1, 5):
            np.testing.assert_allclose(conditional(P, j).entries, 1.0 / 3.0)

    def test_out_of_range(self):
        P = eq_x_matrix(0.5)
        for j in (0, 3, -1):
            with pytest.raises(IndexError):
                conditional(P, j)


class TestRandomJoint:
    def test_deterministic(self):
        A = random_joint(2, 2, seed=7)
        B = random_joint(2, 2, seed=7)
        assert np.array_equal(A.entries, B.entries)

    def test_different_seeds_differ(self):
        A = random_joint(3, 3, seed=1)
        B = random_joint(3, 3, seed=2)
        assert not np.array_equal(A.entries, B.entries)

    @pytest.mark.parametrize("seed", range(10))
    def test_invariants(self, seed):
        P = random_joint(5, 6, seed=seed, concentration=0.5)
        assert abs(math.fsum(P.entries.ravel().tolist()) - 1.0) <= 1e-12
        assert P.entries.min() >= 0.0
        assert P.column_marginals.min() >= 1e-9

    def test_bad_args(self):
        with pytest.raises(InvalidDistributionError):
            random_joint(0, 2, seed=1)
        with pytest.raises(InvalidDistributionError):
            random_joint(2, 2, seed=1, concentration=0.0)

    def test_retry_budget(self):
        # microscopic concentration makes thin columns near-certain
        with pytest.raises(RandomGenerationError):
            random_joint(8, 8, seed=0, concentration=1e-4)


class TestFactorGrids:
    def test_each_grid_factors_as_its_joint_matrix(self):
        seeds = list(range(30))
        grids = random_grids(3, 5, seeds, concentration=0.1)
        cols, conds = factor_grids(grids)
        for seed, grid, c, block in zip(seeds, grids, cols, conds):
            P = random_joint(3, 5, seed=seed, concentration=0.1)
            assert P.entries.tobytes() == grid.tobytes()
            assert P.column_marginals.tobytes() == c.tobytes()
            assert P.conditionals.tobytes() == block.tobytes()

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[0.5, 0.0], [0.5, 0.0]], ZeroMarginalError),
            ([[0.6, 0.2], [0.4, -0.2]], InvalidDistributionError),
            ([[0.5, 0.25], [0.25, 0.25]], InvalidDistributionError),
        ],
    )
    def test_a_bad_grid_anywhere_raises(self, bad, error):
        grids = np.full((3, 2, 2), 0.25)
        grids[1] = bad
        with pytest.raises(error):
            factor_grids(grids)
        with pytest.raises(error):
            JointMatrix(bad)

    def test_single_column_dust_above_one_reads_one(self):
        # an n = 1 grid's column sum can land one ulp above 1, where p^q and
        # tsallis s(p) overflow for q near 1e19
        grids = random_grids(7, 1, list(range(200)), concentration=1.0)
        high = grids.sum(axis=1)[:, 0] > 1.0
        assert high.any()
        cols, conds = factor_grids(grids)
        assert (cols <= 1.0).all() and (cols[high] == 1.0).all()
        assert conds[high].tobytes() == grids[high].transpose(0, 2, 1).tobytes()
        for grid in grids[high]:
            assert JointMatrix(grid).column_marginals.tolist() == [1.0]

    def test_empty_stack(self):
        cols, conds = factor_grids(np.empty((0, 3, 4)))
        assert cols.shape == (0, 4) and conds.shape == (0, 4, 3)


class TestRebuild:
    def test_single_column(self):
        P = JointMatrix([[0.5], [0.5]])
        np.testing.assert_array_equal(marginal(P).entries, [1.0])
        np.testing.assert_array_equal(rebuild(P), [[0.5], [0.5]])

    def test_eq_x_reconstruction(self):
        x = 0.3
        P = eq_x_matrix(x)
        np.testing.assert_allclose(marginal(P).entries, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(rebuild(P), P.entries, atol=1e-15)

    def test_factorization_round_trip_1000_seeds(self):
        # factor then rebuild must reproduce the matrix entrywise
        for seed in range(1000):
            m = 1 + seed % 5
            n = 1 + (seed * 13) % 5
            P = random_joint(m, n, seed=seed)
            np.testing.assert_allclose(rebuild(P), P.entries, atol=1e-12, rtol=0.0)
            for j in range(1, n + 1):
                assert abs(math.fsum(conditional(P, j).entries.tolist()) - 1.0) <= 1e-12


def _outcome(check, block):
    """(exception type, message) raised by check(block), or None."""
    try:
        check(block)
    except (InvalidDistributionError, OverflowError) as e:
        return type(e), str(e)
    return None


def _sum_boundary(side: float) -> tuple[float, float]:
    """(last float accepted, first float rejected) past 1 toward side."""
    t = 1.0 + side * SUM_TOL
    while abs(t - 1.0) > SUM_TOL:
        t = math.nextafter(t, 1.0)
    while abs(math.nextafter(t, side * 2.0) - 1.0) <= SUM_TOL:
        t = math.nextafter(t, side * 2.0)
    return t, math.nextafter(t, side * 2.0)


# sums at 1, at 1 +- SUM_TOL and one ulp on either side of the tolerance edge
SUM_TARGETS = [1.0, 1.0 - SUM_TOL, 1.0 + SUM_TOL, *_sum_boundary(1.0), *_sum_boundary(-1.0)]
ENTRIES = st.sampled_from([0.0, -0.0, 0.125, 0.5, -0.25, -5e-324, math.nan]) | st.floats(0.0, 1.0)


@st.composite
def blocks(draw):
    """Rows whose last entry makes the sum land on a drawn target (or NaN)."""
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.lists(ENTRIES, min_size=width - 1, max_size=width - 1))
        rows.append(head + [draw(st.sampled_from(SUM_TARGETS)) - math.fsum(head)])
    return np.array(rows)


def _ulps_from(t: float, k: int) -> float:
    for _ in range(abs(k)):
        t = math.nextafter(t, math.copysign(math.inf, k))
    return t


def _long_rows_near_edge(n: int, seed: int) -> np.ndarray:
    """Rows of n entries whose fsum lands within 3 ulps of either tolerance
    edge: a random head summing to about 1/2 and a last entry that closes it."""
    rng = np.random.default_rng(seed)
    rows = []
    for side in (1.0, -1.0):
        edge = _sum_boundary(side)[0]
        for k in range(-3, 4):
            for _ in range(3):
                head = rng.random(n - 1)
                head *= 0.5 / math.fsum(head.tolist())
                rows.append(np.append(head, _ulps_from(edge, k) - math.fsum(head.tolist())))
    return np.array(rows)


class TestCheckRows:
    """check_rows(block) reaches the verdict and message of a per-row fsum loop."""

    @settings(max_examples=400, deadline=None)
    @given(blocks())
    def test_raises_iff_some_row_raises(self, block):
        assert _outcome(check_rows, block) == _outcome(reference_check_rows, block)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_long_rows_at_the_edge(self, n):
        block = _long_rows_near_edge(n, seed=n)
        fsum_off = [abs(math.fsum(row.tolist()) - 1.0) > SUM_TOL for row in block]
        numpy_off = (np.abs(block.sum(axis=1) - 1.0) > SUM_TOL).tolist()
        assert any(fsum_off) and not all(fsum_off)
        assert fsum_off != numpy_off  # a numpy sum alone would misjudge some row
        for rows in (*np.split(block, len(block)), block):
            assert _outcome(check_rows, rows) == _outcome(reference_check_rows, rows)

    def test_infinite_and_overflowing_rows(self):
        inf_row = np.array([[0.5, 0.5], [math.inf, 0.0]])
        assert _outcome(check_rows, inf_row) == (InvalidDistributionError, "entries sum to inf, not 1")
        big = np.array([[0.25, 0.25], [1e308, 1e308]])  # an earlier row is already off
        assert _outcome(check_rows, big) == (OverflowError, "intermediate overflow in fsum")
        near = np.array([[0.25, 0.25], [1.7e308, 1e292]])  # near overflow, yet finite
        assert _outcome(check_rows, near) == (InvalidDistributionError, "entries sum to 0.5, not 1")
        # a numpy sum that stays finite where fsum's exact sum overflows
        edge = np.array([[0.25, 0.25, 0.0], [sys.float_info.max, 2.0**969, 2.0**969]])
        assert np.isfinite(edge.sum(axis=1)).all()
        assert _outcome(check_rows, edge) == (OverflowError, "intermediate overflow in fsum")
        for block in (inf_row, big, near, edge):
            assert _outcome(check_rows, block) == _outcome(reference_check_rows, block)

    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    def test_sum_tolerance_edge(self, side):
        inside, outside = _sum_boundary(side)
        check_rows(np.array([[0.5, inside - 0.5]]))
        with pytest.raises(InvalidDistributionError, match="sum to"):
            check_rows(np.array([[0.5, 0.5], [0.5, outside - 0.5]]))

    def test_each_check_names_itself(self):
        with pytest.raises(InvalidDistributionError, match="negative"):
            check_rows(np.array([[0.5, 0.5], [1.5, -0.5]]))
        with pytest.raises(InvalidDistributionError, match="NaN"):
            check_rows(np.array([[0.5, 0.5], [math.nan, 1.0]]))
        check_rows(np.array([[-0.0, 1.0]]))

    def test_shape(self):
        for bad in (np.ones(1), np.empty((2, 0)), np.ones((1, 1, 1))):
            with pytest.raises(InvalidDistributionError, match="nonempty"):
                check_rows(bad)
        check_rows(np.empty((0, 3)))
