import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso.simplex import (
    SUM_TOL,
    ConditionalColumn,
    InvalidDistributionError,
    JointMatrix,
    RandomGenerationError,
    SimplexVector,
    ZeroMarginalError,
    check_rows,
    conditional,
    joint_from_csv,
    joint_from_json,
    joint_from_marginal_and_conditionals,
    joint_to_csv,
    joint_to_json,
    marginal,
    random_joint,
    uniform_vector,
)


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
        assert isinstance(c, ConditionalColumn)
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
            random_joint(8, 8, seed=0, concentration=1e-4, max_retries=2)


class TestRebuild:
    def test_single_column(self):
        P = joint_from_marginal_and_conditionals(
            SimplexVector([1.0]), [SimplexVector([0.5, 0.5])]
        )
        np.testing.assert_allclose(P.entries, [[0.5], [0.5]])

    def test_eq_x_reconstruction(self):
        x = 0.3
        P = joint_from_marginal_and_conditionals(
            SimplexVector([0.5, 0.5]),
            [SimplexVector([1.0, 0.0]), SimplexVector([x, 1.0 - x])],
        )
        np.testing.assert_allclose(P.entries, eq_x_matrix(x).entries, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDistributionError):
            joint_from_marginal_and_conditionals(
                SimplexVector([0.5, 0.5]), [SimplexVector([1.0, 0.0])]
            )
        with pytest.raises(InvalidDistributionError):
            joint_from_marginal_and_conditionals(
                SimplexVector([0.5, 0.5]),
                [SimplexVector([1.0, 0.0]), SimplexVector([0.5, 0.25, 0.25])],
            )

    def test_nonpositive_marginal_rejected(self):
        p = SimplexVector([1.0, 0.0])
        with pytest.raises(InvalidDistributionError):
            joint_from_marginal_and_conditionals(
                p, [SimplexVector([1.0, 0.0]), SimplexVector([0.5, 0.5])]
            )

    def test_factorization_round_trip_1000_seeds(self):
        # factor then rebuild must reproduce the matrix entrywise
        for seed in range(1000):
            m = 1 + seed % 5
            n = 1 + (seed * 13) % 5
            P = random_joint(m, n, seed=seed)
            cols = [conditional(P, j) for j in range(1, n + 1)]
            Q = joint_from_marginal_and_conditionals(marginal(P), cols)
            np.testing.assert_allclose(Q.entries, P.entries, atol=1e-12, rtol=0.0)
            for c in cols:
                assert abs(math.fsum(c.entries.tolist()) - 1.0) <= 1e-12


class TestSerialization:
    def test_csv_round_trip_exact(self):
        P = random_joint(3, 4, seed=42)
        text = joint_to_csv(P)
        assert text.splitlines()[0] == "3,4"
        Q = joint_from_csv(text)
        assert np.array_equal(P.entries, Q.entries)

    def test_json_round_trip_exact(self):
        P = random_joint(4, 2, seed=9)
        Q = joint_from_json(joint_to_json(P))
        assert np.array_equal(P.entries, Q.entries)

    def test_csv_rejects_nan(self):
        with pytest.raises(InvalidDistributionError, match="NaN"):
            joint_from_csv("2,2\nnan,0.5\n0,0.5\n")

    def test_csv_shape_errors(self):
        with pytest.raises(InvalidDistributionError):
            joint_from_csv("")
        with pytest.raises(InvalidDistributionError):
            joint_from_csv("2,2\n0.5,0.5")
        with pytest.raises(InvalidDistributionError):
            joint_from_csv("bad header\n0.5,0.5")


def _raises(build) -> bool:
    try:
        build()
    except InvalidDistributionError:
        return True
    return False


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


class TestCheckRows:
    """check_rows(block) runs SimplexVector's checks on every row."""

    @settings(max_examples=400, deadline=None)
    @given(blocks())
    def test_raises_iff_some_row_raises(self, block):
        assert _raises(lambda: check_rows(block)) == any(
            _raises(lambda: SimplexVector(row)) for row in block
        )

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
