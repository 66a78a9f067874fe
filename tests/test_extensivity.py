import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extenso.densities import (
    EntropyFunctional,
    bg_density,
    remark2_density,
    remark5_density,
    shifted_density,
    tsallis_density,
)
from extenso.extensivity import (
    axiom_suite,
    batch_report,
    check_twice_equation,
    extensivity_residual,
    iff_counterexample_matrix,
    iff_lhs,
    monotonicity_check,
    power_coefficient,
    recover_f,
    sandwich_check,
    three_by_two_family,
)
from extenso.simplex import (
    JointMatrix,
    RandomGenerationError,
    conditional,
    joint_from_marginal_and_conditionals,
    marginal,
    random_joint,
)
from numeric_oracles import finite_difference

# frozen quadrature-oracle values for the log-sin density
R5_S1_AT_1 = -0.9296953983416102
IFF_LIMIT = R5_S1_AT_1 * (math.sqrt(2.0) - 1.0) / 2.0  # -0.192546221434476


def functional(d):
    return EntropyFunctional(d)


def sizes_from_seed(seed):
    rng = np.random.default_rng(seed + 987)
    return int(rng.integers(1, 9)), int(rng.integers(1, 9))


class TestResidual:
    @pytest.mark.parametrize(
        "d, q",
        [
            (bg_density(), 1.0),
            (tsallis_density(0.5), 0.5),
            (tsallis_density(2.0), 2.0),
            (tsallis_density(3.0), 3.0),
        ],
        ids=["bg", "t0.5", "t2", "t3"],
    )
    def test_matching_power_vanishes(self, d, q):
        F = functional(d)
        f = power_coefficient(q)
        worst = 0.0
        for seed in range(150):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            worst = max(worst, abs(extensivity_residual(F, P, f)))
        assert worst <= 1e-10

    def test_product_matrix_nonadditivity(self):
        # independent 2x2 product with f(r) = r: residual is exactly -1/4
        F = functional(tsallis_density(2.0))
        P = JointMatrix(np.outer([0.5, 0.5], [0.5, 0.5]))
        res = extensivity_residual(F, P, power_coefficient(1.0))
        assert res == pytest.approx(-0.25, abs=1e-14)

    def test_mismatched_power_nonzero(self):
        F = functional(tsallis_density(2.0))
        P = random_joint(3, 3, seed=1)
        assert abs(extensivity_residual(F, P, power_coefficient(1.0))) > 1e-4


class TestSandwich:
    @pytest.mark.parametrize("d", [tsallis_density(0.5), tsallis_density(2.0)],
                             ids=["t0.5", "t2"])
    def test_equality_collapse(self, d):
        F = functional(d)
        for seed in range(40):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            rep = sandwich_check(F, P)
            assert rep.verdict == "pass"
            assert rep.upper - rep.lower <= rep.tolerance

    def test_bg_collapse(self):
        F = functional(bg_density())
        for seed in range(40):
            P = random_joint(4, 5, seed=seed)
            rep = sandwich_check(F, P)
            assert rep.verdict == "pass"
            assert rep.upper - rep.lower <= rep.tolerance

    def test_remark5_passes(self):
        F = functional(remark5_density())
        for seed in range(40):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            rep = sandwich_check(F, P)
            assert rep.verdict == "pass"
            assert rep.slack_lower >= -rep.tolerance
            assert rep.slack_upper >= -rep.tolerance

    def test_remark5_on_counterexample_matrix(self):
        rep = sandwich_check(functional(remark5_density()), iff_counterexample_matrix(0.5))
        assert rep.verdict == "pass"

    def test_divergent_verdict(self):
        # the x-family has both marginals exactly 1/2, where the oscillating
        # density's divergence is detectable
        F = functional(shifted_density(remark2_density()))
        rep = sandwich_check(F, iff_counterexample_matrix(0.3))
        assert rep.verdict == "divergent"
        assert rep.divergent

    def test_flag_requirements(self):
        with pytest.raises(ValueError):
            sandwich_check(functional(remark2_density()), random_joint(2, 2, seed=0))

    def test_explicit_tolerance_override(self):
        F = functional(tsallis_density(2.0))
        rep = sandwich_check(F, random_joint(3, 3, seed=2), tolerance=1e-3)
        assert rep.tolerance == 1e-3


class TestIff:
    @pytest.mark.parametrize("x", [0.02, 0.01, 0.005])
    def test_negative_for_small_x(self, x):
        F = functional(remark5_density())
        assert iff_lhs(F, iff_counterexample_matrix(x)) < 0.0

    def test_limit_approach(self):
        F = functional(remark5_density())
        prev_dist = math.inf
        for x in (0.02, 0.01, 0.005):
            val = iff_lhs(F, iff_counterexample_matrix(x))
            dist = abs(val - IFF_LIMIT)
            assert dist < prev_dist
            prev_dist = dist
        assert prev_dist <= 0.05

    def test_nonnegative_for_power_densities(self):
        # collapse kills the correction term; what remains is a nonnegative
        # combination of conditional entropies
        for d in (tsallis_density(0.5), tsallis_density(2.0), bg_density()):
            F = functional(d)
            for seed in range(10):
                P = random_joint(3, 4, seed=seed)
                assert iff_lhs(F, P) >= -1e-10

    def test_not_negative_for_moderate_x(self):
        F = functional(remark5_density())
        assert iff_lhs(F, iff_counterexample_matrix(0.8)) > 0.0


class TestRecovery:
    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_tsallis_power(self, q):
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "power"
        assert abs(rec.q_est - q) <= 1e-6
        assert rec.consistency <= 1e-4
        assert rec.multiplicativity_defect <= 1e-6
        assert rec.reconstruction.branch == "power"
        assert rec.reconstruction.k_q < 0.0
        assert rec.reconstruction.max_abs_err <= 1e-8

    def test_bg_log_branch(self):
        rec = recover_f(bg_density())
        assert rec.verdict == "power"
        assert abs(rec.q_est - 1.0) <= 1e-6
        assert rec.reconstruction.branch == "log"
        assert rec.reconstruction.k_q == pytest.approx(-1.0, abs=1e-12)
        assert rec.reconstruction.max_abs_err <= 1e-8

    def test_remark5_rejected(self):
        rec = recover_f(remark5_density())
        assert rec.verdict == "not_power"
        assert rec.consistency > 1e-2  # probe-table spread, frozen ~0.0199
        assert rec.reconstruction is None

    def test_remark2_rejected(self):
        rec = recover_f(remark2_density())
        assert rec.verdict == "not_power"


class TestTwiceEquation:
    def test_power_density_zero_residual(self):
        d = tsallis_density(2.0)
        f = power_coefficient(2.0)
        for (r, xi, x) in [(0.5, 0.8, 0.3), (0.2, 1.0, 0.4), (0.9, 0.6, 0.1)]:
            assert abs(check_twice_equation(d, f, r, xi, x)) <= 1e-8

    def test_midpoint_choice_matches_single_ratio(self):
        # at x = xi/2 the residual vanishes iff f(r) = r^2 s''(r xi/2)/s''(xi/2)
        d = remark5_density()
        r, xi = 0.5, 0.7
        x = xi / 2.0
        ratio = r * r * float(np.asarray(d.eval_s2(r * x))) / float(np.asarray(d.eval_s2(x)))
        assert abs(check_twice_equation(d, lambda _: ratio, r, xi, x)) <= 1e-12

    def test_remark5_wrong_f_nonzero(self):
        res = check_twice_equation(remark5_density(), power_coefficient(2.0), 0.5, 1.0, 0.3)
        assert abs(res) > 0.1

    def test_family_matrix(self):
        r, xi, x = 0.4, 0.8, 0.25
        P = three_by_two_family(r, xi, x)
        assert P.m == 3 and P.n == 2
        np.testing.assert_allclose(marginal(P).entries, [r, 1.0 - r], atol=1e-15)
        np.testing.assert_allclose(
            conditional(P, 1).entries, [x, xi - x, 1.0 - xi], atol=1e-15
        )

    def test_validation(self):
        d = tsallis_density(2.0)
        f = power_coefficient(2.0)
        with pytest.raises(ValueError):
            check_twice_equation(d, f, 0.5, 0.8, 0.9)  # x >= xi
        with pytest.raises(ValueError):
            check_twice_equation(d, f, 1.0, 0.8, 0.3)  # r not in (0,1)
        with pytest.raises(ValueError):
            three_by_two_family(0.5, 1.2, 0.3)

    @pytest.mark.parametrize(
        "d, f",
        [
            (tsallis_density(2.0), power_coefficient(2.0)),
            (remark5_density(), power_coefficient(2.0)),
        ],
        ids=["t2-matched", "r5-mismatched"],
    )
    def test_second_difference_cross_validation(self, d, f):
        # d^2/dx^2 of the chain-rule residual over the 3x2 family equals the
        # twice-differentiated relation's residual
        F = functional(d)
        r, xi, x = 0.5, 0.8, 0.3

        def residual_of_x(xx):
            return extensivity_residual(F, three_by_two_family(r, xi, xx), f)

        fd = finite_difference(residual_of_x, x, order=2, domain=(0.0, xi))
        direct = check_twice_equation(d, f, r, xi, x)
        assert abs(fd - direct) <= 1e-4


class TestAxioms:
    @pytest.mark.parametrize(
        "d",
        [bg_density(), tsallis_density(0.5), tsallis_density(2.0),
         tsallis_density(3.0), remark2_density(), remark5_density()],
        ids=lambda d: d.label,
    )
    def test_suite_passes(self, d):
        rep = axiom_suite(functional(d), sizes=(2, 4, 6), seed=11, trials=60)
        assert rep.continuity
        assert rep.maximality
        assert rep.expandability
        assert rep.worst_maximality_gap <= 1e-12

    def test_modulus_shrinks(self):
        rep = axiom_suite(functional(remark5_density()), sizes=(3,), seed=5, trials=40)
        vals = list(rep.modulus.values())
        assert vals == sorted(vals, reverse=True)

    def test_requires_zero_convention(self):
        from extenso.densities import Density

        bare = Density(
            label="x",
            eval_s=lambda r: np.asarray(r),
            eval_s1=lambda r: np.ones_like(np.asarray(r)),
            eval_s2=lambda r: np.zeros_like(np.asarray(r)),
            s0_zero=False,
        )
        with pytest.raises(ValueError):
            axiom_suite(functional(bare))


class TestMonotonicity:
    @pytest.mark.parametrize(
        "d",
        [bg_density(), tsallis_density(0.5), tsallis_density(2.0),
         tsallis_density(3.0), remark2_density(), remark5_density()],
        ids=lambda d: d.label,
    )
    def test_random_joints(self, d):
        F = functional(d)
        for seed in range(60):
            m, n = sizes_from_seed(seed)
            assert monotonicity_check(F, random_joint(m, n, seed=seed))

    def test_counterexample_matrix_still_monotone(self):
        F = functional(remark5_density())
        assert monotonicity_check(F, iff_counterexample_matrix(0.3))


class TestBatchReport:
    def test_schema(self):
        rep = batch_report("bg", "verify-sandwich", 7, ["pass", "fail", "divergent"], [0.5, -0.1, 0.2])
        assert rep == {
            "density": "bg",
            "check": "verify-sandwich",
            "instances": 3,
            "pass_count": 1,
            "fail_count": 1,
            "divergent_count": 1,
            "worst_slack": -0.1,
            "seed": 7,
        }


SANDWICH_DENSITIES = [bg_density(), tsallis_density(0.5), remark5_density(),
                      shifted_density(remark2_density())]
CONCAVE_DENSITIES = SANDWICH_DENSITIES + [tsallis_density(2.0), tsallis_density(3.0),
                                          remark2_density()]


@st.composite
def joints(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    concentration = draw(st.floats(0.05, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    try:
        return random_joint(m, n, seed=seed, concentration=concentration)
    except RandomGenerationError:
        assume(False)


class TestProperties:
    """Soundness claims over drawn shapes and Dirichlet concentrations."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SANDWICH_DENSITIES), joints())
    def test_sandwich_never_fails(self, d, P):
        assert sandwich_check(functional(d), P).verdict != "fail"

    @settings(max_examples=100, deadline=None)
    @given(joints())
    def test_factorization_round_trip(self, P):
        cols = [conditional(P, j) for j in range(1, P.n + 1)]
        rebuilt = joint_from_marginal_and_conditionals(marginal(P), cols)
        assert np.max(np.abs(rebuilt.entries - P.entries)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CONCAVE_DENSITIES), joints())
    def test_monotonicity(self, d, P):
        assert monotonicity_check(functional(d), P)
