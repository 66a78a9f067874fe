import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extenso.densities import (
    Density,
    DensityDomainError,
    EntropyFunctional,
    bg_density,
    remark2_density,
    remark5_density,
    shifted_density,
    tsallis_density,
)
from extenso import extensivity
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
    SimplexVector,
    conditional,
    joint_from_marginal_and_conditionals,
    marginal,
    random_joint,
)
from numeric_oracles import (
    count_eval_s,
    finite_difference,
    reference_axiom_suite,
    reference_monotonicity,
    reference_residual,
    reference_sandwich,
)

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


BATCH_DENSITIES = [bg_density(), tsallis_density(0.5), remark2_density(), remark5_density()]


def sandwich_ready(d):
    return d if d.s1_zero else shifted_density(d)


def suite_points(sizes, trials):
    # per size: the uniform vector; per trial p, its 3 eps-mixtures and p + [0]
    return sum(n + trials * (5 * n + 1) for n in sizes)


class TestBatchedEvaluation:
    """One eval_s call per joint or suite, equal bit for bit to one call per
    vector (the per-vector loops in numeric_oracles)."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(BATCH_DENSITIES), joints())
    def test_joint_checks_match_per_vector(self, d, P):
        F = functional(d)
        f = power_coefficient(0.5)
        assert extensivity_residual(F, P, f) == reference_residual(F, P, f)
        assert monotonicity_check(F, P) == reference_monotonicity(F, P)
        Fs = functional(sandwich_ready(d))
        assert sandwich_check(Fs, P).to_dict() == reference_sandwich(Fs, P)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BATCH_DENSITIES),
        st.lists(st.integers(1, 6), max_size=3),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_axiom_suite_matches_per_vector(self, d, sizes, trials, seed):
        F = functional(d)
        got = axiom_suite(F, sizes=tuple(sizes), seed=seed, trials=trials).to_dict()
        assert got == reference_axiom_suite(F, tuple(sizes), seed, trials)

    def test_no_zero_convention_still_raises(self):
        bare = Density(
            label="sqrt",
            eval_s=lambda r: np.sqrt(np.asarray(r)),
            eval_s1=lambda r: 0.5 / np.sqrt(np.asarray(r)),
            eval_s2=lambda r: -0.25 * np.asarray(r) ** -1.5,
            s0_zero=False,
        )
        F = functional(bare)
        f = power_coefficient(0.5)
        with pytest.raises(DensityDomainError):
            extensivity_residual(F, JointMatrix([[0.5, 0.0], [0.0, 0.5]]), f)
        P = random_joint(3, 4, seed=0)
        assert extensivity_residual(F, P, f) == reference_residual(F, P, f)

    def test_nan_values_skipped_like_the_loop(self):
        bg = bg_density()
        holed = Density(
            label="bg-nan-above-0.6",
            eval_s=lambda r: np.where(np.asarray(r) > 0.6, np.nan, bg.eval_s(r)),
            eval_s1=bg.eval_s1,
            eval_s2=bg.eval_s2,
            s0_zero=True,
        )
        F = functional(holed)
        got = axiom_suite(F, sizes=(2, 3), seed=5, trials=30).to_dict()
        assert got == reference_axiom_suite(F, (2, 3), 5, 30)
        assert math.isfinite(got["worst_maximality_gap"]) and not got["expandability"]

    @pytest.mark.parametrize("sizes, trials", [((), 5), ((1,), 5), ((2, 3), 0)],
                             ids=["no-sizes", "size-1", "no-trials"])
    def test_edge_suites(self, sizes, trials):
        F = functional(remark5_density())
        rep = axiom_suite(F, sizes=sizes, seed=3, trials=trials)
        assert rep.to_dict() == reference_axiom_suite(F, sizes, 3, trials)
        assert rep.all_pass
        if sizes == (1,):
            assert rep.worst_maximality_gap == 0.0
        else:
            assert rep.worst_maximality_gap == -math.inf
            assert set(rep.modulus.values()) == {0.0}


class TestEvalCount:
    """Exactly one eval_s call per joint and per suite, over the same points."""

    def test_residual(self):
        d, calls = count_eval_s(remark5_density())
        extensivity_residual(functional(d), random_joint(5, 4, seed=0), power_coefficient(1.0))
        assert calls == [20 + 4 + 20]  # joint, marginal, 4 conditionals of 5

    def test_sandwich(self):
        d, calls = count_eval_s(remark5_density())
        sandwich_check(functional(d), random_joint(5, 4, seed=0))
        assert calls == [20 + 4 + 20]

    def test_monotonicity(self):
        d, calls = count_eval_s(remark2_density())
        monotonicity_check(functional(d), random_joint(5, 4, seed=0))
        assert calls == [20 + 4]

    @pytest.mark.parametrize("sizes, trials", [((2, 3, 8), 4), ((1,), 2), ((2, 3), 0)])
    def test_suite(self, sizes, trials):
        d, calls = count_eval_s(remark5_density())
        axiom_suite(functional(d), sizes=sizes, seed=0, trials=trials)
        assert calls == [suite_points(sizes, trials)]

    def test_empty_suite(self):
        d, calls = count_eval_s(remark5_density())
        axiom_suite(functional(d), sizes=(), seed=0, trials=5)
        assert calls == []


def watch_validation(monkeypatch):
    """(sizes of SimplexVectors built, row counts of blocks passed to check_rows)."""
    built, rows = [], []
    post_init = SimplexVector.__post_init__
    check_rows = extensivity.check_rows

    def counted_post_init(self):
        post_init(self)
        built.append(self.entries.size)

    def counted_check_rows(block):
        check_rows(block)
        rows.append(block.shape[0])

    monkeypatch.setattr(SimplexVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(extensivity, "check_rows", counted_check_rows)
    return built, rows


class TestBlockValidation:
    """Rows derived inside a suite or a joint are validated as blocks: every
    row is checked, and no SimplexVector is built per row."""

    @pytest.mark.parametrize("trials", [1, 40])
    def test_suite(self, monkeypatch, trials):
        built, rows = watch_validation(monkeypatch)
        sizes = (2, 3, 8)
        axiom_suite(functional(remark5_density()), sizes=sizes, seed=0, trials=trials)
        assert built == list(sizes)  # the uniform vectors
        # per trial: p and q, three eps-mixtures, p with a zero appended
        assert sum(rows) == len(sizes) * trials * (2 + 3 + 1)

    @pytest.mark.parametrize("m, n", [(2, 2), (9, 7)])
    def test_joint_checks(self, monkeypatch, m, n):
        built, rows = watch_validation(monkeypatch)
        P = random_joint(m, n, seed=1)
        F = functional(remark5_density())
        extensivity_residual(F, P, power_coefficient(1.0))
        assert built == [n] and rows == [n]  # the marginal; the conditionals
        monotonicity_check(F, P)
        assert built == [n, n] and rows == [n]

    def test_reports_share_labels_and_hold_no_dict(self):
        F = functional(bg_density())
        a = axiom_suite(F, sizes=(2,), seed=0, trials=3)
        b = axiom_suite(F, sizes=(3,), seed=1, trials=3)
        assert a.eps_labels is b.eps_labels
        assert not hasattr(a, "__dict__")
        assert a.modulus == dict(zip(("0.001", "1e-05", "1e-07"), a.levels))
