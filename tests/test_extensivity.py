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
    tsallis_density,
)
from extenso import extensivity, simplex
from extenso.cli import batch_report
from extenso.extensivity import (
    SandwichReport,
    axiom_suite,
    extensivity_residual,
    iff_counterexample_matrix,
    iff_lhs,
    monotonicity_check,
    power_coefficient,
    recover_f,
    residual_block,
    sandwich_block,
    sandwich_check,
)
from extenso.simplex import (
    InvalidDistributionError,
    JointMatrix,
    RandomGenerationError,
    SimplexVector,
    conditional,
    factor_grids,
    marginal,
    random_grids,
    random_joint,
)
from numeric_oracles import (
    check_twice_equation,
    count_eval_s,
    finite_difference,
    rebuild,
    reference_axiom_suite,
    reference_monotonicity,
    reference_residual,
    reference_sandwich,
    shifted_density,
    three_by_two_family,
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
        assert rec.reconstruction.max_abs_err == 0.0

    @pytest.mark.parametrize("q", [0.999, 0.9995, 1.0011])
    def test_tsallis_near_one_rebuilds(self, q):
        # the power form, in expm1, stays exact to rounding as q nears 1
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "power"
        assert rec.reconstruction.branch == "power"
        assert rec.reconstruction.max_abs_err <= 1e-12

    @pytest.mark.parametrize("q", [120.0, 200.0, 1000.0])
    def test_underflowed_curvature_is_inconclusive(self, q):
        # at q = 200 two candidates used to underflow to 0 and still say power
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "inconclusive" and rec.reconstruction is None
        assert math.isnan(rec.q_est)
        assert rec.to_dict()["verdict"] == "inconclusive" and "reconstruction" not in rec.to_dict()

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

    def test_modulus_stalled_above_rounding_is_not_continuous(self):
        # s jumps by up to 1e-9 at every bit pattern, so no eps makes the
        # modulus shrink: its levels stall near 1e-9, above the 1e-12 floor
        bg = bg_density()
        jitter = Density(
            label="jitter",
            eval_s=lambda r: 1e-9 * np.modf(np.asarray(r, dtype=np.float64) * 2.0**40)[0],
            eval_s1=bg.eval_s1,
            eval_s2=bg.eval_s2,
            s0_zero=True,
        )
        F = functional(jitter)
        rep = axiom_suite(F, sizes=(2, 3), seed=0, trials=20)
        assert all(1e-12 < v < 1e-8 for v in rep.levels)
        assert rep.levels[2] > rep.levels[1]
        assert not rep.continuity
        assert rep.to_dict() == reference_axiom_suite(F, (2, 3), 0, 20)

    def test_rejects_empty_vectors(self):
        with pytest.raises(InvalidDistributionError, match="n must be >= 1"):
            axiom_suite(functional(bg_density()), sizes=(3, 0), trials=1)


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
        assert np.max(np.abs(rebuild(P) - P.entries)) <= 1e-15

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
        st.lists(st.integers(1, 6), min_size=1, max_size=3),  # no sizes raises
        st.integers(1, 4),  # no trials raises
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
        if not sizes or not trials:
            # a suite that draws no vector would pass vacuously: rejected
            match = "sizes must hold at least one size" if not sizes else "trials must be >= 1"
            with pytest.raises(ValueError, match=match):
                axiom_suite(F, sizes=sizes, seed=3, trials=trials)
            return
        rep = axiom_suite(F, sizes=sizes, seed=3, trials=trials)
        assert rep.to_dict() == reference_axiom_suite(F, sizes, 3, trials)
        assert rep.all_pass
        assert rep.worst_maximality_gap == 0.0


class TestResidualBlock:
    @pytest.mark.parametrize(
        "d, f",
        [
            (remark5_density(), power_coefficient(1.0)),
            (remark2_density(), power_coefficient(0.5)),
            (tsallis_density(2.0), power_coefficient(2.0)),
            (bg_density(), lambda r: 1.0 - r),
        ],
        ids=["remark5", "remark2", "tsallis-2", "bg-not-power"],
    )
    def test_each_row_is_a_residual(self, d, f):
        grids = random_grids(5, 3, list(range(25)), concentration=0.1)
        F = functional(d)
        got = residual_block(F, grids, *factor_grids(grids), f).tolist()
        want = [extensivity_residual(F, JointMatrix(g), f) for g in grids]
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert want == [reference_residual(F, JointMatrix(g), f) for g in grids]

    def test_no_joints(self):
        F = functional(bg_density())
        out = residual_block(F, np.empty((0, 2, 3)), np.empty((0, 3)), np.empty((0, 3, 2)), power_coefficient(1.0))
        assert out.shape == (0,)


class TestSandwichBlock:
    @pytest.mark.parametrize(
        "d", [remark5_density(), tsallis_density(0.1), bg_density()], ids=lambda d: d.label
    )
    def test_each_row_is_a_sandwich_check(self, d):
        # 160 columns: two scans
        grids = random_grids(4, 4, list(range(40)), concentration=0.05)
        F = functional(d)
        block = sandwich_block(F, grids, *factor_grids(grids))
        assert isinstance(block, SandwichReport) and all(v.shape == (40,) for v in block)
        rows = [SandwichReport._make(row) for row in zip(*(v.tolist() for v in block))]
        assert [repr(rep) for rep in rows] == [repr(sandwich_check(F, JointMatrix(g))) for g in grids]

    def test_tolerance_overrides_every_row(self):
        grids = random_grids(3, 3, list(range(6)))
        F = functional(remark5_density())
        block = sandwich_block(F, grids, *factor_grids(grids), tolerance=0.0)
        assert block.tolerance.tolist() == [0.0] * 6
        assert block.verdict.tolist() == [
            sandwich_check(F, JointMatrix(g), tolerance=0.0).verdict for g in grids
        ]

    @pytest.mark.parametrize("tolerance", [None, 0.0, 1e-3])
    def test_infinite_propagated_tolerance_is_divergent(self, tolerance):
        # from about q = 1e6 the scan's grid errors are +inf: the propagated
        # tolerance would pass any slack, so each joint is skipped, whatever
        # tolerance overrides it
        grids = random_grids(4, 4, list(range(20)))
        F = functional(tsallis_density(1e6))
        block = sandwich_block(F, grids, *factor_grids(grids), tolerance=tolerance)
        propagated = sandwich_block(F, grids, *factor_grids(grids)).tolerance
        assert np.isinf(propagated).all()
        assert block.verdict.tolist() == ["divergent"] * 20 and block.divergent.all()
        for g, got in zip(grids, zip(*(v.tolist() for v in block))):
            P = JointMatrix(g)
            assert repr(SandwichReport._make(got)) == repr(sandwich_check(F, P, tolerance=tolerance))
            if tolerance is None:
                assert repr(sandwich_check(F, P).to_dict()) == repr(reference_sandwich(F, P))

    def test_finite_propagated_tolerance_still_checks(self):
        grids = random_grids(4, 4, list(range(20)))
        block = sandwich_block(functional(tsallis_density(1e5)), grids, *factor_grids(grids))
        assert np.isfinite(block.tolerance).all() and not block.divergent.any()
        assert block.verdict.tolist() == ["pass"] * 20


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
        # joint_entropies forms every part of a joint, conditionals included
        assert calls == [20 + 4 + 20]

    @pytest.mark.parametrize("sizes, trials", [((2, 3, 8), 4), ((1,), 2), ((2, 3), 0)])
    def test_suite(self, sizes, trials):
        d, calls = count_eval_s(remark5_density())
        if not trials:  # rejected before any evaluation
            with pytest.raises(ValueError, match="trials must be >= 1"):
                axiom_suite(functional(d), sizes=sizes, seed=0, trials=trials)
            assert calls == []
            return
        axiom_suite(functional(d), sizes=sizes, seed=0, trials=trials)
        assert calls == [suite_points(sizes, trials)]

    def test_empty_suite(self):
        d, calls = count_eval_s(remark5_density())
        with pytest.raises(ValueError, match="sizes must hold at least one size"):
            axiom_suite(functional(d), sizes=(), seed=0, trials=5)
        assert calls == []


def watch_validation(monkeypatch):
    """(sizes of SimplexVectors built, row counts of blocks passed to check_rows).

    A SimplexVector validates itself as a one-row block; a JointMatrix as
    factor_grids' three blocks: its flattened grid, its marginal and its n
    conditionals."""
    built, rows = [], []
    post_init = SimplexVector.__post_init__
    check_rows = simplex.check_rows

    def counted_post_init(self):
        post_init(self)
        built.append(self.entries.size)

    def counted_check_rows(block):
        check_rows(block)
        rows.append(block.shape[0])

    monkeypatch.setattr(SimplexVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(extensivity, "check_rows", counted_check_rows)
    monkeypatch.setattr(simplex, "check_rows", counted_check_rows)
    return built, rows


class TestBlockValidation:
    """Rows derived inside a suite or a joint are validated as blocks: every
    row is checked, and no SimplexVector is built per row."""

    @pytest.mark.parametrize("trials", [1, 40])
    def test_suite(self, monkeypatch, trials):
        built, rows = watch_validation(monkeypatch)
        sizes = (2, 3, 8)
        axiom_suite(functional(remark5_density()), sizes=sizes, seed=0, trials=trials)
        assert built == []
        # one padded block: per size the uniform vector and, per trial, p, q
        # and the 3 eps-mixtures (each p row doubles as p with a zero appended)
        assert rows == [len(sizes) * (1 + (2 + 3) * trials)]

    @pytest.mark.parametrize("m, n", [(2, 2), (9, 7)])
    def test_joint_checks(self, monkeypatch, m, n):
        entries = random_joint(m, n, seed=1).entries
        built, rows = watch_validation(monkeypatch)
        P = JointMatrix(entries)
        # the flattened grid, the marginal and the conditional block
        assert rows == [1, 1, n] and built == []
        # checks of the joint read its stack and validate nothing more
        F = functional(remark5_density())
        extensivity_residual(F, P, power_coefficient(1.0))
        monotonicity_check(F, P)
        sandwich_check(F, P)
        assert rows == [1, 1, n] and built == []

    def test_sandwich_op_validates_once(self, monkeypatch):
        # the benchmark's sandwich op: one joint, checked under two functionals
        entries = random_joint(4, 4, seed=3, concentration=0.05).entries
        Fs = [functional(remark5_density()), functional(tsallis_density(0.1))]
        built, rows = watch_validation(monkeypatch)
        P = JointMatrix(entries)
        reports = [sandwich_check(F, P) for F in Fs]
        # the flattened grid, the marginal and the conditional block
        assert rows == [1, 1, 4] and built == []
        for F, rep in zip(Fs, reports):
            assert repr(rep) == repr(sandwich_check(F, JointMatrix(entries)))
            assert rep.to_dict() == reference_sandwich(F, JointMatrix(entries))

    def test_factored_blocks_are_read_only(self):
        P = random_joint(3, 4, seed=2)
        assert P.column_marginals.shape == (4,) and P.conditionals.shape == (4, 3)
        assert marginal(P).entries.tobytes() == P.column_marginals.tobytes()
        for j in range(1, P.n + 1):
            assert conditional(P, j).entries.tobytes() == P.conditionals[j - 1].tobytes()
        grids, marginals, conditionals = P.stack
        assert grids.shape == (1, 3, 4) and marginals.shape == (1, 4) and conditionals.shape == (1, 4, 3)
        for block in (P.column_marginals, P.conditionals, *P.stack):
            with pytest.raises(ValueError, match="read-only"):
                block.flat[0] = 0.5
        with pytest.raises(ValueError):
            marginal(P).entries[0] = 0.5

    def test_reports_share_labels_and_hold_no_dict(self):
        F = functional(bg_density())
        a = axiom_suite(F, sizes=(2,), seed=0, trials=3)
        b = axiom_suite(F, sizes=(3,), seed=1, trials=3)
        assert list(a.modulus) == list(b.modulus)
        assert not hasattr(a, "__dict__")
        assert a.modulus == dict(zip(("0.001", "1e-05", "1e-07"), a.levels))

    def test_sandwich_report_holds_no_dict(self):
        F = functional(remark5_density())
        rep = sandwich_check(F, random_joint(3, 3, seed=4))
        assert not hasattr(rep, "__dict__")
        assert list(rep.to_dict()) == [
            "diff", "lower", "upper", "slack_lower", "slack_upper", "tolerance", "verdict", "divergent",
        ]
        with pytest.raises(AttributeError):
            rep.verdict = "fail"
