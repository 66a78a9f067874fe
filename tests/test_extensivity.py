import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extenso.densities import (
    Density,
    DensityDomainError,
    bg_density,
    joint_entropies,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso import densities, extensivity, simplex
from extenso.cli import batch_report
from extenso.extensivity import (
    SandwichReport,
    axiom_suite,
    extensivity_residual,
    iff_counterexample_matrix,
    iff_lhs,
    power_coefficient,
    recover_f,
    residual_block,
    sandwich_block,
    sandwich_check,
)
from extenso.numerics import _GRID, T_MIN
from extenso.simplex import (
    InvalidDistributionError,
    JointMatrix,
    RandomGenerationError,
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
    mixed_density,
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


def sizes_from_seed(seed):
    rng = np.random.default_rng(seed + 987)
    return int(rng.integers(1, 9)), int(rng.integers(1, 9))


def monotone(d, P) -> bool:
    """S(P) >= S(marginal) - 1e-10, which holds for concave densities with s(0) = 0."""
    S_joint, S_marg, _ = joint_entropies(d, *P.stack)
    return bool(S_joint[0] - S_marg[0] >= -1e-10)


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
        f = power_coefficient(q)
        worst = 0.0
        for seed in range(150):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            worst = max(worst, abs(extensivity_residual(d, P, f)))
        assert worst <= 1e-10

    def test_product_matrix_nonadditivity(self):
        # independent 2x2 product with f(r) = r: residual is exactly -1/4
        d = tsallis_density(2.0)
        P = JointMatrix(np.outer([0.5, 0.5], [0.5, 0.5]))
        res = extensivity_residual(d, P, power_coefficient(1.0))
        assert res == pytest.approx(-0.25, abs=1e-14)

    def test_mismatched_power_nonzero(self):
        d = tsallis_density(2.0)
        P = random_joint(3, 3, seed=1)
        assert abs(extensivity_residual(d, P, power_coefficient(1.0))) > 1e-4


class TestSandwich:
    @pytest.mark.parametrize("d", [tsallis_density(0.5), tsallis_density(2.0)],
                             ids=["t0.5", "t2"])
    def test_equality_collapse(self, d):
        for seed in range(40):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            rep = sandwich_check(d, P)
            assert rep.verdict == "pass"
            assert rep.upper - rep.lower <= rep.tolerance

    def test_bg_collapse(self):
        d = bg_density()
        for seed in range(40):
            P = random_joint(4, 5, seed=seed)
            rep = sandwich_check(d, P)
            assert rep.verdict == "pass"
            assert rep.upper - rep.lower <= rep.tolerance

    def test_remark5_passes(self):
        d = remark5_density()
        for seed in range(40):
            m, n = sizes_from_seed(seed)
            P = random_joint(m, n, seed=seed)
            rep = sandwich_check(d, P)
            assert rep.verdict == "pass"
            assert rep.slack_lower >= -rep.tolerance
            assert rep.slack_upper >= -rep.tolerance

    def test_remark5_on_counterexample_matrix(self):
        rep = sandwich_check(remark5_density(), iff_counterexample_matrix(0.5))
        assert rep.verdict == "pass"

    def test_divergent_verdict(self):
        # the x-family has both marginals exactly 1/2, where the oscillating
        # density's divergence is detectable
        d = shifted_density(remark2_density())
        rep = sandwich_check(d, iff_counterexample_matrix(0.3))
        assert rep.verdict == "divergent"
        assert rep.divergent

    def test_flag_requirements(self):
        with pytest.raises(ValueError):
            sandwich_check(remark2_density(), random_joint(2, 2, seed=0))

    def test_report_is_packed(self):
        # 4 float64 and a verdict code, no instance dict; bytes.lower and
        # bytes.upper are shadowed by the fields
        rep = sandwich_check(remark5_density(), random_joint(3, 3, seed=2))
        assert isinstance(rep, bytes) and len(rep) == 33 and not hasattr(rep, "__dict__")
        assert list(rep.to_dict()) == list(SandwichReport._fields)
        assert [type(v) for v in rep.to_dict().values()] == [float] * 6 + [str, bool]
        assert (rep.slack_lower, rep.slack_upper) == (rep.diff - rep.lower, rep.upper - rep.diff)
        assert rep.verdict == "pass" and rep.divergent is False

    @pytest.mark.parametrize("d", [remark5_density(), shifted_density(remark2_density())], ids=lambda d: d.label)
    def test_repr_names_every_stored_field(self, d):
        rep = sandwich_check(d, random_joint(4, 4, seed=2, concentration=0.05))
        stored = ("diff", "lower", "upper", "tolerance", "verdict")
        want = ", ".join(f"{k}={rep.to_dict()[k]!r}" for k in stored)
        assert repr(rep) == str(rep) == f"SandwichCheck({want})"
        assert len(rep) == 33


class TestIff:
    @pytest.mark.parametrize("x", [0.3, 0.01])
    def test_is_the_sandwich_lower_line(self, x):
        d, P = remark5_density(), iff_counterexample_matrix(x)
        assert repr(iff_lhs(d, P)) == repr(sandwich_check(d, P).lower)

    @pytest.mark.parametrize("x", [0.02, 0.01, 0.005])
    def test_negative_for_small_x(self, x):
        d = remark5_density()
        assert iff_lhs(d, iff_counterexample_matrix(x)) < 0.0

    def test_limit_approach(self):
        d = remark5_density()
        prev_dist = math.inf
        for x in (0.02, 0.01, 0.005):
            val = iff_lhs(d, iff_counterexample_matrix(x))
            dist = abs(val - IFF_LIMIT)
            assert dist < prev_dist
            prev_dist = dist
        assert prev_dist <= 0.05

    def test_nonnegative_for_power_densities(self):
        # collapse kills the correction term; what remains is a nonnegative
        # combination of conditional entropies
        for d in (tsallis_density(0.5), tsallis_density(2.0), bg_density()):
            for seed in range(10):
                P = random_joint(3, 4, seed=seed)
                assert iff_lhs(d, P) >= -1e-10

    def test_not_negative_for_moderate_x(self):
        d = remark5_density()
        assert iff_lhs(d, iff_counterexample_matrix(0.8)) > 0.0

    @pytest.mark.parametrize("x", [1.5, math.nan])
    def test_joint_refuses_x_outside_the_family(self, x):
        # the family has no range check of its own: such an x makes an entry
        # negative or NaN, and JointMatrix refuses it
        with pytest.raises(InvalidDistributionError):
            iff_counterexample_matrix(x)


class TestRecovery:
    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_tsallis_power(self, q):
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "power"
        assert abs(rec.q_est - q) <= 1e-12
        assert rec.psi_spread <= 1e-14
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

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.floats(0.05, 4.0).filter(lambda q: q != 1.0),
        st.floats(1e-12, 1e-3).flatmap(lambda dq: st.sampled_from([1.0 - dq, 1.0 + dq])),
    ))
    def test_every_tsallis_is_a_power(self, q):
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "power"
        assert abs(rec.q_est - q) <= 1e-12
        assert rec.reconstruction.max_abs_err <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 4.0), st.floats(1e-6, 1.0), st.booleans())
    def test_two_tsallis_mixture_is_not_a_power(self, q1, delta, down):
        # psi of the mixture falls with t, by about 3.45 delta^2 over the
        # scan's grid: far above the rounding of an exact power's psi
        q2 = q1 - delta if down else q1 + delta
        assume(q2 > 0.0 and 1.0 not in (q1, q2))
        rec = recover_f(mixed_density(tsallis_density(q1), tsallis_density(q2)))
        assert rec.verdict == "not_power" and rec.reconstruction is None
        assert rec.psi_spread >= 3e-12
        # the two witnesses are the grid's ends, psi largest at T_MIN
        assert (rec.t_psi_max, rec.t_psi_min) == (T_MIN, 1.0)

    def test_mixture_has_no_coefficient_function(self):
        # the independent oracle: the f that fits the twice-differentiated
        # relation at xi = 1 misses it at xi = 0.2
        d = mixed_density(tsallis_density(0.5), tsallis_density(1.5))
        r = 0.5
        f = r * r * float(np.asarray(d.eval_s2(r * 0.5))) / float(np.asarray(d.eval_s2(0.5)))
        assert abs(check_twice_equation(d, lambda _: f, r, 1.0, 0.5)) <= 1e-12
        assert abs(check_twice_equation(d, lambda _: f, r, 0.2, 0.1)) > 1e-2
        assert recover_f(d).verdict == "not_power"

    def test_power_agrees_with_twice_equation(self):
        for q in (0.05, 0.5, 1.0 + 1e-12, 2.0, 4.0):
            d = tsallis_density(q)
            f = power_coefficient(recover_f(d).q_est)
            for r, xi, x in [(0.5, 0.8, 0.3), (0.2, 1.0, 0.4), (0.9, 0.6, 0.1)]:
                scale = r * r * abs(float(np.asarray(d.eval_s2(r * x))))
                assert abs(check_twice_equation(d, f, r, xi, x)) <= 1e-12 * scale

    def test_reconstruction_gate(self):
        # psi is that of tsallis(2), but s is off by 1e-6 r(1 - r): no power
        d = tsallis_density(2.0)
        off = dataclasses.replace(d, eval_s=lambda r: d.eval_s(r) + 1e-6 * np.asarray(r) * (1.0 - np.asarray(r)))
        rec = recover_f(off)
        assert rec.verdict == "not_power" and rec.psi_spread == 0.0
        assert rec.reconstruction.max_abs_err == pytest.approx(2.5e-7, rel=1e-6)

    @pytest.mark.parametrize("q", [54.0, 60.0, 108.0, 120.0, 200.0, 1000.0])
    def test_underflowed_curvature_is_inconclusive(self, q):
        # from q = 53.5 or so s'' is subnormal at T_MIN, and no psi rests on it
        rec = recover_f(tsallis_density(q))
        assert rec.verdict == "inconclusive" and rec.reconstruction is None
        assert math.isnan(rec.q_est) and math.isnan(rec.psi_spread)
        assert rec.to_dict()["verdict"] == "inconclusive" and "reconstruction" not in rec.to_dict()

    def test_largest_q_with_normal_curvature(self):
        assert recover_f(tsallis_density(53.0)).verdict == "power"

    def test_without_s3_is_inconclusive(self):
        assert recover_f(dataclasses.replace(bg_density(), eval_s3=None)).verdict == "inconclusive"

    def test_remark5_rejected(self):
        rec = recover_f(remark5_density())
        assert rec.verdict == "not_power"
        # psi = (pi t/2)/sin(pi t/2) rises from 1 to pi/2
        assert rec.psi_spread == pytest.approx(math.pi / 2.0 - 1.0, abs=1e-12)
        assert (rec.t_psi_max, rec.t_psi_min) == (1.0, T_MIN)
        assert rec.reconstruction is None

    def test_remark2_rejected(self):
        rec = recover_f(remark2_density())
        assert rec.verdict == "not_power"
        assert rec.psi_spread > 1e6
        for t in (rec.t_psi_max, rec.t_psi_min):
            assert t in _GRID


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
        np.testing.assert_allclose(marginal(P), [r, 1.0 - r], atol=1e-15)
        np.testing.assert_allclose(
            conditional(P, 1), [x, xi - x, 1.0 - xi], atol=1e-15
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
        r, xi, x = 0.5, 0.8, 0.3

        def residual_of_x(xx):
            return extensivity_residual(d, three_by_two_family(r, xi, xx), f)

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
        rep = axiom_suite(d, sizes=(2, 4, 6), seed=11, trials=60)
        assert rep.continuity
        assert rep.maximality
        assert rep.expandability
        assert rep.worst_maximality_gap <= 1e-12

    def test_modulus_shrinks(self):
        rep = axiom_suite(remark5_density(), sizes=(3,), seed=5, trials=40)
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
            axiom_suite(bare)

    def test_modulus_stalled_above_rounding_is_not_continuous(self):
        # s jumps by up to 1e-9 at every bit pattern, so no eps makes the
        # modulus shrink: its levels stall near 1e-9, above the 1e-12 floor
        bg = bg_density()
        d = Density(
            label="jitter",
            eval_s=lambda r: 1e-9 * np.modf(np.asarray(r, dtype=np.float64) * 2.0**40)[0],
            eval_s1=bg.eval_s1,
            eval_s2=bg.eval_s2,
            s0_zero=True,
        )
        rep = axiom_suite(d, sizes=(2, 3), seed=0, trials=20)
        assert all(1e-12 < v < 1e-8 for v in rep.levels)
        assert rep.levels[2] > rep.levels[1]
        assert not rep.continuity
        assert rep.to_dict() == reference_axiom_suite(d, (2, 3), 0, 20)

    def test_rejects_empty_vectors(self):
        with pytest.raises(InvalidDistributionError, match="n must be >= 1"):
            axiom_suite(bg_density(), sizes=(3, 0), trials=1)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "d",
        [bg_density(), tsallis_density(0.5), tsallis_density(2.0),
         tsallis_density(3.0), remark2_density(), remark5_density()],
        ids=lambda d: d.label,
    )
    def test_random_joints(self, d):
        for seed in range(60):
            m, n = sizes_from_seed(seed)
            assert monotone(d, random_joint(m, n, seed=seed))

    def test_counterexample_matrix_still_monotone(self):
        d = remark5_density()
        assert monotone(d, iff_counterexample_matrix(0.3))


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
                      shifted_density(remark2_density()),
                      mixed_density(tsallis_density(0.5), tsallis_density(2.0))]
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
        assert sandwich_check(d, P).verdict != "fail"

    @settings(max_examples=100, deadline=None)
    @given(joints())
    def test_factorization_round_trip(self, P):
        assert np.max(np.abs(rebuild(P) - P.entries)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CONCAVE_DENSITIES), joints())
    def test_monotonicity(self, d, P):
        assert monotone(d, P)


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
        f = power_coefficient(0.5)
        assert extensivity_residual(d, P, f) == reference_residual(d, P, f)
        assert monotone(d, P) == reference_monotonicity(d, P)
        ready = sandwich_ready(d)
        assert sandwich_check(ready, P).to_dict() == reference_sandwich(ready, P)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(BATCH_DENSITIES),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),  # no sizes raises
        st.integers(1, 4),  # no trials raises
        st.integers(0, 2**32 - 1),
    )
    def test_axiom_suite_matches_per_vector(self, d, sizes, trials, seed):
        got = axiom_suite(d, sizes=tuple(sizes), seed=seed, trials=trials).to_dict()
        assert got == reference_axiom_suite(d, tuple(sizes), seed, trials)

    def test_no_zero_convention_still_raises(self):
        d = Density(
            label="sqrt",
            eval_s=lambda r: np.sqrt(np.asarray(r)),
            eval_s1=lambda r: 0.5 / np.sqrt(np.asarray(r)),
            eval_s2=lambda r: -0.25 * np.asarray(r) ** -1.5,
            s0_zero=False,
        )
        f = power_coefficient(0.5)
        with pytest.raises(DensityDomainError):
            extensivity_residual(d, JointMatrix([[0.5, 0.0], [0.0, 0.5]]), f)
        P = random_joint(3, 4, seed=0)
        assert extensivity_residual(d, P, f) == reference_residual(d, P, f)

    def test_nan_values_skipped_like_the_loop(self):
        bg = bg_density()
        d = Density(
            label="bg-nan-above-0.6",
            eval_s=lambda r: np.where(np.asarray(r) > 0.6, np.nan, bg.eval_s(r)),
            eval_s1=bg.eval_s1,
            eval_s2=bg.eval_s2,
            s0_zero=True,
        )
        got = axiom_suite(d, sizes=(2, 3), seed=5, trials=30).to_dict()
        assert got == reference_axiom_suite(d, (2, 3), 5, 30)
        assert math.isfinite(got["worst_maximality_gap"]) and not got["expandability"]

    @pytest.mark.parametrize("sizes, trials", [((), 5), ((1,), 5), ((2, 3), 0)],
                             ids=["no-sizes", "size-1", "no-trials"])
    def test_edge_suites(self, sizes, trials):
        d = remark5_density()
        if not sizes or not trials:
            # a suite that draws no vector would pass vacuously: rejected
            match = "sizes must hold at least one size" if not sizes else "trials must be >= 1"
            with pytest.raises(ValueError, match=match):
                axiom_suite(d, sizes=sizes, seed=3, trials=trials)
            return
        rep = axiom_suite(d, sizes=sizes, seed=3, trials=trials)
        assert rep.to_dict() == reference_axiom_suite(d, sizes, 3, trials)
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
        got = residual_block(d, grids, *factor_grids(grids), f).tolist()
        want = [extensivity_residual(d, JointMatrix(g), f) for g in grids]
        assert [repr(v) for v in got] == [repr(v) for v in want]
        assert want == [reference_residual(d, JointMatrix(g), f) for g in grids]

    def test_no_joints(self):
        d = bg_density()
        out = residual_block(d, np.empty((0, 2, 3)), np.empty((0, 3)), np.empty((0, 3, 2)), power_coefficient(1.0))
        assert out.shape == (0,)


class TestSandwichBlock:
    @pytest.mark.parametrize(
        "d", [remark5_density(), tsallis_density(0.1), bg_density()], ids=lambda d: d.label
    )
    def test_each_row_is_a_sandwich_check(self, d):
        # 160 columns: two scans
        grids = random_grids(4, 4, list(range(40)), concentration=0.05)
        block = sandwich_block(d, grids, *factor_grids(grids))
        assert isinstance(block, SandwichReport) and all(v.shape == (40,) for v in block)
        rows = [dict(zip(SandwichReport._fields, row)) for row in zip(*(v.tolist() for v in block))]
        assert [repr(row) for row in rows] == [repr(sandwich_check(d, JointMatrix(g)).to_dict()) for g in grids]

    @pytest.mark.parametrize("q", [1e6, 1e9])
    def test_infinite_propagated_tolerance_is_divergent(self, q):
        # from about q = 1e6 the scan's grid errors are +inf: the propagated
        # tolerance would pass any slack, so each joint is skipped
        grids = random_grids(4, 4, list(range(20)))
        d = tsallis_density(q)
        block = sandwich_block(d, grids, *factor_grids(grids))
        assert np.isinf(block.tolerance).all()
        assert block.verdict.tolist() == ["divergent"] * 20 and block.divergent.all()
        for g, got in zip(grids, zip(*(v.tolist() for v in block))):
            P = JointMatrix(g)
            row = dict(zip(SandwichReport._fields, got))
            assert repr(row) == repr(sandwich_check(d, P).to_dict()) == repr(reference_sandwich(d, P))

    @pytest.mark.parametrize("factor", [0.0, 10.0])
    def test_a_raised_lower_line_fails(self, factor, monkeypatch):
        # tsallis' envelope collapses to r^q, so lower = diff up to rounding:
        # raising each lower_j by rise moves the lower line by
        # rise * sum_j (S_j - s'(1)), here factor times the joint's tolerance
        d = tsallis_density(0.5)
        grids = random_grids(4, 4, list(range(50)))
        parts = factor_grids(grids)
        base = sandwich_block(d, grids, *parts)
        _, _, S_cond = joint_entropies(d, grids, *parts)
        rise = factor * base.tolerance / (S_cond - float(np.asarray(d.eval_s1(1.0)))).sum(axis=1)
        original = extensivity.column_bounds

        def raised(d, rs):
            cb = original(d, rs)
            return cb._replace(lower=cb.lower + np.repeat(rise, 4))

        monkeypatch.setattr(extensivity, "column_bounds", raised)
        block = sandwich_block(d, grids, *parts)
        np.testing.assert_allclose(block.lower - base.lower, factor * base.tolerance, rtol=1e-6)
        assert (block.tolerance == base.tolerance).all()
        assert block.verdict.tolist() == ["fail" if factor else "pass"] * 50

    def test_finite_propagated_tolerance_still_checks(self):
        grids = random_grids(4, 4, list(range(20)))
        block = sandwich_block(tsallis_density(1e5), grids, *factor_grids(grids))
        assert np.isfinite(block.tolerance).all() and not block.divergent.any()
        assert block.verdict.tolist() == ["pass"] * 20


class TestEvalCount:
    """Exactly one eval_s call per joint and per suite, over the same points."""

    def test_residual(self):
        d, calls = count_eval_s(remark5_density())
        extensivity_residual(d, random_joint(5, 4, seed=0), power_coefficient(1.0))
        assert calls == [20 + 4 + 20]  # joint, marginal, 4 conditionals of 5

    def test_sandwich(self):
        d, calls = count_eval_s(remark5_density())
        sandwich_check(d, random_joint(5, 4, seed=0))
        assert calls == [20 + 4 + 20]

    def test_monotonicity(self):
        d, calls = count_eval_s(remark2_density())
        joint_entropies(d, *random_joint(5, 4, seed=0).stack)
        # joint_entropies forms every part of a joint, conditionals included
        assert calls == [20 + 4 + 20]

    @pytest.mark.parametrize("sizes, trials", [((2, 3, 8), 4), ((1,), 2), ((2, 3), 0)])
    def test_suite(self, sizes, trials):
        d, calls = count_eval_s(remark5_density())
        if not trials:  # rejected before any evaluation
            with pytest.raises(ValueError, match="trials must be >= 1"):
                axiom_suite(d, sizes=sizes, seed=0, trials=trials)
            assert calls == []
            return
        axiom_suite(d, sizes=sizes, seed=0, trials=trials)
        assert calls == [suite_points(sizes, trials)]

    def test_empty_suite(self):
        d, calls = count_eval_s(remark5_density())
        with pytest.raises(ValueError, match="sizes must hold at least one size"):
            axiom_suite(d, sizes=(), seed=0, trials=5)
        assert calls == []


def watch_validation(monkeypatch):
    """Row counts of the blocks passed to check_rows.

    entropy checks a lone vector as a one-row block; a JointMatrix checks
    its flattened grid, and nothing derived from it."""
    rows = []
    check_rows = simplex.check_rows

    def counted_check_rows(block):
        check_rows(block)
        rows.append(block.shape[0])

    for mod in (simplex, densities):
        monkeypatch.setattr(mod, "check_rows", counted_check_rows)
    return rows


class TestBlockValidation:
    """Outside input is checked once, where it enters; rows derived from it
    inside a suite or a joint are not checked again."""

    @pytest.mark.parametrize("trials", [1, 40])
    def test_suite(self, monkeypatch, trials):
        rows = watch_validation(monkeypatch)
        # every row is drawn and normalized inside the suite
        axiom_suite(remark5_density(), sizes=(2, 3, 8), seed=0, trials=trials)
        assert rows == []

    @pytest.mark.parametrize("m, n", [(2, 2), (9, 7)])
    def test_joint_checks(self, monkeypatch, m, n):
        entries = random_joint(m, n, seed=1).entries
        rows = watch_validation(monkeypatch)
        P = JointMatrix(entries)
        # the flattened grid only: its marginal and conditionals are derived
        assert rows == [1]
        # checks of the joint read its stack and validate nothing more
        d = remark5_density()
        extensivity_residual(d, P, power_coefficient(1.0))
        joint_entropies(d, *P.stack)
        sandwich_check(d, P)
        iff_lhs(d, P)
        assert rows == [1]

    def test_sandwich_op_validates_once(self, monkeypatch):
        # the benchmark's sandwich op: one joint, checked under two functionals
        entries = random_joint(4, 4, seed=3, concentration=0.05).entries
        pair = [remark5_density(), tsallis_density(0.1)]
        rows = watch_validation(monkeypatch)
        P = JointMatrix(entries)
        reports = [sandwich_check(d, P) for d in pair]
        # the flattened grid only
        assert rows == [1]
        for d, rep in zip(pair, reports):
            assert repr(rep) == repr(sandwich_check(d, JointMatrix(entries)))
            assert rep.to_dict() == reference_sandwich(d, JointMatrix(entries))

    def test_factored_blocks_are_read_only(self):
        P = random_joint(3, 4, seed=2)
        assert P.column_marginals.shape == (4,) and P.conditionals.shape == (4, 3)
        assert marginal(P).tobytes() == P.column_marginals.tobytes()
        for j in range(1, P.n + 1):
            assert conditional(P, j).tobytes() == P.conditionals[j - 1].tobytes()
        grids, marginals, conditionals = P.stack
        assert grids.shape == (1, 3, 4) and marginals.shape == (1, 4) and conditionals.shape == (1, 4, 3)
        for block in (P.column_marginals, P.conditionals, *P.stack):
            with pytest.raises(ValueError, match="read-only"):
                block.flat[0] = 0.5
        with pytest.raises(ValueError):
            marginal(P)[0] = 0.5

    def test_reports_share_labels_and_hold_no_dict(self):
        d = bg_density()
        a = axiom_suite(d, sizes=(2,), seed=0, trials=3)
        b = axiom_suite(d, sizes=(3,), seed=1, trials=3)
        assert list(a.modulus) == list(b.modulus)
        assert not hasattr(a, "__dict__")
        assert a.modulus == dict(zip(("0.001", "1e-05", "1e-07"), a.levels))

    def test_sandwich_report_holds_no_dict(self):
        d = remark5_density()
        rep = sandwich_check(d, random_joint(3, 3, seed=4))
        assert not hasattr(rep, "__dict__")
        assert list(rep.to_dict()) == [
            "diff", "lower", "upper", "slack_lower", "slack_upper", "tolerance", "verdict", "divergent",
        ]
        with pytest.raises(AttributeError):
            rep.verdict = "fail"
