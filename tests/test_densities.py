import math

import numpy as np
import pytest

from extenso.densities import (
    Density,
    DensityDomainError,
    EntropyFunctional,
    bg_density,
    canonical_grid,
    density_from_spec,
    entropy,
    remark2_density,
    remark5_density,
    shifted_density,
    tsallis_density,
)
from extenso.simplex import SimplexVector, marginal, random_joint, uniform_vector
from numeric_oracles import adaptive_quadrature

# Frozen oracle values (high-precision quadrature computed ahead of the build;
# the log-sin constant also has the closed form -2*Catalan/pi - log 2).
CATALAN = 0.915965594177219015054603514932384110774
LOGSIN_C = -2.0 * CATALAN / math.pi - math.log(2.0)  # -1.2762689886215829
R5_S1_AT_1 = -0.9296953983416102
R5_S_AT_HALF = 0.3335183212648291
R5_ENTROPY_HALF_HALF = 0.6670366425296583
# oscillating-curvature density: exact half-period antiderivatives + bounded tail
R2_REFERENCE = {
    1.0: (-0.53672204003903256, -0.16126399825685586),
    0.5: (-0.13017092735112825, -0.020025993854789036),
    0.25: (-0.022177197312376241, -0.0019302975813085096),
    0.125: (-0.0057069644587414662, -0.00023065631519014133),
}
# Around the ladder cutoff b0 ~ 1.00003e-4 (below it the ladder folds in the
# 2/pi mean of |cos|).  Computed with mpmath at 40 digits from
# G(r) = int_{1/r}^inf |cos v| v^-3 dv and H(r) = the same with v^-4, then
# s'(r) = -(G + r^3/3) and s(r) = r s'(r) + H + r^4/4: plain quadrature from
# 1/r to the next zero z_K = (K+1/2)pi of cos, and for the half periods beyond
# it |cos(z_k + w)| = sin w turns the sum over k >= K into
# int_0^pi sin(w) zeta(p, K + 1/2 + w/pi) dw / pi^p with the Hurwitz zeta.
# The same recipe reproduces R2_REFERENCE to all of its digits.
R2_CUTOFF_REFERENCE = {
    5e-7: (-7.9577538268802740255e-14, -1.3262917132657337343e-20),
    5e-5: (-7.9579306565503259097e-10, -1.3263432745901778041e-14),
    9.9e-5: (-3.1198773840339992239e-9, -1.0295992634504825478e-13),
    1.01e-4: (-3.2475587938406015096e-9, -1.0932700403987821987e-13),
    2e-4: (-1.2735756231518525739e-8, -8.4895973040870349124e-13),
}


def catalog():
    return [bg_density(), tsallis_density(0.5), tsallis_density(2.0),
            tsallis_density(3.0), remark2_density(), remark5_density()]


class TestBg:
    def test_uniform_maximum(self):
        F = EntropyFunctional(bg_density())
        assert entropy(F, uniform_vector(4)) == pytest.approx(math.log(4), abs=1e-14)

    def test_degenerate_zero(self):
        F = EntropyFunctional(bg_density())
        assert entropy(F, SimplexVector([1.0, 0.0, 0.0])) == 0.0

    def test_curvature(self):
        assert bg_density().eval_s2(0.5) == -2.0

    def test_half_half(self):
        F = EntropyFunctional(bg_density())
        assert entropy(F, SimplexVector([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-15)


class TestTsallis:
    def test_q2_half_half(self):
        F = EntropyFunctional(tsallis_density(2.0))
        assert entropy(F, SimplexVector([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        for q in (0.5, 2.0, 3.7):
            F = EntropyFunctional(tsallis_density(q))
            assert entropy(F, SimplexVector([1.0])) == 0.0

    def test_q_half_uniform4(self):
        F = EntropyFunctional(tsallis_density(0.5))
        assert entropy(F, uniform_vector(4)) == pytest.approx(2.0, abs=1e-14)

    def test_limit_to_bg(self):
        Fbg = EntropyFunctional(bg_density())
        for q in (0.999, 1.001):
            Fq = EntropyFunctional(tsallis_density(q))
            for seed in range(5):
                p = marginal(random_joint(1, 6, seed=seed))
                assert entropy(Fq, p) == pytest.approx(entropy(Fbg, p), abs=1e-2)

    def test_invalid_q(self):
        for q in (0.0, -1.0, 1.0):
            with pytest.raises(ValueError):
                tsallis_density(q)

    def test_curvature_closed_form(self):
        d = tsallis_density(0.5)
        r = np.array([0.2, 0.7])
        np.testing.assert_allclose(d.eval_s2(r), -0.5 * r**-1.5, rtol=1e-14)


class TestRemark2:
    def test_curvature_at_ladder_zero(self):
        d = remark2_density()
        t3 = 1.0 / ((3 + 0.5) * math.pi)
        assert d.eval_s2(t3) == pytest.approx(-t3 * t3, abs=1e-15)

    def test_curvature_at_one(self):
        d = remark2_density()
        assert d.eval_s2(1.0) == pytest.approx(-(abs(math.cos(1.0)) + 1.0), abs=1e-15)

    def test_s_at_zero(self):
        d = remark2_density()
        assert d.eval_s(0.0) == 0.0

    @pytest.mark.parametrize("r", sorted(R2_REFERENCE))
    def test_ladder_against_reference(self, r):
        d = remark2_density()
        s1_ref, s_ref = R2_REFERENCE[r]
        assert abs(float(d.eval_s1(r)) - s1_ref) <= 1e-9
        assert abs(float(d.eval_s(r)) - s_ref) <= 1e-9

    @pytest.mark.parametrize("r", sorted(R2_CUTOFF_REFERENCE))
    def test_both_sides_of_ladder_cutoff(self, r):
        d = remark2_density()
        s1_ref, s_ref = R2_CUTOFF_REFERENCE[r]
        assert abs(float(d.eval_s1(r)) - s1_ref) <= 1e-12
        assert abs(float(d.eval_s(r)) - s_ref) <= 1e-12

    def test_not_value_normalized_at_one(self):
        assert not remark2_density().s1_zero

    def test_probe_points_declared(self):
        d = remark2_density()
        assert d.probe_points[0] == pytest.approx(1.0 / (1.5 * math.pi))
        assert len(d.probe_points) >= 40


class TestRemark5:
    def test_endpoint_values(self):
        d = remark5_density()
        assert d.eval_s(0.0) == 0.0
        assert abs(d.eval_s(1.0)) <= 1e-9

    def test_constant_against_closed_form(self):
        from extenso.densities import _remark5_constant

        assert abs(_remark5_constant() - LOGSIN_C) <= 1e-10

    def test_curvature_at_one(self):
        assert remark5_density().eval_s2(1.0) == pytest.approx(-math.pi / 4.0, abs=1e-15)

    def test_slope_at_one_negative(self):
        d = remark5_density()
        s1 = float(d.eval_s1(1.0))
        assert s1 < 0.0
        assert abs(s1 - R5_S1_AT_1) <= 1e-9

    def test_value_at_half(self):
        assert abs(float(remark5_density().eval_s(0.5)) - R5_S_AT_HALF) <= 1e-9

    def test_entropy_half_half(self):
        F = EntropyFunctional(remark5_density())
        got = entropy(F, SimplexVector([0.5, 0.5]))
        assert abs(got - R5_ENTROPY_HALF_HALF) <= 1e-9


class TestShifted:
    def test_tsallis_fixed_point(self):
        d = tsallis_density(0.5)
        sh = shifted_density(d)
        grid = canonical_grid(256)
        np.testing.assert_allclose(sh.eval_s(grid), d.eval_s(grid), atol=1e-15)

    def test_vanishes_at_one(self):
        for d in (remark2_density(), bg_density()):
            assert abs(float(shifted_density(d).eval_s(1.0))) <= 1e-12

    def test_difference_invariance(self):
        # joint-minus-marginal entropy differences ignore the shift
        d = remark2_density()
        F = EntropyFunctional(d)
        Fs = EntropyFunctional(shifted_density(d))
        for seed in range(5):
            P = random_joint(4, 3, seed=seed)
            flat = SimplexVector(P.entries.ravel())
            p = marginal(P)
            diff = entropy(F, flat) - entropy(F, p)
            diff_shifted = entropy(Fs, flat) - entropy(Fs, p)
            assert diff_shifted == pytest.approx(diff, abs=1e-12)

    def test_curvature_unchanged(self):
        d = remark5_density()
        sh = shifted_density(d)
        assert sh.eval_s2 is d.eval_s2


class TestEntropyContract:
    def test_zero_entry_requires_convention(self):
        bare = Density(
            label="sqrt",
            eval_s=lambda r: np.sqrt(np.asarray(r)),
            eval_s1=lambda r: 0.5 / np.sqrt(np.asarray(r)),
            eval_s2=lambda r: -0.25 * np.asarray(r) ** -1.5,
            s0_zero=False,
        )
        F = EntropyFunctional(bare)
        with pytest.raises(DensityDomainError):
            entropy(F, SimplexVector([1.0, 0.0]))
        assert entropy(F, SimplexVector([0.5, 0.5])) == pytest.approx(math.sqrt(2), abs=1e-15)


class TestDensityInvariants:
    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_flags_consistent(self, d):
        if d.s0_zero:
            assert abs(float(d.eval_s(0.0))) <= 1e-12
        if d.s1_zero:
            assert abs(float(d.eval_s(1.0))) <= 1e-12

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_concavity_on_canonical_grid(self, d):
        assert d.concave
        assert np.all(np.asarray(d.eval_s2(canonical_grid())) < 0.0)

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_scaling_superadditivity(self, d):
        # s(lam r) >= lam s(r) for concave s with s(0) = 0
        rng = np.random.default_rng(123)
        lam = rng.uniform(0.0, 1.0, 200)
        r = rng.uniform(1e-6, 1.0, 200)
        lhs = np.asarray(d.eval_s(lam * r))
        rhs = lam * np.asarray(d.eval_s(r))
        assert np.all(lhs >= rhs - 1e-12)

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_derivative_consistency(self, d):
        # centered differences of s match s1, and of s1 match s2, at 64
        # interior points (grid offset dodges the oscillation kinks)
        h = 1e-5
        r = np.linspace(0.15, 0.93, 64) + 1.7e-4
        s = lambda x: np.asarray(d.eval_s(x))
        s1 = lambda x: np.asarray(d.eval_s1(x))
        fd1 = (s(r + h) - s(r - h)) / (2 * h)
        np.testing.assert_allclose(fd1, s1(r), rtol=1e-5)
        fd2 = (s1(r + h) - s1(r - h)) / (2 * h)
        np.testing.assert_allclose(fd2, np.asarray(d.eval_s2(r)), rtol=1e-5)

    @pytest.mark.parametrize(
        "d", [tsallis_density(0.5), tsallis_density(2.0), remark5_density()],
        ids=lambda d: d.label,
    )
    def test_double_integral_identity(self, d):
        # int_0^r int_t^1 a^2 s''(au) du dt equals a s'(a) r - s(ar); the
        # double integral collapses to a single one with weight min(u, r)
        s2 = d.eval_s2
        for a in (0.25, 0.5, 0.9):
            g_lo = lambda u: a * a * float(np.asarray(s2(a * u))) * u
            g_hi = lambda u: a * a * float(np.asarray(s2(a * u)))
            for r in (0.25, 0.5, 0.9):
                lhs = adaptive_quadrature(g_lo, 0.0, r, 5e-8) + r * adaptive_quadrature(
                    g_hi, r, 1.0, 5e-8
                )
                rhs = a * float(np.asarray(d.eval_s1(a))) * r - float(np.asarray(d.eval_s(a * r)))
                assert abs(lhs - rhs) <= 1e-6


class TestDensitySpec:
    def test_catalog_kinds(self):
        assert density_from_spec({"kind": "bg"}).label == "bg"
        assert density_from_spec('{"kind": "tsallis", "params": {"q": 0.5}}').params["q"] == 0.5
        assert density_from_spec({"kind": "remark2"}).label == "remark2"
        assert density_from_spec({"kind": "remark5"}).label == "remark5"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            density_from_spec({"kind": "renyi"})

    def test_missing_param(self):
        with pytest.raises(ValueError):
            density_from_spec({"kind": "tsallis"})
