import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import extenso
from extenso import _kernels, densities
from extenso.densities import (
    Density,
    DensityDomainError,
    bg_density,
    entropy,
    joint_entropies,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.cli import main
from extenso.extensivity import extensivity_residual, power_coefficient, residual_block, sandwich_check
from extenso.simplex import (
    JointMatrix,
    RandomGenerationError,
    conditional,
    factor_grids,
    marginal,
    random_grids,
    random_joint,
)
from numeric_oracles import (
    adaptive_quadrature,
    count_eval_s,
    entropy_one,
    gl12_remark2_ladder,
    gl12_remark2_moments,
    mp_remark2_moments,
    reference_residual,
    shifted_density,
    uniform_vector,
)

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
        d = bg_density()
        assert entropy(d, uniform_vector(4)) == pytest.approx(math.log(4), abs=1e-14)

    def test_degenerate_zero(self):
        d = bg_density()
        assert entropy(d, [1.0, 0.0, 0.0]) == 0.0

    def test_curvature(self):
        assert bg_density().eval_s2(0.5) == -2.0

    def test_half_half(self):
        d = bg_density()
        assert entropy(d, [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)


class TestTsallis:
    def test_q2_half_half(self):
        d = tsallis_density(2.0)
        assert entropy(d, [0.5, 0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        for q in (0.5, 2.0, 3.7):
            d = tsallis_density(q)
            assert entropy(d, [1.0]) == 0.0

    def test_q_half_uniform4(self):
        d = tsallis_density(0.5)
        assert entropy(d, uniform_vector(4)) == pytest.approx(2.0, abs=1e-14)

    def test_limit_to_bg(self):
        bg = bg_density()
        for q in (0.999, 1.001):
            ts = tsallis_density(q)
            for seed in range(5):
                p = marginal(random_joint(1, 6, seed=seed))
                assert entropy(ts, p) == pytest.approx(entropy(bg, p), abs=1e-2)

    def test_invalid_q(self):
        for q in (0.0, -1.0, 1.0):
            with pytest.raises(ValueError):
                tsallis_density(q)

    @pytest.mark.parametrize("q", [math.inf, math.nan, -math.inf])
    def test_non_finite_q(self, q):
        with pytest.raises(ValueError, match="q must be finite"):
            tsallis_density(q)

    def test_curvature_closed_form(self):
        d = tsallis_density(0.5)
        r = np.array([0.2, 0.7])
        np.testing.assert_allclose(d.eval_s2(r), -0.5 * r**-1.5, rtol=1e-14)

    def test_curvature_overflow_is_minus_inf(self):
        # r^(q-2) overflows for q < 2 and tiny r; the value is -inf.  Keeping
        # the warning quiet is the extremum scan's job, not the density's
        with np.errstate(over="ignore"):
            vals = tsallis_density(0.1).eval_s2(np.array([1e-300, 0.5]))
        assert vals[0] == -math.inf and vals[1] == -0.1 * 0.5**-1.9

    @pytest.mark.parametrize(
        "q, r",
        [
            (0.1, 1e-200),
            (0.5, 1e-300),
            (0.01, 1e-300),
            (0.3, 0.01),
            (1.0 + 1e-8, 1e-300),
            (1.0 - 1e-8, 1e-300),
            (1.0 + 1e-9, 0.3),
            (1.0 - 1e-9, 1e-10),
            (1.0 + 1e-12, 0.5),
            (3.0, 1e-5),
        ],
    )
    def test_derivative_against_mpmath(self, q, r):
        # s'(r) = -q (r^(q-1) - 1)/(q - 1) - 1 at 50 digits, for the float q
        # itself; far from r = 1 the expm1 form lost |(q-1) log r| ulps
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            qq, rr = mp.mpf(q), mp.mpf(r)
            want = -qq * (rr ** (qq - 1) - 1) / (qq - 1) - 1
            got = float(tsallis_density(q).eval_s1(r))
            assert abs((got - want) / want) <= 1e-15


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


B0 = float(gl12_remark2_ladder()[0][0])
# the ten widest panels, from here to 1, are cut into sub-panels
WIDE_CUT = 2.0 / (10 * math.pi)
N_NARROW = len(gl12_remark2_ladder()[0]) - 11


def break_neighbours(breaks: np.ndarray) -> np.ndarray:
    """Every break and its float neighbours up to two steps away."""
    out = [breaks]
    for toward in (0.0, 2.0):
        r = breaks
        for _ in range(2):
            r = np.nextafter(r, toward)
            out.append(r)
    return np.concatenate(out)


def table_breaks() -> np.ndarray:
    """The table's finite breaks: each panel's left end."""
    return densities._remark2_tables().breaks[:-1]


def s_of_moments(r, G, H):
    """remark2's s = r s'(r) + H + r^4/4 with s'(r) = -(G + r^3/3)."""
    return -r * (G + r**3 / 3.0) + H + r**4 / 4.0


def mp_remark2_s(r) -> list:
    """remark2's s at 30 digits from the closed-form moments."""
    mp = pytest.importorskip("mpmath")
    G, H = mp_remark2_moments(r)
    with mp.workdps(30):
        return [s_of_moments(mp.mpf(x), g, h) for x, g, h in zip(np.asarray(r).tolist(), G, H)]


class TestRemark2Ladder:
    """The table-driven partial panels against the Gauss rule alone on the
    narrow panels, and against the closed form on the sub-panels."""

    def test_prefix_tables_match_gl12_rebuild(self):
        breaks, prefix_g, prefix_h = gl12_remark2_ladder()
        t = densities._remark2_tables()
        n = N_NARROW + 1  # up to and including the first wide break 2/(10 pi)
        assert t.breaks[:n].tolist() == breaks[:n].tolist()
        assert t.prefix_g[:n].tolist() == prefix_g[:n].tolist()
        assert t.prefix_h[:n].tolist() == prefix_h[:n].tolist()
        # every zero and extremum of cos(1/u) is a break, so no panel straddles one
        assert set(breaks[:-1].tolist()) <= set(t.breaks.tolist())

    def test_wide_prefix_tables_against_closed_form(self):
        pytest.importorskip("mpmath")
        t = densities._remark2_tables()
        lefts = table_breaks()[N_NARROW:]
        G_ref, H_ref = mp_remark2_moments(lefts)
        # the rounding of the running sums and of each panel's Gauss rule
        for i, (g, h) in enumerate(zip(G_ref, H_ref)):
            assert abs(t.prefix_g[N_NARROW + i] - g) <= 6e-17
            assert abs(t.prefix_h[N_NARROW + i] - h) <= 6e-17

    def test_panel_index_is_searchsorted(self):
        breaks = table_breaks()
        r = np.concatenate([break_neighbours(breaks), [B0, 1.0, np.nextafter(1.0, 0.0)]])
        r = r[(r >= B0) & (r <= 1.0)]
        want = np.searchsorted(breaks, r, side="right") - 1
        assert densities._remark2_panel(r).tolist() == want.tolist()

    def test_moments_near_every_break(self):
        r = break_neighbours(gl12_remark2_ladder()[0])
        r = r[(r >= B0) & (r < WIDE_CUT)]
        G_ref, H_ref = gl12_remark2_moments(r)
        assert np.abs(densities._remark2_moments(r, of_s=False) - G_ref).max() <= 1e-17
        assert np.abs(remark2_density().eval_s(r) - s_of_moments(r, G_ref, H_ref)).max() <= 1e-17

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=B0, max_value=WIDE_CUT, exclude_max=True))
    def test_moments_against_gauss_rule(self, r):
        (G,) = densities._remark2_moments(np.array([r]), of_s=False)
        (s,) = remark2_density().eval_s(np.array([r]))
        (G_ref,), (H_ref,) = gl12_remark2_moments(np.array([r]))
        assert abs(G - G_ref) <= 1e-17
        assert abs(s - s_of_moments(r, G_ref, H_ref)) <= 1e-17

    def test_log_uniform_sample_against_gauss_rule(self):
        r = np.geomspace(B0, WIDE_CUT, 100_001)[:-1]
        G_ref, H_ref = gl12_remark2_moments(r)
        assert np.abs(densities._remark2_moments(r, of_s=False) - G_ref).max() <= 1e-17
        assert np.abs(remark2_density().eval_s(r) - s_of_moments(r, G_ref, H_ref)).max() <= 1e-17

    def test_wide_moments_against_closed_form(self):
        # a bound the per-point Gauss rule on the ten wide panels also meets
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(2024)
        r = np.concatenate([
            rng.uniform(WIDE_CUT, 1.0, 100),
            np.geomspace(WIDE_CUT, 1.0, 20),
            break_neighbours(table_breaks()[N_NARROW::7])[::3],
            [1.0],
        ])
        r = r[(r >= WIDE_CUT) & (r <= 1.0)]
        G = densities._remark2_moments(r, of_s=False)
        s = remark2_density().eval_s(r)
        G_ref, _ = mp_remark2_moments(r)
        for g, g_ref, v, v_ref in zip(G.tolist(), G_ref, s.tolist(), mp_remark2_s(r)):
            assert abs(g - g_ref) <= 1.2e-16
            assert abs(v - v_ref) <= 1.2e-16

    def test_closed_form_against_quadrature(self):
        mp = pytest.importorskip("mpmath")
        lo, hi = 0.3, 0.9
        (G_lo, G_hi), (H_lo, H_hi) = mp_remark2_moments([lo, hi])
        with mp.workdps(30):
            g = mp.quad(lambda u: u * abs(mp.cos(1 / u)), [lo, 2 / mp.pi, hi])
            h = mp.quad(lambda u: u * u * abs(mp.cos(1 / u)), [lo, 2 / mp.pi, hi])
            assert abs(G_hi - G_lo - g) <= 1e-25
            assert abs(H_hi - H_lo - h) <= 1e-25

    def test_below_cutoff_is_the_mean_tail(self):
        # G = (2/pi) r^2/2 and H = (2/pi) r^3/3, so H - r G = -(2/pi) r^3/6
        r = np.array([0.0, 1e-12, 3e-5, np.nextafter(B0, 0.0)])
        G = densities._remark2_moments(r, of_s=False)
        assert G.tolist() == (2.0 / math.pi * r * r / 2.0).tolist()
        assert remark2_density().eval_s(r).tolist() == (-2.0 / math.pi * r**3 / 6.0 - r**4 / 12.0).tolist()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
    def test_values_do_not_depend_on_the_batch(self, rs):
        d = remark2_density()
        x = np.array(rs)
        for name in ("eval_s", "eval_s1"):
            batch = getattr(d, name)(x)
            for k in range(x.size):
                assert batch[k] == getattr(d, name)(x[k : k + 1])[0]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_values_across_chunk_boundaries(self, chunk, monkeypatch):
        # the tail below b0, narrow panels, sub-panels and r = 1, in chunks
        # that end inside the batch and one that ends with it
        rng = np.random.default_rng(7)
        x = np.concatenate([[0.0, 1e-5, 1.0], np.geomspace(B0, 1.0, 57), rng.random(4)])
        assert x.size == 64
        d = remark2_density()
        single = [(d.eval_s(x[k : k + 1])[0], d.eval_s1(x[k : k + 1])[0]) for k in range(x.size)]
        monkeypatch.setattr(densities, "_REMARK2_CHUNK", chunk)
        assert list(zip(d.eval_s(x).tolist(), d.eval_s1(x).tolist())) == single
        assert d.eval_s(x.reshape(8, 8)).ravel().tolist() == [s for s, _ in single]


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
        d = remark5_density()
        got = entropy(d, [0.5, 0.5])
        assert abs(got - R5_ENTROPY_HALF_HALF) <= 1e-9


# pi to 50 decimals; its relative error, 1e-50, stays far below a float ulp
# through the 36th power the series coefficients need.
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")


def bernoulli_numbers(n_max):
    """Exact B_0..B_n_max (B_1 = -1/2) from sum_k C(m+1, k) B_k = 0."""
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


class TestLogsincSeries:
    def test_coefficients_from_bernoulli_numbers(self):
        # integral over [0, r] of log(sin(a t)/(a t)), a = pi/4, is
        # r * sum_n k_n r^2n with k_n = (-1)^n 2^(2n-1) B_2n a^2n / (n (2n)! (2n+1))
        coeffs = _kernels.LOGSINC_SERIES
        B = bernoulli_numbers(2 * len(coeffs))
        a2 = (PI_50 / 4) ** 2
        for n, got in enumerate(coeffs, start=1):
            exact = (
                (-1) ** n * 2 ** (2 * n - 1) * B[2 * n] * a2**n
                / (n * math.factorial(2 * n) * (2 * n + 1))
            )
            assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("r", [1e-8, 1e-3, 0.1, 0.5, 0.77, 1.0])
    def test_against_mpmath_quadrature(self, r):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.pi / 4
            ref = mp.quad(lambda t: mp.log(mp.sin(a * t) / (a * t)), [0, r])
            got = float(_kernels.logsinc_integral(np.array([r]))[0])
            assert abs(got - ref) <= 1e-16

    def test_import_loads_no_reference_library(self):
        # the series coefficients and the Gauss rule are literals: computing
        # them at import would pull in fractions, mpmath or numpy.polynomial
        # and slow every start
        code = (
            "import sys, extenso, extenso.cli; "
            "print(sorted(m for m in ('fractions', 'mpmath', 'scipy', 'numpy.polynomial') "
            "if m in sys.modules))"
        )
        src = str(Path(extenso.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


    def test_first_evaluations_load_no_module(self):
        # the remark2 table build and an axiom suite run on what import
        # extenso has loaded, besides numpy.random for the suite's draws: a
        # lazy numpy import (np.unique pulls one in) would cost every start
        code = (
            "import sys, numpy as np, extenso; from extenso import extensivity; "
            "np.random.default_rng; before = set(sys.modules); d = extenso.remark2_density(); "
            "d.eval_s(np.linspace(0.0, 1.0, 101)); "
            "extensivity.axiom_suite(d, trials=3); "
            "print(sorted(set(sys.modules) - before))"
        )
        src = str(Path(extenso.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestGaussRule:
    def test_literals_are_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(12)
        assert np.array(_kernels.GL12_X).tolist() == x.tolist()
        assert np.array(_kernels.GL12_W).tolist() == w.tolist()


class TestShifted:
    def test_tsallis_fixed_point(self):
        d = tsallis_density(0.5)
        sh = shifted_density(d)
        grid = np.arange(1, 2049, dtype=np.float64) / 2048
        np.testing.assert_allclose(sh.eval_s(grid), d.eval_s(grid), atol=1e-15)

    def test_vanishes_at_one(self):
        for d in (remark2_density(), bg_density()):
            assert abs(float(shifted_density(d).eval_s(1.0))) <= 1e-12

    def test_difference_invariance(self):
        # joint-minus-marginal entropy differences ignore the shift
        d = remark2_density()
        shifted = shifted_density(d)
        for seed in range(5):
            P = random_joint(4, 3, seed=seed)
            flat = P.entries.ravel()
            p = marginal(P)
            diff = entropy(d, flat) - entropy(d, p)
            diff_shifted = entropy(shifted, flat) - entropy(shifted, p)
            assert diff_shifted == pytest.approx(diff, abs=1e-12)

    def test_curvature_unchanged(self):
        d = remark5_density()
        sh = shifted_density(d)
        assert sh.eval_s2 is d.eval_s2


class TestEntropyContract:
    def test_zero_entry_requires_convention(self):
        d = Density(
            label="sqrt",
            eval_s=lambda r: np.sqrt(np.asarray(r)),
            eval_s1=lambda r: 0.5 / np.sqrt(np.asarray(r)),
            eval_s2=lambda r: -0.25 * np.asarray(r) ** -1.5,
            s0_zero=False,
        )
        with pytest.raises(DensityDomainError):
            entropy(d, [1.0, 0.0])
        # a zero in any part of a joint: its grid, and so a conditional
        grids = np.array([[[0.5, 0.25], [0.0, 0.25]]])
        with pytest.raises(DensityDomainError):
            joint_entropies(d, grids, *factor_grids(grids))
        assert entropy(d, [0.5, 0.5]) == pytest.approx(math.sqrt(2), abs=1e-15)
        grids = np.full((1, 2, 2), 0.25)
        S_joint, S_marg, _ = joint_entropies(d, grids, *factor_grids(grids))
        assert (S_joint.tolist(), S_marg.tolist()) == ([2.0], [math.sqrt(2)])


def zero_row_joint(grids):
    """grids with joint 0 replaced by one whose first row holds all the mass:
    zero joint entries, and conditionals that are unit vectors."""
    grids[0] = 0.0
    grids[0, 0, :] = 1.0 / grids.shape[2]
    return grids


def per_vector_entropies(d, grids):
    """joint_entropies' three parts from one entropy_one call per vector."""
    joints = [JointMatrix(g) for g in grids]
    return (
        [entropy_one(d, P.entries.ravel()) for P in joints],
        [entropy_one(d, marginal(P)) for P in joints],
        [[entropy_one(d, conditional(P, j)) for j in range(1, P.n + 1)] for P in joints],
    )


class TestJointEntropies:
    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 7), (4, 4), (7, 2)])
    def test_matches_per_vector(self, d, m, n):
        grids = zero_row_joint(random_grids(m, n, list(range(12)), concentration=0.2))
        counted, calls = count_eval_s(d)
        got = joint_entropies(counted, grids, *factor_grids(grids))
        assert calls == [12 * (2 * m * n + n)]
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))

    def test_one_joint_is_entropy_of_each_vector(self):
        d = remark2_density()
        P = random_joint(5, 3, seed=4)
        S_joint, S_marg, S_cond = joint_entropies(d, P.entries[None], marginal(P)[None], P.conditionals[None])
        assert S_joint.tolist() == [entropy(d, P.entries.ravel())]
        assert S_marg.tolist() == [entropy(d, marginal(P))]
        assert S_cond.tolist() == [[entropy(d, conditional(P, j)) for j in range(1, 4)]]

    @pytest.mark.parametrize("block, instances", [(36 * 4, 10), (36 * 4, 12), (100, 7), (10, 3), (1, 2)])
    def test_whole_joints_per_block(self, block, instances, monkeypatch):
        # 4 x 4 joints hold 36 points each; a block smaller than one joint
        # still gets whole joints, one per call
        monkeypatch.setattr(densities, "ENTROPY_BLOCK", block)
        grids = random_grids(4, 4, list(range(instances)))
        d = remark5_density()
        counted, calls = count_eval_s(d)
        got = joint_entropies(counted, grids, *factor_grids(grids))
        step = max(1, block // 36)
        assert calls == [36 * min(step, instances - a) for a in range(0, instances, step)]
        if block % 36 == 0:
            assert len(calls) == math.ceil(36 * instances / block) and max(calls) <= block
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))

    def test_no_joints_make_no_call(self):
        counted, calls = count_eval_s(remark5_density())
        grids = np.empty((0, 3, 2))
        got = joint_entropies(counted, grids, np.empty((0, 2)), np.empty((0, 2, 3)))
        assert [v.shape for v in got] == [(0,), (0,), (0, 2)]
        assert calls == []


class TestSharedTree:
    """A block of one or a few long joints sums each joint's columns in the
    conditionals' TwoSum tree; every value is still its vector's math.fsum."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(catalog()),
        st.one_of(
            st.tuples(st.just(1), st.integers(1, 1100)),
            st.tuples(st.integers(1, 64), st.just(1)),
            st.just((3, 7)),
            st.just((32, 32)),
        ),
        st.integers(1, 3),
        st.sampled_from([0.05, 0.2, 1.0]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_per_vector_fsum(self, d, shape, joints, concentration, seed, zeros, power):
        m, n = shape
        try:
            grids = random_grids(m, n, [seed + i for i in range(joints)], concentration=concentration)
        except RandomGenerationError:  # a single row at low concentration: marginals too small
            reject()
        if zeros:
            zero_row_joint(grids)
        blocks = factor_grids(grids)
        got = joint_entropies(d, grids, *blocks)
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))
        f = power_coefficient(power)
        want = [reference_residual(d, JointMatrix(g), f) for g in grids]
        assert [repr(v) for v in residual_block(d, grids, *blocks, f).tolist()] == [repr(v) for v in want]

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_residual_joints_match_per_vector_fsum(self, d):
        # one in about twelve such joints rounds differently from the sum of
        # its columns' float sums alone: the error sums e are needed
        for seed in range(30):
            grids = random_grids(32, 32, [seed], concentration=1.0 if seed % 3 else 0.2)
            got = joint_entropies(d, grids, *factor_grids(grids))
            assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))

    @staticmethod
    def record(monkeypatch):
        calls = []
        for name in ("fsum_rows", "twosum_rows"):
            kernel = getattr(_kernels, name)
            monkeypatch.setattr(
                _kernels, name, lambda block, name=name, kernel=kernel: calls.append((name, block.shape)) or kernel(block)
            )
        return calls

    def test_one_long_joint_takes_one_tree(self, monkeypatch):
        # the 32 x 32 residual joint: the marginal summed row by row, then one
        # pass over 32 conditional rows and the joint's 32 columns
        calls = self.record(monkeypatch)
        P = JointMatrix(random_grids(32, 32, [5])[0])
        for d in (remark5_density(), remark2_density()):
            extensivity_residual(d, P, power_coefficient(1.0))
        assert calls == [("fsum_rows", (1, 32)), ("twosum_rows", (64, 32))] * 2

    def test_one_wide_row_takes_one_tree(self, monkeypatch):
        # a 1 x 600 joint: 600 one-entry conditionals reach the tree, and
        # each sums to s(1), a zero that math.fsum signs
        calls = self.record(monkeypatch)
        grids = random_grids(1, 600, [2])
        d = tsallis_density(2.0)
        got = joint_entropies(d, grids, *factor_grids(grids))
        assert calls == [("fsum_rows", (1, 600)), ("twosum_rows", (1200, 1))]
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))

    def test_sandwich_op_keeps_three_sums(self, monkeypatch):
        calls = self.record(monkeypatch)
        P = JointMatrix(random_grids(4, 4, [3], concentration=0.05)[0])
        sandwich_check(remark5_density(), P)
        assert calls == [("fsum_rows", (1, 4)), ("fsum_rows", (1, 16)), ("fsum_rows", (4, 4))]

    def test_cli_residual_blocks_keep_three_sums(self, monkeypatch, capsys):
        # 200 joints of 32 x 32 in blocks of 15: each block's joints and
        # conditionals are long enough for a tree of their own
        calls = self.record(monkeypatch)
        main(["residual", "--density", "remark5", "--power", "1", "--m", "32", "--n", "32",
              "--instances", "200", "--seed", "101"])
        capsys.readouterr()
        block = lambda k: [("fsum_rows", (k, 32)), ("fsum_rows", (k, 1024)), ("twosum_rows", (k, 1024)),
                           ("fsum_rows", (32 * k, 32)), ("twosum_rows", (32 * k, 32))]
        # and residual_block's own sum of each joint's 34 terms
        assert calls == block(15) * 13 + block(5) + [("twosum_rows", (200, 34))]

    def test_uncertified_columns_fall_back_to_fsum(self, monkeypatch):
        # concentration 0.05 leaves entries so small that columns fail the
        # certificate: such joints are summed whole by math.fsum
        d = remark5_density()
        grids = random_grids(32, 32, [0], concentration=0.05)
        rows, fsum = [], math.fsum
        monkeypatch.setattr(densities.math, "fsum", lambda row: rows.append(len(row)) or fsum(row))
        got = joint_entropies(d, grids, *factor_grids(grids))
        assert 1024 in rows
        monkeypatch.undo()
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))

    def test_no_uncertified_partial_is_used(self, monkeypatch):
        # a tree that certifies no row and returns wrong sums: every joint and
        # conditional must come from math.fsum
        tree = _kernels.twosum_rows

        def uncertified(block):
            s, e, exact = tree(block)
            return s + 1.0, e, np.zeros_like(exact)

        monkeypatch.setattr(_kernels, "twosum_rows", uncertified)
        d = remark2_density()
        grids = random_grids(32, 32, [1, 2])
        got = joint_entropies(d, grids, *factor_grids(grids))
        assert [v.tolist() for v in got] == list(per_vector_entropies(d, grids))


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
        assert np.all(np.asarray(d.eval_s2(np.arange(1, 2049, dtype=np.float64) / 2048)) < 0.0)

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
