import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso.bounds import (
    DIVERGENCE_THRESHOLD,
    coefficient_bounds,
    column_bounds,
    theta_phi,
)
from extenso.densities import (
    Density,
    bg_density,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.numerics import _GRID, T_MIN
from extenso.simplex import marginal, random_joint
from numeric_oracles import reference_psi, reference_theta

SQRT2 = math.sqrt(2.0)


def columns(cb):
    """A column_bounds result split into one-column results of Python scalars."""
    return [type(cb)(*col) for col in zip(*(field.tolist() for field in cb))]


def curvature_ratio(d, r, t):
    return np.asarray(d.eval_s2(r * t)) / np.asarray(d.eval_s2(t))


def ladder_ratio_max(d, r):
    """The largest curvature ratio on the scan's probe ladder t = 2^-k."""
    return float(curvature_ratio(d, r, 2.0 ** -np.arange(1, 41)).max())


def catalog():
    return [bg_density(), tsallis_density(0.5), tsallis_density(2.0),
            tsallis_density(3.0), remark2_density(), remark5_density()]


class TestCoefficientBounds:
    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize("r", np.linspace(0.1, 0.9, 9).tolist())
    def test_power_oracle(self, q, r):
        cb = coefficient_bounds(tsallis_density(q), r)
        assert abs(cb.lower - r**q) <= 1e-6
        assert abs(cb.upper - r**q) <= 1e-6
        assert not cb.divergent

    def test_power_oracle_specific(self):
        cb = coefficient_bounds(tsallis_density(0.5), 0.3)
        assert cb.lower == pytest.approx(0.3**0.5, abs=1e-6)
        assert cb.upper == pytest.approx(0.3**0.5, abs=1e-6)

    def test_bg_linear(self):
        for r in (0.2, 0.37, 0.8):
            cb = coefficient_bounds(bg_density(), r)
            assert cb.lower == pytest.approx(r, abs=1e-6)
            assert cb.upper == pytest.approx(r, abs=1e-6)

    def test_remark5_half(self):
        cb = coefficient_bounds(remark5_density(), 0.5)
        assert abs(cb.lower - 0.5) <= 1e-4  # 2 * (1/2)^2
        assert abs(cb.upper - (1.0 + SQRT2) / 4.0) <= 1e-4
        assert not cb.divergent

    @pytest.mark.parametrize("r", [0.5, 0.1, 1e-3])
    def test_remark5_lower_error_covers_t_min_truncation(self, r):
        # the ratio falls toward its infimum 1/r as t -> 0, so the grid
        # minimum sits at the T_MIN edge; est_error must reach the true r
        cb = coefficient_bounds(remark5_density(), r)
        assert cb.lower - r * r * cb.err_inf <= r + 4 * np.spacing(r)

    def test_tiny_marginal_not_divergent(self):
        # the ratio r^(q-2) is 2e13 here, but the coefficient r^2 * ratio is
        # the exact, flat r^q: the magnitude threshold must not fire
        r = 1e-7
        d = tsallis_density(0.1)
        cb = coefficient_bounds(d, r)
        assert ladder_ratio_max(d, r) > DIVERGENCE_THRESHOLD
        assert cb.lower == pytest.approx(r**0.1, rel=1e-12)
        assert cb.upper == pytest.approx(r**0.1, rel=1e-12)
        assert not cb.divergent

    def test_remark2_half_divergent(self):
        d = remark2_density()
        cb = coefficient_bounds(d, 0.5)
        assert cb.divergent
        # the coefficient stays below the magnitude threshold on the ladder:
        # the flag is the trend judge's
        assert 0.25 * ladder_ratio_max(d, 0.5) < DIVERGENCE_THRESHOLD

    def test_ratio_is_one_at_r_equal_one(self):
        for d in catalog():
            cb = coefficient_bounds(d, 1.0)
            assert cb.lower == 1.0
            assert cb.upper == 1.0

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_order_invariant(self, d):
        for r in (0.15, 0.5, 0.85):
            cb = coefficient_bounds(d, r)
            slack = r * r * (cb.err_inf + cb.err_sup)
            assert cb.lower <= cb.upper + slack
            assert cb.lower >= 0.0

    def test_non_divergent_catalog(self):
        for d in (bg_density(), tsallis_density(0.5), tsallis_density(2.0), remark5_density()):
            for r in (0.1, 0.5, 0.9):
                assert not coefficient_bounds(d, r).divergent

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficient_bounds(remark5_density(), 0.0)
        with pytest.raises(ValueError):
            coefficient_bounds(remark5_density(), 1.5)
        zero = lambda r: np.zeros_like(np.asarray(r))
        flat = Density(label="flat", eval_s=zero, eval_s1=zero, eval_s2=zero, concave=False)
        with pytest.raises(ValueError):
            coefficient_bounds(flat, 0.5)

    @pytest.mark.parametrize("rs, bad", [
        ([0.5, 1.5, 0.0], "1.5"),
        ([0.5, 0.0, 1.5], "0.0"),
        ([0.2, math.nan, -1.0], "nan"),
        ([1.0 + 2e-12], "1.000000000002"),
        ([1.0 + 2.0**-52], "1.0000000000000002"),
        ([0.3, -math.inf], "-inf"),
    ])
    def test_names_the_first_bad_r(self, rs, bad):
        with pytest.raises(ValueError, match=rf"^r must lie in \(0, 1\], got {bad}$"):
            column_bounds(bg_density(), rs)

    def test_no_columns(self):
        cb = column_bounds(remark5_density(), [])
        assert [field.shape for field in cb] == [(0,)] * len(cb)

    def test_no_finite_ratio_is_divergent_and_quiet(self):
        # s''(r t) overflows to -inf for every t: the scan evaluates the
        # ratios under its own floating-point state, so nothing warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lost, kept = columns(column_bounds(tsallis_density(0.1), [1e-300, 0.5]))
        assert caught == []
        assert lost.divergent and not kept.divergent
        assert math.isnan(lost.lower) and math.isnan(lost.upper)
        assert lost.err_inf == lost.err_sup == math.inf
        assert kept.lower == pytest.approx(0.5 ** 0.1, rel=1e-12)

    @pytest.mark.parametrize("q", [300.0, 1000.0])
    def test_underflowed_curvature_is_quiet(self, q):
        # s'' underflows to 0 on most of the grid: 0/0 ratios never win, and
        # the scan makes no warning of them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (cb,) = columns(column_bounds(tsallis_density(q), [0.5]))
        assert caught == []
        assert math.isfinite(cb.lower) and math.isfinite(cb.upper)

    def test_config_respected(self):
        # the ratio falls toward t = 0, so its inf sits at the T_MIN edge, on
        # the fixed grid's first point
        cb = coefficient_bounds(remark5_density(), 0.5)
        ratio = curvature_ratio(remark5_density(), 0.5, _GRID)
        assert cb.arg_inf == T_MIN
        assert cb.lower == 0.25 * ratio[0] == 0.25 * ratio.min()

    def test_half_ratio_closed_form_envelope(self):
        # (cos(pi u/4) + 1)/cos(pi u/4) stays inside [2, 1 + sqrt(2)]
        u = np.linspace(1e-9, 1.0, 512)
        c = np.cos(np.pi * u / 4.0)
        ratio = (c + 1.0) / c
        assert np.all(ratio >= 2.0 - 1e-12)
        assert np.all(ratio <= 1.0 + SQRT2 + 1e-12)
        # and it matches the curvature ratio of the density
        d = remark5_density()
        ratio_d = np.asarray(d.eval_s2(u / 2.0)) / np.asarray(d.eval_s2(u))
        np.testing.assert_allclose(ratio_d, ratio, rtol=1e-12)


@st.composite
def density_and_marginals(draw):
    kind = draw(st.sampled_from(["bg", "tsallis", "remark5", "remark2"]))
    if kind == "tsallis":
        q = draw(st.floats(0.05, 3.0).filter(lambda q: abs(q - 1.0) > 1e-3))
        d = tsallis_density(q)
    else:
        d = {"bg": bg_density, "remark5": remark5_density, "remark2": remark2_density}[kind]()
    n = draw(st.integers(1, 8))
    concentration = draw(st.sampled_from([0.05, 0.2, 1.0, 5.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    P = random_joint(4, n, seed=seed, concentration=concentration)
    return d, marginal(P)


class TestColumnBounds:
    """The batched envelope against its one-column case and its own grid."""

    @settings(max_examples=40, deadline=None)
    @given(density_and_marginals())
    def test_batch_matches_columns_and_grid(self, case):
        d, rs = case
        batch = column_bounds(d, rs)
        ts = _GRID
        for r, cb in zip(rs.tolist(), columns(batch)):
            # repr compares every float bit for bit, nan included
            assert repr(cb) == repr(coefficient_bounds(d, r))
            vs = curvature_ratio(d, r, ts)
            work = np.where(np.isfinite(vs), vs, np.nan)
            for arg, i in ((cb.arg_inf, np.nanargmin(work)), (cb.arg_sup, np.nanargmax(work))):
                assert ts[max(i - 1, 0)] <= arg <= ts[min(i + 1, ts.size - 1)]
            f_scale = r * r
            assert cb.lower <= f_scale * np.nanmin(work)
            assert cb.upper >= f_scale * np.nanmax(work)

    @pytest.mark.parametrize("d", [remark5_density(), tsallis_density(0.1)], ids=lambda d: d.label)
    def test_stacked_joints_match_columns(self, d):
        # the columns of 200 joints in one call, as a batch of checks would
        rs = np.concatenate([
            marginal(random_joint(4, 4, seed=seed, concentration=0.05)) for seed in range(200)
        ])
        singles = [coefficient_bounds(d, r) for r in rs.tolist()]
        assert all(type(v) in (float, bool) for cb in singles for v in cb)
        assert [repr(cb) for cb in columns(column_bounds(d, rs))] == [repr(cb) for cb in singles]


def closed_form_envelope(label, r):
    """(lower, upper) = r^2 (inf, sup) over t in (0, 1] of s''(rt)/s''(t)."""
    if label == "bg":
        return r, r
    if label == "remark5":  # cot(pi r t/4)/cot(pi t/4) falls from 1/r at t -> 0 to cot(pi r/4) at t = 1
        return r, r * r / np.tan(np.pi * r / 4.0)
    q = float(label.removeprefix("tsallis(q=").removesuffix(")"))
    return r**q, r**q


log_uniform_r = st.floats(-6.0, 0.0).map(lambda e: 10.0**e)


class TestClosedFormEnvelope:
    """The grid bounds lie within their own error of the closed-form envelope."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(log_uniform_r, min_size=1, max_size=8))
    @pytest.mark.parametrize("d", [
        bg_density(), tsallis_density(0.1), tsallis_density(0.5), tsallis_density(2.0),
        tsallis_density(3.0), remark5_density(),
    ], ids=lambda d: d.label)
    def test_within_est_error(self, d, rs):
        cb = column_bounds(d, rs)
        r = cb.r
        want_lower, want_upper = closed_form_envelope(d.label, r)
        # est_error does not model the rounding of s'': 1e-14 relative covers it
        assert (np.abs(cb.lower - want_lower) <= r * r * cb.err_inf + 1e-14 * want_lower).all()
        assert (np.abs(cb.upper - want_upper) <= r * r * cb.err_sup + 1e-14 * want_upper).all()
        assert not cb.divergent.any()


class TestPhi:
    """theta_phi reads psi = t phi'/phi = -t s'''/s'' on the scan's grid and
    refuses a density without a nondecreasing phi.  It matches theta over
    reference_psi, point by point on a grid of its own, to rounding, so
    reference_psi's closed forms are psi's."""

    def test_remark5_closed_form(self):
        psi = reference_psi(remark5_density())
        for t in np.linspace(0.05, 1.0, 64).tolist():
            x = math.pi * t / 2.0
            assert psi(t) == pytest.approx(x / math.sin(x), rel=1e-14)
        assert psi(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_bg_identity(self):
        psi = reference_psi(bg_density())
        for t in np.geomspace(1e-8, 1.0, 16).tolist():
            assert psi(t) == pytest.approx(1.0, rel=1e-15)

    def test_tsallis_closed_form(self):
        q = 0.5
        psi = reference_psi(tsallis_density(q))
        for t in np.geomspace(1e-8, 1.0, 16).tolist():
            assert psi(t) == pytest.approx(2.0 - q, rel=1e-14)

    CONVEX = Density(
        label="convex",
        eval_s=lambda r: np.asarray(r) ** 2,
        eval_s1=lambda r: 2.0 * np.asarray(r),
        eval_s2=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
        eval_s3=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        concave=False,
    )

    def test_rejects_nonconcave(self):
        with pytest.raises(ValueError, match="^phi undefined: s'' not negative and normal at t=1e-06$"):
            theta_phi(self.CONVEX)

    def test_rejects_decreasing_profile(self):
        # q > 2 makes -1/s'' = t^(2-q)/q decreasing: psi = 2 - q < 0
        with pytest.raises(ValueError, match=r"^phi not nondecreasing: psi = -1\.0 < 0 at t=1e-06$"):
            theta_phi(tsallis_density(3.0))

    def test_rejects_remark2(self):
        # phi = 1/(t(|cos(1/t)| + t)) peaks wherever cos(1/t) = 0
        with pytest.raises(ValueError, match=r"^phi not nondecreasing: psi = -.* < 0 at t="):
            theta_phi(remark2_density())

    def test_rejects_density_without_s3(self):
        d = dataclasses.replace(bg_density(), eval_s3=None)
        with pytest.raises(ValueError, match="^phi' undefined: density 'bg' declares no s'''$"):
            theta_phi(d)

    @pytest.mark.parametrize(
        "d", [bg_density(), remark5_density(), *(tsallis_density(q) for q in (0.05, 0.5, 1.5, 2.0))],
        ids=lambda d: d.label,
    )
    def test_matches_closure_composition(self, d):
        # psi is monotone for these, so both grids hold its sup to rounding
        assert abs(theta_phi(d) - reference_theta(d)) <= 1e-14

    @pytest.mark.parametrize(
        "d", [tsallis_density(3.0), tsallis_density(1e6), tsallis_density(5e-324), remark2_density(), CONVEX],
        ids=lambda d: d.label,
    )
    def test_same_refusal_as_closure(self, d):
        # the same property fails; the witness t comes from each one's own grid
        with pytest.raises(ValueError) as want:
            reference_theta(d)
        with pytest.raises(ValueError) as got:
            theta_phi(d)
        assert str(got.value).split(":")[0] == str(want.value).split(":")[0]


# q in (0, 2], with the ends and both sides of 1 drawn on purpose
theta_q = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True).filter(lambda q: q != 1.0),
    st.sampled_from([1.0 - 1e-12, 1.0 + 1e-12, 2.0, 5e-324, 1e-300]),
)
NORMAL_MIN = float(np.finfo(np.float64).tiny)


class TestTheta:
    def test_remark5(self):
        theta = theta_phi(remark5_density())
        assert abs(theta - math.pi / 2.0) <= 1e-14
        assert theta < 2.0

    def test_bg(self):
        theta = theta_phi(bg_density())
        assert abs(theta - 1.0) <= 1e-14

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_tsallis_branch(self, q):
        # hand oracle: t phi'/phi = 2 - q; at q = 2 psi is -0.0, read as 0.0
        theta = theta_phi(tsallis_density(q))
        assert abs(theta - (2.0 - q)) <= 1e-14
        assert math.copysign(1.0, theta) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(theta_q)
    def test_tsallis_closed_form(self, q):
        # t phi'/phi = 2 - q.  A subnormal q makes s'' subnormal at t = 1,
        # and no theta rests on that.
        if q < NORMAL_MIN:
            with pytest.raises(ValueError, match="^phi undefined: "):
                theta_phi(tsallis_density(q))
            return
        theta = theta_phi(tsallis_density(q))
        assert abs(theta - (2.0 - q)) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(["bg", "remark5"]), theta_q.filter(lambda q: q >= NORMAL_MIN)),
        st.lists(st.floats(-8.0, 0.0).map(lambda e: 10.0**e), min_size=1, max_size=8),
    )
    def test_bounds_the_envelope(self, which, rs):
        # phi nondecreasing: lower >= r^2; t phi'/phi <= theta: upper <= r^(2 - theta)
        d = {"bg": bg_density, "remark5": remark5_density}.get(which, lambda: tsallis_density(which))()
        theta = theta_phi(d)
        cb = column_bounds(d, rs)
        r = cb.r
        assert (cb.lower >= r * r * (1.0 - 1e-12)).all()
        assert (cb.upper <= r ** (2.0 - theta) * (1.0 + 1e-14)).all()
