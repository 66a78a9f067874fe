import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso.bounds import (
    DIVERGENCE_THRESHOLD,
    THETA_GRID_N,
    THETA_R_RANGE,
    BoundsConfig,
    coefficient_bounds,
    column_bounds,
    phi_from_density,
    theta_phi,
)
from extenso.densities import (
    Density,
    bg_density,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.simplex import marginal, random_joint

SQRT2 = math.sqrt(2.0)


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
        # minimum sits at the t_min edge; est_error must reach the true r
        cb = coefficient_bounds(remark5_density(), r)
        assert cb.lower - r * r * cb.lower_meta.est_error <= r + 4 * np.spacing(r)

    def test_tiny_marginal_not_divergent(self):
        # the ratio r^(q-2) is 2e13 here, but the coefficient r^2 * ratio is
        # the exact, flat r^q: the magnitude threshold must not fire
        r = 1e-7
        cb = coefficient_bounds(tsallis_density(0.1), r)
        assert cb.upper_meta.probe_max > DIVERGENCE_THRESHOLD
        assert cb.lower == pytest.approx(r**0.1, rel=1e-12)
        assert cb.upper == pytest.approx(r**0.1, rel=1e-12)
        assert not cb.divergent

    def test_remark2_half_divergent(self):
        cb = coefficient_bounds(remark2_density(), 0.5)
        assert cb.divergent
        assert cb.upper_meta.probe_trend == "diverging"

    def test_ratio_is_one_at_r_equal_one(self):
        for d in catalog():
            cb = coefficient_bounds(d, 1.0)
            assert cb.lower == 1.0
            assert cb.upper == 1.0

    @pytest.mark.parametrize("d", catalog(), ids=lambda d: d.label)
    def test_order_invariant(self, d):
        for r in (0.15, 0.5, 0.85):
            cb = coefficient_bounds(d, r)
            slack = r * r * (cb.lower_meta.est_error + cb.upper_meta.est_error)
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

    def test_config_respected(self):
        cb = coefficient_bounds(remark5_density(), 0.5, BoundsConfig(grid_n=256, t_min=1e-4))
        assert cb.lower_meta.grid_points == 256

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
    return d, marginal(P).entries


class TestColumnBounds:
    """The batched envelope against its one-column case and its own grid."""

    @settings(max_examples=40, deadline=None)
    @given(density_and_marginals())
    def test_batch_matches_columns_and_grid(self, case):
        d, rs = case
        cfg = BoundsConfig()
        batch = column_bounds(d, rs, cfg)
        ts = np.geomspace(cfg.t_min, 1.0, cfg.grid_n)
        ts[0], ts[-1] = cfg.t_min, 1.0
        for r, cb in zip(rs.tolist(), batch):
            # repr compares every float bit for bit, nan included
            assert repr(cb) == repr(coefficient_bounds(d, r, cfg))
            vs = np.asarray(d.eval_s2(min(r, 1.0) * ts)) / np.asarray(d.eval_s2(ts))
            work = np.where(np.isfinite(vs), vs, np.nan)
            for meta, i in ((cb.lower_meta, np.nanargmin(work)), (cb.upper_meta, np.nanargmax(work))):
                assert ts[max(i - 1, 0)] <= meta.arg <= ts[min(i + 1, cfg.grid_n - 1)]
            assert cb.lower_meta.value <= np.nanmin(work)
            assert cb.upper_meta.value >= np.nanmax(work)


class TestPhi:
    def test_remark5_closed_form(self):
        phi = phi_from_density(remark5_density())
        r = np.linspace(0.05, 1.0, 64)
        np.testing.assert_allclose(
            phi.eval_phi(r), (4.0 / math.pi) * np.tan(np.pi * r / 4.0), rtol=1e-12
        )
        assert phi.eval_phi(1.0) == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_remark5_linear_continuation(self):
        phi = phi_from_density(remark5_density())
        # slope 2 continuation: 2(r-1) + 4/pi
        for r in (1.5, 2.0, 5.0):
            assert phi.eval_phi(r) == pytest.approx(2.0 * (r - 1.0) + 4.0 / math.pi, abs=1e-8)

    def test_bg_identity(self):
        phi = phi_from_density(bg_density())
        r = np.linspace(0.1, 1.0, 16)
        np.testing.assert_allclose(phi.eval_phi(r), r, rtol=1e-12)

    def test_tsallis_closed_form(self):
        q = 0.5
        phi = phi_from_density(tsallis_density(q))
        r = np.linspace(0.1, 1.0, 16)
        np.testing.assert_allclose(phi.eval_phi(r), r ** (2.0 - q) / q, rtol=1e-12)

    def test_rejects_nonconcave(self):
        convex = Density(
            label="convex",
            eval_s=lambda r: np.asarray(r) ** 2,
            eval_s1=lambda r: 2.0 * np.asarray(r),
            eval_s2=lambda r: np.full_like(np.asarray(r, dtype=float), 2.0),
            concave=False,
        )
        with pytest.raises(ValueError):
            phi_from_density(convex)

    def test_rejects_decreasing_profile(self):
        # q > 2 makes -1/s'' decreasing
        with pytest.raises(ValueError):
            phi_from_density(tsallis_density(3.0))


class TestTheta:
    def test_remark5(self):
        theta = theta_phi(phi_from_density(remark5_density()))
        assert abs(theta - math.pi / 2.0) <= 1e-3
        assert theta < 2.0

    def test_bg(self):
        theta = theta_phi(phi_from_density(bg_density()))
        assert abs(theta - 1.0) <= 1e-6

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_tsallis_branch(self, q):
        # hand oracle: r phi'/phi = 2 - q on the (0, 1] branch
        theta = theta_phi(phi_from_density(tsallis_density(q)))
        assert abs(theta - (2.0 - q)) <= 1e-3

    def test_config_grid_contains_one(self):
        rs = np.geomspace(*THETA_R_RANGE, THETA_GRID_N)
        assert 1.0 in rs
