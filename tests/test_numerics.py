import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extenso.densities import (
    bg_density,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.numerics import _ZOOM_ROUNDS, scan_extrema
from numeric_oracles import (
    NoConvergenceError,
    adaptive_quadrature,
    finite_difference,
    global_extremum,
    midpoint_richardson,
    reference_scan_extrema,
    shifted_density,
)

# int_0^1 log sin((pi/4) t) dt in closed form via Catalan's constant
CATALAN = 0.915965594177219015054603514932384110774
LOGSIN_INTEGRAL = -2.0 * CATALAN / math.pi - math.log(2.0)


def logsin(t):
    return math.log(math.sin(math.pi / 4.0 * t)) if t > 0 else -math.inf


class TestAdaptiveQuadrature:
    def test_linear_exact(self):
        assert abs(adaptive_quadrature(lambda t: t, 0.0, 1.0, 1e-12) - 0.5) <= 1e-12

    def test_inverse_sqrt_singularity(self):
        val = adaptive_quadrature(lambda t: -1.0 / math.sqrt(t) if t > 0 else -math.inf, 0.0, 1.0, 1e-8)
        assert abs(val + 2.0) <= 1e-6

    def test_log_singularity_against_closed_form(self):
        val = adaptive_quadrature(logsin, 0.0, 1.0, 1e-10)
        assert abs(val - LOGSIN_INTEGRAL) <= 1e-10

    def test_orientation_and_degenerate(self):
        assert adaptive_quadrature(lambda t: t, 2.0, 2.0) == 0.0
        fwd = adaptive_quadrature(lambda t: t * t, 0.0, 1.0, 1e-12)
        rev = adaptive_quadrature(lambda t: t * t, 1.0, 0.0, 1e-12)
        assert fwd == -rev

    def test_both_endpoints_singular(self):
        # int_0^1 1/sqrt(t(1-t)) = pi
        g = lambda t: 1.0 / math.sqrt(t * (1.0 - t)) if 0 < t < 1 else math.inf
        assert abs(adaptive_quadrature(g, 0.0, 1.0, 1e-8) - math.pi) <= 1e-6

    def test_depth_cap_raises_with_partial(self):
        g = lambda t: math.sin(1.0 / (t + 1e-9)) / math.sqrt(t + 1e-9)
        with pytest.raises(NoConvergenceError) as exc:
            adaptive_quadrature(g, 0.0, 1.0, 1e-14, max_depth=3)
        assert math.isfinite(exc.value.partial)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(lambda t: t, 0.0, 1.0, 0.0)


class TestTwoRuleAgreement:
    """The two quadrature routes share no code path beyond the integrand."""

    @pytest.mark.parametrize(
        "g, a, b",
        [
            (lambda t: t, 0.0, 1.0),
            (lambda t: t**3 - 2 * t, 0.0, 1.0),
            (np.cos, 0.0, 2.0),
            (logsin, 0.0, 1.0),
        ],
    )
    def test_agreement(self, g, a, b):
        tol = 1e-9
        v1 = adaptive_quadrature(g, a, b, tol)
        v2 = midpoint_richardson(g, a, b, tol)
        assert abs(v1 - v2) <= 10 * tol

    def test_log_singular_constant_within_1e8(self):
        v1 = adaptive_quadrature(logsin, 0.0, 1.0, 1e-10)
        v2 = midpoint_richardson(logsin, 0.0, 1.0, 1e-9)
        assert abs(v1 - v2) <= 1e-8


class TestFiniteDifference:
    def test_quadratic_second_derivative(self):
        assert abs(finite_difference(lambda r: r * r, 0.5, 2) - 2.0) <= 1e-8

    def test_bg_curvature(self):
        d = bg_density()
        assert abs(finite_difference(d.eval_s, 0.5, 2) + 2.0) <= 1e-4

    def test_logsin_curvature(self):
        d = remark5_density()
        want = -(math.pi / 4.0) / math.tan(math.pi / 8.0)
        assert abs(finite_difference(d.eval_s, 0.5, 2) - want) <= 1e-4

    def test_first_derivative(self):
        assert abs(finite_difference(math.sin, 0.3, 1) - math.cos(0.3)) <= 1e-9

    def test_one_sided_near_upper_edge(self):
        r = 0.999999
        assert abs(finite_difference(math.sin, r, 1) - math.cos(r)) <= 1e-8
        assert abs(finite_difference(math.sin, r, 2) + math.sin(r)) <= 1e-3

    def test_one_sided_near_lower_edge(self):
        r = 5e-5
        assert abs(finite_difference(lambda t: t**3, r, 2) - 6 * r) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_difference(math.sin, 0.5, 3)
        with pytest.raises(ValueError):
            finite_difference(math.sin, 1.5, 1)


class TestGlobalExtremum:
    def test_identity_inf_at_truncation_edge(self):
        res = global_extremum(lambda t: t, "inf", t_min=1e-6)
        assert abs(res.value - 1e-6) <= 1e-9
        assert res.arg == pytest.approx(1e-6)
        assert not res.refined  # extremum at the artificial boundary

    def test_constant_exact(self):
        h = lambda t: np.full_like(np.asarray(t, dtype=float), 3.25)
        lo, hi = global_extremum(h, "inf"), global_extremum(h, "sup")
        assert lo.value == 3.25
        assert hi.value == 3.25
        assert lo.est_error == 0.0

    def test_tsallis_ratio_constant(self):
        q, r = 0.5, 0.3
        d = tsallis_density(q)
        h = lambda t: np.asarray(d.eval_s2(r * np.asarray(t))) / np.asarray(d.eval_s2(np.asarray(t)))
        want = r ** (q - 2.0)
        lo, hi = global_extremum(h, "inf"), global_extremum(h, "sup")
        assert lo.value == pytest.approx(want, rel=1e-12)
        assert hi.value == pytest.approx(want, rel=1e-12)

    def test_remark5_half_ratio_extremes(self):
        d = remark5_density()
        h = lambda t: np.asarray(d.eval_s2(0.5 * np.asarray(t))) / np.asarray(d.eval_s2(np.asarray(t)))
        lo = global_extremum(h, "inf")
        hi = global_extremum(h, "sup")
        assert abs(lo.value - 2.0) <= 1e-4
        assert abs(hi.value - (1.0 + math.sqrt(2.0))) <= 1e-4
        assert not lo.diverging and not hi.diverging

    def test_interior_maximum_refined(self):
        h = lambda t: -((np.asarray(t) - 0.37) ** 2)
        res = global_extremum(h, "sup")
        assert res.refined
        assert abs(res.arg - 0.37) <= 1e-6
        assert abs(res.value) <= 1e-12

    def test_inf_never_exceeds_grid_minimum(self):
        h = lambda t: np.sin(13.0 * np.asarray(t)) + np.asarray(t)
        res = global_extremum(h, "inf", grid_n=512)
        ts = np.geomspace(1e-6, 1.0, 512)
        assert res.value <= float(np.min(h(ts))) + 1e-15

    def test_sup_never_below_grid_maximum(self):
        h = lambda t: np.sin(13.0 * np.asarray(t)) + np.asarray(t)
        res = global_extremum(h, "sup", grid_n=512)
        ts = np.geomspace(1e-6, 1.0, 512)
        assert res.value >= float(np.max(h(ts))) - 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            global_extremum(lambda t: t, "min")
        with pytest.raises(ValueError):
            global_extremum(lambda t: t, "inf", grid_n=100)
        with pytest.raises(ValueError):
            global_extremum(lambda t: t, "inf", t_min=2.0)


# ---------------------------------------------------------------------------
# the scan against its plain reference, bit for bit
# ---------------------------------------------------------------------------


def curvature_ratio(d, rs):
    """The row-batched h that column_bounds scans: s''(r t)/s''(t) per r."""
    rt = np.minimum(np.asarray(rs, dtype=np.float64), 1.0)[:, None]

    def h(t):
        return np.asarray(d.eval_s2(rt * t)) / np.asarray(d.eval_s2(t))

    return h


def reference(h, *args):
    # the reference predates the warning-free handling of non-finite rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_scan_extrema(h, *args)


def patchy(t):
    """Rows of NaN, +inf and -inf regions beside finite shapes; no warnings."""
    t = np.asarray(t, dtype=np.float64)
    rows = [
        np.sin(13.0 * t) + t,
        -((t - 0.37) ** 2),
        np.full_like(t, 2.0),
        np.where(t < 0.3, np.nan, t),
        np.where(t > 0.5, np.inf, t),
        np.where((t > 0.2) & (t < 0.4), -np.inf, -t),
        np.full_like(t, np.inf),
        np.full_like(t, -np.inf),
        np.full_like(t, np.nan),
        np.where(t < 1e-3, -np.inf, np.nan),
        np.where(t < 0.01, np.inf, 1.0 / t),
        np.where(t < 1e-4, 5.0, np.where(t < 0.6, np.nan, t)),
    ]
    return np.stack(rows) if t.ndim == 1 else np.stack([r[i] for i, r in enumerate(rows)])


DUST = [1.0 + k * 2.0**-52 for k in range(1, 4)]


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(["bg", "tsallis", "remark5", "remark2", "shifted-remark2", "shifted-remark5"]))
    if kind == "tsallis":
        q = draw(st.floats(0.05, 3.0).filter(lambda q: abs(q - 1.0) > 1e-3))
        d = tsallis_density(q)
    elif kind.startswith("shifted-"):
        d = shifted_density({"remark2": remark2_density, "remark5": remark5_density}[kind[8:]]())
    else:
        d = {"bg": bg_density, "remark5": remark5_density, "remark2": remark2_density}[kind]()
    r = st.one_of(st.floats(1e-9, 1.0), st.sampled_from([1.0, 1e-9] + DUST))
    rs = draw(st.lists(r, min_size=1, max_size=5))
    t_min = draw(st.sampled_from([1e-6, 1e-8, 1e-3, 0.05]))
    grid_n = draw(st.sampled_from([2048, 256, 300]))
    return d, rs, t_min, grid_n, draw(st.booleans())


class TestScanMatchesReference:
    """scan_extrema against the plain scan it replaced: repr compares every
    float bit for bit, nan and the sign of zero included."""

    @settings(max_examples=60, deadline=None)
    @given(scan_cases())
    def test_curvature_ratios(self, case):
        d, rs, t_min, grid_n, refine = case
        h = curvature_ratio(d, rs)
        args = (t_min, grid_n, d.probe_points, refine)
        assert repr(scan_extrema(h, *args)) == repr(reference(h, *args))

    @pytest.mark.parametrize("refine", [True, False])
    @pytest.mark.parametrize("probes", [(), (0.5, 1e-7, 0.01), (2e-8,)])
    @pytest.mark.parametrize("t_min, grid_n", [(1e-6, 512), (1e-3, 256)])
    def test_nan_and_infinite_regions(self, refine, probes, t_min, grid_n):
        # warnings are errors in this suite: the scan stays quiet on rows
        # without a finite value
        args = (t_min, grid_n, probes, refine)
        got = scan_extrema(patchy, *args)
        assert repr(got) == repr(reference(patchy, *args))
        no_finite = got[6:10]
        assert all(lo.est_error == hi.est_error == math.inf for lo, hi in no_finite)
        assert all(lo.offending_t == t_min for lo, _ in no_finite)
        assert got[0][0].offending_t is None

    @pytest.mark.parametrize("probes", [(), (0.25, 1e-9)])
    @pytest.mark.parametrize("refine", [True, False])
    def test_calls_h_once_per_grid_round_and_family(self, probes, refine):
        calls = []
        ratio = curvature_ratio(remark5_density(), [0.3, 0.9, 1.0])

        def h(t):
            calls.append(np.shape(t))
            return ratio(t)

        scan_extrema(h, 1e-6, 2048, probe_points=probes, refine=refine)
        families = 1 + bool(probes)
        assert len(calls) == 1 + (_ZOOM_ROUNDS if refine else 0) + families
        assert calls[0] == (2048,)
        if refine:
            assert set(calls[1 : 1 + _ZOOM_ROUNDS]) == {(3, 62)}

    @pytest.mark.parametrize("t_min, grid_n", [(1e-300, 260), (1e-200, 256)])
    def test_stored_bracket_end(self, t_min, grid_n):
        # On so coarse a log grid, lo + (hi - lo) need not round to hi.  A
        # ramp that falls until the grid point b and jumps after it keeps
        # picking the last sample below b, so every round's bracket ends at b.
        ts = np.geomspace(t_min, 1.0, grid_n)
        ts[0], ts[-1] = t_min, 1.0
        i = np.flatnonzero(ts[:-2] + (ts[2:] - ts[:-2]) != ts[2:])[0]
        b = ts[i + 2]

        def h(t):
            return np.where(np.asarray(t) < b, -np.asarray(t) / b, 10.0).reshape(1, -1)

        got = scan_extrema(h, t_min, grid_n)
        assert repr(got) == repr(reference(h, t_min, grid_n))
        lo = got[0][0]
        assert lo.refined and ts[i] < lo.arg < b
