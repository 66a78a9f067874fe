import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extenso.densities import (
    bg_density,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.numerics import _GRID, _TREND_WINDOW, GRID_N, T_MIN, _diverging, scan_extrema
from numeric_oracles import (
    NoConvergenceError,
    adaptive_quadrature,
    finite_difference,
    global_extremum,
    midpoint_richardson,
    reference_scan_extrema,
    reference_trend_labels,
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
        res = global_extremum(lambda t: t, "inf")
        assert abs(res.value - 1e-6) <= 1e-9
        assert res.arg == pytest.approx(1e-6)  # extremum at the artificial boundary

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

    def test_interior_maximum_within_a_cell(self):
        # the true maximum, 0 at t = 0.37, lies inside a grid cell (2.5e-3 wide)
        h = lambda t: -((np.asarray(t) - 0.37) ** 2)
        res = global_extremum(h, "sup")
        ts = _GRID
        cell = np.searchsorted(ts, 0.37)
        assert ts[cell - 1] <= res.arg <= ts[cell]
        assert 0.0 < -res.value <= res.est_error

    def test_inf_never_exceeds_grid_minimum(self):
        h = lambda t: np.sin(13.0 * np.asarray(t)) + np.asarray(t)
        res = global_extremum(h, "inf")
        ts = np.geomspace(1e-6, 1.0, 2048)
        assert res.value <= float(np.min(h(ts))) + 1e-15

    def test_sup_never_below_grid_maximum(self):
        h = lambda t: np.sin(13.0 * np.asarray(t)) + np.asarray(t)
        res = global_extremum(h, "sup")
        ts = np.geomspace(1e-6, 1.0, 2048)
        assert res.value >= float(np.max(h(ts))) - 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            global_extremum(lambda t: t, "min")

    def test_grid_is_pinned_and_read_only(self):
        want = np.geomspace(1e-6, 1.0, 2048)
        want[0], want[-1] = 1e-6, 1.0
        assert (T_MIN, GRID_N) == (1e-6, 2048)
        assert _GRID.tobytes() == want.tobytes()
        assert not _GRID.flags.writeable
        with pytest.raises(ValueError):
            _GRID[1] = 0.5


# ---------------------------------------------------------------------------
# the scan against its plain reference, bit for bit
# ---------------------------------------------------------------------------


def curvature_ratio(d, rs):
    """The row-batched h that column_bounds scans: s''(r t)/s''(t) per r."""
    rt = np.asarray(rs, dtype=np.float64)[:, None]

    def h(t):
        return np.asarray(d.eval_s2(rt * t)) / np.asarray(d.eval_s2(t))

    return h


def reference(h, *args):
    # the reference predates the warning-free handling of non-finite rows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return reference_scan_extrema(h, *args)


def exact(scan):
    """Every field of a Scan as Python scalars: repr then compares every
    float bit for bit, nan and the sign of zero included."""
    return repr({name: field.tolist() for name, field in scan._asdict().items()})


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
    return np.stack(rows)


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
    # column_bounds takes r in (0, 1]
    r = st.one_of(st.floats(1e-9, 1.0), st.sampled_from([1.0, np.nextafter(1.0, 0.0), 1e-9]))
    return d, draw(st.lists(r, min_size=1, max_size=5))


class TestScanMatchesReference:
    """scan_extrema against the plain scan it replaced: repr compares every
    float bit for bit, nan and the sign of zero included."""

    @settings(max_examples=60, deadline=None)
    @given(scan_cases())
    def test_curvature_ratios(self, case):
        d, rs = case
        h = curvature_ratio(d, rs)
        assert exact(scan_extrema(h, d.probe_points)) == exact(reference(h, d.probe_points))

    @pytest.mark.parametrize("probes", [(), (0.5, 1e-7, 0.01), (2e-8,)])
    def test_nan_and_infinite_regions(self, probes):
        # warnings are errors in this suite: the scan stays quiet on rows
        # without a finite value
        got = scan_extrema(patchy, probes)
        assert exact(got) == exact(reference(patchy, probes))
        assert (got.est_error[6:10] == math.inf).all()  # rows without a finite value

    @pytest.mark.parametrize("probes", [(), (0.25, 1e-9)])
    def test_calls_h_once_per_grid_round_and_family(self, probes):
        calls = []
        ratio = curvature_ratio(remark5_density(), [0.3, 0.9, 1.0])

        def h(t):
            calls.append(np.shape(t))
            return ratio(t)

        scan_extrema(h, probe_points=probes)
        assert calls == [(2048,), (40,)] + [(len(probes),)] * bool(probes)


# ---------------------------------------------------------------------------
# the block divergence judge against the per-row trend labels
# ---------------------------------------------------------------------------


@st.composite
def probe_row(draw, n):
    """One probe family's values: any floats, or a flat, monotone (strictly
    or in stairs), sign-changing or near-threshold tail; then NaN and +-inf
    injected, at times leaving no more finite values than the trend window."""
    kind = draw(st.sampled_from(["any", "flat", "monotone", "stairs", "crossing", "threshold"]))
    k = np.arange(n, dtype=np.float64)
    if kind == "any":
        row = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n)))
    elif kind == "flat":
        c = draw(st.floats(-1e3, 1e3))
        wobble = draw(st.sampled_from([0.0, 1e-13, 1e-11]))
        row = c + wobble * (1.0 + abs(c)) * np.cos(k)
    elif kind in ("monotone", "stairs"):
        step = draw(st.sampled_from([1e-13, 1e-9, 1e-3, 1.0, 1e3]))
        start = draw(st.floats(-100.0, 100.0)) * step
        if kind == "stairs":  # every other step is 0
            rise = np.floor(k / 2)
        else:  # steady, slowing or speeding up
            rise = draw(st.sampled_from([k, np.cumsum(0.5 ** k), np.cumsum(2.0 ** k)]))
        row = start + draw(st.sampled_from([1.0, -1.0])) * step * rise
    elif kind == "crossing":  # a decreasing tail that crosses zero, ends on it, or not at all
        m = draw(st.one_of(st.just(n - 1), st.integers(1, 2 * n)))
        row = draw(st.floats(0.1, 10.0)) * (m - k) / max(m, 1)
    else:  # a window that moves by about the "away" threshold
        first = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from([1e-10, 1e-3, 1.0, 1e3]))
        move = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.5, 2.0)) * max(1e-9, 0.05 * abs(first))
        row = first + move * (k - (n - _TREND_WINDOW)) / (_TREND_WINDOW - 1)
    holes = draw(st.sampled_from(["none", "some", "short"]))
    if holes != "none":
        bad = np.array(draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=n, max_size=n)))
        if holes == "some":
            hit = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            hit = np.ones(n, dtype=bool)
            hit[draw(st.lists(st.integers(0, n - 1), max_size=_TREND_WINDOW))] = False
        row = np.where(hit, bad, row)
    return row


@st.composite
def probe_blocks(draw):
    n = draw(st.one_of(st.integers(1, 70), st.sampled_from([_TREND_WINDOW, _TREND_WINDOW + 1])))
    return np.array(draw(st.lists(probe_row(n), min_size=1, max_size=6)))


class TestDivergenceJudge:
    """The scan's block judge against the per-row trend labels it replaced."""

    STAIRS = np.floor(np.arange(12.0) / 2)

    @settings(max_examples=150, deadline=None)
    @given(probe_blocks())
    @example(np.stack([STAIRS, -STAIRS, np.arange(11.0, -1.0, -1.0)]))  # zero steps; ends on 0
    @example(np.stack([np.arange(8.0) ** 2, -np.arange(8.0) ** 2]))  # too short to judge
    def test_matches_reference_labels(self, block):
        with np.errstate(over="ignore", invalid="ignore"):  # scan_extrema's state
            got = _diverging(block)
        want = [[label == "diverging" for label in reference_trend_labels(row)] for row in block]
        assert got.tolist() == want

    def test_compacts_rows_in_their_own_order(self):
        # nine finite values rising to the end, with non-finite ones between
        # them: only their order decides the verdict
        rising = np.arange(1.0, 10.0) ** 2
        row = np.insert(rising, [2, 5, 5, 9], [np.nan, np.inf, -np.inf, np.nan])
        flags = _diverging(np.stack([row, row[::-1]]))
        assert flags.tolist() == [[False, True], [False, False]]
