"""Tests of the benchmark's independent oracles.

    python3 -m pytest perfbench/test_oracles.py -q

Each oracle is checked against facts derived apart from extenso (known
constants, derivatives of the closed forms, a second quadrature), and only
then against the program.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def r5():
    return oracles.Remark5()


@pytest.fixture(scope="module")
def r2():
    return oracles.Remark2()


def _random_joint(seed, m, n, alpha):
    g = np.random.default_rng(seed).gamma(alpha, 1.0, size=(m, n)) + 1e-12
    return g / g.sum()


# --- remark5 ---------------------------------------------------------------


def test_remark5_vanishes_at_both_ends(r5):
    assert r5.s(0.0) == 0
    assert abs(r5.s(1.0)) < 1e-18


def test_clausen_identity_for_log_sine():
    for phi in (0.2, 0.7, math.pi / 4):
        direct = mpmath.quad(lambda x: mpmath.log(mpmath.sin(x)), [0, phi])
        closed = -mpmath.clsin(2, 2 * phi) / 2 - phi * mpmath.log(2)
        assert abs(direct - closed) < 1e-15


def test_remark5_curvature_from_closed_form(r5):
    for r in (0.05, 0.3, 0.5, 0.9):
        s2 = mpmath.diff(lambda x: 2 / mpmath.pi * (mpmath.clsin(2, mpmath.pi * x / 2) - x * r5.K), r, 2)
        assert abs(s2 + mpmath.pi / 4 * mpmath.cot(mpmath.pi * r / 4)) < 1e-12
    s1 = mpmath.diff(lambda x: 2 / mpmath.pi * (mpmath.clsin(2, mpmath.pi * x / 2) - x * r5.K), 1)
    assert abs(s1 - r5.s1_at_1()) < 1e-12


def test_remark5_envelope_is_the_ratio_range():
    t = np.geomspace(1e-7, 1.0, 4000)
    for r in (0.01, 0.25, 0.5, 0.8, 1.0):
        ratio = np.tan(np.pi * t / 4) / np.tan(np.pi * r * t / 4)
        assert np.all(np.diff(ratio) >= -1e-12)  # increasing in t
        lower, upper = oracles.Remark5.envelope(r)
        assert abs(r * r * ratio[0] - lower) < 1e-10
        assert abs(r * r * ratio[-1] - upper) < 1e-14
    lo, up = oracles.Remark5.envelope(0.5)
    assert lo / 0.25 == pytest.approx(2.0, abs=1e-15)
    assert up / 0.25 == pytest.approx(1 + math.sqrt(2), abs=1e-14)


def test_remark5_sandwich_holds(r5):
    for seed in range(3):
        P = _random_joint(seed, 3, 3, 0.5)
        b = oracles.sandwich(r5.entropy, oracles.Remark5.envelope, r5.s1_at_1(), P)
        assert b["lower"] <= b["diff"] <= b["upper"]


# --- remark2 ---------------------------------------------------------------


def _G_direct(a, b):
    """int_a^b u |cos(1/u)| du in u, split at the zeros of cos(1/u)."""
    k = np.arange(0, 400)
    zeros = 1.0 / (np.pi / 2 + np.pi * k)
    pts = [a] + sorted(z for z in zeros if a < z < b) + [b]
    return math.fsum(
        integrate.quad(lambda u: u * abs(math.cos(1.0 / u)), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
        for lo, hi in zip(pts[:-1], pts[1:])
    )


def test_remark2_moment_matches_quadrature_in_u(r2):
    for a, b in ((0.01, 0.3), (0.05, 1.0), (0.2, 0.77)):
        assert abs((r2.moments(b)[0] - r2.moments(a)[0]) - _G_direct(a, b)) < 1e-14


def test_remark2_tail_within_its_bound():
    coarse, fine = oracles.Remark2(v_max=1e3), oracles.Remark2(v_max=1e4)
    bound = 0.43 / coarse.V**3 + 0.43 / fine.V**3
    for r in (0.001, 0.1, 0.6, 1.0):
        assert abs(coarse.moments(r)[0] - fine.moments(r)[0]) <= bound


def test_remark2_derivatives(r2):
    h = 1e-6
    for r in (0.1, 0.37, 0.8):
        s1 = -(r2.moments(r)[0] + r**3 / 3)
        fd1 = (r2.s(r + h) - r2.s(r - h)) / (2 * h)
        assert abs(fd1 - s1) < 1e-9
        G = [r2.moments(x)[0] for x in (r - h, r + h)]
        assert abs((G[1] - G[0]) / (2 * h) - r * abs(math.cos(1 / r))) < 1e-8
    assert r2.s(0.0) == 0.0


# --- tsallis -----------------------------------------------------------------


def test_tsallis_uniform_and_pseudo_additivity():
    q = 0.1
    for n in (2, 5, 9):
        want = (1 - n ** (1 - q)) / (q - 1)
        assert oracles.tsallis_entropy(np.full(n, 1 / n), q) == pytest.approx(want, abs=1e-14)
    P = _random_joint(4, 4, 4, 0.3)
    assert abs(oracles.residual(lambda p: oracles.tsallis_entropy(p, q), P, power=q)) < 1e-14
    b = oracles.sandwich(lambda p: oracles.tsallis_entropy(p, q), lambda r: oracles.tsallis_envelope(r, q),
                         oracles.tsallis_s1_at_1(q), P)
    assert b["lower"] == pytest.approx(b["diff"], abs=1e-14)
    assert b["upper"] == pytest.approx(b["diff"], abs=1e-14)


# --- the benchmark's own pieces ---------------------------------------------


def test_sandwich_inputs_keep_their_marginals():
    w = workloads.WORKLOADS["sandwich"]
    a, b = w.inputs(1)["entries"], w.inputs(2)["entries"]
    assert a.shape == (w.pool_size, 4, 4)
    marg = workloads.fixed_sandwich_marginals(w.pool_size, w.round_size)
    for e in (a, b):
        np.testing.assert_allclose(e.sum(axis=1), marg, rtol=1e-14)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, w.inputs(1)["entries"])
    # no marginal repeats, and each round has the same ops on either side of the fault line
    assert len(np.unique(marg)) == marg.size
    low = marg.min(axis=1) < workloads.FAULT_BELOW
    assert (low == (np.arange(w.pool_size) % w.round_size < workloads.FAULTY_PER_ROUND)).all()
    assert (marg[~low].min(axis=1) > workloads.CLEAR_ABOVE).all()


def test_cli_check_rejects_non_strict_json():
    argv = ["axioms", "--density", "remark5", "--instances", "3"]
    assert checks.cli_payload(argv, '{"instances": 3, "all_pass": true, "x": NaN}', 0)
    assert not checks.cli_payload(argv, '{"instances": 3, "all_pass": true}', 0)


# --- agreement with the program ---------------------------------------------


def test_program_agrees_with_oracles(r5, r2):
    sys.path.insert(0, str(HERE.parent / "src"))
    import extenso

    d5, d2 = extenso.remark5_density(), extenso.remark2_density()
    for r in (1e-7, 1e-3, 0.2, 0.5, 0.93, 1.0):
        assert abs(float(r5.s(r)) - d5.eval_s(r)) < 1e-15
        assert abs(r2.s(r) - d2.eval_s(r)) < 1e-12
