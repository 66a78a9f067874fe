"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
pass/fail line per criterion alongside the pytest verdicts.
"""
import json
import math
import time

import numpy as np
import pytest

from extenso.bounds import coefficient_bounds, theta_phi
from extenso.cli import main as cli_main
from extenso.densities import (
    bg_density,
    joint_entropies,
    remark2_density,
    remark5_density,
    tsallis_density,
)
from extenso.extensivity import (
    axiom_suite,
    extensivity_residual,
    iff_counterexample_matrix,
    iff_lhs,
    power_coefficient,
    recover_f,
    sandwich_check,
)
from extenso.simplex import random_joint
from numeric_oracles import adaptive_quadrature

SQRT2 = math.sqrt(2.0)
# frozen quadrature-oracle value of s'(1) for the log-sin density
R5_S1_AT_1 = -0.9296953983416102
IFF_LIMIT = R5_S1_AT_1 * (SQRT2 - 1.0) / 2.0


def _sizes(seed, lo=1, hi=8):
    rng = np.random.default_rng(seed + 55_000)
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {status}: {detail}")
    assert ok, detail


def test_criterion_01_extensivity_exactness():
    cases = [
        (bg_density(), 1.0),
        (tsallis_density(0.5), 0.5),
        (tsallis_density(2.0), 2.0),
        (tsallis_density(3.0), 3.0),
    ]
    start = time.perf_counter()
    worst = 0.0
    for d, q in cases:
        f = power_coefficient(q)
        for seed in range(1000):
            m, n = _sizes(seed)
            P = random_joint(m, n, seed=seed)
            worst = max(worst, abs(extensivity_residual(d, P, f)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"matching-power residual <= 1e-10 over 4x1000 joints "
                   f"(worst {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_bounds_power_oracle():
    worst = 0.0
    for q in (0.5, 2.0):
        d = tsallis_density(q)
        for r in np.linspace(0.1, 0.9, 9):
            cb = coefficient_bounds(d, float(r))
            worst = max(worst, abs(cb.lower - r**q), abs(cb.upper - r**q))
    _report(2, worst <= 1e-6, f"coefficient bounds match r^q within 1e-6 (worst {worst:.2e})")


def test_criterion_03_sandwich_soundness():
    ok = True
    notes = []
    for d, collapse in [
        (bg_density(), False),
        (tsallis_density(0.5), True),
        (tsallis_density(2.0), True),
        (remark5_density(), False),
    ]:
        worst_slack = math.inf
        worst_gap = 0.0
        for seed in range(500):
            m, n = _sizes(seed)
            P = random_joint(m, n, seed=seed)
            rep = sandwich_check(d, P)
            ok = ok and rep.verdict == "pass"
            worst_slack = min(worst_slack, rep.slack_lower, rep.slack_upper)
            if collapse:
                ok = ok and (rep.upper - rep.lower) <= rep.tolerance
                worst_gap = max(worst_gap, rep.upper - rep.lower)
        note = f"{d.label}: 500 pass, worst slack {worst_slack:.2e}"
        if collapse:
            note += f", collapse gap {worst_gap:.2e}"
        notes.append(note)
    _report(3, ok, "; ".join(notes))


def test_criterion_04_oscillating_divergence():
    d = remark2_density()
    worst = 0.0
    for k in range(1, 21):
        t_k = 1.0 / ((k + 0.5) * math.pi)
        ratio = float(np.asarray(d.eval_s2(t_k / 2.0)) / np.asarray(d.eval_s2(t_k)))
        closed = 0.5 * ((k + 0.5) * math.pi + 0.5)
        worst = max(worst, abs(ratio - closed))
    cb = coefficient_bounds(d, 0.5)
    ok = worst <= 1e-8 and cb.divergent
    _report(4, ok, f"ladder ratios match closed form within 1e-8 (worst {worst:.2e}); "
                   f"half-ratio scan divergent={cb.divergent}")


def test_criterion_05_logsin_extremes():
    d = remark5_density()
    cb = coefficient_bounds(d, 0.5)
    # dividing by r^2 = 1/4, a power of two, recovers the ratio-scale extremes exactly
    inf_err = abs(cb.lower / 0.25 - 2.0)
    sup_err = abs(cb.upper / 0.25 - (1.0 + SQRT2))
    theta = theta_phi(d)
    theta_err = abs(theta - math.pi / 2.0)
    vals = {x: iff_lhs(d, iff_counterexample_matrix(x)) for x in (0.02, 0.01, 0.005)}
    all_negative = all(v < 0.0 for v in vals.values())
    limit_err = abs(vals[0.005] - IFF_LIMIT)
    ok = inf_err <= 1e-4 and sup_err <= 1e-4 and theta_err <= 1e-3 and all_negative and limit_err <= 0.05
    _report(5, ok, f"half-ratio extremes 2/(1+sqrt2) within 1e-4 (errs {inf_err:.1e}, {sup_err:.1e}); "
                   f"theta pi/2 within 1e-3 (err {theta_err:.1e}); "
                   f"lower line negative for x<=0.02, off limit by {limit_err:.3f} at x=0.005")


def test_criterion_06_power_recovery():
    ok = True
    notes = []
    for d, q_true in [(tsallis_density(0.5), 0.5), (bg_density(), 1.0), (tsallis_density(2.0), 2.0)]:
        rec = recover_f(d)
        ok = ok and rec.verdict == "power" and abs(rec.q_est - q_true) <= 1e-6
        ok = ok and rec.reconstruction is not None and rec.reconstruction.max_abs_err <= 1e-8
        notes.append(f"{d.label}: q={rec.q_est:.8f}, recon err {rec.reconstruction.max_abs_err:.1e}")
    for d in (remark5_density(), remark2_density()):
        rec = recover_f(d)
        ok = ok and rec.verdict != "power"
        notes.append(f"{d.label}: {rec.verdict}")
    _report(6, ok, "; ".join(notes))


def test_criterion_07_axiom_suites():
    ok = True
    notes = []
    for d in (bg_density(), tsallis_density(0.5), tsallis_density(2.0),
              tsallis_density(3.0), remark2_density(), remark5_density()):
        rep = axiom_suite(d, sizes=tuple(range(2, 9)), seed=17, trials=200)
        ok = ok and rep.all_pass
        notes.append(f"{d.label}: {'ok' if rep.all_pass else 'FAIL'}")
    _report(7, ok, "continuity/maximality/expandability over n<=8, 200 trials: " + "; ".join(notes))


def test_criterion_08_double_integral_identity():
    worst = 0.0
    for d in (tsallis_density(0.5), tsallis_density(2.0), remark5_density()):
        s2 = d.eval_s2
        for a in (0.25, 0.5, 0.9):
            g_lo = lambda u: a * a * float(np.asarray(s2(a * u))) * u
            g_hi = lambda u: a * a * float(np.asarray(s2(a * u)))
            for r in (0.25, 0.5, 0.9):
                lhs = adaptive_quadrature(g_lo, 0.0, r, 5e-8) + r * adaptive_quadrature(
                    g_hi, r, 1.0, 5e-8
                )
                rhs = a * float(np.asarray(d.eval_s1(a))) * r - float(np.asarray(d.eval_s(a * r)))
                worst = max(worst, abs(lhs - rhs))
    _report(8, worst <= 1e-6, f"a s'(a) r - s(ar) reproduced by quadrature within 1e-6 "
                              f"(worst {worst:.2e})")


def test_criterion_09_monotonicity():
    ok = True
    for d in (bg_density(), tsallis_density(0.5), tsallis_density(2.0),
              tsallis_density(3.0), remark2_density(), remark5_density()):
        for seed in range(500):
            m, n = _sizes(seed)
            S_joint, S_marg, _ = joint_entropies(d, *random_joint(m, n, seed=seed).stack)
            ok = ok and bool(S_joint[0] - S_marg[0] >= -1e-10)
    _report(9, ok, "S(joint) >= S(marginal) - 1e-10 on 6 densities x 500 joints")


def test_criterion_10_deterministic_reports(tmp_path):
    pairs = []
    for args in (
        ["verify-sandwich", "--density", "tsallis", "--q", "0.5",
         "--m", "4", "--n", "4", "--instances", "25", "--seed", "1"],
        ["counterexample", "remark2", "--k-max", "15"],
    ):
        outs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{args[0]}-{tag}.json"
            code = cli_main(args + ["--output", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        pairs.append(outs[0] == outs[1])
        json.loads(outs[0])  # payload is valid JSON
    _report(10, all(pairs), "identical seeds give byte-identical JSON reports across reruns")
