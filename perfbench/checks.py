"""Checks of the program's outputs, made outside the timed region.

Each check returns the op indices that failed (only the false tsallis(0.1)
divergence counts as a failed op) and a list of problems; any problem makes
the run incorrect.
"""
from __future__ import annotations

import json
import math

import numpy as np

from workloads import SANDWICH_Q

RESIDUAL_ORACLE_TOL = 1e-9
MAXIMALITY_TOL = 1e-12


def _sample(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


def _within(name: str, got: float, want: float, tol: float, where: str, problems: list) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{where}: {name} {got!r} differs from oracle {want!r} by more than {tol!r}")


def sandwich(inputs: dict, outputs: list, rng: np.random.Generator, sample: int) -> tuple[list, list]:
    import oracles

    failed, problems = [], []
    for i, (r5, ts) in enumerate(outputs):
        if r5["verdict"] != "pass":
            problems.append(f"op {i}: remark5 verdict {r5['verdict']!r}, expected 'pass'")
        if ts["verdict"] == "divergent":
            failed.append(i)
            continue
        if ts["verdict"] != "pass":
            problems.append(f"op {i}: tsallis verdict {ts['verdict']!r}, expected 'pass'")
        for line in ("lower", "upper"):
            if not abs(ts[line] - ts["diff"]) <= ts["tolerance"]:
                problems.append(f"op {i}: tsallis {line} {ts[line]!r} != diff {ts['diff']!r} (no equality collapse)")

    r5o = oracles.Remark5()
    cases = [
        (0, r5o.entropy, oracles.Remark5.envelope, r5o.s1_at_1()),
        (1, lambda p: oracles.tsallis_entropy(p, SANDWICH_Q),
         lambda r: oracles.tsallis_envelope(r, SANDWICH_Q), oracles.tsallis_s1_at_1(SANDWICH_Q)),
    ]
    for i in _sample(rng, len(outputs), sample):
        entries = inputs["entries"][i]
        for k, entropy, envelope, s1 in cases:
            rep = outputs[i][k]
            if rep["verdict"] == "divergent":
                continue
            want = oracles.sandwich(entropy, envelope, s1, entries)
            for name in ("diff", "lower", "upper"):
                _within(name, rep[name], want[name], rep["tolerance"], f"op {i} density {k}", problems)
    return failed, problems


def residual(inputs: dict, outputs: list, rng: np.random.Generator, sample: int) -> tuple[list, list]:
    import oracles

    problems = []
    for i, values in enumerate(outputs):
        if not all(math.isfinite(v) for v in values):
            problems.append(f"op {i}: non-finite residual {values!r}")
    entropies = [oracles.Remark5().entropy, oracles.Remark2().entropy]
    for i in _sample(rng, len(outputs), sample):
        for k, entropy in enumerate(entropies):
            want = oracles.residual(entropy, inputs["entries"][i], power=1.0)
            _within("residual", outputs[i][k], want, RESIDUAL_ORACLE_TOL, f"op {i} density {k}", problems)
    return [], problems


def axioms(inputs: dict, outputs: list, rng: np.random.Generator, sample: int) -> tuple[list, list]:
    problems = []
    for i, reports in enumerate(outputs):
        for k, rep in enumerate(reports):
            if not rep["all_pass"]:
                problems.append(f"op {i} density {k}: axiom suite failed {rep!r}")
            if not rep["worst_maximality_gap"] <= MAXIMALITY_TOL:
                problems.append(f"op {i} density {k}: maximality gap {rep['worst_maximality_gap']!r}")
    return [], problems


CHECKS = {"sandwich": sandwich, "residual": residual, "axioms": axioms}
ORACLE_SAMPLE = {"sandwich": 16, "residual": 1, "axioms": 0}


# ---------------------------------------------------------------------------
# CLI payloads
# ---------------------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON token {token}")


def cli_payload(argv: list[str], text: str, exit_code: int) -> list[str]:
    """Strict JSON, and counts that agree with the per-instance details."""
    where = " ".join(argv[:3])
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except ValueError as e:
        return [f"{where}: output is not strict JSON ({e})"]
    problems = []
    n = int(argv[argv.index("--instances") + 1])
    if payload.get("instances") != n:
        problems.append(f"{where}: instances {payload.get('instances')!r} != {n}")
    command = argv[0]
    if command == "verify-sandwich":
        if payload["fail_count"] != 0 or exit_code != 0:
            problems.append(f"{where}: fail_count {payload['fail_count']}, exit {exit_code}")
        if payload["pass_count"] + payload["divergent_count"] != n:
            problems.append(f"{where}: pass {payload['pass_count']} + divergent "
                            f"{payload['divergent_count']} != {n}")
    elif command == "residual":
        tol = payload["tolerance"]
        values = [row["residual"] for row in payload["details"]]
        for row in payload["details"]:
            want = "pass" if abs(row["residual"]) <= tol else "fail"
            if row["verdict"] != want:
                problems.append(f"{where}: instance {row['instance']} verdict {row['verdict']!r}, "
                                f"residual {row['residual']!r}")
        if payload["max_abs_residual"] != max(abs(v) for v in values):
            problems.append(f"{where}: max_abs_residual disagrees with details")
        if exit_code != (1 if payload["fail_count"] else 0):
            problems.append(f"{where}: exit {exit_code} with fail_count {payload['fail_count']}")
    elif command == "axioms":
        if not payload["all_pass"] or exit_code != 0:
            problems.append(f"{where}: all_pass {payload['all_pass']!r}, exit {exit_code}")
    return problems
