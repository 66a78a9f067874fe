import argparse
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import extenso
from extenso import bounds, cli, densities
from extenso.cli import main
from extenso.densities import EntropyFunctional, remark2_density, remark5_density
from extenso.extensivity import extensivity_residual, power_coefficient, sandwich_check
from extenso.simplex import random_joint
from numeric_oracles import count_eval_s, reference_residual, reference_sandwich


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    return code, json.loads(out)


class TestVerifySandwich:
    def test_tsallis_collapse(self, capsys):
        code, payload = run_json(
            ["verify-sandwich", "--density", "tsallis", "--q", "0.5",
             "--m", "4", "--n", "4", "--instances", "20", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert payload["pass_count"] == 20
        assert payload["fail_count"] == 0
        assert payload["equality_collapse"] is True
        assert len(payload["details"]) == 20

    def test_remark5(self, capsys):
        code, payload = run_json(
            ["verify-sandwich", "--density", "remark5", "--m", "3", "--n", "3",
             "--instances", "5", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert payload["pass_count"] == 5

    def test_jobs_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-sandwich", "--density", "tsallis", "--q", "2",
                  "--m", "3", "--n", "3", "--instances", "8", "--seed", "5", "--jobs", "4"])
        assert exc.value.code == 2

    def test_low_concentration_tsallis_not_divergent(self, capsys):
        # marginals far below 1e-6 push the curvature ratio past the
        # magnitude threshold, yet the coefficient r^q stays exact and finite
        code, payload = run_json(
            ["verify-sandwich", "--density", "tsallis", "--q", "0.1", "--m", "4", "--n", "4",
             "--concentration", "0.05", "--instances", "200", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert (payload["pass_count"], payload["divergent_count"]) == (200, 0)

    def test_infinite_tolerance_is_no_pass(self, capsys):
        # at q = 1e19 the scan's grid errors are +inf, so the propagated
        # tolerance (null) would pass any slack: every joint is skipped
        code, payload = run_json(
            ["verify-sandwich", "--density", "tsallis", "--q", "1e19", "--n", "1", "--m", "7",
             "--instances", "3", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert (payload["pass_count"], payload["divergent_count"]) == (0, 3)
        assert [(row["verdict"], row["tolerance"]) for row in payload["details"]] == [("divergent", None)] * 3


def reference_sandwich_payload(argv: list[str]) -> dict:
    """verify-sandwich's payload built one joint at a time: sandwich_check on
    random_joint(m, n, seeds[i]), one report dict per row."""
    args = cli.build_parser().parse_args(argv)
    d = cli._resolve_density(args, args._parser)
    F = EntropyFunctional(d)
    cfg = cli._bounds_cfg(args)
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(args.instances)]
    details = []
    for i, seed in enumerate(seeds):
        P = random_joint(args.m, args.n, seed=seed, concentration=args.concentration)
        rep = sandwich_check(F, P, cfg, tolerance=args.tolerance)
        if args.tolerance is None:  # an independent per-vector build of the same report
            assert rep.to_dict() == reference_sandwich(F, P, cfg)
        details.append({"instance": i, **rep.to_dict()})
    outcomes = [row["verdict"] for row in details]
    slacks = [min(row["slack_lower"], row["slack_upper"]) for row in details]
    payload = cli.batch_report(d.label, "verify-sandwich", args.seed, outcomes, slacks)
    worst_gap = max((row["upper"] - row["lower"] for row in details), default=math.nan)
    collapse_tol = max((row["tolerance"] for row in details), default=math.nan)
    payload["worst_bound_gap"] = worst_gap
    payload["equality_collapse"] = bool(worst_gap <= collapse_tol)
    payload["details"] = details
    return payload


DIRICHLET_4X4 = ["--m", "4", "--n", "4", "--concentration", "0.05", "--seed", "3"]


class TestStackedSandwich:
    """verify-sandwich checks every joint in one pass; its payload is the one
    a per-joint loop builds, byte for byte."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["--density", "remark5", *DIRICHLET_4X4, "--instances", "40"],
        ["--density", "tsallis", "--q", "0.1", *DIRICHLET_4X4, "--instances", "40"],
        ["--density", "bg", *DIRICHLET_4X4, "--instances", "40"],
        ["--density", "remark5", *DIRICHLET_4X4, "--instances", "0"],
        ["--density", "tsallis", "--q", "0.1", *DIRICHLET_4X4, "--instances", "12", "--tolerance", "0"],
        ["--density", "remark5", "--m", "3", "--n", "7", "--concentration", "0.2",
         "--instances", "20", "--seed", "11"],
        # 280 columns: three scans
        ["--density", "remark5", *DIRICHLET_4X4, "--instances", "70"],
    ], ids=lambda a: " ".join(a))
    def test_payload_matches_per_joint_loop(self, argv, fmt, capsys):
        argv = ["verify-sandwich", *argv, "--format", fmt]
        code = main(argv)
        out = capsys.readouterr().out
        args = cli.build_parser().parse_args(argv)
        cli._emit(reference_sandwich_payload(argv), args)
        assert out == capsys.readouterr().out
        assert code == 0
        if args.instances == 70:
            assert args.instances * args.n > 2 * bounds.SCAN_ROWS

    @pytest.mark.parametrize("instances", [1, 32, 33, 100])
    def test_one_eval_s_call_and_chunked_scans(self, instances, capsys, monkeypatch):
        d, calls = count_eval_s(remark5_density())
        monkeypatch.setattr(cli, "_resolve_density", lambda args, parser: d)
        rows = []
        scan_extrema = bounds.scan_extrema

        def counted_scan(*args, **kwargs):
            scan = scan_extrema(*args, **kwargs)
            rows.append(scan.value.shape[0])
            return scan

        monkeypatch.setattr(bounds, "scan_extrema", counted_scan)
        assert main(["verify-sandwich", "--density", "remark5", *DIRICHLET_4X4,
                     "--instances", str(instances)]) == 0
        capsys.readouterr()
        columns = instances * 4
        assert calls == [instances * (16 + 4 + 16)]  # joints, marginals, conditionals
        assert len(rows) == math.ceil(columns / bounds.SCAN_ROWS)
        assert sum(rows) == columns and max(rows) <= bounds.SCAN_ROWS

    @pytest.mark.parametrize("command", ["verify-sandwich", "residual"])
    def test_a_later_failed_draw_leaves_no_payload(self, command, capsys):
        # at concentration 0.004 and seed 0, instances 0-6 draw and 7 does not
        with pytest.raises(SystemExit) as exc:
            main([command, "--density", "bg", "--concentration", "0.004", "--instances", "10", "--seed", "0"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        err = captured.err.strip().splitlines()
        assert err[-1].startswith(f"extenso {command}: error: --concentration 0.004 is too low")
        assert not any("Traceback" in line for line in err)


def reference_residual_payload(argv: list[str]) -> dict:
    """residual's payload built one joint at a time: extensivity_residual on
    random_joint(m, n, seeds[i]), one detail dict per instance."""
    args = cli.build_parser().parse_args(argv)
    d = cli._resolve_density(args, args._parser)
    F = EntropyFunctional(d)
    q = args.power if args.power is not None else 1.0 if d.label == "bg" else args.q
    f = power_coefficient(q)
    seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(args.instances)]
    details = []
    for i, seed in enumerate(seeds):
        P = random_joint(args.m, args.n, seed=seed, concentration=args.concentration)
        res = extensivity_residual(F, P, f)
        assert res == reference_residual(F, P, f)  # and so per vector
        details.append({"instance": i, "residual": res, "verdict": "pass" if abs(res) <= args.tolerance else "fail"})
    outcomes = [row["verdict"] for row in details]
    slacks = [args.tolerance - abs(row["residual"]) for row in details]
    payload = cli.batch_report(d.label, "residual", args.seed, outcomes, slacks)
    payload["power"] = q
    payload["tolerance"] = args.tolerance
    payload["max_abs_residual"] = max((abs(r["residual"]) for r in details), default=math.nan)
    payload["details"] = details
    return payload


RESIDUAL_32X32 = ["--m", "32", "--n", "32", "--seed", "5"]


class TestStackedResidual:
    """residual evaluates every joint in blocks; its payload is the one a
    per-joint loop builds, byte for byte."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ["--density", "remark5", "--power", "1", *RESIDUAL_32X32, "--instances", "3"],
        ["--density", "remark2", "--power", "1", *RESIDUAL_32X32, "--instances", "3"],
        ["--density", "bg", "--instances", "30", "--seed", "2"],
        ["--density", "tsallis", "--q", "0.5", "--instances", "30", "--seed", "2"],
        ["--density", "remark5", "--power", "0.5", "--instances", "30", "--seed", "2"],
        ["--density", "bg", "--instances", "0", "--seed", "2"],
        ["--density", "bg", "--instances", "1", "--seed", "2"],
        ["--density", "tsallis", "--q", "2", "--m", "1", "--n", "1", "--instances", "5", "--seed", "3"],
        ["--density", "remark2", "--power", "0.5", "--m", "3", "--n", "7", "--concentration", "0.2",
         "--instances", "20", "--seed", "11"],
        # 2 080 points a joint, 15 joints a block: three blocks
        ["--density", "remark5", "--power", "1", *RESIDUAL_32X32, "--instances", "32"],
    ], ids=lambda a: " ".join(a))
    def test_payload_matches_per_joint_loop(self, argv, fmt, capsys):
        argv = ["residual", *argv, "--format", fmt]
        code = main(argv)
        out = capsys.readouterr().out
        args = cli.build_parser().parse_args(argv)
        payload = reference_residual_payload(argv)
        cli._emit(payload, args)
        assert out == capsys.readouterr().out
        assert code == (0 if payload["fail_count"] == 0 else 1)
        if args.instances == 32:
            assert args.instances * (2 * 32 * 32 + 32) > 2 * densities.ENTROPY_BLOCK

    @pytest.mark.parametrize("m, n, instances", [(32, 32, 32), (32, 32, 15), (4, 4, 100), (8, 8, 600), (1, 1, 0)])
    def test_eval_s_calls_hold_whole_joints_within_the_block(self, m, n, instances, capsys, monkeypatch):
        # a call takes as many whole joints as fit in densities.ENTROPY_BLOCK
        # points; test_densities checks the count where a joint divides the block
        d, calls = count_eval_s(remark2_density())
        monkeypatch.setattr(cli, "_resolve_density", lambda args, parser: d)
        main(["residual", "--density", "remark2", "--power", "1", "--m", str(m), "--n", str(n),
              "--instances", str(instances), "--seed", "4"])
        capsys.readouterr()
        per_joint = 2 * m * n + n
        step = densities.ENTROPY_BLOCK // per_joint
        assert len(calls) == math.ceil(instances / step)
        assert sum(calls) == instances * per_joint and max(calls, default=0) <= densities.ENTROPY_BLOCK


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-sandwich", "--density", "tsallis", "--q", "0.5",
                "--m", "3", "--n", "4", "--instances", "10", "--seed", "123"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_large_seed(self, capsys):
        code, payload = run_json(
            ["residual", "--density", "bg", "--instances", "2", "--seed", str(2**70)], capsys
        )
        assert code == 0 and payload["seed"] == 2**70

    @pytest.mark.parametrize("command", ["verify-sandwich", "residual", "axioms"])
    def test_seed_defaults_to_zero(self, command, capsys, monkeypatch):
        # --seed is the seed's one source: the environment is not read
        monkeypatch.setenv("EXTENSO_SEED", "99")
        argv = [command, "--density", "bg", "--instances", "3"]
        _, payload = run_json(argv, capsys)
        assert payload["seed"] == 0
        assert run_json(argv + ["--seed", "0"], capsys)[1] == payload


class TestResidual:
    def test_bg_default_power(self, capsys):
        code, payload = run_json(
            ["residual", "--density", "bg", "--m", "5", "--n", "5",
             "--instances", "25", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert payload["power"] == 1.0
        assert payload["pass_count"] == 25
        assert payload["max_abs_residual"] <= 1e-10

    def test_tsallis_inherits_q(self, capsys):
        _, payload = run_json(
            ["residual", "--density", "tsallis", "--q", "2",
             "--instances", "5", "--seed", "4"],
            capsys,
        )
        assert payload["power"] == 2.0
        assert payload["fail_count"] == 0

    def test_wrong_power_fails_with_exit_1(self, capsys):
        code, payload = run_json(
            ["residual", "--density", "tsallis", "--q", "2", "--power", "1.0",
             "--instances", "5", "--seed", "4"],
            capsys,
        )
        assert code == 1
        assert payload["fail_count"] == 5

    @pytest.mark.parametrize("dq", [1e-8, -1e-8, -1e-7, 1e-12])
    def test_tsallis_near_one(self, dq, capsys):
        # s = (r - r^q)/(q - 1) loses about -log10|q - 1| digits to
        # cancellation; the expm1 form keeps the residual at rounding level
        code, payload = run_json(
            ["residual", "--density", "tsallis", "--q", repr(1.0 + dq),
             "--m", "6", "--n", "6", "--instances", "50", "--seed", "1"],
            capsys,
        )
        assert (code, payload["pass_count"]) == (0, 50)
        assert payload["tolerance"] == 1e-10


class TestBounds:
    def test_grid_json(self, capsys):
        code, payload = run_json(
            ["bounds", "--density", "tsallis", "--q", "0.5", "--r-grid", "0.1:0.9:5"],
            capsys,
        )
        assert code == 0
        assert len(payload["rows"]) == 5
        for row in payload["rows"]:
            assert abs(row["lower"] - row["r"] ** 0.5) <= 1e-6

    def test_csv_projection(self, capsys):
        code, out = run_cli(
            ["bounds", "--density", "bg", "--r", "0.5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,lower,upper,arg_inf,arg_sup,divergent"
        assert len(lines) == 2


class TestRecoverF:
    def test_tsallis_2(self, capsys):
        code, payload = run_json(["recover-f", "--density", "tsallis", "--q", "2"], capsys)
        assert code == 0
        assert payload["verdict"] == "power"
        assert abs(payload["q_est"] - 2.0) <= 1e-6

    def test_remark5_not_power(self, capsys):
        _, payload = run_json(["recover-f", "--density", "remark5"], capsys)
        assert payload["verdict"] == "not_power"

    @pytest.mark.parametrize("q", ["120", "150", "200", "300", "1000"])
    def test_underflowed_curvature_is_inconclusive(self, q, capsys):
        # s'' underflows at some r1 r2 x (or on the candidate grid itself)
        code, out = run_cli(["recover-f", "--density", "tsallis", "--q", q], capsys)
        payload = json.loads(out, parse_constant=_reject_constant)
        assert code == 0 and payload["verdict"] == "inconclusive"
        assert payload["q_est"] is None and payload["consistency"] is None
        assert "reconstruction" not in payload

    def test_largest_q_with_normal_curvature(self, capsys):
        code, payload = run_json(["recover-f", "--density", "tsallis", "--q", "100"], capsys)
        assert code == 0 and payload["verdict"] == "power"
        assert payload["q_est"] == 100.0
        assert payload["reconstruction"] == {
            "a_q": 0.0, "b_q": 0.0, "branch": "power", "k_q": -1.0, "max_abs_err": 0.0,
        }


class TestCounterexamples:
    def test_remark5_negative_lhs(self, capsys):
        code, payload = run_json(["counterexample", "remark5", "--x", "0.01"], capsys)
        assert code == 0
        assert payload["negative"] is True
        assert payload["iff_lhs"] < 0.0
        assert payload["limit"] == pytest.approx(-0.192546221434476, abs=1e-9)

    def test_remark2_table(self, capsys):
        code, payload = run_json(["counterexample", "remark2", "--k-max", "12"], capsys)
        assert code == 0
        assert payload["monotone_growth"] is True
        assert payload["half_ratio_divergent"] is True
        rows = payload["rows"]
        assert len(rows) == 12
        for row in rows:
            want = 0.5 * ((row["k"] + 0.5) * math.pi + 0.5)
            assert row["closed_form"] == pytest.approx(want, rel=1e-15)
            assert row["abs_err"] <= 1e-8

    def test_remark2_csv(self, capsys):
        code, out = run_cli(["counterexample", "remark2", "--k-max", "3", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "k,t_k,ratio,closed_form,abs_err"


class TestAxiomsCommand:
    def test_remark5(self, capsys):
        code, payload = run_json(
            ["axioms", "--density", "remark5", "--max-size", "4",
             "--instances", "40", "--seed", "0"],
            capsys,
        )
        assert code == 0
        assert payload["all_pass"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ["--q", "1e-19", "--instances", "20", "--seed", "0"],
            ["--q", "1e19", "--instances", "200", "--seed", "17"],
        ],
        ids=["q-1e-19", "q-1e19"],
    )
    def test_rounding_level_modulus_is_continuous(self, args, capsys):
        # the modulus reads pure rounding, and not in falling order
        code, payload = run_json(["axioms", "--density", "tsallis", *args], capsys)
        levels = list(payload["modulus"].values())
        assert max(levels) <= 1e-12 and levels != sorted(levels, reverse=True)
        assert (code, payload["continuity"], payload["all_pass"]) == (0, True, True)


class TestThetaPhi:
    def test_remark5(self, capsys):
        code, payload = run_json(["theta-phi", "--density", "remark5"], capsys)
        assert code == 0
        assert abs(payload["theta"] - math.pi / 2.0) <= 1e-3


class TestCsvProjection:
    @pytest.mark.parametrize("args", [
        ["axioms", "--density", "bg", "--instances", "3", "--max-size", "3"],
        ["recover-f", "--density", "tsallis", "--q", "2"],
    ])
    def test_a_csv_reader_keeps_every_row_whole(self, args, capsys):
        # axioms' modulus and recover-f's reconstruction are nested JSON,
        # commas included
        code, out = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {len(rows[0])}
        nested = [json.loads(value) for _, value in rows[1:] if value.startswith("{")]
        assert len(nested) == 1 and isinstance(nested[0], dict)


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


class TestStrictJson:
    @pytest.mark.parametrize(
        "args, key",
        [
            (["verify-sandwich", "--density", "remark5", "--instances", "0"], "worst_slack"),
            (["verify-sandwich", "--density", "remark5", "--instances", "0"], "worst_bound_gap"),
            (["residual", "--density", "bg", "--instances", "0"], "max_abs_residual"),
        ],
    )
    def test_undefined_summary_is_null(self, args, key, capsys):
        code, out = run_cli(args, capsys)
        payload = json.loads(out, parse_constant=_reject_constant)
        assert code == 0
        assert payload[key] is None

    def test_maximality_gap_without_a_finite_gap_is_null(self, capsys, monkeypatch):
        # an axiom suite has trials, so only a density whose s is NaN leaves
        # no finite maximality gap; no catalog density does
        nan_density = dataclasses.replace(
            remark5_density(), label="nan", eval_s=lambda r: np.full(np.shape(r), np.nan)
        )
        monkeypatch.setattr(cli, "_resolve_density", lambda args, parser: nan_density)
        code, out = run_cli(["axioms", "--density", "remark5", "--instances", "3"], capsys)
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["worst_maximality_gap"] is None
        assert code == 1 and payload["expandability"] is False


# Inputs where s'' overflows or underflows: every run exits 0, quiet and strict.
STRICT_SWEEP = [
    *(["recover-f", "--density", "tsallis", "--q", q] for q in ("200", "300", "1000")),
    *(["bounds", "--density", "tsallis", "--q", q, "--r", "0.5"] for q in ("300", "1000")),
    ["bounds", "--density", "tsallis", "--q", "0.1", "--r", "1e-300"],
    ["verify-sandwich", "--density", "tsallis", "--q", "1000", "--instances", "5", "--seed", "1"],
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("args", STRICT_SWEEP, ids=lambda a: " ".join(a))
def test_extreme_curvature_output_is_strict(args, fmt, capsys):
    # RuntimeWarning is an error under this suite's settings
    code = main(args + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    if fmt == "json":
        json.loads(captured.out, parse_constant=_reject_constant)
    else:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", captured.out)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples() -> list[list[str]]:
    """The argv of each extenso line in the sh block under README's ## CLI."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("extenso ")]


class TestReadmeExamples:
    """Every documented command runs: a flag that goes cannot stay in the README."""

    def test_every_command_has_an_example(self):
        assert {argv[0] for argv in readme_cli_examples()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_example_runs(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1) and captured.out and captured.err == ""


class TestResolveDensity:
    @pytest.mark.parametrize(
        "name, q, make",
        [
            ("bg", None, densities.bg_density),
            ("tsallis", 0.5, lambda: densities.tsallis_density(0.5)),
            ("remark2", None, remark2_density),
            ("remark5", None, remark5_density),
        ],
        ids=["bg", "tsallis", "remark2", "remark5"],
    )
    def test_each_name_is_its_catalog_density(self, name, q, make):
        got = cli._resolve_density(argparse.Namespace(density=name, q=q), cli.build_parser())
        want = make()
        r = np.array([0.0, 0.125, 0.5, 0.875, 1.0])
        assert got.label == want.label
        assert np.array_equal(got.eval_s(r), want.eval_s(r))


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify-sandwich", "--density", "remark5", "--m", "0"],
            ["verify-sandwich", "--density", "remark5", "--n", "0"],
            ["residual", "--density", "bg", "--m", "-1"],
            ["verify-sandwich", "--density", "remark5", "--instances", "-1"],
            ["axioms", "--density", "remark5", "--instances", "-1"],
            ["verify-sandwich", "--density", "remark5", "--concentration", "0"],
            ["residual", "--density", "bg", "--concentration", "nan"],
            ["residual", "--density", "bg", "--power=-50", "--m", "2", "--n", "2",
             "--concentration", "0.01", "--seed", "3", "--instances", "2"],
            ["residual", "--density", "remark5", "--power", "0"],
            ["verify-sandwich", "--density", "remark5", "--grid-n", "100"],
            ["bounds", "--density", "bg", "--grid-n", "255"],
            ["bounds", "--density", "bg", "--t-min", "0"],
            ["counterexample", "remark2", "--t-min", "1.0"],
            ["bounds", "--density", "bg", "--r", "1.5"],
            ["bounds", "--density", "bg", "--r", "0"],
            ["bounds", "--density", "bg", "--r-grid", "0:1:5"],
            ["axioms", "--density", "remark5", "--max-size", "1"],
            ["axioms", "--density", "remark5", "--max-size", "0"],
            ["axioms", "--density", "remark5", "--instances", "0"],
            ["recover-f", "--density", "tsallis", "--q", "1"],
            ["verify-sandwich", "--density", "remark2"],
            ["theta-phi", "--density", "remark2"],
            ["verify-sandwich", "--density", "remark5", "--concentration", "0.001", "--instances", "5"],
            ["residual", "--density", "bg", "--concentration", "0.001", "--instances", "5"],
            ["bounds", "--density", "bg", "--r-grid", "0.1:0.9:0"],
            ["counterexample", "remark2", "--k-max", "0"],
            ["verify-sandwich", "--density", "remark5", "--seed", "-1"],
            ["residual", "--density", "bg", "--seed", "-1"],
            ["axioms", "--density", "remark5", "--seed", "-1"],
            # flags a subcommand does not read
            ["bounds", "--density", "bg", "--tolerance", "1e-9"],
            ["counterexample", "remark5", "--tolerance", "0"],
            ["counterexample", "remark2", "--tolerance", "0"],
            ["counterexample", "remark2", "--x", "0.5"],
            ["counterexample", "remark5", "--k-max", "3"],
            ["theta-phi", "--density", "bg", "--instances", "3"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_exit_2_with_one_line(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith(f"extenso {args[0]}: error: ")
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--density", "tsallis", "--q", "1e19"], 0),
            (["--density", "bg", "--power", "1e308"], 1),
        ],
        ids=["tsallis-1e19", "bg-power-1e308"],
    )
    def test_huge_power_on_single_columns_has_no_traceback(self, args, code, capsys):
        # n = 1 marginals that sum one ulp above 1 are read as 1, so p^q stays finite
        got, payload = run_json(
            ["residual", *args, "--n", "1", "--m", "7", "--instances", "200", "--seed", "1"], capsys
        )
        assert got == code and payload["instances"] == 200
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_output(self, where, capsys, tmp_path):
        path = tmp_path / "no-such-dir" / "out.json" if where == "missing-directory" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(["theta-phi", "--density", "bg", "--output", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith(f"extenso theta-phi: error: --output: cannot write {str(path)!r}: ")
        assert not any("Traceback" in line for line in err)

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["verify-sandwich", "residual", "bounds", "recover-f", "axioms", "theta-phi"])
    def test_missing_density(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"extenso {command}: error: the following arguments are required: --density"

    @pytest.mark.parametrize(
        "args",
        [
            ["residual", "--density-spec", '{"kind": "bg"}'],
            ["residual", "--density", "bg", "--density-spec", '{"kind": "bg"}'],
        ],
        ids=["alone", "with --density"],
    )
    def test_density_spec_is_not_an_option(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("extenso residual: error: ")
        assert not any("Traceback" in line for line in err)

    def test_tsallis_without_q(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recover-f", "--density", "tsallis"])
        assert exc.value.code == 2

    def test_bad_x(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "remark5", "--x", "1.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["residual", "--density", "bg", "--concentration", "2e307", "--instances", "2"],
             "--concentration 2e+307 is too high: a draw's sum overflows"),
            (["verify-sandwich", "--density", "bg", "--concentration", "1e308"],
             "--concentration 1e+308 is too high: a draw's sum overflows"),
            (["residual", "--density", "bg", "--concentration", "1e-320", "--instances", "2"],
             "--concentration 1e-320 is too low: "),
            (["verify-sandwich", "--density", "bg", "--concentration", "1e-320", "--instances", "2"],
             "--concentration 1e-320 is too low: "),
        ],
        ids=["residual-2e307", "verify-sandwich-1e308", "residual-1e-320", "verify-sandwich-1e-320"],
    )
    def test_concentration_that_cannot_draw(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        err = captured.err.strip().splitlines()
        assert err[-1].startswith(f"extenso {args[0]}: error: {message}")
        assert not any("Traceback" in line for line in err)

    def test_one_cell_draw_at_the_float_limit(self, capsys):
        # one gamma draw of about 1e308 sums without overflow and draws
        code, payload = run_json(["residual", "--density", "bg", "--concentration", "1e308",
                                  "--m", "1", "--n", "1", "--instances", "2"], capsys)
        assert (code, payload["pass_count"], payload["max_abs_residual"]) == (0, 2, 0.0)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args",
        [
            # each asks for one array beyond 2^48 bytes, more than any address
            # space maps, so the request fails at once and allocates nothing
            ["bounds", "--density", "bg", "--r-grid", "0.1:0.9:200000000000000"],
            ["residual", "--density", "bg", "--instances", "1000000000000000"],
            ["verify-sandwich", "--density", "bg", "--instances", "1000000000000000"],
            ["verify-sandwich", "--density", "bg", "--m", "100000000", "--n", "100000000", "--instances", "1"],
        ],
        ids=lambda a: " ".join(a),
    )
    def test_sizes_too_large_to_allocate(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        err = captured.err.strip().splitlines()
        assert err[-1].startswith(f"extenso {args[0]}: error: out of memory: Unable to allocate ")
        assert not any("Traceback" in line for line in err)


NON_FINITE_CASES = [
    (["verify-sandwich", "--density", "remark5", "--tolerance", "nan"], "--tolerance must be finite, got nan"),
    (["verify-sandwich", "--density", "remark5", "--tolerance", "inf"], "--tolerance must be finite, got inf"),
    (["verify-sandwich", "--density", "remark5", "--tolerance=-1e-9"], "--tolerance must be >= 0, got -1e-09"),
    (["residual", "--density", "bg", "--tolerance", "nan"], "--tolerance must be finite, got nan"),
    (["residual", "--density", "bg", "--tolerance", "inf"], "--tolerance must be finite, got inf"),
    (["residual", "--density", "bg", "--tolerance", "-1"], "--tolerance must be >= 0, got -1.0"),
    (["residual", "--density", "bg", "--power", "nan"], "--power must be finite, got nan"),
    (["residual", "--density", "bg", "--power", "inf"], "--power must be finite, got inf"),
    (["bounds", "--density", "tsallis", "--q", "inf"], "--q must be finite, got inf"),
    (["verify-sandwich", "--density", "remark5", "--concentration", "inf"],
     "--concentration must be finite, got inf"),
]


class TestNonFiniteFlags:
    """Floats that would reach the payload or the density as NaN or inf are
    usage errors, as is a negative tolerance."""

    @pytest.mark.parametrize("args, message", NON_FINITE_CASES, ids=[" ".join(a) for a, _ in NON_FINITE_CASES])
    def test_exit_2_with_one_line(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--instances", "1"] if args[0] != "bounds" else args)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"extenso {args[0]}: error: {message}"

    def test_bounds_without_a_finite_ratio(self, capsys):
        # every grid ratio overflows at r = 1e-300: null bounds, divergent
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(["bounds", "--density", "tsallis", "--q", "0.1",
                                 "--r", "1e-300", "--r", "0.5"], capsys)
        assert caught == []
        payload = json.loads(out, parse_constant=_reject_constant)
        assert code == 0
        lost, kept = payload["rows"]
        assert lost == {"r": 1e-300, "lower": None, "upper": None, "arg_inf": 1e-06,
                        "arg_sup": 1e-06, "divergent": True}
        assert kept["divergent"] is False and kept["lower"] == pytest.approx(0.5 ** 0.1)

    def test_bounds_overflow_under_warnings_as_errors(self, capsys):
        # the scan keeps the density's overflow at r = 1e-300 quiet, so a
        # run that turns RuntimeWarning into an error prints the same payload
        args = ["bounds", "--density", "tsallis", "--q", "0.1", "--r", "1e-300"]
        src = str(Path(extenso.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "extenso.cli", *args],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        code, out = run_cli(args, capsys)
        assert code == 0 and proc.stdout == out


# Run one CLI command, its payload written to the path in argv[1], then print
# its exit status and the peak resident set of its own address space, VmHWM
# in KiB.  Not ru_maxrss: across exec the kernel folds the spawning process's
# high-water mark into it, which in a full test run is pytest's own.
_PEAK_SCRIPT = (
    "import re, sys; from extenso.cli import main; "
    "code = main(sys.argv[2:] + ['--output', sys.argv[1]]); "
    "status = open('/proc/self/status').read(); "
    "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))"
)


def cli_peak_mb(argv: list[str], tmp_path: Path) -> float:
    """Peak resident set of one CLI command in a fresh interpreter, in MB."""
    src = str(Path(extenso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, str(tmp_path / "payload"), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, kb = proc.stdout.split()
    assert code in ("0", "1")
    return int(kb) / 1024.0


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
class TestPeakMemory:
    """Large runs keep their evaluation blocks bounded."""

    def test_remark2_axioms_peak_near_remark5(self, tmp_path):
        # remark2 gathers its partial panels' coefficients in fixed chunks
        argv = ["axioms", "--instances", "4000", "--seed", "1"]
        remark5 = cli_peak_mb([*argv, "--density", "remark5"], tmp_path)
        remark2 = cli_peak_mb([*argv, "--density", "remark2"], tmp_path)
        assert remark2 <= 1.25 * remark5

    def test_residual_2000_joints_32x32(self, tmp_path):
        argv = ["residual", "--density", "remark2", "--power", "1", "--m", "32", "--n", "32",
                "--instances", "2000", "--seed", "1"]
        assert cli_peak_mb(argv, tmp_path) < 100.0


class TestImportSurface:
    """What the benchmark harness imports from the package."""

    def test_names_the_benchmark_uses(self):
        import extenso
        from extenso import _kernels, bounds, extensivity
        from extenso import (  # noqa: F401
            EntropyFunctional,
            coefficient_bounds,
            remark2_density,
            remark5_density,
            tsallis_density,
        )

        assert extensivity.coefficient_bounds is bounds.coefficient_bounds
        assert callable(_kernels.logsinc_integral)
        assert callable(_kernels.osc_panel_moments)
        assert bounds.BoundsConfig(refine=False).refine is False
        for name in extenso.__all__:
            assert getattr(extenso, name) is not None

    def test_names_the_tracer_patches(self):
        # perfbench/tracer.py swaps these module attributes for timed wrappers
        from extenso import _kernels, bounds, densities, extensivity, simplex

        patched = [
            (_kernels, "logsinc_integral"),
            (_kernels, "osc_panel_moments"),
            (simplex, "JointMatrix"),
            (extensivity, "marginal"),
            (extensivity, "conditional"),
            (extensivity, "entropy"),
            (extensivity, "coefficient_bounds"),
            (extensivity, "sandwich_check"),
            (extensivity, "extensivity_residual"),
            (extensivity, "axiom_suite"),
            (bounds, "scan_extrema"),
        ]
        for mod, attr in patched:
            assert callable(getattr(mod, attr)), f"{mod.__name__}.{attr}"
        assert extensivity.entropy is densities.entropy
        assert extensivity.marginal is simplex.marginal
        assert extensivity.conditional is simplex.conditional


class TestShippedSurface:
    """The package ships only what the CLI, the acceptance suite or the
    benchmark runs: every exported name has a caller outside the tests."""

    def test_every_exported_name_has_a_caller(self):
        src = Path(extenso.__file__).resolve().parent
        root = src.parents[1]
        unused = {}
        for name in ("simplex", "densities", "numerics", "bounds", "extensivity"):
            mod = importlib.import_module(f"extenso.{name}")
            names = getattr(mod, "__all__", None)
            if names is None:  # no declared surface: every public callable it defines
                names = [n for n, v in vars(mod).items()
                         if callable(v) and getattr(v, "__module__", None) == mod.__name__ and not n.startswith("_")]
            callers = [p for p in src.glob("*.py") if p.stem != name]
            callers += [root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
            text = "\n".join(p.read_text(encoding="utf-8") for p in callers)
            missing = [n for n in names if not re.search(rf"\b{re.escape(n)}\b", text)]
            if missing:
                unused[name] = missing
        assert unused == {}, f"exported with no caller outside the tests: {unused}"
