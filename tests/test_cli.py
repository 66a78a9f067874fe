import json
import math

import pytest

from extenso.cli import main


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


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-sandwich", "--density", "tsallis", "--q", "0.5",
                "--m", "3", "--n", "4", "--instances", "10", "--seed", "123"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("EXTENSO_SEED", "99")
        _, payload = run_json(
            ["residual", "--density", "bg", "--instances", "3"], capsys
        )
        assert payload["seed"] == 99


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


class TestThetaPhi:
    def test_remark5(self, capsys):
        code, payload = run_json(["theta-phi", "--density", "remark5"], capsys)
        assert code == 0
        assert abs(payload["theta"] - math.pi / 2.0) <= 1e-3


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


class TestStrictJson:
    @pytest.mark.parametrize(
        "args, key",
        [
            (["verify-sandwich", "--density", "remark5", "--instances", "0"], "worst_slack"),
            (["verify-sandwich", "--density", "remark5", "--instances", "0"], "worst_bound_gap"),
            (["residual", "--density", "bg", "--instances", "0"], "max_abs_residual"),
            (["axioms", "--density", "remark5", "--max-size", "1"], "worst_maximality_gap"),
        ],
    )
    def test_undefined_summary_is_null(self, args, key, capsys):
        code, out = run_cli(args, capsys)
        payload = json.loads(out, parse_constant=_reject_constant)
        assert code == 0
        assert payload[key] is None


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
            ["verify-sandwich", "--density", "remark5", "--grid-n", "100"],
            ["bounds", "--density", "bg", "--grid-n", "255"],
            ["bounds", "--density", "bg", "--t-min", "0"],
            ["counterexample", "remark2", "--t-min", "1.0"],
            ["bounds", "--density", "bg", "--r", "1.5"],
            ["bounds", "--density", "bg", "--r", "0"],
            ["bounds", "--density", "bg", "--r-grid", "0:1:5"],
            ["recover-f", "--density-spec", "{not json"],
            ["recover-f", "--density-spec", '{"kind": "tsallis"}'],
            ["recover-f", "--density-spec", '{"kind": "nope"}'],
            ["recover-f", "--density-spec", "[1, 2]"],
            ["recover-f", "--density-spec", "@no-such-spec.json"],
            ["recover-f", "--density", "tsallis", "--q", "1"],
            ["verify-sandwich", "--density", "remark2"],
            ["theta-phi", "--density", "remark2"],
            ["verify-sandwich", "--density", "remark5", "--concentration", "0.001", "--instances", "5"],
            ["residual", "--density", "bg", "--concentration", "0.001", "--instances", "5"],
            ["bounds", "--density", "bg", "--r-grid", "0.1:0.9:0"],
            ["counterexample", "remark2", "--k-max", "0"],
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

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_density(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-sandwich", "--m", "2", "--n", "2"])
        assert exc.value.code == 2

    def test_tsallis_without_q(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["recover-f", "--density", "tsallis"])
        assert exc.value.code == 2

    def test_bad_x(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "remark5", "--x", "1.5"])
        assert exc.value.code == 2

    def test_density_spec_from_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "tsallis", "params": {"q": 2.0}}')
        _, payload = run_json(["recover-f", "--density-spec", f"@{spec}"], capsys)
        assert payload["density"] == "tsallis(q=2)"


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
