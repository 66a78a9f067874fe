import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import extenso
from extenso import cli
from extenso.cli import main
from extenso.densities import remark5_density


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

    def test_large_seed(self, capsys):
        code, payload = run_json(
            ["residual", "--density", "bg", "--instances", "2", "--seed", str(2**70)], capsys
        )
        assert code == 0 and payload["seed"] == 2**70

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
        monkeypatch.setattr(cli, "density_from_spec", lambda spec: nan_density)
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
            ["recover-f", "--density-spec", '{"kind":["bg"]}'],
            ["recover-f", "--density-spec", '{"kind":"tsallis","params":{"q":null}}'],
            ["recover-f", "--density-spec", '{"kind":"tsallis","params":[1]}'],
            ["recover-f", "--density-spec", '{"kind":"tsallis","params":{"q":"2"}}'],
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

    @pytest.mark.parametrize("env", ["-3", "abc", "1.5"])
    def test_bad_seed_env(self, env, capsys, monkeypatch):
        monkeypatch.setenv("EXTENSO_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main(["residual", "--density", "bg", "--instances", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == f"extenso residual: error: EXTENSO_SEED must be a non-negative integer, got {env!r}"

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
    (["bounds", "--density-spec", '{"kind": "tsallis", "params": {"q": Infinity}}'],
     "bad density: q must be finite, > 0 and != 1, got inf"),
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
