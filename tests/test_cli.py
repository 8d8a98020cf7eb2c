"""Command-line interface: subcommands, exit codes, report formats."""

import csv
import json

import numpy as np
import pytest

from traintrack import F2Params, LambdaPair, period_basis, positivity_pairing
from traintrack import appell, verify
from traintrack.appell import _euler_prefactor, _f2_row_sum
from traintrack.cli import main


class TestF2Eval:
    def test_trivial_origin(self, capsys):
        rc = main(["f2-eval", "--x", "0", "--y", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+1.000000000000000e+00" in out

    def test_methods_agree(self, capsys):
        rc = main(["f2-eval", "--x", "0.36", "--y", "-0.1881", "--method", "series"])
        series_out = capsys.readouterr().out
        assert rc == 0
        rc = main(["f2-eval", "--x", "0.36", "--y", "-0.1881", "--method", "integral"])
        integral_out = capsys.readouterr().out
        assert rc == 0
        a = complex(series_out.splitlines()[0].split("=")[1].strip())
        b = complex(integral_out.splitlines()[0].split("=")[1].strip())
        assert abs(a - b) < 1e-8

    def test_divergent_series_exit_2(self, capsys):
        rc = main(["f2-eval", "--x", "0.9", "--y", "0.9"])
        assert rc == 2
        assert "domain error" in capsys.readouterr().err

    def test_gamma_overflow_exit_2(self, capsys):
        # Gamma(200) in the Euler prefactor is past the largest double;
        # the series route needs no Gamma value and prints one
        args = ["f2-eval", "--gamma1", "200", "--x", "0.1", "--y", "0.1"]
        assert main(args + ["--method", "integral"]) == 2
        assert "domain error" in capsys.readouterr().err
        assert main(args + ["--method", "series"]) == 0

    def test_complex_argument_with_i(self, capsys):
        rc = main(["f2-eval", "--x", "0.1+0.05i", "--y", "0.2"])
        assert rc == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["f2-eval", "--x", "nan", "--y", "0.1"],
            ["f2-eval", "--x", "0.1", "--y", "0.1+nani"],
            ["f2-eval", "--x", "inf", "--y", "0.1"],
            ["traintrack", "--z1", "inf", "--z2", "1.1881"],
            ["traintrack", "--z1", "0.36", "--z2", "nan"],
        ],
    )
    def test_non_finite_argument_is_a_usage_error(self, capsys, argv):
        # the i of "inf" is not the imaginary unit: inf is read, and refused
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not finite" in err

    def test_series_error_is_the_measured_tail(self, capsys):
        rc = main(["f2-eval", "--x", "0.8", "--y", "0.15"])
        assert rc == 0
        printed = float(capsys.readouterr().out.splitlines()[1].split("<=")[1])
        _, tail = _f2_row_sum(F2Params.conformal_case(), 0.8, 0.15)
        assert printed == pytest.approx(float(tail), rel=1e-3)


    def test_integral_error_is_the_last_level_delta(self, capsys, monkeypatch):
        deltas = []

        def recording(*args, **kwargs):
            value, delta = integrate(*args, **kwargs)
            deltas.append(delta)
            return value, delta

        integrate = appell.integrate_01_2d
        monkeypatch.setattr(appell, "integrate_01_2d", recording)
        rc = main(["f2-eval", "--x", "0.6", "--y", "0.3", "--method", "integral"])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()[1].split("<=")[1].strip()
        (delta,) = deltas
        assert delta > 0
        want = abs(_euler_prefactor(F2Params.conformal_case())) * delta
        assert printed == f"{want:.3e}"

    def test_integral_with_endpoint_exponents_below_minus_half(self, capsys):
        argv = ["f2-eval", "--alpha", "0.6", "--beta1", "0.35", "--beta2", "0.55",
                "--gamma1", "1.3", "--gamma2", "0.9", "--x", "0.2", "--y", "0.1",
                "--method", "integral"]
        assert main(argv) == 0
        value = complex(capsys.readouterr().out.splitlines()[0].split("=")[1].strip())
        assert abs(value - 1.079258198965056174) < 1e-13  # mpmath appellf2


class TestVerify:
    def test_factorization_passes(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["verify", "factorization", "--samples", "5", "--seed", "7", "--output", str(out)]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["suite"] == "factorization"
        assert report["passed"] is True
        assert report["max_residual"] < 1e-9
        assert report["duration_ms"] is None
        assert len(report["cases"]) == 5
        # complex values serialized as {re, im}
        assert set(report["cases"][0]["inputs"]["lambda1"]) == {"re", "im"}

    def test_bilinear_passes(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "bilinear", "--samples", "8", "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["max_residual"] < 1e-12

    def test_monodromy_passes(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "monodromy", "--output", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert all(c["outputs"]["gamma2_member"] for c in report["cases"])

    def test_impossible_tolerance_exit_1(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["verify", "mirror", "--samples", "3", "--tol-mirror", "1e-30", "--output", str(out)]
        )
        assert rc == 1
        assert json.loads(out.read_text())["passed"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["factorization", "--samples", "0"],
            ["factorization", "--samples", "-3"],
            ["factorization", "--samples", "2.5"],
            ["mirror", "--samples", "2", "--seed", "-1"],  # np.random.Philox raised
            ["mirror", "--samples", "2", "--seed", "1.5"],
            ["bilinear", "--tol-bilinear", "-1"],
            ["bilinear", "--tol-bilinear", "0"],
            ["bilinear", "--tol-bilinear", "nan"],
            ["bilinear", "--tol-bilinear", "inf"],
        ],
    )
    def test_bad_sample_count_or_tolerance_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_run_config_rejects_a_tolerance_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            verify.RunConfig(tolerances={"bilinear": tol})

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(
            ["verify", "mirror", "--samples", "3", "--format", "csv", "--output", str(out)]
        )
        assert rc == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        assert "tau1_re" in rows[0] and "tau1_im" in rows[0]

    def test_all_csv_has_one_row_per_suite(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["verify", "all", "--samples", "1", "--format", "csv", "--output", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["suite"] for r in rows] == list(verify.SUITES)
        assert [int(r["index"]) for r in rows] == list(range(len(verify.SUITES)))

    def test_modular_probe_residuals_are_measured(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["verify", "modular", "--samples", "1", "--output", str(out)])
        assert rc == 1  # the [[1,0],[2,1]] slot-2 probe fails by design
        cases = json.loads(out.read_text())["cases"]
        probes = [c for c in cases if "slot" in c["inputs"]]
        failing = [c["inputs"] for c in probes if not c["passed"]]
        assert failing == [{"generator": [1, 0, 2, 1], "slot": 2}]
        for case in probes:
            if case["passed"]:
                mult = case["outputs"]["multiplier"]
                eps = complex(mult["re"], mult["im"])
                assert case["residual"] == abs(eps - 1.0) < 1e-10
            else:
                ratios = [complex(r["re"], r["im"]) for r in case["outputs"]["ratios"]]
                mean = sum(ratios) / len(ratios)
                spread = max(abs(r - mean) for r in ratios)
                assert case["residual"] == pytest.approx(spread)

    def test_modular_probe_scores_the_phase(self, monkeypatch):
        monkeypatch.setattr(verify, "multiplier_probe", lambda g, slot, pts: -1.0 + 0j)
        report = verify.suite_modular(verify.RunConfig(sample_count=1))
        probes = [c for c in report.cases if "slot" in c.inputs]
        assert len(probes) == 4
        assert all(not c.passed and c.residual == 2.0 for c in probes)

    def test_flatness_suite_sums_one_derivative_table(self, monkeypatch):
        from traintrack import pfaffian, quadrature

        calls = {"row_sum": 0, "cauchy": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        row_sum = counting("row_sum", appell._f2_row_sum)
        monkeypatch.setattr(appell, "_f2_row_sum", row_sum)
        for module in (pfaffian, quadrature):
            monkeypatch.setattr(
                module, "cauchy_derivs_2d", counting("cauchy", module.cauchy_derivs_2d)
            )
        report = verify.suite_flatness(verify.RunConfig())
        assert calls == {"row_sum": 1, "cauchy": 0}
        assert len(report.cases) == 10 and report.passed
        assert max(c.outputs["horizontality"] for c in report.cases) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_flatness_points_equal_scalar_loop(self, seed):
        def scalar_loop(rng, n):
            pts = []
            while len(pts) < n:
                x = rng.uniform(0.1, 0.45)
                y = rng.uniform(0.08, 0.35) * np.sign(rng.uniform(-1, 1))
                margin = min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y))
                if margin > 0.07 and abs(x) + abs(y) < 0.6:
                    pts.append((x + 0j, y + 0j))
            return pts

        got = [(pt.x, pt.y) for pt in verify._flatness_points(verify._rng(seed), 10)]
        assert got == scalar_loop(verify._rng(seed), 10)

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["verify", "mirror", "--samples", "4", "--seed", "3", "--output", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestTraintrack:
    def test_matches_module_composition(self, capsys):
        rc = main(["traintrack", "--z1", "0.36", "--z2", "1.1881"])
        assert rc == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        want = positivity_pairing(period_basis(LambdaPair(0.1, 0.9)))
        assert printed == pytest.approx(want, rel=1e-12)
        assert "tau1" in out and "lambda1" in out

    def test_output_is_pinned(self, capsys):
        # the pairing product is computed once; the printed text is unchanged
        rc = main(["traintrack", "--z1", "0.36", "--z2", "1.1881"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "pairing = 1.442836281274017e+01\n"
            "imag_residue = 0.000e+00\n"
            "lambda1 = +1.000000000000000e-01+0.000000000000000e+00j\n"
            "lambda2 = +9.000000000000000e-01+0.000000000000000e+00j\n"
            "tau1 = +0.000000000000000e+00+2.346815544873750e+00j\n"
            "tau2 = +0.000000000000000e+00+1.378294551956531e+00j\n"
        )

    def test_base_point_limit_warning(self, capsys):
        rc = main(["traintrack", "--z1", "0", "--z2", "1"])
        assert rc == 2
        assert "limit-domain" in capsys.readouterr().err

    def test_imag_residue_printed(self, capsys):
        main(["traintrack", "--z1", "0.36", "--z2", "1.1881"])
        out = capsys.readouterr().out
        residue = float(out.splitlines()[1].split("=")[1])
        assert residue < 1e-12


class TestScan:
    def _grid_args(self):
        return [
            "scan",
            "--lambda1-min", "0.05", "--lambda1-max", "0.15",
            "--lambda2-min", "0.85", "--lambda2-max", "0.95",
            "--n1", "3", "--n2", "3",
        ]

    def test_full_grid_ok(self, capsys):
        rc = main(self._grid_args() + ["--quantity", "pi0"])
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 9
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["pi0_re"] for r in rows)

    def test_empty_region(self, capsys):
        rc = main(
            ["scan", "--lambda1-min", "0", "--lambda1-max", "1",
             "--lambda2-min", "0", "--lambda2-max", "1", "--n1", "0", "--n2", "0"]
        )
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines == ["status"]  # header only

    def test_degenerate_rows_marked(self, capsys):
        rc = main(
            ["scan", "--lambda1-min", "-0.5", "--lambda1-max", "0.5",
             "--lambda2-min", "0.5", "--lambda2-max", "0.5",
             "--n1", "3", "--n2", "1"]
        )
        assert rc == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3  # no row dropped
        statuses = [r["status"] for r in rows]
        assert "degenerate" in statuses
        assert "ok" in statuses

    def test_json_format(self, tmp_path):
        out = tmp_path / "scan.json"
        rc = main(self._grid_args() + ["--format", "json", "--output", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 9


class TestMonodromyCommand:
    def test_reports_members(self, capsys):
        rc = main(["monodromy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("gamma(2) member = True") == 2
