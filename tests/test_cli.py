"""Command-line interface: subcommands, exit codes, report formats."""

import csv
import hashlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

import traintrack
from traintrack import F2Params, LambdaPair, period_basis, positivity_pairing
from traintrack import appell, verify
from traintrack.appell import _euler_prefactor, _f2_row_sum
from traintrack.cli import build_parser, main
from traintrack.modular import lambda_hauptmodul

HUGE = "9" * 400  # an int beyond the float range


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
            ["scan", "--lambda1-min", "nan", "--lambda1-max", "0.2",
             "--lambda2-min", "0.8", "--lambda2-max", "0.9"],
            ["scan", "--lambda1-min", "0.1", "--lambda1-max", "inf",
             "--lambda2-min", "0.8", "--lambda2-max", "0.9"],
            ["scan", "--lambda1-min", "0.1", "--lambda1-max", "0.2",
             "--lambda2-min=-inf", "--lambda2-max", "0.9"],
            ["scan", "--lambda1-min", "0.1", "--lambda1-max", "0.2",
             "--lambda2-min", "0.8", "--lambda2-max", "nan"],
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "mirror", "--samples", HUGE],
            ["verify", "mirror", "--seed", HUGE],
            ["scan", "--lambda1-min", "0", "--lambda1-max", "1",
             "--lambda2-min", "0", "--lambda2-max", "1", "--n1", HUGE],
        ],
    )
    def test_integer_beyond_the_float_range_is_a_usage_error(self, capsys, argv):
        # parsed only: a count this large must never reach a suite or a grid
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "not finite" in err

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_run_config_rejects_a_tolerance_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            verify.RunConfig(tolerances={"bilinear": tol})

    def test_run_config_rejects_a_tolerance_of_an_unknown_suite(self):
        # a misspelt name would otherwise leave the default tolerance in force
        with pytest.raises(ValueError, match="'bilinar'"):
            verify.RunConfig(tolerances={"bilinar": 1e-30})

    def test_monodromy_reports_the_loops_it_runs(self):
        for cfg in (verify.RunConfig(sample_count=7), verify.RunConfig()):
            report = verify.run_suite("monodromy", cfg).to_dict()
            assert report["config"]["sample_count"] == len(report["cases"]) == 2

    def test_all_report_is_a_report_of_the_suites(self):
        cfg = verify.RunConfig(sample_count=2, rng_seed=3, tolerances={"bilinear": 0.5})
        reports, combined = verify.run_all(cfg)
        suites = [verify.run_suite(name, cfg).to_dict() for name in verify.SUITES]
        assert combined["suites"] == suites
        assert [r.suite for r in reports] == list(verify.SUITES)
        assert set(combined) == set(suites[0]) | {"suites"}
        assert combined["suite"] == "all" and combined["duration_ms"] is None
        for i, (case, suite) in enumerate(zip(combined["cases"], suites)):
            assert case == {
                "index": i,
                "inputs": {"suite": suite["suite"]},
                "outputs": {"max_residual": suite["max_residual"], "passed": suite["passed"]},
                "residual": suite["max_residual"],
                "passed": suite["passed"],
            }
        assert combined["max_residual"] == max(s["max_residual"] for s in suites)
        assert combined["tolerance"] == max(s["tolerance"] for s in suites) == 0.5
        assert combined["passed"] is all(s["passed"] for s in suites) is False
        assert combined["config"] == {
            "rng_seed": 3,
            "sample_count": 2,
            "tolerances": {**verify.DEFAULT_TOLERANCES, "bilinear": 0.5},
        }

    # SHA-256 of the `verify all` JSON, as the CLI and the benchmark write it,
    # taken with numpy 2.4.6; seed 31 redraws a tau in the modular suite
    ALL_REPORT_SHA256 = {
        0: "d01a030494fedc9c583fe4e990c5d43c7c107bb2fb21c8168a029a87c4a29c2f",
        1: "18ff75aa5f7bd54126087f2c9c84a75ceefb0389995a3a21beb30bd7f3db95fa",
        2: "fece003ae254785513d098e8dcd1e207155d071fb3ff3121ff8275eee99d2ceb",
        3: "1a6e2145b297d8d1e491b3faa8e9990cf3f9b5a1673b3fc1300480a105aaa347",
        4: "7fdad1558aca0ee6e6f2a4684ed9bb82c85ff923d927507f7e388883042d51f2",
        5: "035041a888cc4297e6c4331981be9640e9cf60ecb54f915f0c7585b72ec98539",
        6: "d78ea40643e7957c33c84822f35a87e591f4a9ea802b68b2e83791c533278e3f",
        7: "5223c049878db6727fffe97818251bcb5d35377271145d084a1430f6b5a7d546",
        8: "f7127076d4fed06f265f8ed0739f8971f1423a19a0cc6ccc04db5d2236ba3c3f",
        9: "d21f24c2a5623aeb762890ad956b6890580dd80e3c1d3f76ef4974cdd34d7edb",
        10: "1fbe6d823ae27935ae3a9eda7280639e409bd3365814094e3cf1b1bd2fc8473f",
        31: "1e55b8063c3860c80422df729cf9febdf001965ff19b99f68f97b2bf656309f6",
    }

    @pytest.mark.parametrize("seed", sorted(ALL_REPORT_SHA256))
    def test_all_report_bytes_are_pinned(self, seed):
        _, combined = verify.run_all(verify.RunConfig(rng_seed=seed))
        text = json.dumps(combined, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.ALL_REPORT_SHA256[seed]

    def test_benchmark_verify_all_item_passes(self):
        # one item of the benchmark's verify_all workload, run through its own
        # call and checked by its own check against its mpmath oracle; both
        # sources are read, not imported, so nothing is written next to them
        bench = Path(__file__).resolve().parents[1] / "bench"
        modules = {}
        for name in ("workloads", "oracle"):
            modules[name] = types.ModuleType(f"bench_{name}")
            path = bench / f"{name}.py"
            exec(compile(path.read_text(), str(path), "exec"), modules[name].__dict__)
        workload = modules["workloads"].VerifyAll()
        out = workload.call(traintrack, workload.items(0)[0])
        check = workload.check(modules["oracle"], None, out)
        assert (check.failed, check.by_design) == (0, 1)

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
        calls = []

        def row_sum(*args, **kwargs):
            calls.append(1)
            return _f2_row_sum(*args, **kwargs)

        monkeypatch.setattr(appell, "_f2_row_sum", row_sum)
        report = verify.suite_flatness(verify.RunConfig())
        assert len(calls) == 1
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

    @staticmethod
    def _modular_draws(monkeypatch, cfg):
        """The suite's (lambda1, lambda2, tau) inputs and its weight-probe samples."""
        seen = []

        def probe(g, slot, samples):
            seen.append(samples)
            return 1.0 + 0j

        monkeypatch.setattr(verify, "multiplier_probe", probe)
        n = cfg.samples("modular")
        cases = verify.suite_modular(cfg).cases
        assert len(cases) == n + 4 and all(s == seen[0] for s in seen)
        got = [[c.inputs[k] for k in ("lambda1", "lambda2", "tau")] for c in cases[:n]]
        return got, [(tp.tau1, tp.tau2) for tp in seen[0]]

    @staticmethod
    def _modular_scalar_loop(rng, n):
        """suite_modular's draws as a scalar rejection loop: each pair, then tau
        redrawn until lambda(tau) is off the cut; then the weight probes.  Also
        the samples at which tau was redrawn."""
        rows, redrawn = [], []
        for i in range(n):
            l1, l2 = rng.uniform((0.05, 0.4), (0.7, 0.95)).tolist()
            while True:
                tau = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(0.5, 2.0)
                lam = lambda_hauptmodul(tau)
                if not (lam.real > 0.95 and abs(lam.imag) < 0.01):
                    break
                redrawn.append(i)
            rows.append([l1, l2, tau])
        probes = []
        for _ in range(verify._WEIGHT_PROBES):
            a, b, c, d = (rng.uniform(lo, hi) for lo, hi in ((-0.3, 0.3), (0.8, 1.6)) * 2)
            probes.append((a + 1j * b, c + 1j * d))
        return rows, probes, redrawn

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 31])
    def test_block_draws_equal_scalar_loop(self, seed, monkeypatch):
        def scalar_loop(lows, highs, n):
            rng = verify._rng(seed)
            return [[rng.uniform(lo, hi) for lo, hi in zip(lows, highs)] for _ in range(n)]

        cfg = verify.RunConfig(rng_seed=seed)
        for suite, lows, highs in (
            ("bilinear", (0.05, 0.05), (0.95, 0.95)),
            ("mirror", (0.05, 0.4), (0.7, 0.95)),
        ):
            cases = verify.run_suite(suite, cfg).cases
            got = [[c.inputs["lambda1"], c.inputs["lambda2"]] for c in cases]
            assert got == scalar_loop(lows, highs, cfg.samples(suite))
        probes = verify._weight_probe_samples(verify._rng(seed))
        draws = scalar_loop((-0.3, 0.8, -0.3, 0.8), (0.3, 1.6, 0.3, 1.6), len(probes))
        assert len(probes) == 5
        assert [(tp.tau1, tp.tau2) for tp in probes] == [
            (a + 1j * b, c + 1j * d) for a, b, c, d in draws
        ]
        rows, probes, redrawn = self._modular_scalar_loop(verify._rng(seed), 50)
        assert redrawn == {5: [48], 31: [38]}.get(seed, [])
        assert self._modular_draws(monkeypatch, cfg) == (rows, probes)

    def test_modular_draws_across_two_redraws(self, monkeypatch):
        # a block that redraws, a second block that redraws, and a last block
        rows, probes, redrawn = self._modular_scalar_loop(verify._rng(5), 200)
        assert redrawn == [48, 163]
        cfg = verify.RunConfig(rng_seed=5, sample_count=200)
        assert self._modular_draws(monkeypatch, cfg) == (rows, probes)

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert main(["verify", "bilinear", "--output", str(path)]) == 2
        assert f"cannot write {path}: " in capsys.readouterr().err
        assert not path.parent.exists()

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

    @pytest.mark.parametrize("count", ["--n1", "--n2"])
    def test_negative_count_is_a_usage_error(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(self._grid_args() + [count, "-2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "non-negative" in err

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("quantity", ["pi0", "pairing", "lambda_map"])
    def test_rows_are_flat(self, tmp_path, quantity, fmt):
        # the grid of test_degenerate_rows_marked: lambda1 = -0.5, 0, 0.5 at lambda2 = 0.5
        out = tmp_path / f"scan.{fmt}"
        rc = main(
            ["scan", "--lambda1-min", "-0.5", "--lambda1-max", "0.5",
             "--lambda2-min", "0.5", "--lambda2-max", "0.5", "--n1", "3", "--n2", "1",
             "--quantity", quantity, "--format", fmt, "--output", str(out)]
        )
        assert rc == 0
        if fmt == "json":
            rows = json.loads(out.read_text())
        else:  # an empty CSV cell is a column the row does not carry
            reader = csv.DictReader(out.read_text().splitlines())
            rows = [{k: v for k, v in row.items() if v != ""} for row in reader]
        assert not any(isinstance(v, dict) for row in rows for v in row.values())
        degenerate, domain_error, ok = rows
        lambdas = {f"lambda{i}_{part}" for i in (1, 2) for part in ("re", "im")}
        assert set(degenerate) == set(domain_error) == lambdas | {"status"}
        assert degenerate["status"] == "degenerate"
        assert domain_error["status"].startswith("domain_error: ")
        split = ["x", "y", "tau1", "tau2"] + ([] if quantity == "pairing" else [quantity])
        keys = lambdas | {f"{name}_{part}" for name in split for part in ("re", "im")}
        assert set(ok) == keys | {"status"} | ({"pairing"} if quantity == "pairing" else set())
        assert ok["status"] == "ok"

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "s.csv"
        assert main(self._grid_args() + ["--output", str(path)]) == 2
        assert f"cannot write {path}: " in capsys.readouterr().err

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

    def test_prints_the_suite_cases(self, capsys):
        # at the default basepoint, the command prints the monodromy suite's cases
        assert main(["monodromy"]) == 0
        lines = []
        for case in verify.run_suite("monodromy", verify.RunConfig()).cases:
            lines += [
                f"loop around z = {case.inputs['around']:g}:",
                f"  matrix = {case.outputs['matrix']}",
                f"  integrality residual = {case.residual:.3e}",
                f"  gamma(2) member = {case.outputs['gamma2_member']}",
            ]
        assert capsys.readouterr().out.splitlines() == lines

    def test_other_basepoint(self, capsys):
        assert main(["monodromy", "--basepoint", "0.2+0.3i"]) == 0
        out = capsys.readouterr().out
        assert "matrix = [[1, 2], [0, 1]]" in out and "matrix = [[1, 0], [-2, 1]]" in out
        assert out.count("gamma(2) member = True") == 2

    def test_exit_1_when_a_loop_is_not_in_gamma2(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "gamma2_membership", lambda m, int_tol: False)
        assert main(["monodromy"]) == 1
        assert capsys.readouterr().out.count("gamma(2) member = False") == 2
