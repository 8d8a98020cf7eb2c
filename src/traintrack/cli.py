"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
import time

import numpy as np

from .appell import F2Params, ModuliPoint, _f2_euler, _f2_row_sum
from .errors import ConvergenceError, DomainError
from .factorization import (
    LambdaPair,
    _pairing,
    invert_T,
    map_T,
    period_basis,
    positivity_pairing,
)
from .modular import lambda_hauptmodul, mirror_map
from .pfaffian import gamma2_membership, monodromy_2f1, system_2f1
from .special import Hyper2F1Params
from .verify import SUITES, RunConfig, run_all, run_suite

_BOUNDARY_EPS = 1e-9


def _complex_arg(text: str) -> complex:
    """An argparse type: a finite complex number, its imaginary unit written j or i."""
    try:
        value = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not finite: {text!r}")
    return value


def _positive(kind, zero_ok=False):
    """An argparse type: the text as ``kind``, which must be finite and > 0 (>= 0 if zero_ok)."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
            least = "non-negative" if zero_ok else "positive"
            raise argparse.ArgumentTypeError(f"not {least} and finite: {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.15e}{z.imag:+.15e}j"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traintrack",
        description="Evaluations and verification suites for the conformal "
        "two-dimensional traintrack integral and its period geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("f2-eval", help="evaluate the Appell F2 function")
    for name, default in (
        ("--alpha", 0.5),
        ("--beta1", 0.5),
        ("--beta2", 0.5),
        ("--gamma1", 1.0),
        ("--gamma2", 1.0),
    ):
        p_eval.add_argument(name, type=_complex_arg, default=default)
    p_eval.add_argument("--x", type=_complex_arg, required=True)
    p_eval.add_argument("--y", type=_complex_arg, required=True)
    p_eval.add_argument(
        "--method", choices=("series", "integral"), default="series"
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument("--samples", type=_positive(int), default=None)
    p_verify.add_argument("--seed", type=_positive(int, zero_ok=True), default=0)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    for name in SUITES:
        p_verify.add_argument(f"--tol-{name}", type=_positive(float), default=None)

    p_train = sub.add_parser(
        "traintrack", help="pairing value of the traintrack integral"
    )
    p_train.add_argument("--z1", type=_complex_arg, required=True)
    p_train.add_argument("--z2", type=_complex_arg, required=True)

    p_scan = sub.add_parser(
        "scan", help="tabulate a quantity over a grid of factorized coordinates"
    )
    p_scan.add_argument("--lambda1-min", type=float, required=True)
    p_scan.add_argument("--lambda1-max", type=float, required=True)
    p_scan.add_argument("--lambda2-min", type=float, required=True)
    p_scan.add_argument("--lambda2-max", type=float, required=True)
    p_scan.add_argument("--n1", type=int, default=3)
    p_scan.add_argument("--n2", type=int, default=3)
    p_scan.add_argument(
        "--quantity", choices=("pi0", "pairing", "lambda_map"), default="pi0"
    )
    p_scan.add_argument("--output", default=None)
    p_scan.add_argument("--format", choices=("json", "csv"), default="csv")

    p_mono = sub.add_parser(
        "monodromy", help="monodromy matrices of the Legendre system"
    )
    p_mono.add_argument("--basepoint", type=_complex_arg, default=0.35 + 0.01j)

    return parser


def cmd_f2_eval(args) -> int:
    params = F2Params(args.alpha, args.beta1, args.beta2, args.gamma1, args.gamma2)
    pt = ModuliPoint(args.x, args.y)
    if args.method == "series":
        value, err = _f2_row_sum(params, pt.x, pt.y)
        value, err = complex(value), float(err)
    else:
        value, err = _f2_euler(params, pt)
    print(f"F2({args.method}) = {_fmt_complex(value)}")
    print(f"estimated_error <= {err:.3e}")
    return 0


def _report_rows(report_dict):
    rows = []
    for case in report_dict.get("cases", []):
        row = {"index": case["index"], "residual": case["residual"], "passed": case["passed"]}
        for group in ("inputs", "outputs"):
            for key, val in case[group].items():
                if isinstance(val, dict) and set(val) == {"re", "im"}:
                    row[f"{key}_re"] = val["re"]
                    row[f"{key}_im"] = val["im"]
                else:
                    row[key] = val
        rows.append(row)
    return rows


def _write_report(payload, rows, path, fmt, columns=()) -> None:
    """Write payload as JSON, or rows as CSV, to path or else to stdout.

    The CSV header is the sorted union of the row keys and ``columns``.
    """
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        fieldnames = sorted({k for row in rows for k in row}.union(columns))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    tolerances = {
        name: getattr(args, f"tol_{name}")
        for name in SUITES
        if getattr(args, f"tol_{name}") is not None
    }
    cfg = RunConfig(
        tolerances=tolerances,
        sample_count=args.samples,
        rng_seed=args.seed,
    )
    started = time.perf_counter()
    if args.suite == "all":
        reports, report_dict = run_all(cfg)
        for rep in reports:
            print(
                f"suite {rep.suite:>14}: max residual {rep.max_residual:.3e} "
                f"(tol {rep.tolerance:.1e}) -> {'pass' if rep.passed else 'FAIL'}"
            )
        passed = report_dict["passed"]
    else:
        rep = run_suite(args.suite, cfg)
        report_dict = rep.to_dict()
        print(
            f"suite {rep.suite}: max residual {rep.max_residual:.3e} "
            f"(tol {rep.tolerance:.1e}) -> {'pass' if rep.passed else 'FAIL'}"
        )
        if not rep.passed:
            for case in rep.cases:
                if not case.passed:
                    print("failing case:", json.dumps(rep.to_dict()["cases"][case.index]))
                    break
        passed = rep.passed
    _write_report(report_dict, _report_rows(report_dict), args.output, args.format)
    print(
        f"wall clock: {1000.0 * (time.perf_counter() - started):.0f} ms",
        file=sys.stderr,
    )
    return 0 if passed else 1


def cmd_traintrack(args) -> int:
    pt = ModuliPoint(args.z1, 1.0 - args.z2)
    lp = invert_T(pt)
    l1, l2 = complex(lp.lambda1), complex(lp.lambda2)
    if (
        abs(l1) < _BOUNDARY_EPS
        or abs(l2 - 1.0) < _BOUNDARY_EPS
        or abs(abs(l2 * l2) - 1.0) < _BOUNDARY_EPS
    ):
        print(
            "limit-domain warning: preimage sits on the boundary "
            f"(lambda1, lambda2) = ({_fmt_complex(l1)}, {_fmt_complex(l2)}); "
            "the pairing involves K at its singular argument and is reported "
            "only as a limit",
            file=sys.stderr,
        )
        return 2
    value, raw = _pairing(period_basis(lp))
    tp = mirror_map(lp)
    print(f"pairing = {value:.15e}")
    print(f"imag_residue = {abs(raw.imag):.3e}")
    print(f"lambda1 = {_fmt_complex(l1)}")
    print(f"lambda2 = {_fmt_complex(l2)}")
    print(f"tau1 = {_fmt_complex(tp.tau1)}")
    print(f"tau2 = {_fmt_complex(tp.tau2)}")
    return 0


def cmd_scan(args) -> int:
    l1_vals = np.linspace(args.lambda1_min, args.lambda1_max, args.n1) if args.n1 > 0 else []
    l2_vals = np.linspace(args.lambda2_min, args.lambda2_max, args.n2) if args.n2 > 0 else []
    rows = []
    for l1 in l1_vals:
        for l2 in l2_vals:
            row = {"lambda1_re": float(l1), "lambda1_im": 0.0, "lambda2_re": float(l2), "lambda2_im": 0.0}
            if abs(l1 + l2) < 1e-12:
                row["status"] = "degenerate"
                rows.append(row)
                continue
            try:
                lp = LambdaPair(complex(l1), complex(l2))
                pt = map_T(lp)
                tp = mirror_map(lp)
                row.update(
                    {
                        "x_re": pt.x.real,
                        "x_im": pt.x.imag,
                        "y_re": pt.y.real,
                        "y_im": pt.y.imag,
                        "tau1_re": tp.tau1.real,
                        "tau1_im": tp.tau1.imag,
                        "tau2_re": tp.tau2.real,
                        "tau2_im": tp.tau2.imag,
                    }
                )
                if args.quantity == "pi0":
                    val = period_basis(lp).pi0
                    row["pi0_re"], row["pi0_im"] = val.real, val.imag
                elif args.quantity == "pairing":
                    row["pairing"] = positivity_pairing(period_basis(lp))
                else:
                    val = lambda_hauptmodul(tp.tau1)
                    row["lambda_map_re"], row["lambda_map_im"] = val.real, val.imag
                row["status"] = "ok"
            except DomainError as exc:
                row["status"] = f"domain_error: {exc}"
            rows.append(row)
    _write_report(rows, rows, args.output, args.format, columns=("status",))
    return 0


def cmd_monodromy(args) -> int:
    sys1 = system_2f1(Hyper2F1Params(0.5, 0.5, 1.0))
    ok = True
    for around in (0.0, 1.0):
        m = monodromy_2f1(sys1, around, basepoint=args.basepoint)
        rounded = np.round(m.real).astype(int)
        resid = float(np.max(np.abs(m - np.round(m.real))))
        try:
            member = gamma2_membership(m)
        except ValueError:
            member = False
        print(f"loop around z = {around:g}:")
        print(f"  matrix = {rounded.tolist()}")
        print(f"  integrality residual = {resid:.3e}")
        print(f"  gamma(2) member = {member}")
        ok = ok and member and resid < 1e-8
    return 0 if ok else 1


_DISPATCH = {
    "f2-eval": cmd_f2_eval,
    "verify": cmd_verify,
    "traintrack": cmd_traintrack,
    "scan": cmd_scan,
    "monodromy": cmd_monodromy,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
