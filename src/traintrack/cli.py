"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or --output write error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import sys
import time

import numpy as np

from .appell import F2Params, _f2_euler, _f2_row_sum
from .errors import ConvergenceError, DomainError
from .factorization import (
    _OUTSIDE_DOMAIN, _in_theorem_domain, _map_T_arrays, _pairing_arrays, invert_T_arrays,
    periods_from_lambdas,
)
from .modular import _MIRROR_ERRORS, _mirror_map_rows, lambda_hauptmodul, mirror_map_arrays
from .verify import SUITES, RunConfig, _monodromy_cases, run_all, run_suite

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


def _finite(kind, least=None):
    """An argparse type: the text as ``kind``, finite and, if ``least`` is set, at least that.

    An int too large for a float counts as not finite.
    """

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid <kind> value"
        if not abs(value) <= sys.float_info.max:
            raise argparse.ArgumentTypeError(f"not finite: {text!r}")
        if least and not (value > 0 or least == "non-negative" and value == 0):
            raise argparse.ArgumentTypeError(f"not {least}: {text!r}")
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
    p_verify.add_argument("--samples", type=_finite(int, "positive"), default=None)
    p_verify.add_argument("--seed", type=_finite(int, "non-negative"), default=0)
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    for name in SUITES:
        p_verify.add_argument(f"--tol-{name}", type=_finite(float, "positive"), default=None)

    p_train = sub.add_parser(
        "traintrack", help="pairing value of the traintrack integral"
    )
    p_train.add_argument("--z1", type=_complex_arg, required=True)
    p_train.add_argument("--z2", type=_complex_arg, required=True)

    p_scan = sub.add_parser(
        "scan", help="tabulate a quantity over a grid of factorized coordinates"
    )
    for name in ("--lambda1-min", "--lambda1-max", "--lambda2-min", "--lambda2-max"):
        p_scan.add_argument(name, type=_finite(float), required=True)
    p_scan.add_argument("--n1", type=_finite(int, "non-negative"), default=3)
    p_scan.add_argument("--n2", type=_finite(int, "non-negative"), default=3)
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
    if args.method == "series":
        value, err = _f2_row_sum(params, args.x, args.y)
        value, err = complex(value), float(err)
    else:
        value, err = _f2_euler(params, args.x, args.y)
    print(f"F2({args.method}) = {_fmt_complex(value)}")
    print(f"estimated_error <= {err:.3e}")
    return 0


def _parts(value):
    """(value, None, None), or (None, re, im) for a complex value or its {re, im} form."""
    if isinstance(value, complex):
        return None, value.real, value.imag
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return None, value["re"], value["im"]
    return value, None, None


def _flat_table(columns):
    """The columns, with None where a row has no value, made flat: each complex value, or its
    {re, im} form, goes to <name>_re and <name>_im and any other value stays under <name>.  A
    column that no row fills is left out."""
    table = {}
    for name, values in columns.items():
        for suffix, column in zip(("", "_re", "_im"), zip(*map(_parts, values))):
            if any(value is not None for value in column):
                table[name + suffix] = column
    return table


def _write_report(payload, path, fmt) -> int:
    """Write payload as JSON, or a table (a dict of equal-length columns) as CSV with its names
    sorted and None as an empty cell, to path or else to stdout.  Returns the exit code: 0, or
    2 when path cannot be written."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        names = sorted(payload)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*(payload[name] for name in names)))
        text = buf.getvalue()
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    tolerances = {name: getattr(args, f"tol_{name}") for name in SUITES}
    tolerances = {name: tol for name, tol in tolerances.items() if tol is not None}
    cfg = RunConfig(tolerances, args.samples, args.seed)
    started = time.perf_counter()
    if args.suite == "all":
        reports, report_dict = run_all(cfg)
    else:
        reports = [run_suite(args.suite, cfg)]
        report_dict = reports[0].to_dict()
    width = 14 if args.suite == "all" else 0
    for rep in reports:
        print(
            f"suite {rep.suite:>{width}}: max residual {rep.max_residual:.3e} "
            f"(tol {rep.tolerance:.1e}) -> {'pass' if rep.passed else 'FAIL'}"
        )
    failing = [case for case in report_dict["cases"] if not case["passed"]]
    if failing and args.suite != "all":
        print("failing case:", json.dumps(failing[0]))
    payload = report_dict
    if args.format == "csv":  # one row per case: its index, residual, passed, inputs and outputs
        head = ("index", "residual", "passed")
        cases = [{k: c[k] for k in head} | c["inputs"] | c["outputs"] for c in report_dict["cases"]]
        names = dict.fromkeys(name for case in cases for name in case)
        payload = _flat_table({name: [case.get(name) for case in cases] for name in names})
    written = _write_report(payload, args.output, args.format)
    print(
        f"wall clock: {1000.0 * (time.perf_counter() - started):.0f} ms",
        file=sys.stderr,
    )
    return written or (0 if report_dict["passed"] else 1)


def cmd_traintrack(args) -> int:
    l1, l2 = (complex(v) for v in invert_T_arrays(args.z1, 1.0 - args.z2))
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
    if not _in_theorem_domain(l1, l2):
        raise DomainError(_OUTSIDE_DOMAIN)
    value = _pairing_arrays(np.array(periods_from_lambdas(l1, l2)))[1]
    t1, t2 = mirror_map_arrays(l1, l2)
    print(f"pairing = {float(value.real):.15e}")
    print(f"imag_residue = {abs(float(value.imag)):.3e}")
    print(f"lambda1 = {_fmt_complex(l1)}")
    print(f"lambda2 = {_fmt_complex(l2)}")
    print(f"tau1 = {_fmt_complex(complex(t1))}")
    print(f"tau2 = {_fmt_complex(complex(t2))}")
    return 0


_SCAN_STATUS = ("ok", *(f"domain_error: {message}" for _, message in _MIRROR_ERRORS), "degenerate")


def cmd_scan(args) -> int:
    """One call per array core for all rows.  A row is "degenerate" where |L1 + L2| < 1e-12,
    else takes the error a mirror map call on it alone raises, else is "ok"; only "ok" rows go
    on to T, the periods or the Hauptmodul, and each value equals a scalar call on its row."""
    l1 = np.repeat(np.linspace(args.lambda1_min, args.lambda1_max, args.n1), args.n2)
    l2 = np.tile(np.linspace(args.lambda2_min, args.lambda2_max, args.n2), args.n1)
    l1, l2 = l1.astype(complex), l2.astype(complex)
    t1, t2, code = _mirror_map_rows(l1, l2)
    code[np.abs(l1 + l2) < 1e-12] = len(_SCAN_STATUS) - 1
    good = code == 0
    l1_ok, l2_ok, t1, t2 = l1[good], l2[good], t1[good], t2[good]
    if args.quantity == "lambda_map":
        value = lambda_hauptmodul(t1)
    else:
        periods = np.stack(periods_from_lambdas(l1_ok, l2_ok), 1)
        value = periods[:, 0] if args.quantity == "pi0" else _pairing_arrays(periods)[1].real
    columns = {"lambda1": l1.tolist(), "lambda2": l2.tolist()}
    names = ("x", "y", "tau1", "tau2", args.quantity)
    for name, values in zip(names, (*_map_T_arrays(l1_ok, l2_ok), t1, t2, value)):
        columns[name] = np.full(code.size, None, dtype=object)
        columns[name][good] = values  # Python complex or float, None off the good rows
    table = {"status": [_SCAN_STATUS[c] for c in code.tolist()]} | _flat_table(columns)
    if args.format == "json":  # a list of rows, each with the names it has a value for
        rows = zip(*table.values())
        table = [{k: v for k, v in zip(table, row) if v is not None} for row in rows]
    return _write_report(table, args.output, args.format)


def cmd_monodromy(args) -> int:
    tol = RunConfig().tol("monodromy")
    ok = True
    for case in _monodromy_cases(tol, args.basepoint):
        member = case.outputs["gamma2_member"]
        print(f"loop around z = {case.inputs['around']:g}:")
        print(f"  matrix = {case.outputs['matrix']}")
        print(f"  integrality residual = {case.residual:.3e}")
        print(f"  gamma(2) member = {member}")
        ok = ok and member and case.residual < tol
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
