"""Seeded verification suites and machine-readable reports.

Sampling uses the counter-based Philox generator so any implementation that
seeds Philox identically reproduces the draws.  Inputs are drawn as column
blocks, rng.uniform(lows, highs, (n, k)), equal bit for bit to a loop of
scalar rng.uniform calls in row order.  A suite that rejects candidates
takes its inputs from ``_first_accepted``, equal to a scalar loop that draws
whole rows until n pass, and draws nothing after them.  Reports are
serialized with sorted keys; the wall-clock duration is reported on stderr
only and stored as null, so identical configurations produce byte-identical
files.

Each suite computes its cases as columns, one value per case, and one
builder, ``_cases``, turns them into records; only the modular weight probes
are built one at a time.  The report layout lives only in ``to_dict``: the
``all`` summary is a report too, with one case per suite.

A suite is declared once, by ``@_suite(tolerance=..., samples=...)`` above
its ``suite_<name>`` function.  SUITES, DEFAULT_TOLERANCES, RunConfig,
run_suite and run_all, and the CLI's suite choices and ``--tol-<name>``
flags, all read that declaration.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .appell import F2Params, f2_derivatives_on_arrays, f2_series_on_arrays
from .errors import NonConstantRatioError
from .factorization import (
    _in_theorem_domain,
    _map_T_arrays,
    _pairing_arrays,
    periods_from_lambdas,
)
from .modular import (
    ModularGroupElement,
    TauPair,
    _thetas,
    inverse_mirror_arrays,
    lambda_hauptmodul,
    mirror_map_arrays,
    multiplier_probe,
    pi0_modular_arrays,
)
from .pfaffian import (
    flatness_residual,
    gamma2_membership,
    horizontality_residual_from_derivatives,
    monodromy_2f1,
    system_2f1,
    system_f2,
)
from .special import Hyper2F1Params, ellint_K

SCHEMA_VERSION = 1

# Filled by @_suite in declaration order, the order `all` runs the suites in.
# bench/tracing.py times a suite by replacing its function in _SUITE_FUNCTIONS.
_SUITE_FUNCTIONS = {}
DEFAULT_TOLERANCES = {}
_DEFAULT_SAMPLES = {}


def _suite(tolerance, samples):
    """Declare the decorated ``suite_<name>`` as suite <name>, with its default
    tolerance and sample count; the function is returned unchanged."""

    def declare(fn):
        name = fn.__name__.removeprefix("suite_")
        _SUITE_FUNCTIONS[name] = fn
        DEFAULT_TOLERANCES[name], _DEFAULT_SAMPLES[name] = tolerance, samples
        return fn

    return declare


@dataclass
class RunConfig:
    tolerances: dict = field(default_factory=dict)
    sample_count: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        # bool subclasses int, but True is no count, seed or tolerance
        n = self.sample_count
        if n is not None and (isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1):
            raise ValueError(f"sample_count must be a positive int, not {n!r}")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative int, not {seed!r}")
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"tolerance for unknown suite {name!r}; choose from {SUITES}")
            if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
                raise ValueError(f"tolerance for {name} must be positive and finite, not {tol!r}")

    def tol(self, suite: str) -> float:
        return self.tolerances.get(suite, DEFAULT_TOLERANCES[suite])

    def samples(self, suite: str) -> int:
        return self.sample_count or _DEFAULT_SAMPLES[suite]


@dataclass
class CaseRecord:
    index: int
    inputs: dict
    outputs: dict
    residual: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list
    max_residual: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "config": _jsonable(self.config),
            "cases": [
                {
                    "index": c.index,
                    "inputs": _jsonable(c.inputs),
                    "outputs": _jsonable(c.outputs),
                    "residual": c.residual,
                    "passed": c.passed,
                }
                for c in self.cases
            ],
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            # stored as null: wall-clock time would break report determinism
            "duration_ms": None,
        }


_LEAVES = frozenset((float, int, bool, str, type(None)))


def _jsonable(obj):
    # Python leaves by exact type first: numpy's float64 subclasses float
    if type(obj) in _LEAVES:
        return obj
    if type(obj) is complex:
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return {"re": z.real, "im": z.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _first_accepted(rng, n: int, lows, highs, accept):
    """The first n candidate rows that ``accept`` keeps, as an (n, k) array.

    A candidate is one rng.uniform(lo, hi) draw per (lo, hi) column, in
    order, so every candidate equals a scalar rejection loop's bit for bit.
    They are drawn in blocks; ``accept`` maps a block to a boolean mask over
    its rows.  Each block is sized to yield the rows still wanted and 16
    more at the share accepted so far, (accepted + 1) / (drawn + 1), so the
    first is n + 16 rows.  The rest of the last block is drawn but never
    read: each suite draws from its own generator, and nothing after its
    rejection sampler.
    """
    kept, drawn, accepted = np.empty((0, len(lows))), 0, 0
    while len(kept) < n:
        size = (n - len(kept) + 16) * (drawn + 1) // (accepted + 1)
        rows = rng.uniform(lows, highs, (size, len(lows)))
        passed = rows[accept(rows)]
        drawn, accepted = drawn + size, accepted + len(passed)
        kept = np.concatenate((kept, passed[: n - len(kept)]))
    return kept


def sample_theorem_domain(rng, n: int):
    """Columns (lambda1, lambda2, x, y) of n random factorized coordinates in the
    theorem domain whose image (x, y) under T has |x| + |y| < 0.95.

    Each block of candidates is filtered by the domain and mapped by T as
    arrays, and the kept pairs are mapped again in one call.
    """

    def columns(rows):
        l1, l2 = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
        return l1, l2, *_map_T_arrays(l1, l2)

    def accept(rows):
        l1, l2, x, y = columns(rows)
        return _in_theorem_domain(l1, l2) & (np.abs(x) + np.abs(y) < 0.95)

    lows, highs = (0.03, -0.06, 0.62, -0.06), (0.5, 0.06, 0.97, 0.06)
    return columns(_first_accepted(rng, n, lows, highs, accept))


def _cases(inputs, outputs, residuals, passed):
    """One CaseRecord per row of the columns.

    ``inputs`` and ``outputs`` map each name to a list with one value per
    case, as ``residuals`` and ``passed`` are.
    """

    def rows(columns):
        return [dict(zip(columns, values)) for values in zip(*columns.values(), strict=True)]

    return [
        CaseRecord(i, case_in, case_out, float(resid), bool(ok))
        for i, (case_in, case_out, resid, ok) in enumerate(
            zip(rows(inputs), rows(outputs), residuals, passed, strict=True)
        )
    ]


def _finish(suite, cfg, cases):
    tol = cfg.tol(suite)
    config = {"sample_count": cfg.samples(suite), "rng_seed": cfg.rng_seed, "tolerance": tol}
    resid = max((c.residual for c in cases), default=0.0)
    return VerificationReport(suite, config, cases, resid, tol, all(c.passed for c in cases))


@_suite(tolerance=1e-9, samples=100)
def suite_factorization(cfg: RunConfig) -> VerificationReport:
    """Central identity: Pi0 equals the conformal F2 row sum under T."""
    l1, l2, x, y = columns = sample_theorem_domain(_rng(cfg.rng_seed), cfg.samples("factorization"))
    pi0 = periods_from_lambdas(l1, l2)[0].tolist()
    f2 = f2_series_on_arrays(F2Params.conformal_case(), x, y).tolist()
    # Python's abs, not np.abs: the two round some moduli differently
    resids = [abs(p - f) / abs(p) for p, f in zip(pi0, f2)]
    inputs = dict(zip(("lambda1", "lambda2", "x", "y"), (c.tolist() for c in columns)))
    passed = np.less(resids, cfg.tol("factorization"))
    cases = _cases(inputs, {"pi0": pi0, "f2_series": f2}, resids, passed)
    return _finish("factorization", cfg, cases)


@_suite(tolerance=1e-12, samples=50)
def suite_bilinear(cfg: RunConfig) -> VerificationReport:
    """Quadratic relation Pi^T Sigma Pi = 0 and positivity of the pairing."""
    tol = cfg.tol("bilinear")
    l1, l2 = _rng(cfg.rng_seed).uniform(0.05, 0.95, (cfg.samples("bilinear"), 2)).T.tolist()
    periods = np.stack(periods_from_lambdas(l1, l2), 1)
    quads, pairings = _pairing_arrays(periods)
    quads, pairings = quads.tolist(), pairings.real.tolist()
    # Python's abs, not np.abs: the two round some moduli differently
    scales = [abs(p0 * p3) + abs(p1 * p2) for p0, p1, p2, p3 in periods.tolist()]
    resids = [abs(quad) / scale for quad, scale in zip(quads, scales)]
    passed = [r < tol and p > 0 for r, p in zip(resids, pairings)]
    outputs = {"quadratic_relation": quads, "pairing": pairings}
    cases = _cases({"lambda1": l1, "lambda2": l2}, outputs, resids, passed)
    return _finish("bilinear", cfg, cases)


@_suite(tolerance=1e-10, samples=50)
def suite_mirror(cfg: RunConfig) -> VerificationReport:
    """Hauptmodul round trips of the canonical coordinates."""
    tol = cfg.tol("mirror")
    l1, l2 = _rng(cfg.rng_seed).uniform((0.05, 0.4), (0.7, 0.95), (cfg.samples("mirror"), 2)).T
    t1, t2 = mirror_map_arrays(l1, l2)
    back1, back2 = inverse_mirror_arrays(t1, t2)
    r1 = np.abs(lambda_hauptmodul(t1) - l1 * l1)
    r2 = np.abs(1.0 - lambda_hauptmodul(t2) - l2 * l2)
    resids = np.maximum.reduce([r1, r2, np.abs(back1 - l1), np.abs(back2 - l2)])
    outputs = {"tau1": t1.tolist(), "tau2": t2.tolist()}
    cases = _cases({"lambda1": l1.tolist(), "lambda2": l2.tolist()}, outputs, resids, resids < tol)
    return _finish("mirror", cfg, cases)


_WEIGHT_GENERATORS = (
    ModularGroupElement(1, 2, 0, 1),
    ModularGroupElement(1, 0, 2, 1),
)
_WEIGHT_PROBES = 5  # tau pairs per probe


def _weight_probe_samples(rng):
    draws = rng.uniform((-0.3, 0.8, -0.3, 0.8), (0.3, 1.6, 0.3, 1.6), (_WEIGHT_PROBES, 4))
    return [TauPair(a + 1j * b, c + 1j * d) for a, b, c, d in draws.tolist()]


def _hauptmodul_off_cut(tau):
    """lambda(tau) and theta3(tau) from one theta call, and where lambda(tau)
    is off the cut [1, oo) of K, as the K/theta identity needs."""
    th2, th3, _ = _thetas(tau)
    lam = th2**4 / th3**4
    return lam, th3, ~((lam.real > 0.95) & (np.abs(lam.imag) < 0.01))


@_suite(tolerance=1e-10, samples=50)
def suite_modular(cfg: RunConfig) -> VerificationReport:
    """Theta expression of Pi0, the K/theta identity, and the weight probes."""
    tol = cfg.tol("modular")
    rng = _rng(cfg.rng_seed)
    # the probes first, so that nothing is drawn after the rejection sampler
    probe_samples = _weight_probe_samples(rng)

    def accept(rows):
        return _hauptmodul_off_cut(rows[:, 2] + 1j * rows[:, 3])[2]

    lows, highs = (0.05, 0.4, -0.9, 0.5), (0.7, 0.95, 0.9, 2.0)
    l1, l2, re_tau, im_tau = _first_accepted(rng, cfg.samples("modular"), lows, highs, accept).T
    taus = re_tau + 1j * im_tau
    lams, th3, _ = _hauptmodul_off_cut(taus)
    l1s, l2s = l1.tolist(), l2.tolist()
    pi0 = periods_from_lambdas(l1s, l2s)[0]
    bridges = np.abs(pi0_modular_arrays(*mirror_map_arrays(l1s, l2s)) - pi0)
    kthetas = np.abs(ellint_K(lams) - np.pi / 2 * th3**2)
    resids = np.maximum(bridges, kthetas)
    inputs = {"lambda1": l1s, "lambda2": l2s, "tau": taus.tolist()}
    outputs = {"pi0_bridge": bridges.tolist(), "k_theta_identity": kthetas.tolist()}
    cases = _cases(inputs, outputs, resids, resids < tol)
    for g, slot in itertools.product(_WEIGHT_GENERATORS, (1, 2)):
        inputs = {"generator": [g.a, g.b, g.c, g.d], "slot": slot}
        try:
            eps = multiplier_probe(g, slot, probe_samples)
            outputs = {"multiplier": eps}
            resid = abs(eps - 1.0)
            ok = resid < tol
        except NonConstantRatioError as exc:
            outputs = {"ratios": list(exc.ratios), "error": str(exc)}
            mean = sum(exc.ratios) / len(exc.ratios)
            resid = max(abs(r - mean) for r in exc.ratios)
            ok = False
        cases.append(CaseRecord(len(cases), inputs, outputs, float(resid), ok))
    return _finish("modular", cfg, cases)


def _monodromy_cases(tol, basepoint):
    """The loops around z = 0 and z = 1 from ``basepoint``, scored as cases."""
    sys1 = system_2f1(Hyper2F1Params(0.5, 0.5, 1.0))
    outputs = {"matrix": [], "gamma2_member": [], "unipotent": []}
    resids, passed = [], []
    for around in (0.0, 1.0):
        m = monodromy_2f1(sys1, around, basepoint)
        rounded = np.round(m.real)
        resids.append(float(np.max(np.abs(m - rounded))))
        try:
            member = gamma2_membership(m, int_tol=tol)
        except ValueError:
            member = False
        unipotent = bool(np.allclose(np.linalg.eigvals(rounded), 1.0))
        outputs["matrix"].append(rounded.astype(int).tolist())
        outputs["gamma2_member"].append(member)
        outputs["unipotent"].append(unipotent)
        passed.append(resids[-1] < tol and member and unipotent)
    return _cases({"around": [0.0, 1.0]}, outputs, resids, passed)


@_suite(tolerance=1e-8, samples=2)
def suite_monodromy(cfg: RunConfig) -> VerificationReport:
    """Loops around z = 0 and z = 1 in the Legendre K-basis."""
    # from the basepoint that monodromy_2f1 and `traintrack monodromy` default to;
    # it runs its two loops whatever the count, so it reports the default count
    cases = _monodromy_cases(cfg.tol("monodromy"), 0.35 + 0.01j)
    return _finish("monodromy", replace(cfg, sample_count=None), cases)


def _flatness_points(rng, n):
    """Columns (x, y), complex, of n real points with margin 0.07 from the
    singular locus and |x| + |y| < 0.6."""

    def points(rows):
        return rows[:, 0], rows[:, 1] * np.sign(rows[:, 2])

    def accept(rows):
        x, y = points(rows)
        margin = np.abs([x, 1 - x, y, 1 - y, 1 - x - y]).min(0)
        return (margin > 0.07) & (np.abs(x) + np.abs(y) < 0.6)

    x, y = points(_first_accepted(rng, n, (0.1, 0.08, -1.0), (0.45, 0.35, 1.0), accept))
    return x + 0j, y + 0j


@_suite(tolerance=1e-8, samples=10)
def suite_flatness(cfg: RunConfig) -> VerificationReport:
    """Curvature of the derived 4x4 connection and section horizontality.

    Each check takes all points in one call; the partials of the conformal
    F2 come from its exact derivative table.
    """
    tol = cfg.tol("flatness")
    conformal = F2Params.conformal_case()
    x, y = _flatness_points(_rng(cfg.rng_seed), cfg.samples("flatness"))
    flats = flatness_residual(system_f2(conformal), x, y)
    derivs = f2_derivatives_on_arrays(conformal, x, y, 2)
    horizs = horizontality_residual_from_derivatives(conformal, derivs, x, y)
    resids = np.maximum(flats, horizs)
    outputs = {"flatness": flats.tolist(), "horizontality": horizs.tolist()}
    inputs = {"x": x.tolist(), "y": y.tolist()}
    return _finish("flatness", cfg, _cases(inputs, outputs, resids, resids < tol))


SUITES = tuple(_SUITE_FUNCTIONS)


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    if name not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FUNCTIONS[name](cfg)


def run_all(cfg: RunConfig):
    """Run every suite; returns (reports, combined_report_dict).

    The combined report is a summary report with one case per suite, and
    the suites' own reports under "suites".
    """
    reports = [run_suite(name, cfg) for name in SUITES]
    resids = [r.max_residual for r in reports]
    passed = [r.passed for r in reports]
    config = {
        "rng_seed": cfg.rng_seed,
        "sample_count": cfg.sample_count,
        "tolerances": {name: cfg.tol(name) for name in SUITES},
    }
    outputs = {"max_residual": resids, "passed": passed}
    cases = _cases({"suite": list(SUITES)}, outputs, resids, passed)
    tol = max(r.tolerance for r in reports)
    summary = VerificationReport("all", config, cases, max(resids), tol, all(passed))
    return reports, {**summary.to_dict(), "suites": [r.to_dict() for r in reports]}
