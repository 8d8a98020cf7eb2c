"""Seeded verification suites and machine-readable reports.

Sampling uses the counter-based Philox generator so any implementation that
seeds Philox identically reproduces the draws.  Reports are serialized with
sorted keys; the wall-clock duration is reported on stderr only and stored as
null, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .appell import F2Params, ModuliPoint, f2_series_on_arrays
from .errors import NonConstantRatioError
from .factorization import (
    LambdaPair,
    map_T,
    period_basis,
    positivity_pairing,
    quadratic_relation,
)
from .modular import (
    ModularGroupElement,
    TauPair,
    inverse_mirror,
    lambda_hauptmodul,
    mirror_map,
    multiplier_probe,
    pi0_from_lambdas,
    pi0_modular,
    theta3,
)
from .pfaffian import (
    flatness_residual,
    gamma2_membership,
    horizontality_residual_f2,
    monodromy_2f1,
    system_2f1,
    system_f2,
)
from .special import Hyper2F1Params, ellint_K

SCHEMA_VERSION = 1

SUITES = ("factorization", "bilinear", "mirror", "modular", "monodromy", "flatness")

DEFAULT_TOLERANCES = {
    "factorization": 1e-9,
    "bilinear": 1e-12,
    "mirror": 1e-10,
    "modular": 1e-10,
    "monodromy": 1e-8,
    "flatness": 1e-8,
}

DEFAULT_SAMPLES = {
    "factorization": 100,
    "bilinear": 50,
    "mirror": 50,
    "modular": 50,
    "monodromy": 2,
    "flatness": 10,
}


@dataclass
class RunConfig:
    tolerances: dict = field(default_factory=dict)
    sample_count: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.sample_count is not None and self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        for name, tol in self.tolerances.items():
            if tol <= 0:
                raise ValueError(f"tolerance for {name} must be positive")

    def tol(self, suite: str) -> float:
        return self.tolerances.get(suite, DEFAULT_TOLERANCES[suite])

    def samples(self, suite: str) -> int:
        return self.sample_count or DEFAULT_SAMPLES[suite]


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
    duration_ms: float | None = None

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _jsonable(obj):
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


def sample_theorem_domain(rng, n: int, norm_cap: float = 0.95):
    """Random factorized coordinates with the mapped point inside |x|+|y| < cap."""
    out = []
    while len(out) < n:
        l1 = rng.uniform(0.03, 0.5) + 1j * rng.uniform(-0.06, 0.06)
        l2 = rng.uniform(0.62, 0.97) + 1j * rng.uniform(-0.06, 0.06)
        lp = LambdaPair(l1, l2)
        if not lp.in_theorem_domain:
            continue
        pt = map_T(lp)
        if pt.series_norm < norm_cap:
            out.append((lp, pt))
    return out


def _finish(suite, cfg, cases, extra_pass=True, started=None):
    max_residual = max((c.residual for c in cases), default=0.0)
    passed = extra_pass and all(c.passed for c in cases)
    duration = None if started is None else 1000.0 * (time.perf_counter() - started)
    return VerificationReport(
        suite=suite,
        config={
            "sample_count": cfg.samples(suite),
            "rng_seed": cfg.rng_seed,
            "tolerance": cfg.tol(suite),
        },
        cases=cases,
        max_residual=float(max_residual),
        tolerance=cfg.tol(suite),
        passed=passed,
        duration_ms=duration,
    )


def suite_factorization(cfg: RunConfig) -> VerificationReport:
    """Central identity: Pi0 equals the conformal F2 row sum under T."""
    started = time.perf_counter()
    tol = cfg.tol("factorization")
    rng = _rng(cfg.rng_seed)
    samples = sample_theorem_domain(rng, cfg.samples("factorization"))
    f2_values = f2_series_on_arrays(
        F2Params.conformal_case(),
        [pt.x for _, pt in samples],
        [pt.y for _, pt in samples],
    )
    cases = []
    for i, ((lp, pt), f2) in enumerate(zip(samples, f2_values.tolist())):
        pi0 = period_basis(lp).pi0
        resid = abs(pi0 - f2) / abs(pi0)
        cases.append(
            CaseRecord(
                i,
                {"lambda1": lp.lambda1, "lambda2": lp.lambda2, "x": pt.x, "y": pt.y},
                {"pi0": pi0, "f2_series": f2},
                float(resid),
                resid < tol,
            )
        )
    return _finish("factorization", cfg, cases, started=started)


def suite_bilinear(cfg: RunConfig) -> VerificationReport:
    """Quadratic relation Pi^T Sigma Pi = 0 and positivity of the pairing."""
    started = time.perf_counter()
    tol = cfg.tol("bilinear")
    rng = _rng(cfg.rng_seed)
    cases = []
    for i in range(cfg.samples("bilinear")):
        lp = LambdaPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        pv = period_basis(lp)
        quad = quadratic_relation(pv)
        scale = abs(pv.pi0 * pv.pi3) + abs(pv.pi1 * pv.pi2)
        resid = abs(quad) / scale
        pairing = positivity_pairing(pv)
        cases.append(
            CaseRecord(
                i,
                {"lambda1": lp.lambda1, "lambda2": lp.lambda2},
                {"quadratic_relation": quad, "pairing": pairing},
                float(resid),
                resid < tol and pairing > 0,
            )
        )
    return _finish("bilinear", cfg, cases, started=started)


def suite_mirror(cfg: RunConfig) -> VerificationReport:
    """Hauptmodul round trips of the canonical coordinates."""
    started = time.perf_counter()
    tol = cfg.tol("mirror")
    rng = _rng(cfg.rng_seed)
    cases = []
    for i in range(cfg.samples("mirror")):
        lp = LambdaPair(rng.uniform(0.05, 0.7), rng.uniform(0.4, 0.95))
        tp = mirror_map(lp)
        l1sq = complex(lp.lambda1) ** 2
        l2sq = complex(lp.lambda2) ** 2
        r1 = abs(lambda_hauptmodul(tp.tau1) - l1sq)
        r2 = abs(1.0 - lambda_hauptmodul(tp.tau2) - l2sq)
        back = inverse_mirror(tp)
        r3 = max(
            abs(complex(back.lambda1) - complex(lp.lambda1)),
            abs(complex(back.lambda2) - complex(lp.lambda2)),
        )
        resid = max(r1, r2, r3)
        cases.append(
            CaseRecord(
                i,
                {"lambda1": lp.lambda1, "lambda2": lp.lambda2},
                {"tau1": tp.tau1, "tau2": tp.tau2},
                float(resid),
                resid < tol,
            )
        )
    return _finish("mirror", cfg, cases, started=started)


_WEIGHT_GENERATORS = (
    ModularGroupElement(1, 2, 0, 1),
    ModularGroupElement(1, 0, 2, 1),
)


def _weight_probe_samples(rng, n=5):
    return [
        TauPair(
            rng.uniform(-0.3, 0.3) + 1j * rng.uniform(0.8, 1.6),
            rng.uniform(-0.3, 0.3) + 1j * rng.uniform(0.8, 1.6),
        )
        for _ in range(n)
    ]


def suite_modular(cfg: RunConfig) -> VerificationReport:
    """Theta expression of Pi0, the K/theta identity, and the weight probes."""
    started = time.perf_counter()
    tol = cfg.tol("modular")
    rng = _rng(cfg.rng_seed)
    cases = []
    idx = 0
    for _ in range(cfg.samples("modular")):
        lp = LambdaPair(rng.uniform(0.05, 0.7), rng.uniform(0.4, 0.95))
        tp = mirror_map(lp)
        bridge = abs(pi0_modular(tp) - pi0_from_lambdas(lp))
        while True:
            tau = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(0.5, 2.0)
            lam = lambda_hauptmodul(tau)
            # the K/theta identity needs lambda(tau) off the cut [1, oo) of K
            if not (lam.real > 0.95 and abs(lam.imag) < 0.01):
                break
        ktheta = abs(ellint_K(lam) - np.pi / 2 * theta3(tau) ** 2)
        resid = max(bridge, ktheta)
        cases.append(
            CaseRecord(
                idx,
                {"lambda1": lp.lambda1, "lambda2": lp.lambda2, "tau": tau},
                {"pi0_bridge": bridge, "k_theta_identity": ktheta},
                float(resid),
                resid < tol,
            )
        )
        idx += 1
    probe_samples = _weight_probe_samples(rng)
    for g in _WEIGHT_GENERATORS:
        for slot in (1, 2):
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
            cases.append(CaseRecord(idx, inputs, outputs, float(resid), ok))
            idx += 1
    return _finish("modular", cfg, cases, started=started)


def suite_monodromy(cfg: RunConfig) -> VerificationReport:
    """Loops around z = 0 and z = 1 in the Legendre K-basis."""
    started = time.perf_counter()
    tol = cfg.tol("monodromy")
    sys1 = system_2f1(Hyper2F1Params(0.5, 0.5, 1.0))
    cases = []
    for i, around in enumerate((0.0, 1.0)):
        m = monodromy_2f1(sys1, around)
        rounded = np.round(m.real)
        int_resid = float(np.max(np.abs(m - rounded)))
        try:
            member = gamma2_membership(m, int_tol=tol)
        except ValueError:
            member = False
        eigs = np.linalg.eigvals(rounded)
        unipotent = bool(np.allclose(eigs, 1.0))
        cases.append(
            CaseRecord(
                i,
                {"around": around},
                {
                    "matrix": [[int(v) for v in row] for row in rounded.astype(int)],
                    "gamma2_member": member,
                    "unipotent": unipotent,
                },
                int_resid,
                int_resid < tol and member and unipotent,
            )
        )
    return _finish("monodromy", cfg, cases, started=started)


def _flatness_points(rng, n):
    pts = []
    while len(pts) < n:
        x = rng.uniform(0.1, 0.45)
        y = rng.uniform(0.08, 0.35) * np.sign(rng.uniform(-1, 1))
        if min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y)) > 0.07 and abs(
            x
        ) + abs(y) < 0.6:
            pts.append(ModuliPoint(x + 0j, y + 0j))
    return pts


def suite_flatness(cfg: RunConfig) -> VerificationReport:
    """Curvature of the derived 4x4 connection and section horizontality."""
    started = time.perf_counter()
    tol = cfg.tol("flatness")
    rng = _rng(cfg.rng_seed)
    conformal = F2Params.conformal_case()
    sys2 = system_f2(conformal)
    section = lambda xx, yy: f2_series_on_arrays(conformal, xx, yy)
    cases = []
    for i, pt in enumerate(_flatness_points(rng, cfg.samples("flatness"))):
        flat = flatness_residual(sys2, pt.x, pt.y, radius=0.03)
        margin = min(
            abs(pt.x), abs(1 - pt.x), abs(pt.y), abs(1 - pt.y), abs(1 - pt.x - pt.y)
        )
        horiz = horizontality_residual_f2(
            conformal, section, pt, radius=0.3 * margin
        )
        resid = max(flat, horiz)
        cases.append(
            CaseRecord(
                i,
                {"x": pt.x, "y": pt.y},
                {"flatness": flat, "horizontality": horiz},
                float(resid),
                resid < tol,
            )
        )
    return _finish("flatness", cfg, cases, started=started)


_SUITE_FUNCTIONS = {
    "factorization": suite_factorization,
    "bilinear": suite_bilinear,
    "mirror": suite_mirror,
    "modular": suite_modular,
    "monodromy": suite_monodromy,
    "flatness": suite_flatness,
}


def run_suite(name: str, cfg: RunConfig) -> VerificationReport:
    if name not in _SUITE_FUNCTIONS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES} or 'all'")
    return _SUITE_FUNCTIONS[name](cfg)


def run_all(cfg: RunConfig):
    """Run every suite; returns (reports, combined_report_dict)."""
    reports = [run_suite(name, cfg) for name in SUITES]
    combined = {
        "schema_version": SCHEMA_VERSION,
        "suite": "all",
        "config": _jsonable(
            {
                "rng_seed": cfg.rng_seed,
                "sample_count": cfg.sample_count,
                "tolerances": {name: cfg.tol(name) for name in SUITES},
            }
        ),
        "cases": [
            {
                "index": i,
                "inputs": {"suite": r.suite},
                "outputs": {"max_residual": r.max_residual, "passed": r.passed},
                "residual": r.max_residual,
                "passed": r.passed,
            }
            for i, r in enumerate(reports)
        ],
        "suites": [r.to_dict() for r in reports],
        "max_residual": max(r.max_residual for r in reports),
        "tolerance": max(r.tolerance for r in reports),
        "passed": all(r.passed for r in reports),
        "duration_ms": None,
    }
    return reports, combined
