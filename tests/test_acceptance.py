"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 9 tests the weight-(1,1) law of the holomorphic period
Pi0 = theta2(tau1)^2 theta3(tau2)^2 + theta4(tau2)^2 theta3(tau1)^2 with two
assertions:

1. Where the law holds: under the level-4 generators [[1,4],[0,1]] and
   [[1,0],[4,1]] the multiplier is eps = 1 in both slots.  L1 = theta2^2 /
   theta3^2 is invariant on Gamma(4), not on Gamma(2), and theta3^2 and
   theta4^2 share the automorphy factor there.
2. Where it cannot hold: under the Gamma(2) generator [[1,0],[2,1]],
   theta3^2 picks up +(2 tau + 1) and theta4^2 picks up -(2 tau + 1).  With
   X = theta2(tau1)^2 theta3(tau2)^2 and Y = theta4(tau2)^2 theta3(tau1)^2
   the slot-2 ratio is therefore (X - Y)/(X + Y), which depends on the point.
   theta3 and theta4 are integer-power series in the nome, so no theta
   convention removes this; the probe must raise NonConstantRatioError with
   exactly those ratios.  See README for the analysis.
"""

import json
import time

import numpy as np
import pytest

from traintrack import (
    F2Params,
    LambdaPair,
    ModularGroupElement,
    ModuliPoint,
    NonConstantRatioError,
    TauPair,
    ellint_K,
    f2_euler_integral,
    f2_pde_residual,
    f2_series,
    gamma2_membership,
    inverse_mirror,
    lambda_hauptmodul,
    map_T,
    mirror_map,
    monodromy_2f1,
    multiplier_probe,
    period_basis,
    pi0_modular,
    positivity_pairing,
    quadratic_relation,
    system_2f1,
    system_f2,
    theta2,
    theta3,
    theta4,
)
from traintrack.appell import f2_derivatives_on_arrays
from traintrack.factorization import period_derivatives
from traintrack.pfaffian import flatness_residual, horizontality_residual_from_derivatives
from traintrack.special import Hyper2F1Params
from traintrack.verify import RunConfig, run_all, sample_theorem_domain

CONFORMAL = F2Params.conformal_case()


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _verdict(n, name, ok, detail):
    print(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_01_factorization_theorem():
    started = time.perf_counter()
    rng = _rng(1)
    worst = 0.0
    for l1, l2, x, y in zip(*(c.tolist() for c in sample_theorem_domain(rng, 100))):
        pi0 = period_basis(LambdaPair(l1, l2)).pi0
        f2 = f2_series(CONFORMAL, ModuliPoint(x, y))
        worst = max(worst, abs(pi0 - f2) / abs(pi0))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 30.0
    _verdict(1, "factorization theorem", ok,
             f"max rel residual {worst:.3e} (tol 1e-9), {elapsed:.1f}s")
    assert ok


def test_criterion_02_full_basis_pde():
    started = time.perf_counter()
    rng = _rng(2)
    pts = []
    for _ in range(20):
        lp = LambdaPair(
            complex(rng.uniform(0.25, 0.5), rng.uniform(-0.03, 0.03)),
            complex(rng.uniform(0.55, 0.9), rng.uniform(-0.03, 0.03)),
        )
        pts.append(map_T(lp))
    x = np.array([pt.x for pt in pts])
    y = np.array([pt.y for pt in pts])
    # the exact partials of all four periods at every point, in one table
    r1, r2 = f2_pde_residual(CONFORMAL, period_derivatives(x, y), x, y)
    assert r1.shape == r2.shape == (4, 20)
    worst = float(max(np.abs(r1).max(), np.abs(r2).max()))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 60.0
    _verdict(2, "full-basis PDE residuals", ok,
             f"max residual {worst:.3e} (tol 1e-12), {elapsed:.1f}s")
    assert ok


def test_criterion_03_triangle_identity():
    started = time.perf_counter()
    rng = _rng(3)
    worst = 0.0
    done = 0
    while done < 20:
        x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        if abs(x) + abs(y) > 0.8:
            continue
        if min(abs(1 - x - y), abs(1 - x), abs(1 - y)) < 0.05:
            continue
        done += 1
        pt = ModuliPoint(x, y)
        a = f2_series(CONFORMAL, pt)
        b = f2_euler_integral(CONFORMAL, pt)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 60.0
    _verdict(3, "triangle identity", ok,
             f"max |series - integral| {worst:.3e} (tol 1e-8), {elapsed:.1f}s")
    assert ok


def test_criterion_04_bilinear_relations():
    started = time.perf_counter()
    rng = _rng(4)
    worst = 0.0
    all_positive = True
    for _ in range(50):
        lp = LambdaPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        pv = period_basis(lp)
        scale = abs(pv.pi0 * pv.pi3) + abs(pv.pi1 * pv.pi2)
        worst = max(worst, abs(quadratic_relation(pv)) / scale)
        all_positive = all_positive and positivity_pairing(pv) > 0
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and all_positive and elapsed < 5.0
    _verdict(4, "bilinear relations", ok,
             f"max rel residual {worst:.3e} (tol 1e-12), positivity "
             f"{'held' if all_positive else 'VIOLATED'}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_mirror_map():
    rng = _rng(5)
    worst = 0.0
    for _ in range(50):
        lp = LambdaPair(rng.uniform(0.05, 0.7), rng.uniform(0.4, 0.95))
        tp = mirror_map(lp)
        l1, l2 = complex(lp.lambda1), complex(lp.lambda2)
        worst = max(worst, abs(lambda_hauptmodul(tp.tau1) - l1 * l1))
        worst = max(worst, abs(1.0 - lambda_hauptmodul(tp.tau2) - l2 * l2))
        # theta-quotient definition vs principal square root of the Hauptmodul
        back = inverse_mirror(tp)
        worst = max(worst, abs(complex(back.lambda1) - np.sqrt(lambda_hauptmodul(tp.tau1))))
        worst = max(worst, abs(complex(back.lambda2) - np.sqrt(1.0 - lambda_hauptmodul(tp.tau2))))
    ok = worst < 1e-10
    _verdict(5, "mirror map", ok, f"max residual {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_06_modular_pi0():
    rng = _rng(6)
    worst_bridge = 0.0
    worst_ktheta = 0.0
    done = 0
    while done < 50:
        lp = LambdaPair(rng.uniform(0.05, 0.7), rng.uniform(0.4, 0.95))
        tp = mirror_map(lp)
        l1, l2 = complex(lp.lambda1), complex(lp.lambda2)
        kform = (
            4.0 / np.pi**2 * (l1 + l2) * ellint_K(l1 * l1) * ellint_K(1.0 - l2 * l2)
        )
        worst_bridge = max(worst_bridge, abs(pi0_modular(tp) - kform))
        tau = complex(rng.uniform(-0.9, 0.9), rng.uniform(0.5, 2.0))
        lam = lambda_hauptmodul(tau)
        if lam.real > 0.95 and abs(lam.imag) < 0.01:
            continue  # K's cut [1, oo); the identity holds off the cut
        done += 1
        worst_ktheta = max(
            worst_ktheta, abs(ellint_K(lam) - np.pi / 2 * theta3(tau) ** 2)
        )
    ok = worst_bridge < 1e-10 and worst_ktheta < 1e-11
    _verdict(6, "modular expression of Pi0", ok,
             f"bridge {worst_bridge:.3e} (tol 1e-10), "
             f"K/theta identity {worst_ktheta:.3e} (tol 1e-11)")
    assert ok


def test_criterion_07_monodromy():
    started = time.perf_counter()
    s = system_2f1(Hyper2F1Params(0.5, 0.5, 1.0))
    ok = True
    details = []
    for around in (0.0, 1.0):
        m = monodromy_2f1(s, around)
        rounded = np.round(m.real)
        int_resid = float(np.max(np.abs(m - rounded)))
        unipotent = bool(np.allclose(np.linalg.eigvals(rounded), 1.0))
        member = gamma2_membership(m)
        ok = ok and int_resid < 1e-8 and unipotent and member
        details.append(f"z={around:g}: {rounded.astype(int).tolist()} "
                       f"(int resid {int_resid:.1e})")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(7, "monodromy in Gamma(2)", ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_08_connection_validation():
    rng = _rng(8)
    sys2 = system_f2(CONFORMAL)
    xs, ys = [], []
    while len(xs) < 10:
        x = rng.uniform(0.1, 0.45)
        y = rng.uniform(0.08, 0.35) * (-1 if rng.uniform() < 0.5 else 1)
        margin = min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y))
        if margin < 0.07 or abs(x) + abs(y) > 0.6:
            continue
        xs.append(x)
        ys.append(y)
    worst_flat = float(np.max(flatness_residual(sys2, xs, ys)))
    # the section's partials from the exact F2 derivative table
    d = f2_derivatives_on_arrays(CONFORMAL, xs, ys, 2)
    horiz = horizontality_residual_from_derivatives(CONFORMAL, d, xs, ys)
    assert horiz.shape == (10,)
    worst_horiz = float(np.max(horiz))
    ok = worst_flat < 1e-8 and worst_horiz < 1e-14
    _verdict(8, "connection validation", ok,
             f"flatness {worst_flat:.3e} (tol 1e-8), "
             f"horizontality {worst_horiz:.3e} (tol 1e-14)")
    assert ok


def test_criterion_09_weight_scaling_law():
    rng = _rng(9)
    samples = [
        TauPair(
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)),
            complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)),
        )
        for _ in range(5)
    ]

    def label(g, slot):
        return f"[[{g.a},{g.b}],[{g.c},{g.d}]] slot {slot}"

    ok = True
    details = []
    for g in (ModularGroupElement(1, 4, 0, 1), ModularGroupElement(1, 0, 4, 1)):
        for slot in (1, 2):
            try:
                eps = multiplier_probe(g, slot, samples)
            except NonConstantRatioError as exc:
                ok = False
                mags = ", ".join(f"{abs(r):.3f}" for r in exc.ratios)
                details.append(f"{label(g, slot)}: NOT CONSTANT (|ratios| = {mags})")
                continue
            ok = ok and abs(eps - 1.0) < 1e-8
            details.append(f"{label(g, slot)}: |eps - 1| = {abs(eps - 1.0):.1e}")

    g = ModularGroupElement(1, 0, 2, 1)
    try:
        eps = multiplier_probe(g, 2, samples)
    except NonConstantRatioError as exc:
        closed = []
        for tp in samples:
            x = theta2(tp.tau1) ** 2 * theta3(tp.tau2) ** 2
            y = theta4(tp.tau2) ** 2 * theta3(tp.tau1) ** 2
            closed.append((x - y) / (x + y))
        dev = max(abs(r - c) for r, c in zip(exc.ratios, closed))
        ok = ok and len(exc.ratios) == len(samples) and dev < 1e-12
        mags = ", ".join(f"{abs(r):.3f}" for r in exc.ratios)
        details.append(f"{label(g, 2)}: not constant as required (|ratios| = "
                       f"{mags}; vs (X - Y)/(X + Y) {dev:.1e}, tol 1e-12)")
    else:
        ok = False
        details.append(f"{label(g, 2)}: constant eps = {eps:.6f}, "
                       f"expected the theta3^2/theta4^2 obstruction")
    _verdict(9, "weight-(1,1) scaling law", ok, "; ".join(details))
    assert ok, (
        "weight-(1,1) law: eps must be 1 in both slots under the level-4 "
        "generators [[1,4],[0,1]] and [[1,0],[4,1]]; under [[1,0],[2,1]] "
        "theta3^2 and theta4^2 pick up +(2 tau + 1) and -(2 tau + 1), so the "
        "slot-2 probe must raise NonConstantRatioError with ratios "
        "(X - Y)/(X + Y), X = theta2(tau1)^2 theta3(tau2)^2, "
        "Y = theta4(tau2)^2 theta3(tau1)^2"
    )


def test_criterion_10_determinism():
    cfg = RunConfig(rng_seed=42, sample_count=6)
    _, first = run_all(cfg)
    _, second = run_all(cfg)
    a = json.dumps(first, indent=2, sort_keys=True).encode()
    b = json.dumps(second, indent=2, sort_keys=True).encode()
    ok = a == b
    _verdict(10, "report determinism", ok,
             f"two 'verify all' runs, {len(a)} bytes each, "
             f"{'identical' if ok else 'DIFFER'}")
    assert ok
