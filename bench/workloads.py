"""Seeded workloads: inputs, the calls into traintrack, and the output checks.

A workload turns a seed into a list of items (its inputs), calls the program
on one item at a time, and checks each output against a reference: mpmath at
30 digits from ``oracle.py``, or an exact value such as a monodromy matrix.
Inputs are drawn here, by the benchmark, so the program receives only the
generated numbers.  This module imports neither mpmath nor traintrack at load
time: fresh interpreters that measure set-up time import it, and must pay
only for ``import traintrack``.

Why each workload exists:

* ``verify_all``: the headline job, ``traintrack verify all --seed S`` after
  argument parsing.  Most of its time is the F2 double series, inside the
  factorization and flatness suites.
* ``kinematics``: the pairing, mirror map and its inverse at physical points.
  Its time is ``invert_T`` and scalar ``ellint_K``; F2 is never called, so an
  F2 change must show no change here.
* ``f2_hard``: F2 by series and by Euler integral in all sign quadrants and
  at complex points up to |x|+|y| = 0.95, including the same-sign region
  where the series loses digits.  The only user of the 2d tanh-sinh rule.
* ``transport``: monodromy loops and Pfaffian transport along polylines,
  where ``solve_ivp`` dominates and nothing else measures it.
"""

from __future__ import annotations

import json
import math

import numpy as np

CONFORMAL = (0.5, 0.5, 0.5, 1.0, 1.0)

# Tolerances the repository already uses for these quantities
# (verify.DEFAULT_TOLERANCES): factorization for F2 and period values,
# mirror for coordinates, monodromy for transported matrices.
TOL_F2 = 1e-9
TOL_MIRROR = 1e-10
TOL_TRANSPORT = 1e-8

# Monodromy of the Legendre K-basis (2/pi K(z), 2i/pi K(1-z)).  The basis is
# analytic on the plane cut along (-oo, 0] and [1, oo), so every basepoint
# off the cuts gives these matrices.
MONODROMY = {0.0: np.array([[1, 2], [0, 1]]), 1.0: np.array([[1, 0], [-2, 1]])}

# Criterion 9 fails by design: the modular weight probe of [[1,0],[2,1]]
# acting in slot 2.  Every other verify case must pass.
CRITERION_9 = ((1, 0, 2, 1), 2)

DIGITS_CAP = 17.0


def digits(err: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP for exact agreement."""
    if not math.isfinite(err):
        return -DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(max(err, 10.0**-DIGITS_CAP)))


def rel_err(value, ref) -> float:
    value, ref = complex(value), complex(ref)
    return abs(value - ref) / abs(ref) if ref != 0 else abs(value)


class Check:
    """Outcome of checking one item: how many sub-results, and which failed."""

    def __init__(self, count: int = 1):
        self.count = count
        self.failed = 0  # failures the benchmark does not expect
        self.by_design = 0  # failures the program reports on purpose
        self.digits = DIGITS_CAP

    def quantity(self, err: float, tol: float):
        self.digits = min(self.digits, digits(err))
        if not err <= tol:
            self.failed = 1


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class Workload:
    """A pass of inputs drawn from the seed; each call yields one result."""

    def warmup(self, tt, seed: int):
        self.call(tt, self.items(seed)[0])

    def cases(self, out) -> int:
        return 1

    def same(self, a, b) -> bool:
        return a == b


# --------------------------------------------------------------- verify_all


def _run_all(tt, seed: int, **config):
    import traintrack.verify  # noqa: F401  (the package does not import it)

    return tt.verify.run_all(tt.verify.RunConfig(rng_seed=seed, **config))


class VerifyAll(Workload):
    """One item is ``run_all(RunConfig(rng_seed=s))``; it yields 266 cases."""

    name = "verify_all"
    # run_all takes over a second, so a pass holds the fewest inputs that
    # still leave ten beyond the tail percentile.
    n_seeds = 11

    def items(self, seed: int):
        return [seed * 1000 + i for i in range(self.n_seeds)]

    def warmup(self, tt, seed: int):
        _run_all(tt, seed * 1000, sample_count=1)  # every suite, one sample each

    def call(self, tt, sub_seed: int):
        reports, combined = _run_all(tt, sub_seed)
        return reports, json.dumps(combined, indent=2, sort_keys=True) + "\n"

    def cases(self, out) -> int:
        return sum(len(r.cases) for r in out[0])

    def same(self, a, b) -> bool:
        return a[1] == b[1]

    def reference(self, oracle, items):
        return [None] * len(items)  # run_all draws its own inputs; see check

    def check(self, oracle, ref, out) -> Check:
        reports, _ = out
        chk = Check(self.cases(out))
        seen = False
        for rep in reports:
            for case in rep.cases:
                design = (
                    rep.suite == "modular"
                    and tuple(case.inputs.get("generator", ())) == CRITERION_9[0]
                    and case.inputs.get("slot") == CRITERION_9[1]
                )
                seen = seen or design
                if design and not case.passed:
                    chk.by_design += 1
                elif not case.passed or design:  # a design case that passes is a mismatch
                    chk.failed += 1
            if rep.suite == "factorization":
                for case in rep.cases:
                    ref = oracle.pi0(case.inputs["lambda1"], case.inputs["lambda2"])
                    err = max(
                        rel_err(case.outputs["pi0"], ref),
                        rel_err(case.outputs["f2_series"], ref),
                    )
                    chk.digits = min(chk.digits, digits(err))
                    if not err <= TOL_F2:
                        chk.failed += 1
        if not seen:
            chk.failed += 1
        return chk


# --------------------------------------------------------------- kinematics


class Kinematics(Workload):
    """Pairing, mirror map and inverse mirror at seeded physical points."""

    name = "kinematics"
    n_points = 60

    def items(self, seed: int):
        """Points (z1, z2) = (x, 1 - y) with (x, y) = T(lambda1, lambda2).

        The pairs are drawn in the theorem domain |L1^2| < 1, |1 - L2^2| < 1
        with |x| + |y| < 0.95; every other pair is real.
        """
        rng = _rng(seed)
        out = []
        while len(out) < self.n_points:
            imag = 0.06 if len(out) % 2 else 0.0
            l1 = complex(rng.uniform(0.03, 0.5), rng.uniform(-imag, imag))
            l2 = complex(rng.uniform(0.62, 0.97), rng.uniform(-imag, imag))
            if not (abs(l1 * l1) < 1 and abs(1 - l2 * l2) < 1):
                continue
            s2 = (l1 + l2) ** 2
            x = 4 * l1 * l2 / s2
            y = -(1 - l1 * l1) * (1 - l2 * l2) / s2
            if abs(x) + abs(y) < 0.95:
                out.append((l1, l2, x, 1.0 - y))
        return out

    def call(self, tt, item):
        _, _, z1, z2 = item
        value = tt.traintrack_value(z1, z2)
        lp = tt.invert_T(tt.ModuliPoint(z1, 1.0 - z2))
        tp = tt.mirror_map(lp)
        back = tt.inverse_mirror(tp)
        return value, tp.tau1, tp.tau2, back.lambda1, back.lambda2

    def reference(self, oracle, items):
        return [oracle.kinematics(l1, l2) for l1, l2, _, _ in items]

    def check(self, oracle, ref, out) -> Check:
        value, tau1, tau2, l1, l2 = out
        chk = Check()
        chk.quantity(rel_err(value, ref["pairing"]), TOL_F2)
        for got, key in ((tau1, "tau1"), (tau2, "tau2"), (l1, "lambda1"), (l2, "lambda2")):
            chk.quantity(rel_err(got, ref[key]), TOL_MIRROR)
        return chk


# ------------------------------------------------------------------ f2_hard


class F2Hard(Workload):
    """F2 by the double series and by the Euler integral at hard points."""

    name = "f2_hard"
    per_region = 8
    regions = ((1, 1), (1, -1), (-1, 1), (-1, -1), None)  # None: complex

    def items(self, seed: int):
        """(x, y) on a jittered grid of |x| + |y| and of |x| / (|x| + |y|).

        In each region the norms take one value from each of ``per_region``
        strata of [0.05, 0.95], crowded toward 0.95, where the series is
        deepest and, for same-sign arguments, least accurate; the split
        between |x| and |y| takes one value from each stratum of [0.1, 0.9],
        in a fixed scrambled order.  The seed moves each point inside its
        cell, and the phases of complex points likewise, so every seed costs
        about the same.  |x| + |y| < 1 keeps 1 - x t2 - y t1 zero-free on the
        unit square, so every point is also inside the Euler integral's
        domain.
        """
        rng = _rng(seed)
        n = self.per_region
        out = []
        for signs in self.regions:
            for j in range(n):
                u = (j + rng.uniform()) / n
                norm = 0.95 - 0.9 * u * u
                t = 0.1 + 0.8 * ((3 * j) % n + rng.uniform()) / n
                if signs is None:
                    cells = np.array([j, (5 * j) % n]) + rng.uniform(size=2)
                    px, py = np.exp(2j * np.pi * cells / n)
                else:
                    px, py = signs
                out.append((complex(px * t * norm), complex(py * (1 - t) * norm)))
        return out

    def call(self, tt, item):
        p = tt.F2Params(*CONFORMAL)
        pt = tt.ModuliPoint(*item)
        return tt.f2_series(p, pt), tt.f2_euler_integral(p, pt)

    def reference(self, oracle, items):
        return [oracle.f2(x, y) for x, y in items]

    def check(self, oracle, ref, out) -> Check:
        chk = Check()
        for value in out:
            chk.quantity(rel_err(value, ref), TOL_F2)
        return chk


# ---------------------------------------------------------------- transport


class Transport(Workload):
    """Legendre monodromy loops and F2 transport along polylines and back."""

    name = "transport"
    # Enough round trips, the slow items, that the tail percentile over
    # inputs falls among them.
    n_loops = 16
    n_lines = 12

    def items(self, seed: int):
        """Loops around 0 and 1 from basepoints off the cuts, and round trips.

        A loop's cost grows with its basepoint's distance from the point it
        circles (beyond 0.5 the path gains a radial leg), so the distances
        take one value from each stratum of [0.2, 0.8].

        A round trip restricts the conformal F2 system to a line x = c or
        y = c, with c near the real axis, and transports the identity along
        the polyline 0.3, 0.5, 0.7 lifted to height h, then back.  The
        stepper's step is capped by the path's clearance from the singular
        points 0, 1, 1 - c, which is about h, so the heights take one value
        from each stratum of [0.15, 0.35]: every seed then costs about the
        same.  Paths alternate between the upper and lower half-planes.
        """
        rng = _rng(seed)
        out = []
        for i in range(self.n_loops):
            around = float(i % 2)
            dist = 0.2 + 0.6 * (i // 2 + rng.uniform()) / (self.n_loops // 2)
            base = around + (1 - 2 * around) * dist * np.exp(1j * rng.uniform(-0.6, 0.6))
            out.append(("loop", around, complex(base)))
        for i in range(self.n_lines):
            fixed = complex((-1) ** i * rng.uniform(0.1, 0.4), rng.uniform(-0.03, 0.03))
            h = (-1) ** (i // 2) * (0.15 + 0.2 * (i + rng.uniform()) / self.n_lines)
            pts = tuple(
                complex(re + rng.uniform(-0.03, 0.03), h + lift)
                for re, lift in ((0.3, 0.0), (0.5, 0.05 * np.sign(h)), (0.7, 0.0))
            )
            out.append(("line", "xy"[i % 2], fixed, pts))
        return out

    def call(self, tt, item):
        if item[0] == "loop":
            _, around, base = item
            legendre = tt.system_2f1(tt.Hyper2F1Params(0.5, 0.5, 1.0))
            return tt.monodromy_2f1(legendre, around, basepoint=base)
        _, vary, fixed, pts = item
        line = tt.pfaffian.restrict_to_line(
            tt.system_f2(tt.F2Params(*CONFORMAL)), fixed, vary, (0.0, 1.0, 1.0 - fixed)
        )
        there = tt.integrate_pfaffian(line, tt.PathSpec.polyline(pts), np.eye(4))
        return tt.integrate_pfaffian(line, tt.PathSpec.polyline(pts[::-1]), there)

    def same(self, a, b) -> bool:
        return np.array_equal(a, b)

    def reference(self, oracle, items):
        return [
            MONODROMY[item[1]] if item[0] == "loop" else np.eye(4) for item in items
        ]

    def check(self, oracle, ref, out) -> Check:
        chk = Check()
        chk.quantity(float(np.max(np.abs(out - ref)) / np.max(np.abs(ref))), TOL_TRANSPORT)
        return chk


WORKLOADS = {w.name: w for w in (VerifyAll(), Kinematics(), F2Hard(), Transport())}
