"""Connection matrices, transport, flatness and monodromy."""

import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import traintrack

from traintrack import (
    ConvergenceError,
    DomainError,
    F2Params,
    Hyper2F1Params,
    PathSpec,
    PfaffianSystem1D,
    SingularityError,
    gamma2_membership,
    integrate_pfaffian,
    monodromy_2f1,
    system_2f1,
    system_f2,
    tensor_system,
)
from traintrack import pfaffian
from traintrack.appell import f2_derivatives_on_arrays
from traintrack.factorization import invert_T_arrays, period_derivatives, periods_from_lambdas
from traintrack.pfaffian import (
    PfaffianSystem2D,
    flatness_residual,
    horizontality_residual_from_derivatives,
    legendre_basis_matrix,
    restrict_to_line,
)

CONFORMAL = F2Params.conformal_case()
LEGENDRE = Hyper2F1Params(0.5, 0.5, 1.0)


def _rng():
    return np.random.Generator(np.random.Philox(4242))


def _paths_off_the_cuts():
    """Seeded paths off the cuts (-inf, 0] and [1, inf) of the Legendre basis.

    Polylines stay in the strip 0 < Re z < 1 or in one open half-plane; arcs
    stay in the strip.
    """
    rng = _rng()
    paths = []
    for i in range(12):
        n = 2 + i % 3
        if i % 2:
            re, im = rng.uniform(0.05, 0.95, n), rng.uniform(-0.6, 0.6, n)
        else:
            re = rng.uniform(-0.8, 1.8, n)
            im = (1 if i % 4 else -1) * rng.uniform(0.05, 0.6, n)
        paths.append(PathSpec.polyline(re + 1j * im))
    for _ in range(10):
        center = complex(rng.uniform(0.4, 0.6), rng.uniform(-0.2, 0.2))
        paths.append(
            PathSpec.circle(
                center,
                rng.uniform(0.1, 0.35),
                rng.uniform(-1.0, 1.0),
                rng.uniform(0.0, 2.0 * np.pi),
            )
        )
    return paths


def _split_paths():
    """Each path of ``_paths_off_the_cuts`` as a pair (a, b), b going on from a.

    The first piece is cut at a seeded fraction: a is its first part, and b
    its second part followed by the other pieces.
    """
    rng = _rng()
    pairs = []
    for path in _paths_off_the_cuts():
        first, rest, f = path.pieces[0], path.pieces[1:], rng.uniform(0.2, 0.8)
        if len(first) == 2:
            z0, z1 = first
            zm = z0 + f * (z1 - z0)
            head, tail = (z0, zm), (zm, z1)
        else:
            c, r, phi0, sweep = first
            head, tail = (c, r, phi0, f * sweep), (c, r, phi0 + f * sweep, (1 - f) * sweep)
        pairs.append((PathSpec((head,)), PathSpec((tail,) + rest)))
    return pairs


class TestA2F1:
    def test_first_row_is_section_definition(self):
        z = 0.37 + 0.11j
        a = system_2f1(LEGENDRE).coefficient(z)
        assert a[0, 0] == 0.0
        assert a[0, 1] == pytest.approx(1.0 / z)

    def test_singular_point_raises(self):
        with pytest.raises(DomainError):
            system_2f1(LEGENDRE).coefficient(0.0)


class TestAF2:
    def test_first_rows_are_section_definition(self):
        x, y = 0.21, -0.13
        s = system_f2(CONFORMAL)
        ax, ay = s.coefficient_x(x, y), s.coefficient_y(x, y)
        np.testing.assert_allclose(ax[0], [0.0, 1.0 / x, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ay[0], [0.0, 0.0, 1.0 / y, 0.0], atol=1e-15)

    def test_flatness_random_points(self):
        rng = _rng()
        sys2 = system_f2(CONFORMAL)
        for _ in range(10):
            x = rng.uniform(0.12, 0.45)
            y = rng.uniform(0.1, 0.3) * (-1 if rng.uniform() < 0.5 else 1)
            assert flatness_residual(sys2, x, y) < 1e-8

    def test_table_residual_at_criterion_8_points(self):
        # the points of acceptance criterion 8, drawn as it draws them
        rng = np.random.Generator(np.random.Philox(8))
        xs, ys = [], []
        while len(xs) < 10:
            x = rng.uniform(0.1, 0.45)
            y = rng.uniform(0.08, 0.35) * (-1 if rng.uniform() < 0.5 else 1)
            margin = min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y))
            if margin >= 0.07 and abs(x) + abs(y) <= 0.6:
                xs.append(x)
                ys.append(y)
        d = f2_derivatives_on_arrays(CONFORMAL, xs, ys, 2)
        resid = horizontality_residual_from_derivatives(CONFORMAL, d, xs, ys)
        assert resid.shape == (10,)
        assert np.max(resid) < 1e-14

    def test_table_residual_tells_the_systems_apart(self):
        generic = F2Params(0.6 + 0.1j, 0.35, 0.55, 1.3, 0.9 - 0.1j)
        x, y = np.array([0.2, -0.3 + 0.1j]), np.array([0.1 - 0.05j, 0.25])
        d = f2_derivatives_on_arrays(generic, x, y, 2)
        assert np.max(horizontality_residual_from_derivatives(generic, d, x, y)) < 1e-14
        assert np.min(horizontality_residual_from_derivatives(CONFORMAL, d, x, y)) > 1e-3

    def test_table_residual_near_x_plus_y_1_raises(self):
        # 1e-15 off x + y = 1 the coefficients are finite, but the residual
        # raises, alone and in a batch of good points
        s = system_f2(CONFORMAL)
        x, y = 0.4, 0.6 - 1e-15
        assert 0.0 < abs(1.0 - x - y) < 1e-14
        for coefficient in (s.coefficient_x, s.coefficient_y):
            assert np.isfinite(coefficient(x, y)).all()
        for xs, ys in ((x, y), ([0.2, x, -0.3], [0.1, y, 0.25])):
            d = np.ones((3, 3) + np.shape(xs))
            with pytest.raises(SingularityError):
                horizontality_residual_from_derivatives(CONFORMAL, d, xs, ys)

    @pytest.mark.parametrize("which", ["f2", "tensor"])
    def test_flatness_on_arrays_equals_per_point_calls(self, which):
        if which == "f2":
            sys2 = system_f2(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))
        else:
            other = system_2f1(Hyper2F1Params(0.3, 0.7, 1.2))
            sys2 = tensor_system(system_2f1(LEGENDRE), other)
        rng = _rng()
        xs = rng.uniform(0.12, 0.45, 10) + 0j
        ys = rng.uniform(0.1, 0.3, 10) * rng.choice([-1.0, 1.0], 10) + 0j
        got = flatness_residual(sys2, xs, ys)
        assert got.shape == (10,) and np.max(got) < 1e-14
        for x0, y0, one in zip(xs, ys, got):
            assert one == flatness_residual(sys2, x0, y0)

    def test_flatness_sees_a_perturbed_residue(self):
        # the closed form is not vacuous: moving one entry of the residue on
        # x + y = 1 by 1e-3 breaks the integrability at every point
        base = system_f2(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))
        rng = _rng()
        xs = rng.uniform(0.12, 0.45, 10)
        ys = rng.uniform(0.1, 0.3, 10) * rng.choice([-1.0, 1.0], 10)
        assert np.max(flatness_residual(base, xs, ys)) < 1e-14
        for entry in [(3, 0), (3, 3), (2, 1)]:
            residues = base.residues.copy()
            residues[4][entry] += 1e-3
            bent = PfaffianSystem2D(4, base.lines, residues)
            assert np.min(flatness_residual(bent, xs, ys)) > 1e-6, entry

    def test_flatness_generic_parameters(self):
        sys2 = system_f2(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))
        assert flatness_residual(sys2, 0.25, -0.2) < 1e-8

    def test_singular_locus_raises(self):
        with pytest.raises(DomainError):
            system_f2(CONFORMAL).coefficient_x(0.0, 0.2)

    @pytest.mark.parametrize(
        "x, y, on_x, on_y",
        [(0.0, 0.3, True, False), (1.0, 0.3, True, False), (0.3, 0.0, False, True),
         (0.3, 1.0, False, True), (0.5, 0.5, True, True)],
        ids=["x=0", "x=1", "y=0", "y=1", "x+y=1"],
    )
    def test_flatness_on_a_line_raises(self, x, y, on_x, on_y):
        # a line raises in the coefficient whose residue sum divides by it,
        # and in the curvature, alone or in a batch of good points
        sys2 = system_f2(CONFORMAL)
        for name, raises in (("coefficient_x", on_x), ("coefficient_y", on_y)):
            if raises:
                with pytest.raises(SingularityError):
                    getattr(sys2, name)(x, y)
            else:
                assert np.isfinite(getattr(sys2, name)(x, y)).all()
        for xs, ys in ((x, y), ([0.2, x, -0.3], [0.1, y, 0.25])):
            with pytest.raises(SingularityError):
                flatness_residual(sys2, xs, ys)

    @pytest.mark.parametrize("x, y", [(0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, 1.0)])
    def test_flatness_at_a_tensor_pole_raises(self, x, y):
        legendre = system_2f1(LEGENDRE)
        sys2 = tensor_system(legendre, legendre)
        for xs, ys in ((x, y), ([0.2, x], [0.4, y])):
            with pytest.raises(SingularityError):
                flatness_residual(sys2, xs, ys)
        with pytest.raises(SingularityError):
            legendre.coefficient([0.3, x, y])


def _cramer_f2(p: F2Params, x, y):
    """(A_x, A_y) of the F2 system derived from its two PDEs: the residue form's oracle.

    The section basis (F, xF_x, yF_y, xyF_xy) is closed under d/dx and d/dy:
    second derivatives come from the two defining PDEs, the third (mixed)
    ones from their first derivatives, a 2x2 linear system with determinant
    xy(1 - x - y) solved by Cramer's rule.  Each derivative is a row vector
    of coefficients on the basis, with the points on the leading axes.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    a, b1, b2, g1, g2 = (complex(v) for v in p)
    x, y = x[..., None], y[..., None]
    c1 = g1 - (a + b1 + 1.0) * x
    c2 = g2 - (a + b2 + 1.0) * y

    v_f, v_f1, v_f2, v_f3 = np.eye(4, dtype=complex)
    v_fx = v_f1 / x
    v_fy = v_f2 / y
    v_fxy = v_f3 / (x * y)
    v_fxx = (a * b1 * v_f - c1 * v_fx + b1 * v_f2 + v_f3) / (x * (1.0 - x))
    v_fyy = (a * b2 * v_f + b2 * v_f1 - c2 * v_fy + v_f3) / (y * (1.0 - y))

    # x(1-x) F_xxy - xy F_xyy = RA ;  -xy F_xxy + y(1-y) F_xyy = RB
    ra = (x - c1) * v_fxy + b1 * (1.0 + a) * v_fy + b1 * y * v_fyy
    rb = (y - c2) * v_fxy + b2 * (1.0 + a) * v_fx + b2 * x * v_fxx
    # the determinant is xy(1 - x - y), and xy F_xxy, xy F_xyy are what the
    # matrices need
    omxy = 1.0 - x - y
    xy_fxxy = y * ((1.0 - y) * ra + x * rb) / omxy
    xy_fxyy = x * (y * ra + (1.0 - x) * rb) / omxy

    ax = np.stack([v_fx, v_f1 / x + x * v_fxx, v_f3 / x, v_f3 / x + xy_fxxy], axis=-2)
    ay = np.stack([v_fy, v_f3 / y, v_f2 / y + y * v_fyy, v_f3 / y + xy_fxyy], axis=-2)
    return ax, ay


class TestResidueForm:
    """The F2 connection as constant residues over its five lines."""

    def test_equals_the_derivation_from_the_pdes(self):
        # 40 generic complex parameter sets, each at 50 seeded complex points
        rng = _rng()
        for _ in range(40):
            params = rng.uniform(-2.0, 2.0, 5) + 1j * rng.uniform(-1.0, 1.0, 5)
            p = F2Params(*params)
            x = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.0, 1.0, 50)
            y = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.0, 1.0, 50)
            s = system_f2(p)
            got_pair = s.coefficient_x(x, y), s.coefficient_y(x, y)
            for got, want in zip(got_pair, _cramer_f2(p, x, y)):
                scale = np.abs(want).max(axis=(-2, -1))
                assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-14 * scale)

    def test_integrability_is_exact(self):
        # flatness of sum R_D dlog f_D: the residues of lines that meet
        # transversally commute, and at a triple point each residue
        # commutes with the sum of the three; in exact rationals
        from fractions import Fraction as Q

        def mul(m, n):
            return [[sum(m[i][k] * n[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

        def commutes(m, n):
            return mul(m, n) == mul(n, m)

        def add(*ms):
            return [[sum(m[i][j] for m in ms) for j in range(4)] for i in range(4)]

        for params in [(Q(1, 2),) * 3 + (1, 1), (Q(3, 7), Q(-2, 5), Q(5, 3), Q(7, 4), Q(-1, 3))]:
            r_x0, r_x1, r_y0, r_y1, r_xy = pfaffian._f2_residues(F2Params(*params))
            assert commutes(r_x0, r_y0) and commutes(r_x1, r_y1)
            at_01 = add(r_x0, r_y1, r_xy)
            assert commutes(r_x0, at_01) and commutes(r_y1, at_01)
            at_10 = add(r_x1, r_y0, r_xy)
            assert commutes(r_x1, at_10) and commutes(r_y0, at_10)
            assert not commutes(r_x0, r_x1)


class TestArrayCores:
    """One array call equals the per-point calls, in 1-d and 2-d shapes."""

    GENERIC = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)

    @staticmethod
    def _points(shape):
        rng = _rng()
        n = int(np.prod(shape))
        u = rng.uniform(0.1, 0.45, n) + 1j * rng.uniform(-0.1, 0.1, n)
        v = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 0.4, n)
        v = v + 1j * rng.uniform(-0.1, 0.1, n) * (np.arange(n) % 2)
        return u.reshape(shape), v.reshape(shape)

    def _cases(self):
        legendre = system_2f1(LEGENDRE)
        f2 = system_f2(self.GENERIC)
        ts = tensor_system(legendre, system_2f1(Hyper2F1Params(0.3, 0.7, 1.2)))
        line_x = restrict_to_line(f2, 0.2 + 0.01j, "x")
        line_y = restrict_to_line(ts, 0.3, "y")
        return {
            "system_2f1": lambda u, v: legendre.coefficient(u),
            "system_f2_x": f2.coefficient_x,
            "system_f2_y": f2.coefficient_y,
            "tensor_u": ts.coefficient_x,
            "tensor_v": ts.coefficient_y,
            "line_x": lambda u, v: line_x.coefficient(u),
            "line_y": lambda u, v: line_y.coefficient(v),
        }

    @pytest.mark.parametrize("shape", [(30,), (5, 6)])
    def test_array_call_equals_per_point_calls(self, shape):
        u, v = self._points(shape)
        for name, fn in self._cases().items():
            stack = fn(u, v)
            d = stack.shape[-1]
            assert stack.shape[: len(shape)] == shape, name
            for i, (ui, vi) in enumerate(zip(u.flat, v.flat)):
                one = fn(complex(ui), complex(vi))
                got = stack.reshape(-1, *stack.shape[len(shape) :])[i]
                assert got.shape == one.shape and one.shape[-1] == d, name
                np.testing.assert_array_equal(got, one, err_msg=name)

    def test_singular_point_in_a_batch_raises(self):
        with pytest.raises(DomainError):
            system_2f1(LEGENDRE).coefficient([0.3, 1.0])
        f2 = system_f2(CONFORMAL)
        for coefficient in (f2.coefficient_x, f2.coefficient_y):
            with pytest.raises(DomainError):
                coefficient([0.2, 0.4], [0.1, 0.6])


class TestTensorSystem:
    def test_degenerate_factor(self):
        s1 = system_2f1(LEGENDRE)
        zero = PfaffianSystem1D(2, (), ())
        ts = tensor_system(s1, zero)
        u, v = 0.3, 0.4
        np.testing.assert_allclose(
            ts.coefficient_x(u, v), np.kron(s1.coefficient(u), np.eye(2))
        )
        np.testing.assert_allclose(ts.coefficient_y(u, v), np.zeros((4, 4)))

    def test_tensor_monodromy_factorizes(self):
        s1 = system_2f1(LEGENDRE)
        ts = tensor_system(s1, s1)
        v0 = 0.3
        line = restrict_to_line(ts, v0, "x", singular_points=(0.0, 1.0))
        u0 = 0.35 + 0.01j
        phi = np.kron(legendre_basis_matrix(u0), legendre_basis_matrix(v0))
        loop = PathSpec.circle(0.0, abs(u0), 1.0, float(np.angle(u0)))
        psi = integrate_pfaffian(line, loop, phi)
        m = np.linalg.solve(phi, psi)
        m0 = monodromy_2f1(s1, 0.0)
        assert np.max(np.abs(m - np.kron(m0, np.eye(2)))) < 1e-9

    @pytest.mark.parametrize("v0", [0.3, 0.6 + 0.2j, 0.45 - 0.35j])
    def test_tensor_transport_equals_kron_of_legendre_bases(self, v0):
        # On the line v = v0 the 4x4 system transports kron(Phi(u), Phi(v0)),
        # Phi the Legendre basis, which is analytic off the cuts
        s1 = system_2f1(LEGENDRE)
        line = restrict_to_line(tensor_system(s1, s1), v0, "x", (0.0, 1.0))
        phi_v = legendre_basis_matrix(v0)
        for path in _paths_off_the_cuts():
            p, q = path.sample(2)[[0, -1]]
            init = np.kron(legendre_basis_matrix(p), phi_v)
            out = integrate_pfaffian(line, path, init)
            want = np.kron(legendre_basis_matrix(q), phi_v)
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dimension_mismatch(self):
        s1 = system_2f1(LEGENDRE)
        s3 = PfaffianSystem1D(3, (), ())
        with pytest.raises(ValueError):
            tensor_system(s1, s3)


class TestRestrictToLine:
    Y0 = 0.25 + 0.01j

    def test_pole_off_the_axes_is_derived(self):
        # the F2 line y = y0 has a pole at x = 1 - y0 besides 0 and 1; no
        # caller lists it, and a path 5e-4 from it is refused
        line = restrict_to_line(system_f2(CONFORMAL), self.Y0, "x")
        assert set(line.singular_points) == {0, 1, 1 - self.Y0}
        path = PathSpec.polyline([0.5 - 0.0095j, 0.9 - 0.0095j])
        assert path.clearance([1 - self.Y0]) == pytest.approx(5e-4, rel=1e-9)
        with pytest.raises(DomainError):
            integrate_pfaffian(line, path, np.eye(4))

    def test_singular_points_that_are_not_the_poles_raise(self):
        f2 = system_f2(CONFORMAL)
        for points in [(0.0, 1.0), (0.0, 1.0, 1.0 - self.Y0, 2.0), (0.0, 1.0, 0.75)]:
            with pytest.raises(ValueError, match="poles"):
                restrict_to_line(f2, self.Y0, "x", points)
        with pytest.raises(ValueError):
            restrict_to_line(f2, self.Y0, "z")

    @pytest.mark.parametrize("vary", ["x", "y"])
    def test_poles_as_the_benchmark_lists_them(self, vary):
        # the line's coefficient is the frozen 2-d one, up to rounding
        f2 = system_f2(CONFORMAL)
        fixed = 0.3 - 0.02j
        line = restrict_to_line(f2, fixed, vary, (0.0, 1.0, 1.0 - fixed))
        z = 0.4 + 0.3j * np.arange(-3, 4)
        want = f2.coefficient_x(z, fixed) if vary == "x" else f2.coefficient_y(fixed, z)
        np.testing.assert_allclose(line.coefficient(z), want, rtol=1e-14, atol=0)


class TestNonFiniteSystems:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: restrict_to_line(system_f2(CONFORMAL), np.nan, "x"),
            lambda: restrict_to_line(system_f2(CONFORMAL), np.inf, "x"),
            lambda: restrict_to_line(system_f2(CONFORMAL), complex(0.2, -np.inf), "y"),
            lambda: PfaffianSystem1D(2, (0, np.nan), np.zeros((2, 2, 2))),
            lambda: PfaffianSystem1D(2, (0, 1), [[[0, 1], [0, np.inf]], np.zeros((2, 2))]),
            lambda: PfaffianSystem2D(4, [(1, 0, 0), (1, np.nan, 1)], np.zeros((2, 4, 4))),
            lambda: PfaffianSystem2D(1, [(1, 0, 0)], [[[complex(0, np.nan)]]]),
        ],
        ids=[
            "nan_fixed",
            "infinite_fixed",
            "infinite_fixed_y",
            "nan_pole",
            "infinite_residue",
            "nan_line",
            "nan_residue_2d",
        ],
    )
    def test_raise_at_construction(self, build):
        # before, such a system built with RuntimeWarnings and its transport
        # ended in a ConvergenceError about the Taylor tail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                build()


class TestStepTerms:
    @pytest.mark.parametrize("which", ["legendre", "f2_line", "tensor_line"])
    def test_recurrence_equals_the_convolution(self, which):
        # the closed form h A_k h^k = -sum_p R_p q_p^(k+1), q_p = h/(p - z),
        # sums to h A(z + h u) on |u| <= 0.5, step by step; the convolution
        # (k + 1) Y_{k+1} h^{k+1} = sum_j (h A_j h^j)(Y_{k-j} h^(k-j)) on it
        # gives the recurrence's terms, term by term
        legendre = system_2f1(LEGENDRE)
        s = {
            "legendre": legendre,
            "f2_line": restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x"),
            "tensor_line": restrict_to_line(tensor_system(legendre, legendre), 0.3, "y"),
        }[which]
        path = PathSpec.polyline([0.3 + 0.2j, 0.5 + 0.25j, 0.7 + 0.2j])
        z, h = pfaffian._step_plan(path, s.singular_points)
        q = h[:, None] / (s.poles - z[:, None])
        n = pfaffian._TERMS
        powers = q[:, None, :] ** np.arange(1, n + 1)[:, None]
        coeffs = -np.einsum("skp,pij->skij", powers, s.residues)

        rng = _rng()
        u = 0.5 * np.sqrt(rng.uniform(0, 1, 20)) * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
        u = np.append(u, 0.5 * np.exp(2j * np.pi * np.arange(8) / 8))
        series = np.einsum("skij,uk->suij", coeffs, u[:, None] ** np.arange(n))
        direct = h[:, None, None, None] * s.coefficient(z[:, None] + h[:, None] * u)
        scale = np.abs(direct).max(axis=(-2, -1), keepdims=True)
        assert np.all(np.abs(series - direct) <= 1e-14 * scale)

        want = np.zeros_like(coeffs)
        want[:, 0] = np.eye(s.dimension)
        for k in range(n - 1):
            want[:, k + 1] = np.einsum("sjab,sjbc->sac", coeffs[:, k::-1], want[:, : k + 1])
            want[:, k + 1] /= k + 1
        terms, form = pfaffian._step_terms(s, h / (s.poles[:, None] - z))
        for k in range(n - 1):
            form(k)
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        # terms are laid out (k, row, step, column)
        assert np.all(np.abs(terms.transpose(2, 0, 1, 3) - want) <= 1e-14 * scale)


class TestTransport:
    def test_zero_length_path(self):
        s = system_2f1(LEGENDRE)
        init = legendre_basis_matrix(0.3)
        out = integrate_pfaffian(s, PathSpec.polyline([0.3, 0.3]), init)
        np.testing.assert_array_equal(out, init)

    def test_contractible_loop(self):
        s = system_2f1(LEGENDRE)
        init = legendre_basis_matrix(0.3)
        loop = PathSpec.circle(0.3, 0.05)
        out = integrate_pfaffian(s, loop, init)
        assert np.max(np.abs(out - init)) < 1e-10

    def test_transport_matches_direct_evaluation(self):
        s = system_2f1(LEGENDRE)
        out = integrate_pfaffian(
            s, PathSpec.polyline([0.2, 0.4]), legendre_basis_matrix(0.2)
        )
        assert np.max(np.abs(out - legendre_basis_matrix(0.4))) < 1e-9

    def test_multiplicativity(self):
        s = system_2f1(LEGENDRE)
        init = legendre_basis_matrix(0.2)
        mid = integrate_pfaffian(s, PathSpec.polyline([0.2, 0.3 + 0.2j]), init)
        end_two = integrate_pfaffian(s, PathSpec.polyline([0.3 + 0.2j, 0.45]), mid)
        end_one = integrate_pfaffian(
            s, PathSpec.polyline([0.2, 0.3 + 0.2j, 0.45]), init
        )
        assert np.max(np.abs(end_one - end_two)) < 1e-10

    def test_transport_equals_legendre_basis(self):
        # Off the cuts (-inf, 0] and [1, inf) the Legendre basis is analytic,
        # so transporting its value at p to q gives its value at q
        s = system_2f1(LEGENDRE)
        for path in _paths_off_the_cuts():
            p, q = path.sample(2)[[0, -1]]
            out = integrate_pfaffian(s, path, legendre_basis_matrix(p))
            want = legendre_basis_matrix(q)
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_system_without_singular_points(self):
        # A = 0: steps are capped by the segment length, the first term of
        # each series after the identity is zero, and the steps go on past it
        free = PfaffianSystem1D(2, (), ())
        path = PathSpec.polyline([0.0, 1.5j])
        z, h = pfaffian._step_plan(path, free.singular_points)
        np.testing.assert_allclose(z, [0.0, 0.525j, 1.05j], rtol=0, atol=1e-15)
        init = legendre_basis_matrix(0.3)
        np.testing.assert_array_equal(integrate_pfaffian(free, path, init), init)

    @staticmethod
    def _pole_powers(poles, residues):
        # A = sum_p r_p/(z - p) transports 1 to prod_p ((z1 - p)/(z0 - p))^r_p;
        # the path stays in Re z >= 0.5 > Re p, where each principal branch
        # is the continued one
        s = PfaffianSystem1D(1, poles, np.reshape(residues, (-1, 1, 1)))
        z0, z1 = 0.9 + 0.4j, 0.5 - 0.6j
        out = integrate_pfaffian(s, PathSpec.polyline([z0, 0.9 - 0.3j, z1]), np.eye(1))
        want = np.prod([((z1 - p) / (z0 - p)) ** r for p, r in zip(poles, residues)])
        assert abs(out[0, 0] - want) <= 1e-14 * abs(want)

    def test_single_pole_power(self):
        self._pole_powers([0.2 + 0.1j], [0.7 - 0.3j])

    def test_several_pole_powers(self):
        # each pole keeps its own sums in the recurrence
        poles = [0.2 + 0.1j, -0.3 - 0.5j, 0.1 + 0.9j]
        self._pole_powers(poles, [0.7 - 0.3j, -0.4 + 0.25j, 0.3 + 0.6j])

    def test_step_that_cannot_converge_raises(self):
        # A = 200/z: from 0.5 a step goes 0.175 and its series,
        # (1 + 0.35 u)^200, needs far more than the 48 terms a step may use
        stiff = PfaffianSystem1D(1, [0.0], [[[200.0]]])
        with pytest.raises(ConvergenceError):
            integrate_pfaffian(stiff, PathSpec.polyline([0.5, 1.0]), np.eye(1))

    def test_later_step_that_cannot_converge_raises(self):
        # the step of the short first segment converges, those of the second
        # do not; the error names the first step that failed
        stiff = PfaffianSystem1D(1, [0.0], [[[200.0]]])
        with pytest.raises(ConvergenceError, match=r"z = 0\.5005\+0j "):
            integrate_pfaffian(stiff, PathSpec.polyline([0.5, 0.5005, 1.0]), np.eye(1))

    @staticmethod
    def _clipped_segment():
        """A segment upward from 0.5 + 0.2i: two full steps, then one of 1e-4.

        The full steps go 0.35 R, R the distance to 0 or 1, so their terms
        fall below the tail target only in the fourth block of 8; those of
        the clipped step do so in the first.
        """
        z = 0.5 + 0.2j
        for _ in range(2):
            z += 0.35j * min(abs(z), abs(z - 1.0))
        return PathSpec.polyline([0.5 + 0.2j, z + 1e-4j])

    def test_steps_that_finish_in_different_blocks(self):
        s = system_2f1(LEGENDRE)
        path = self._clipped_segment()
        p, q = path.sample(2)[[0, -1]]
        out = integrate_pfaffian(s, path, legendre_basis_matrix(p))
        want = legendre_basis_matrix(q)
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("block", [1, 3, 47])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, block):
        # a block of 1 is the test after every term; any block sums the
        # same terms, so the endpoint has the same bits
        legendre = system_2f1(LEGENDRE)
        line = restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x", (0.0, 1.0, 0.8 - 0.01j))
        cases = [(legendre, path, legendre_basis_matrix(path.sample(2)[0]))
                 for path in _paths_off_the_cuts()[::3] + [self._clipped_segment()]]
        cases.append((line, PathSpec.polyline([0.3 + 0.2j, 0.5 + 0.25j, 0.7 + 0.2j]), np.eye(4)))
        want = [integrate_pfaffian(*case) for case in cases]
        monkeypatch.setattr(pfaffian, "_TAIL_BLOCK", block)
        for case, w in zip(cases, want):
            np.testing.assert_array_equal(integrate_pfaffian(*case), w)

    @pytest.mark.parametrize("first", [1, 5, 47])
    def test_first_block_size_does_not_change_the_bits(self, monkeypatch, first):
        # the first block is sized from the largest ratio; any size sums the
        # same terms
        legendre = system_2f1(LEGENDRE)
        line = restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x", (0.0, 1.0, 0.8 - 0.01j))
        cases = [(legendre, path, legendre_basis_matrix(path.sample(2)[0]))
                 for path in _paths_off_the_cuts()[::3] + [self._clipped_segment()]]
        cases.append((line, PathSpec.polyline([0.3 + 0.2j, 0.5 + 0.25j, 0.7 + 0.2j]), np.eye(4)))
        want = [integrate_pfaffian(*case) for case in cases]
        monkeypatch.setattr(pfaffian, "_first_tail_block", lambda *_: first)
        for case, w in zip(cases, want):
            np.testing.assert_array_equal(integrate_pfaffian(*case), w)

    def test_first_block_holds_the_stop(self, monkeypatch):
        # the terms fall like q^k, q the largest ratio, so on these paths the
        # first block holds the stop: every transport forms its terms and
        # tests their tail once
        formed, firsts = [], []
        step_terms, first_block = pfaffian._step_terms, pfaffian._first_tail_block

        def counted(*args):
            terms, form = step_terms(*args)
            formed.append(0)

            def counted_form(k):
                formed[-1] += 1
                form(k)

            return terms, counted_form

        def first(*args):
            firsts.append(first_block(*args))
            return firsts[-1]

        monkeypatch.setattr(pfaffian, "_step_terms", counted)
        monkeypatch.setattr(pfaffian, "_first_tail_block", first)
        legendre = system_2f1(LEGENDRE)
        line = restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x", (0.0, 1.0, 0.8 - 0.01j))
        for around in (0.0, 1.0):
            monodromy_2f1(legendre, around)
        path = PathSpec.polyline([0.3 + 0.2j, 0.5 + 0.25j, 0.7 + 0.2j])
        integrate_pfaffian(line, path, np.eye(4))
        for path in _paths_off_the_cuts():
            integrate_pfaffian(legendre, path, np.eye(2))
        assert len(firsts) > 3 and formed == firsts
        assert all(2 < n < 32 for n in firsts)

    def test_midpoint_series_converge_in_24_terms(self, monkeypatch):
        # about its midpoint a step's terms fall like |h/2| over the distance
        # to the nearest pole, at most 0.175/0.825 = 0.212, and these paths
        # are done within 24 terms, with the bits of the 48-term cap; about
        # its start, at 0.35, they would need about 34
        legendre = system_2f1(LEGENDRE)
        line = restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x", (0.0, 1.0, 0.8 - 0.01j))
        path = PathSpec.polyline([0.3 + 0.2j, 0.5 + 0.25j, 0.7 + 0.2j])

        def transports():
            loops = [monodromy_2f1(legendre, around) for around in (0.0, 1.0)]
            return loops + [integrate_pfaffian(line, path, np.eye(4))]

        want = transports()
        monkeypatch.setattr(pfaffian, "_TERMS", 24)
        for got, w in zip(transports(), want):
            np.testing.assert_array_equal(got, w)

    def test_step_plan_equals_the_loop(self):
        # the plan's centres and steps, against the loop over the path's
        # pieces and the singular points that transport has always used
        def loop(path, sing):
            plan = []
            for pos, length in path.segments():
                t, z = 0.0, complex(pos(0.0))
                while t < 1.0:
                    radius = min((abs(z - p) for p in sing), default=length)
                    dt = 0.35 * radius / length
                    t_next = 1.0 if t + dt >= 1.0 else t + dt
                    plan.append((z, complex(pos(t_next)) - z))
                    t, z = t_next, complex(pos(t_next))
            return plan

        legendre = system_2f1(LEGENDRE).singular_points
        line = restrict_to_line(system_f2(CONFORMAL), 0.2 + 0.01j, "x").singular_points
        paths = _paths_off_the_cuts() + [self._clipped_segment()]
        for path in paths + [PathSpec.circle(0.0, 0.35, 1.0, 0.3)]:
            for sing in (legendre, line, ()):
                z, h = pfaffian._step_plan(path, sing)
                assert list(zip(z.tolist(), h.tolist())) == loop(path, sing)

    def test_zero_turn_arc(self):
        s = system_2f1(LEGENDRE)
        init = legendre_basis_matrix(0.3)
        out = integrate_pfaffian(s, PathSpec.circle(0.25, 0.05, 0.0), init)
        np.testing.assert_array_equal(out, init)

    def test_clearance_between_samples(self):
        # the singular point 1 is 9e-4 from the segment, but more than that
        # from every one of 2,048 samples of it
        s = system_2f1(LEGENDRE)
        path = PathSpec.polyline([-4 + 9e-4j, 6 + 9e-4j])
        assert path.clearance(s.singular_points) == pytest.approx(9e-4, rel=1e-9)
        with pytest.raises(DomainError):
            integrate_pfaffian(s, path, np.eye(2))

    def test_arc_does_not_count_points_in_its_gap(self):
        # the circle passes 5e-4 from 0 and 1, which lie in the arc's gap:
        # the arc is as far from them as its ends are
        s = system_2f1(LEGENDRE)
        arc = PathSpec.circle(0.5, 0.5005, 0.25, np.pi / 4)
        end = 0.5 + 0.5005 * np.exp(0.25j * np.pi)
        gap = abs(end - 1.0)
        assert arc.clearance(s.singular_points) == pytest.approx(gap, rel=1e-12)
        out = integrate_pfaffian(s, arc, legendre_basis_matrix(end))
        want = legendre_basis_matrix(arc.sample(2)[-1])
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
        with pytest.raises(DomainError):
            integrate_pfaffian(s, PathSpec.circle(0.5, 0.5005), np.eye(2))

    def test_clearance_against_dense_samples(self):
        # the exact clearance is at most the least distance to samples of
        # the path, and short of it by at most half the sample spacing
        rng = _rng()
        points = rng.uniform(-1, 2, 6) + 1j * rng.uniform(-1, 1, 6)
        for path in _paths_off_the_cuts() + [
            PathSpec.polyline([0.2 + 0.1j]),
            PathSpec.circle(0.5, 0.4, -2.5, 1.0),
        ]:
            pts = path.sample(20001)
            sampled = np.min(np.abs(pts[:, None] - points))
            spacing = np.max(np.abs(np.diff(pts)), initial=0.0)
            exact = path.clearance(points)
            assert sampled - 0.5 * spacing - 1e-12 <= exact <= sampled + 1e-12

    def test_chain_equals_transport_piece_after_piece(self):
        # one call along a + b batches the steps of both; the propagators
        # are those of b after a
        s = system_2f1(LEGENDRE)
        for a, b in _split_paths():
            init = legendre_basis_matrix(a.sample(2)[0])
            want = integrate_pfaffian(s, b, integrate_pfaffian(s, a, init))
            out = integrate_pfaffian(s, a + b, init)
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_chain_clearance_is_least_of_its_parts(self):
        rng = _rng()
        points = rng.uniform(-1, 2, 6) + 1j * rng.uniform(-1, 1, 6)
        paths = _paths_off_the_cuts()
        # consecutive paths, joined by a segment from the end of one to the
        # start of the next
        bridged = [
            (a, PathSpec.polyline([a.sample(2)[-1], b.sample(2)[0]]) + b)
            for a, b in zip(paths, paths[1:])
        ]
        for a, b in _split_paths() + bridged:
            assert (a + b).pieces == a.pieces + b.pieces
            want = min(a.clearance(points), b.clearance(points))
            assert (a + b).clearance(points) == want

    def test_chains_that_do_not_join_raise(self):
        with pytest.raises(ValueError, match="do not join"):
            PathSpec.polyline([0.2, 0.3]) + PathSpec.polyline([0.5, 0.6])
        with pytest.raises(ValueError, match="do not join"):
            PathSpec.circle(0.5, 0.3) + PathSpec.polyline([0.8 + 1e-9j, 0.9])
        with pytest.raises(ValueError, match="do not join"):
            PathSpec(((0.2, 0.3), (0.5, 0.6)))
        # a circle through 0.9 + 0.02i starts 2e-17 from it, rounded from its
        # angle, and still joins a segment that ends there
        base = 0.9 + 0.02j
        leg = PathSpec.polyline([0.5, base])
        circle = PathSpec.circle(1.0, abs(base - 1.0), 1.0, float(np.angle(base - 1.0)))
        assert circle.sample(2)[0] != base
        assert (leg + circle).pieces == leg.pieces + circle.pieces

    def test_chain_built_by_plus_checks_each_join_once(self, monkeypatch):
        # a + b checks only the join of a and b, both checked when built: a
        # chain of 50 pieces built by 49 additions checks 49 joins, as the
        # chain built in one go does, and a bad join still raises
        points = 0.5 + 0.4 * np.exp(0.1j * np.arange(51))
        pieces = [PathSpec.polyline(points[i : i + 2]) for i in range(50)]
        calls = []
        ends = pfaffian._piece_ends
        monkeypatch.setattr(pfaffian, "_piece_ends", lambda piece: calls.append(piece) or ends(piece))
        chain = pieces[0]
        for piece in pieces[1:]:
            chain = chain + piece
        assert len(calls) == 2 * 49
        one_shot = PathSpec.polyline(points)
        assert len(calls) == 4 * 49
        assert chain == one_shot and chain.pieces == one_shot.pieces
        with pytest.raises(ValueError, match="do not join"):
            chain + PathSpec.polyline([points[-1] + 1e-6, 0.1])
        with pytest.raises(ValueError, match="do not join"):
            pieces[0] + pieces[2]

    @pytest.mark.parametrize(
        "build",
        [
            # the arc's length would be negative, so its steps would go
            # backwards and transport would never reach its end
            lambda: PathSpec.circle(0.5, -0.1),
            lambda: PathSpec.polyline([0.3 + 0.1j, np.inf]),
            lambda: PathSpec.polyline([complex(0.3, np.nan), 0.5]),
            lambda: PathSpec.circle(0.5, 0.1, np.nan),
            lambda: PathSpec.circle(complex(np.inf, 0.0), 0.1),
            lambda: PathSpec.circle(0.5, np.inf),
            lambda: PathSpec.circle(0.5, 0.1, 1.0, -np.inf),
            lambda: PathSpec(((0.5, -0.1, 0.0, 1.0),)),
            # finite numbers, but a length that overflows: the first step
            # would be 0, and the plan would never end
            lambda: PathSpec.circle(0.5, 1e308),
            lambda: PathSpec.polyline([-1e308, 1e308]),
        ],
        ids=[
            "negative_radius",
            "infinite_end",
            "nan_start",
            "nan_turns",
            "infinite_centre",
            "infinite_radius",
            "infinite_start_angle",
            "negative_radius_piece",
            "arc_of_infinite_length",
            "segment_of_infinite_length",
        ],
    )
    def test_pieces_transport_cannot_follow_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_circle_of_radius_zero_is_a_point(self):
        circle = PathSpec.circle(0.5, 0.0)
        assert circle.segments() == []
        assert circle.clearance([0.0]) == 0.5

    def test_path_without_pieces_raises(self):
        with pytest.raises(ValueError):
            PathSpec.polyline([])
        with pytest.raises(ValueError):
            PathSpec(())

    def test_clearance_violation(self):
        s = system_2f1(LEGENDRE)
        with pytest.raises(DomainError):
            integrate_pfaffian(
                s, PathSpec.polyline([0.2, 1e-5]), legendre_basis_matrix(0.2)
            )


class TestMonodromy:
    def test_loop_around_zero(self):
        s = system_2f1(LEGENDRE)
        m = monodromy_2f1(s, 0.0)
        r = np.round(m.real)
        assert np.max(np.abs(m - r)) < 1e-8
        assert abs(r[0, 1]) == 2 or abs(r[1, 0]) == 2
        assert np.allclose(np.linalg.eigvals(r), 1.0)
        assert gamma2_membership(m)

    def test_loop_around_one(self):
        s = system_2f1(LEGENDRE)
        m = monodromy_2f1(s, 1.0)
        r = np.round(m.real)
        assert np.max(np.abs(m - r)) < 1e-8
        assert abs(r[0, 1]) == 2 or abs(r[1, 0]) == 2
        assert np.allclose(np.linalg.eigvals(r), 1.0)
        assert gamma2_membership(m)

    def test_product_not_elliptic(self):
        s = system_2f1(LEGENDRE)
        m0 = np.round(monodromy_2f1(s, 0.0).real)
        m1 = np.round(monodromy_2f1(s, 1.0).real)
        assert abs(np.trace(m0 @ m1)) >= 2


    @pytest.mark.parametrize("base", [0.2 + 0.05j, 0.35 + 0.01j, 0.7 - 0.1j, 0.9 + 0.02j])
    def test_generators_from_basepoints(self, base):
        # capped loops (0.2 + 0.05i about 1, 0.7 - 0.1i about 0) and uncapped
        # ones: leg out, circle and leg back join up to the circle's rounding
        s = system_2f1(LEGENDRE)
        for around, want in ((0.0, [[1, 2], [0, 1]]), (1.0, [[1, 0], [-2, 1]])):
            m = monodromy_2f1(s, around, basepoint=base)
            assert np.max(np.abs(m - np.array(want))) <= 1e-12

    @staticmethod
    def _transported(monkeypatch):
        """The paths of the integrate_pfaffian calls made from now on."""
        integrate, paths = pfaffian.integrate_pfaffian, []

        def counting(*args):
            paths.append(args[1])
            return integrate(*args)

        monkeypatch.setattr(pfaffian, "integrate_pfaffian", counting)
        return paths

    def test_legs_and_circle_in_one_call(self, monkeypatch):
        # from 0.8 the circle about 0 is capped at radius 0.5: leg out,
        # circle and leg back are one path and one transport
        transports = self._transported(monkeypatch)
        m = monodromy_2f1(system_2f1(LEGENDRE), 0.0, basepoint=0.8)
        assert len(transports) == 1
        assert [len(piece) for piece in transports[0].pieces] == [2, 4, 2]
        assert np.max(np.abs(m - np.array([[1, 2], [0, 1]]))) <= 1e-12

    def test_uncapped_loop_has_no_legs(self, monkeypatch):
        # 0.9 + 0.02i is 0.1 from 1, so the circle passes through it; its
        # radial projection differs from it by rounding (3.5e-18), which
        # must not cost a step each way
        legendre = system_2f1(LEGENDRE)
        transports = self._transported(monkeypatch)
        base = 0.9 + 0.02j
        monodromy_2f1(legendre, 1.0, basepoint=base)
        circle = PathSpec.circle(1.0, abs(base - 1.0), 1.0, float(np.angle(base - 1.0)))
        assert len(transports) == 1
        for got, want in zip(
            pfaffian._step_plan(transports[0], legendre.singular_points),
            pfaffian._step_plan(circle, legendre.singular_points),
        ):
            np.testing.assert_array_equal(got, want)


    @pytest.mark.parametrize(
        "around, base",
        [(0.0, 0.8), (1.0, 0.35 + 0.01j), (0.0, 0.35 + 0.01j), (1.0, 0.9 + 0.02j)],
    )
    def test_loop_is_leg_circle_leg(self, monkeypatch, around, base):
        # the first two are capped at radius 0.5; uncapped, the circle runs
        # through the basepoint and both legs have length 0
        transports = self._transported(monkeypatch)
        monodromy_2f1(system_2f1(LEGENDRE), around, basepoint=base)
        around, base = complex(around), complex(base)
        d = abs(base - around)
        start = base if d <= 0.5 else around + 0.5 * (base - around) / d
        chain = (
            PathSpec.polyline([base, start])
            + PathSpec.circle(around, min(d, 0.5), 1.0, float(np.angle(start - around)))
            + PathSpec.polyline([start, base])
        )
        assert transports[0].pieces == chain.pieces
        legs = transports[0].pieces[0], transports[0].pieces[2]
        assert (legs == ((base, base),) * 2) == (d <= 0.5)


class TestLegendreBasis:
    def test_against_mpmath(self):
        # columns (f, z f') of (2/pi)K(z) and (2i/pi)K(1 - z), with
        # dK/dm = (E - (1 - m)K)/(2m(1 - m)), at 30 digits
        import mpmath as mp

        mp.mp.dps = 30
        rng = _rng()
        for z in rng.uniform(-0.5, 1.5, 12) + 1j * rng.uniform(-0.8, 0.8, 12):
            want = np.empty((2, 2), dtype=complex)
            for col, (m, scale, sign) in enumerate(((z, 2, 1), (1 - z, 2j, -1))):
                m = mp.mpc(m)
                k, e = mp.ellipk(m), mp.ellipe(m)
                dk = (e - (1 - m) * k) / (2 * m * (1 - m))
                want[0, col] = complex(scale / mp.pi * k)
                want[1, col] = complex(sign * scale / mp.pi * mp.mpc(z) * dk)
            got = legendre_basis_matrix(z)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), z

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_singular_points_raise(self, z):
        with pytest.raises(SingularityError):
            legendre_basis_matrix(z)


class TestGamma2Membership:
    def test_identity(self):
        assert gamma2_membership(np.eye(2))

    def test_standard_generator(self):
        assert gamma2_membership(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_odd_translation_rejected(self):
        assert not gamma2_membership(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_four_by_four(self):
        # congruence to the identity of the matrix's own size
        assert gamma2_membership(np.kron([[1.0, 2.0], [0.0, 1.0]], np.eye(2)))
        odd = np.eye(4)
        odd[1, 2] = 1.0
        assert not gamma2_membership(odd)

    def test_non_integral_raises(self):
        with pytest.raises(ValueError):
            gamma2_membership(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_scipy_is_never_imported():
    # numpy is the only numerical dependency: scipy loads neither with the
    # package, nor for transport, nor for a verify run
    code = (
        "import sys, traintrack, traintrack.cli, traintrack.verify\n"
        "assert 'scipy' not in sys.modules, 'imported with the package'\n"
        "traintrack.monodromy_2f1(\n"
        "    traintrack.system_2f1(traintrack.Hyper2F1Params(0.5, 0.5, 1.0)), 0.0)\n"
        "assert 'scipy' not in sys.modules, 'imported by transport'\n"
        "traintrack.verify.run_all(traintrack.verify.RunConfig(sample_count=1))\n"
        "assert 'scipy' not in sys.modules, 'imported by verify'\n"
    )
    src = str(Path(traintrack.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _benchmark_transport():
    """The benchmark's transport workload; its source is read, not imported,
    so nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    workloads = types.ModuleType("bench_workloads")
    exec(compile(path.read_text(), str(path), "exec"), workloads.__dict__)
    return workloads.Transport()


def test_benchmark_transport_items_pass():
    # the benchmark calls restrict_to_line and integrate_pfaffian itself:
    # one loop and one line item of its transport workload, run through its
    # own call and check
    transport = _benchmark_transport()
    items = transport.items(0)
    for kind in ("loop", "line"):
        item = next(it for it in items if it[0] == kind)
        ref = transport.reference(None, [item])[0]
        check = transport.check(None, ref, transport.call(traintrack, item))
        assert check.failed == 0, item


def test_f2_line_transport_equals_the_periods():
    # The periods solve the F2 system, so transport along a line takes
    # Phi(p), whose column i is the section (Pi_i, x Pi_i,x, y Pi_i,y,
    # xy Pi_i,xy), to Phi(q), unless a period jumps on the way.  The line
    # items of the transport workload at seed 7 go from p to q; one crosses
    # the cut of K(L2^2), where Pi2 and Pi3 jump, and is left out.
    def phi(vary, fixed, w):
        x, y = (w, fixed) if vary == "x" else (fixed, w)
        d = period_derivatives(x, y)
        return np.array([d[0, 0], x * d[1, 0], y * d[0, 1], x * y * d[1, 1]])

    lines = [item[1:] for item in _benchmark_transport().items(7) if item[0] == "line"]
    checked = 0
    for vary, fixed, pts in lines:
        path = PathSpec.polyline(pts)
        w = path.sample(2000)
        x, y = (w, fixed) if vary == "x" else (fixed, w)
        periods = np.array(periods_from_lambdas(*invert_T_arrays(x, y)))
        if np.abs(np.diff(periods)).max() > 1e-2 * np.abs(periods).max():
            continue
        line = restrict_to_line(system_f2(CONFORMAL), fixed, vary)
        out = integrate_pfaffian(line, path, phi(vary, fixed, pts[0]))
        want = phi(vary, fixed, pts[-1])
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
        checked += 1
    assert checked >= 0.75 * len(lines)
