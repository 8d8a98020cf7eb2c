"""Connection matrices, transport, flatness and monodromy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import traintrack

from traintrack import (
    ConvergenceError,
    DomainError,
    F2Params,
    Hyper2F1Params,
    ModuliPoint,
    PathSpec,
    PfaffianSystem1D,
    SingularityError,
    a_2f1,
    a_f2,
    gamma2_membership,
    integrate_pfaffian,
    monodromy_2f1,
    system_2f1,
    system_f2,
    tensor_system,
)
from traintrack import pfaffian
from traintrack.appell import f2_derivatives_on_arrays, f2_series_on_arrays
from traintrack.pfaffian import (
    PfaffianSystem2D,
    a_2f1_arrays,
    a_f2_arrays,
    flatness_residual,
    horizontality_residual_f2,
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
        a = a_2f1(LEGENDRE, z)
        assert a[0, 0] == 0.0
        assert a[0, 1] == pytest.approx(1.0 / z)

    def test_singular_point_raises(self):
        with pytest.raises(DomainError):
            a_2f1(LEGENDRE, 0.0)


class TestAF2:
    def test_first_rows_are_section_definition(self):
        x, y = 0.21, -0.13
        ax, ay = a_f2(CONFORMAL, ModuliPoint(x, y))
        np.testing.assert_allclose(ax[0], [0.0, 1.0 / x, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(ay[0], [0.0, 0.0, 1.0 / y, 0.0], atol=1e-15)

    def test_horizontality_of_series_section(self):
        section = lambda x, y: f2_series_on_arrays(CONFORMAL, x, y)
        r = horizontality_residual_f2(CONFORMAL, section, ModuliPoint(0.2, 0.1), 0.05)
        assert r < 1e-8

    def test_flatness_random_points(self):
        rng = _rng()
        sys2 = system_f2(CONFORMAL)
        for _ in range(10):
            x = rng.uniform(0.12, 0.45)
            y = rng.uniform(0.1, 0.3) * (-1 if rng.uniform() < 0.5 else 1)
            assert flatness_residual(sys2, x, y, radius=0.03) < 1e-8

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

    def test_cauchy_route_feeds_the_same_core(self):
        section = lambda x, y: f2_series_on_arrays(CONFORMAL, x, y)
        pt = ModuliPoint(0.2, 0.1)
        d = f2_derivatives_on_arrays(CONFORMAL, pt.x, pt.y, 2)
        exact = float(horizontality_residual_from_derivatives(CONFORMAL, d, pt.x, pt.y))
        cauchy = horizontality_residual_f2(CONFORMAL, section, pt, 0.05)
        assert exact < 1e-15 and cauchy < 1e-8

    @pytest.mark.parametrize("which", ["f2", "tensor"])
    def test_flatness_two_coefficient_calls(self, which):
        # the centres ride on the rings: two calls for all points, and per
        # point the same curvature bit for bit as four calls (two rings and
        # two centres)
        if which == "f2":
            base = system_f2(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))
        else:
            other = system_2f1(Hyper2F1Params(0.3, 0.7, 1.2))
            base = tensor_system(system_2f1(LEGENDRE), other)
        calls = []

        def counted(fn):
            def wrapper(x, y):
                calls.append(1)
                return fn(x, y)

            return wrapper

        sys2 = PfaffianSystem2D(
            base.dimension, counted(base.coefficient_x), counted(base.coefficient_y), ()
        )
        rng = _rng()
        xs = rng.uniform(0.12, 0.45, 10) + 0j
        ys = rng.uniform(0.1, 0.3, 10) * rng.choice([-1.0, 1.0], 10) + 0j
        got = flatness_residual(sys2, xs, ys, radius=0.03)
        assert len(calls) == 2 and got.shape == (10,)
        for x0, y0, one in zip(xs, ys, got):
            ring = 0.03 * np.exp(1j * (2.0 * np.pi * np.arange(24) / 24))
            norm = 24 * 0.03
            dax_dy = np.fft.fft(base.coefficient_x(x0, y0 + ring), axis=0)[1] / norm
            day_dx = np.fft.fft(base.coefficient_y(x0 + ring, y0), axis=0)[1] / norm
            ax0, ay0 = base.coefficient_x(x0, y0), base.coefficient_y(x0, y0)
            scale = max(
                np.max(np.abs(dax_dy)), np.max(np.abs(day_dx)), np.max(np.abs(ax0 @ ay0))
            )
            curv = dax_dy - day_dx + ax0 @ ay0 - ay0 @ ax0
            assert one == float(np.max(np.abs(curv)) / scale)

    def test_flatness_generic_parameters(self):
        sys2 = system_f2(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))
        assert flatness_residual(sys2, 0.25, -0.2, radius=0.05) < 1e-8

    def test_singular_locus_raises(self):
        with pytest.raises(DomainError):
            a_f2(CONFORMAL, ModuliPoint(0.0, 0.2))


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
            for got, want in zip(a_f2_arrays(p, x, y), _cramer_f2(p, x, y)):
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
        pair = lambda ax_ay: np.stack(ax_ay, axis=-3)
        return {
            "a_2f1": lambda u, v: a_2f1_arrays(LEGENDRE, u),
            "a_f2": lambda u, v: pair(a_f2_arrays(self.GENERIC, u, v)),
            "system_2f1": lambda u, v: legendre.coefficient(u),
            "system_f2_x": f2.coefficient_x,
            "system_f2_y": f2.coefficient_y,
            "tensor_u": ts.coefficient_x,
            "tensor_v": ts.coefficient_y,
            "line_x": lambda u, v: line_x.coefficient(u),
            "line_y": lambda u, v: line_y.coefficient(v),
        }

    def _per_point(self, name, u, v):
        if name == "a_2f1":
            return a_2f1(LEGENDRE, u)
        if name == "a_f2":
            return np.stack(a_f2(self.GENERIC, ModuliPoint(u, v)))
        return self._cases()[name](u, v)

    @pytest.mark.parametrize("shape", [(30,), (5, 6)])
    def test_array_call_equals_per_point_calls(self, shape):
        u, v = self._points(shape)
        for name, fn in self._cases().items():
            stack = fn(u, v)
            d = stack.shape[-1]
            assert stack.shape[: len(shape)] == shape, name
            for i, (ui, vi) in enumerate(zip(u.flat, v.flat)):
                one = self._per_point(name, complex(ui), complex(vi))
                got = stack.reshape(-1, *stack.shape[len(shape) :])[i]
                assert got.shape == one.shape and one.shape[-1] == d, name
                np.testing.assert_array_equal(got, one, err_msg=name)

    def test_system_coefficients_are_the_pair(self):
        u, v = self._points((30,))
        ax, ay = a_f2_arrays(self.GENERIC, u, v)
        f2 = system_f2(self.GENERIC)
        np.testing.assert_array_equal(f2.coefficient_x(u, v), ax)
        np.testing.assert_array_equal(f2.coefficient_y(u, v), ay)

    def test_singular_point_in_a_batch_raises(self):
        with pytest.raises(DomainError):
            a_2f1_arrays(LEGENDRE, [0.3, 1.0])
        with pytest.raises(DomainError):
            a_f2_arrays(CONFORMAL, [0.2, 0.4], [0.1, 0.6])


class TestTensorSystem:
    def test_degenerate_factor(self):
        s1 = system_2f1(LEGENDRE)
        zero = type(s1)(2, lambda z: np.zeros((2, 2), dtype=complex), ())
        ts = tensor_system(s1, zero)
        u, v = 0.3, 0.4
        np.testing.assert_allclose(
            ts.coefficient_x(u, v), np.kron(a_2f1(LEGENDRE, u), np.eye(2))
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
        s3 = type(s1)(3, lambda z: np.zeros((3, 3), dtype=complex), ())
        with pytest.raises(ValueError):
            tensor_system(s1, s3)


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
        # dY/dz = 2z Y, Y = exp(z^2): steps are capped by the segment length,
        # and the first one, whose series has a zero term 1, goes on past it
        gauss = PfaffianSystem1D(1, lambda z: 2.0 * np.asarray(z)[..., None, None], ())
        out = integrate_pfaffian(gauss, PathSpec.polyline([0.0, 1.5j]), np.eye(1))
        assert abs(out[0, 0] - np.exp(-2.25)) < 1e-14 * np.exp(-2.25)

    def test_step_that_cannot_converge_raises(self):
        # dY/dz = 200 Y is entire, so one step spans the segment; its series
        # there needs over 200 terms, beyond the 48 a step may use
        stiff = PfaffianSystem1D(1, lambda z: np.full(np.shape(z) + (1, 1), 200.0), ())
        with pytest.raises(ConvergenceError):
            integrate_pfaffian(stiff, PathSpec.polyline([0.0, 1.0]), np.eye(1))

    def test_one_coefficient_call_per_transport(self):
        # every step's ring is sampled in one call, S steps x 48 nodes
        legendre = system_2f1(LEGENDRE)
        calls = []

        def coefficient(z):
            calls.append(np.array(z))
            return legendre.coefficient(z)

        s = PfaffianSystem1D(2, coefficient, legendre.singular_points)
        counts = set()
        for path in (
            PathSpec.polyline([0.4, 0.45]),
            PathSpec.polyline([0.3 + 0.2j, 0.5 - 0.1j, 0.02 + 0.01j]),
            PathSpec.circle(0.0, 0.35, 1.0, 0.3),
        ):
            calls.clear()
            integrate_pfaffian(s, path, legendre_basis_matrix(path.sample(2)[0]))
            assert len(calls) == 1
            assert calls[0].ndim == 2 and calls[0].shape[1] == 48
            # the first ring is centred on the start of the path
            assert abs(calls[0][0].mean() - path.sample(2)[0]) < 1e-15
            counts.add(calls[0].shape[0])
        assert len(counts) == 3 and min(counts) == 1

    def test_later_step_that_cannot_converge_raises(self):
        # the steps of the short first segment converge, those of the second
        # do not; the error names the first step that failed
        stiff = PfaffianSystem1D(1, lambda z: np.full(np.shape(z) + (1, 1), 200.0), ())
        with pytest.raises(ConvergenceError, match=r"z = 0\.01\+0j "):
            integrate_pfaffian(stiff, PathSpec.polyline([0.0, 0.01, 1.0]), np.eye(1))

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

    def test_legs_and_circle_in_one_call(self, monkeypatch):
        # from 0.8 the circle about 0 is capped at radius 0.5: leg out,
        # circle and leg back are one path, one transport and one
        # coefficient call
        legendre = system_2f1(LEGENDRE)
        transports, samples = [], []

        def coefficient(z):
            samples.append(np.shape(z))
            return legendre.coefficient(z)

        def counting(*args):
            transports.append(args[1])
            return integrate(*args)

        integrate = pfaffian.integrate_pfaffian
        monkeypatch.setattr(pfaffian, "integrate_pfaffian", counting)
        s = PfaffianSystem1D(2, coefficient, legendre.singular_points)
        m = monodromy_2f1(s, 0.0, basepoint=0.8)
        assert len(transports) == 1 and len(samples) == 1
        assert [len(piece) for piece in transports[0].pieces] == [2, 4, 2]
        assert np.max(np.abs(m - np.array([[1, 2], [0, 1]]))) <= 1e-12

    def test_uncapped_loop_has_no_legs(self):
        # 0.9 + 0.02i is 0.1 from 1, so the circle passes through it; its
        # radial projection differs from it by rounding (3.5e-18), which
        # must not cost a step each way
        legendre = system_2f1(LEGENDRE)
        rings = []

        def coefficient(z):
            rings.append(np.shape(z)[0])
            return legendre.coefficient(z)

        s = PfaffianSystem1D(2, coefficient, legendre.singular_points)
        base = 0.9 + 0.02j
        monodromy_2f1(s, 1.0, basepoint=base)
        circle = PathSpec.circle(1.0, abs(base - 1.0), 1.0, float(np.angle(base - 1.0)))
        integrate_pfaffian(s, circle, np.eye(2))
        assert len(rings) == 2 and rings[0] == rings[1]


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
