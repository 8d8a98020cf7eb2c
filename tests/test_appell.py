"""Appell F2: series vs integral vs defining PDEs, and the series vs mpmath."""

import importlib.util
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from traintrack import (
    ConvergenceError,
    DomainError,
    F2Params,
    Hyper2F1Params,
    LambdaPair,
    ModuliPoint,
    QuadratureControl,
    SeriesControl,
    SingularityError,
    f2_euler_integral,
    f2_pde_residual,
    f2_series,
    f2_series_on_arrays,
    gauss_2f1,
    period_basis,
    quadratic_criterion,
)
from traintrack import appell
from traintrack.appell import _f2_euler, _f2_row_sum

_BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFORMAL = F2Params.conformal_case()


def _rng():
    return np.random.Generator(np.random.Philox(915))


def _random_interior_points(rng, n, cap=0.8):
    pts = []
    while len(pts) < n:
        x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        if abs(x) + abs(y) > cap:
            continue
        if min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y)) < 0.05:
            continue
        pts.append(ModuliPoint(x, y))
    return pts


def _mp_f2(p, x, y, dps=20):
    with mp.workdps(dps):
        return complex(mp.appellf2(p.alpha, p.beta1, p.beta2, p.gamma1, p.gamma2, x, y))


def _quadrant_points(rng, per_region):
    """Points in the four sign quadrants and at complex phases, |x|+|y| <= 0.95.

    In each region the norms |x| + |y| take one value from each of
    ``per_region`` strata of [0.05, 0.95].
    """
    pts = []
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1), None):
        for j in range(per_region):
            norm = 0.05 + 0.9 * (j + rng.uniform()) / per_region
            t = rng.uniform(0.1, 0.9)
            if signs is None:
                px, py = np.exp(2j * np.pi * rng.uniform(size=2))
            else:
                px, py = signs
            pts.append(ModuliPoint(complex(px * t * norm), complex(py * (1 - t) * norm)))
    return pts


_param = st.floats(0.1, 1.5)
_bottom = st.floats(0.5, 2.5)
_interior_point = st.builds(
    lambda r, t, px, py: (
        r * t * np.exp(2j * np.pi * px),
        r * (1 - t) * np.exp(2j * np.pi * py),
    ),
    st.floats(0.0, 0.9),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


class TestSeries:
    def test_origin(self):
        assert f2_series(CONFORMAL, ModuliPoint(0.0, 0.0)) == 1.0

    def test_collapse_to_2f1(self):
        p = F2Params(0.7, 0.4, 0.3, 1.2, 1.1)
        for x in (0.3, -0.45 + 0.1j):
            got = f2_series(p, ModuliPoint(x, 0.0))
            want = gauss_2f1(Hyper2F1Params(0.7, 0.4, 1.2), x)
            assert abs(got - want) < 1e-10
            # symmetric degeneration in the other slot
            got_y = f2_series(p, ModuliPoint(0.0, x))
            want_y = gauss_2f1(Hyper2F1Params(0.7, 0.3, 1.1), x)
            assert abs(got_y - want_y) < 1e-10

    def test_divergence_error(self):
        with pytest.raises(DomainError):
            f2_series(CONFORMAL, ModuliPoint(0.6, 0.5))

    def test_symmetry_swap(self):
        rng = _rng()
        p = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        for pt in _random_interior_points(rng, 10):
            a = f2_series(p, pt)
            b = f2_series(p.swapped(), ModuliPoint(pt.y, pt.x))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_array_evaluation_matches_scalar(self):
        # Each point's arithmetic is elementwise and it stops on its own tail
        # estimate, so its value is bit for bit its value alone, whichever
        # points share its array: easy ones next to deep ones.
        xs = np.array([0.1, 0.2 + 0.05j, -0.3, 0.475, 0.089, 0.0, 0.01, -0.6])
        ys = np.array([0.2, -0.1, 0.15 - 0.02j, 0.475, 0.9, 0.5, 0.0, -0.35j])
        rng = _rng()
        more = rng.uniform(-0.45, 0.45, 40) + 0.05j * rng.uniform(-1, 1, 40)
        xs = np.concatenate([xs, more])
        ys = np.concatenate([ys, rng.uniform(-0.45, 0.45, 40)])
        alone = np.array([f2_series(CONFORMAL, ModuliPoint(*pt)) for pt in zip(xs, ys)])
        for order in (np.arange(48), np.arange(48)[::-1], rng.permutation(48)):
            vals = f2_series_on_arrays(CONFORMAL, xs[order], ys[order])
            assert np.array_equal(vals, alone[order])
        grid = f2_series_on_arrays(CONFORMAL, xs.reshape(6, 8), ys.reshape(6, 8))
        assert np.array_equal(grid, alone.reshape(6, 8))

    def test_against_mpmath_all_quadrants(self):
        # same-sign points near |x| + |y| = 0.95 are the hardest for the series
        rng = np.random.Generator(np.random.Philox(2024))
        generic = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        for p, per_region in ((CONFORMAL, 9), (generic, 2)):
            pts = _quadrant_points(rng, per_region)
            xs = np.array([pt.x for pt in pts])
            ys = np.array([pt.y for pt in pts])
            vals = f2_series_on_arrays(p, xs, ys)
            for pt, v in zip(pts, vals):
                ref = _mp_f2(p, pt.x, pt.y)
                assert abs(v - ref) <= 1e-13 * abs(ref), (p, pt)

    def test_ladder_overflow_guard_near_y_one(self):
        # |x| + |y| = 0.989: about 300 rows, where 2F1(1/2 + m, 1/2; 1; 0.9)
        # grows like 10^m and would overflow
        v = f2_series(CONFORMAL, ModuliPoint(0.089, 0.9))
        ref = _mp_f2(CONFORMAL, 0.089, 0.9)
        assert np.isfinite(v)
        assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_minimal_ladder_closed_form(self):
        # beta2 = gamma2: the ladder (1-y)^(-a-m) is the minimal solution of
        # the recurrence for y < 0, and F2 = (1-y)^-a 2F1(a, b1; c1; x/(1-y))
        a, b1, c1 = 0.7, 0.4, 1.2
        p = F2Params(a, b1, 1.0, c1, 1.0)
        for x, y in ((0.3, -0.6), (0.05, -0.94), (-0.5, -0.4), (0.39, -0.6 + 0.1j)):
            with mp.workdps(30):
                w = 1 - mp.mpc(y)
                ref = complex(w**-a * mp.hyp2f1(a, b1, c1, x / w))
            v = f2_series(p, ModuliPoint(x, y))
            assert abs(v - ref) <= 1e-13 * abs(ref)

    def test_tail_estimate_measures_truncation(self):
        # with a loose tolerance truncation dominates rounding, so the
        # reported estimate can be compared with the actual error
        for x, y in ((0.36, -0.1881), (0.8, 0.15), (-0.7, 0.2), (0.2j, 0.7)):
            v, est = _f2_row_sum(CONFORMAL, x, y, SeriesControl(rel_tol=1e-6))
            actual = abs(complex(v) - _mp_f2(CONFORMAL, x, y))
            assert 0.5 * actual <= float(est) <= 50 * actual

    def test_terminating_alpha(self):
        # alpha = -2: rows beyond m = 2 vanish and the ladder recurrence, which
        # divides by alpha + m, must stop there
        p = F2Params(-2.0, 0.5, 0.7, 1.0, 1.3)
        for x, y in ((0.3, 0.2), (-0.6, 0.35j)):
            ref = _mp_f2(p, x, y)
            assert abs(f2_series(p, ModuliPoint(x, y)) - ref) <= 1e-14 * abs(ref)

    def test_max_terms_exhausted(self):
        with pytest.raises(ConvergenceError):
            f2_series(CONFORMAL, ModuliPoint(0.45, 0.45), SeriesControl(max_terms=8))

    @given(
        st.tuples(_param, _param, _param, _bottom, _bottom),
        _interior_point,
    )
    def test_swap_symmetry_property(self, params, point):
        p = F2Params(*params)
        x, y = point
        a = f2_series(p, ModuliPoint(x, y))
        b = f2_series(p.swapped(), ModuliPoint(y, x))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @given(st.tuples(_param, _param, _param, _bottom, _bottom), _interior_point)
    def test_collapse_to_2f1_property(self, params, point):
        p = F2Params(*params)
        z = point[0] + point[1]  # |z| <= 0.9
        on_x = gauss_2f1(Hyper2F1Params(p.alpha, p.beta1, p.gamma1), z)
        on_y = gauss_2f1(Hyper2F1Params(p.alpha, p.beta2, p.gamma2), z)
        got_x = f2_series(p, ModuliPoint(z, 0.0))
        got_y = f2_series(p, ModuliPoint(0.0, z))
        assert abs(got_x - on_x) <= 1e-12 * max(1.0, abs(on_x))
        assert abs(got_y - on_y) <= 1e-12 * max(1.0, abs(on_y))

    def test_parameter_pole_guard(self):
        with pytest.raises(DomainError):
            F2Params(0.5, 0.5, 0.5, 0.0, 1.0)


class TestEulerIntegral:
    def test_origin_normalization(self):
        # the Beta-function prefactor cancels exactly at (0, 0)
        assert f2_euler_integral(CONFORMAL, ModuliPoint(0.0, 0.0)) == pytest.approx(
            1.0, abs=1e-11
        )

    def test_against_series_point(self):
        pt = ModuliPoint(0.2, 0.1)
        got = f2_euler_integral(CONFORMAL, pt)
        assert abs(got - f2_series(CONFORMAL, pt)) < 1e-8

    def test_theorem_point_against_period(self):
        # independent of the series route: quadrature vs K-products
        pi0 = period_basis(LambdaPair(0.1, 0.9)).pi0
        got = f2_euler_integral(CONFORMAL, ModuliPoint(0.36, -0.1881))
        assert abs(got - pi0) < 1e-8

    def test_triangle_identity_random(self):
        rng = _rng()
        for pt in _random_interior_points(rng, 20):
            a = f2_series(CONFORMAL, pt)
            b = f2_euler_integral(CONFORMAL, pt)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize(
        "x, y",
        [(0.6, 0.3), (0.8, 0.15), (0.36, -0.1881), (-0.7, -0.2), (0.5 + 0.3j, 0.2),
         (0.05, 0.9), (-0.45, 0.5)],
    )
    def test_error_covers_mpmath(self, x, y):
        # the last-level delta alone read 0 to 3.6e-16 here, against errors
        # of 1.1e-15 to 2.0e-15: the rounding of the last level dominates
        value, err = _f2_euler(CONFORMAL, ModuliPoint(x, y))
        assert abs(value - _mp_f2(CONFORMAL, x, y)) <= err

    def test_parameter_precondition(self):
        bad = F2Params(0.5, 1.5, 0.5, 1.0, 1.0)  # Re(gamma1) < Re(beta1)
        with pytest.raises(DomainError):
            f2_euler_integral(bad, ModuliPoint(0.1, 0.1))

    def test_singular_factor_guard(self):
        # 1 - x t2 - y t1 vanishes on the square when x + y = 1 with x, y > 0
        with pytest.raises(DomainError):
            f2_euler_integral(CONFORMAL, ModuliPoint(0.5, 0.5))

    @pytest.mark.parametrize(
        "x, y",
        [(0.9, 0.3), (0.6, 0.6), (0.7 + 0.05j, 0.5 - 0.05j), (1.3, 0.0),
         (0.5, 0.5), (1.1, -0.05), (0.55, 0.5)],
    )
    def test_zero_of_the_linear_factor_is_found(self, x, y):
        # zeros between the points of a grid scan, and on an edge of the square
        with pytest.raises(SingularityError):
            _f2_euler(CONFORMAL, ModuliPoint(x, y))

    def test_benchmark_points_are_not_singular(self):
        spec = importlib.util.spec_from_file_location("workloads", _BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for x, y in workloads.WORKLOADS["f2_hard"].items(0):
            _, err = _f2_euler(CONFORMAL, ModuliPoint(x, y))
            assert err < 1e-13

    @pytest.mark.parametrize(
        "p, x, y",
        [(F2Params(0.6, 0.35, 0.55, 1.3, 0.9), 0.2, 0.1),
         (F2Params(0.7, 0.3, 0.4, 1.1, 0.8), -0.3, 0.4 + 0.2j)],
    )
    def test_endpoint_exponents_below_minus_half(self, p, x, y):
        # the endpoint powers overflowed at the outermost nodes when they
        # were applied to the integrand instead of the weights
        value, err = _f2_euler(p, ModuliPoint(x, y))
        ref = _mp_f2(p, x, y, dps=30)
        assert abs(value - ref) <= 1e-13 * abs(ref)
        assert abs(value - ref) <= err

    @pytest.mark.parametrize(
        "p, x, y",
        [(F2Params(0.5 + 0.2j, 0.5, 0.5, 1.0, 1.0), 0.3, -0.2),
         (F2Params(0.7 - 0.3j, 0.4, 0.6, 1.3, 1.1), -0.4, 0.35),
         (F2Params(0.6 + 0.1j, 0.5, 0.5, 1.0, 1.0), 0.2 + 0.3j, -0.1)],
    )
    def test_complex_alpha(self, p, x, y):
        value, err = _f2_euler(p, ModuliPoint(x, y))
        ref = _mp_f2(p, x, y, dps=30)
        assert abs(value - ref) <= min(err, 1e-13 * abs(ref))

    @pytest.mark.parametrize(
        "a, x, y",
        [(0.5, 0.6, 0.3), (0.5, -0.7, -0.2), (1.5, 0.5 + 0.3j, 0.2), (-0.4, 0.8, -0.15),
         (0.5 + 0.2j, 0.3, -0.6j)],
    )
    def test_kernel_bound(self, a, x, y, monkeypatch):
        # the bound passed to the quadrature covers |1 - x t2 - y t1|^-a on
        # the closed square, and is tight for real a > 0
        bounds = []

        def recording(kernel, exponents, bound, **kwargs):
            bounds.append(bound)
            return integrate(kernel, exponents, bound, **kwargs)

        integrate = appell.integrate_01_2d
        monkeypatch.setattr(appell, "integrate_01_2d", recording)
        _f2_euler(F2Params(a, 0.5, 0.5, 1.0, 1.0), ModuliPoint(x, y))
        t = np.linspace(0.0, 1.0, 401)
        top = np.max(np.abs((1.0 - x * t[None, :] - y * t[:, None]) ** -a))
        (bound,) = bounds
        assert top <= bound
        if complex(a).imag == 0 and complex(a).real > 0:
            assert bound <= 1.01 * top

    def test_level_max_range(self):
        for bad in (3, 9):
            with pytest.raises(ValueError, match="151 MB"):
                QuadratureControl(level_max=bad)
        pt = ModuliPoint(0.2, 0.1)
        want = f2_series(CONFORMAL, pt)
        for good in (4, 8):
            got = f2_euler_integral(CONFORMAL, pt, QuadratureControl(level_max=good))
            assert abs(got - want) < 1e-12


class TestPdeResidual:
    def test_series_solves_system(self):
        rng = _rng()
        section = lambda x, y: f2_series_on_arrays(CONFORMAL, x, y)
        for pt in _random_interior_points(rng, 20, cap=0.6):
            r1, r2 = f2_pde_residual(section, CONFORMAL, pt)
            assert abs(r1) < 1e-7 and abs(r2) < 1e-7

    def test_constant_function_fails(self):
        p = F2Params(0.7, 0.4, 0.3, 1.2, 1.1)
        const = lambda x, y: np.ones(
            np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex
        )
        r1, r2 = f2_pde_residual(const, p, ModuliPoint(0.2, 0.1))
        # only the -alpha beta_i F term survives; after normalization the
        # residual is exactly -1 (the sign of -alpha beta_i for positive data)
        assert r1 == pytest.approx(-1.0, abs=1e-12)
        assert abs(r1) > 0.5 and abs(r2) > 0.5

    def test_generic_parameters(self):
        p = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        section = lambda x, y: f2_series_on_arrays(p, x, y)
        r1, r2 = f2_pde_residual(section, p, ModuliPoint(0.25, -0.15))
        assert abs(r1) < 1e-7 and abs(r2) < 1e-7


class TestQuadraticCriterion:
    def test_conformal_true(self):
        assert quadratic_criterion(F2Params(0.5, 0.5, 0.5, 1.0, 1.0))

    def test_gamma2_mismatch_false(self):
        assert not quadratic_criterion(F2Params(0.5, 0.5, 0.5, 1.0, 2.0))

    def test_asymmetric_beta_case(self):
        b1, b2 = 1.0 / 6.0, 0.5
        p = F2Params(b1 + b2 - 0.5, b1, b2, 2 * b1, 2 * b2)
        assert quadratic_criterion(p)
