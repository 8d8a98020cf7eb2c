"""Change of variables T, the period basis, and the bilinear pairing."""

import mpmath as mp
import numpy as np
import pytest

from traintrack import (
    SIGMA,
    BranchTrackingError,
    DomainError,
    F2Params,
    LambdaPair,
    ModuliPoint,
    PeriodVector,
    f2_series,
    gauge_scalar,
    invert_T,
    map_T,
    period_basis,
    positivity_pairing,
    quadratic_relation,
    traintrack_value,
)
from traintrack.factorization import invert_T_arrays, periods_from_lambdas
from traintrack.verify import sample_theorem_domain


def _rng():
    return np.random.Generator(np.random.Philox(77))


def _rng_seeded(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestSigma:
    def test_kron_structure(self):
        j = np.array([[0, 1], [-1, 0]])
        np.testing.assert_array_equal(SIGMA, np.kron(j, j))

    def test_symmetric(self):
        np.testing.assert_array_equal(SIGMA, SIGMA.T)

    def test_involution(self):
        np.testing.assert_array_equal(SIGMA @ SIGMA, np.eye(4, dtype=int))


class TestMapT:
    def test_base_point(self):
        pt = map_T(LambdaPair(0.0, 1.0))
        assert pt.x == 0.0 and pt.y == 0.0

    def test_printed_formula(self):
        pt = map_T(LambdaPair(0.1, 0.9))
        assert pt.x == pytest.approx(0.36, abs=1e-15)
        assert pt.y == pytest.approx(-0.1881, abs=1e-15)

    def test_second_example(self):
        pt = map_T(LambdaPair(0.3, 0.8))
        assert pt.x == pytest.approx(0.96 / 1.21, rel=1e-14)
        assert pt.y == pytest.approx(-0.3276 / 1.21, rel=1e-14)

    def test_degenerate_pair(self):
        with pytest.raises(DomainError):
            LambdaPair(0.5, -0.5)

    def test_symmetric_under_swap(self):
        a = map_T(LambdaPair(0.2 + 0.01j, 0.7))
        b = map_T(LambdaPair(0.7, 0.2 + 0.01j))
        assert abs(a.x - b.x) < 1e-15 and abs(a.y - b.y) < 1e-15


class TestInvertT:
    def test_base_point(self):
        lp = invert_T(ModuliPoint(0.0, 0.0))
        assert abs(complex(lp.lambda1)) < 1e-14
        assert abs(complex(lp.lambda2) - 1.0) < 1e-14

    def test_theorem_point(self):
        lp = invert_T(ModuliPoint(0.36, -0.1881))
        assert abs(complex(lp.lambda1) - 0.1) < 1e-12
        assert abs(complex(lp.lambda2) - 0.9) < 1e-12

    def test_round_trip_forward(self):
        rng = _rng()
        for lp, pt in sample_theorem_domain(rng, 25):
            back = invert_T(pt)
            assert abs(complex(back.lambda1) - complex(lp.lambda1)) < 1e-10
            assert abs(complex(back.lambda2) - complex(lp.lambda2)) < 1e-10

    def test_round_trip_backward(self):
        rng = _rng()
        for _ in range(25):
            pt = ModuliPoint(
                complex(rng.uniform(-0.3, 0.45), rng.uniform(-0.05, 0.05)),
                complex(rng.uniform(-0.4, 0.2), rng.uniform(-0.05, 0.05)),
            )
            image = map_T(invert_T(pt))
            assert abs(image.x - pt.x) + abs(image.y - pt.y) < 1e-12

    # x, y or x + y real and >= 1: the segment from the base point meets a cut
    CUT_POINTS = [(1.2, 0.1), (0.1, 1.5), (0.78, 0.28)]

    @pytest.mark.parametrize("x, y", CUT_POINTS)
    def test_cut_raises(self, x, y):
        with pytest.raises(BranchTrackingError):
            invert_T(ModuliPoint(complex(x), complex(y)))

    @pytest.mark.parametrize("x, y", CUT_POINTS)
    def test_one_sided_limits_are_conjugate(self, x, y):
        eps = 1e-9j
        above = invert_T(ModuliPoint(x + eps, y + eps))
        below = invert_T(ModuliPoint(x - eps, y - eps))
        for a, b in ((above.lambda1, below.lambda1), (above.lambda2, below.lambda2)):
            assert abs(a - b.conjugate()) < 1e-14 * abs(a)
        assert max(abs(above.lambda1.imag), abs(above.lambda2.imag)) > 1e-3

    def test_against_refined_roots(self):
        # 200 seeded points with |x| + |y| <= 0.99 in the four sign quadrants
        # and at complex phases, each against a 40-digit Newton refinement of
        # T(L) = (x, y) started from the returned pair
        rng = np.random.Generator(np.random.Philox(2024))
        points = []
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1), (None, None)):
            for _ in range(40):
                t, a = rng.uniform(0.0, 0.99), rng.uniform(0.0, 1.0)
                if sx is None:
                    px, py = np.exp(2j * np.pi * rng.uniform(size=2))
                else:
                    px, py = sx, sy
                points.append((complex(px * t * a), complex(py * t * (1.0 - a))))
        with mp.workdps(40):
            for x, y in points:
                lp = invert_T(ModuliPoint(x, y))

                def residual(l1, l2):
                    s2 = (l1 + l2) ** 2
                    return [4 * l1 * l2 / s2 - x, -(1 - l1 * l1) * (1 - l2 * l2) / s2 - y]

                ref = mp.findroot(residual, (mp.mpc(lp.lambda1), mp.mpc(lp.lambda2)))
                for got, want in zip((lp.lambda1, lp.lambda2), ref):
                    assert abs(got - complex(want)) <= 2e-15 * abs(complex(want))


    def test_scalar_equals_array_element(self):
        # a scalar runs in the same array loops as a batch, bit for bit
        rng = np.random.Generator(np.random.Philox(31))
        xs, ys = [], []
        while len(xs) < 1000:
            x, y = rng.uniform(-0.95, 0.95, 2) + 1j * rng.uniform(-0.95, 0.95, 2)
            if abs(x) + abs(y) < 0.95:
                xs.append(x)
                ys.append(y)
        l1, l2 = invert_T_arrays(np.array(xs), np.array(ys))
        for i, (x, y) in enumerate(zip(xs, ys)):
            lp = invert_T(ModuliPoint(x, y))
            got = np.array([lp.lambda1, lp.lambda2])
            assert np.array_equal(got.view(np.uint64), np.array([l1[i], l2[i]]).view(np.uint64))

    def test_rounding_of_one_minus_x_minus_y(self):
        # y near 1 leaves 1 - x - y small: subtracting y from 1 first keeps
        # the rounding of 1 - x out of it (L2 was off by 1.8e-15 relative)
        x, y = 0.0194, 0.979
        lp = invert_T(ModuliPoint(x, y))
        with mp.workdps(40):

            def residual(l1, l2):
                s2 = (l1 + l2) ** 2
                return [4 * l1 * l2 / s2 - x, -(1 - l1 * l1) * (1 - l2 * l2) / s2 - y]

            ref = mp.findroot(residual, (mp.mpc(lp.lambda1), mp.mpc(lp.lambda2)))
        want = complex(ref[1])
        assert abs(lp.lambda2 - want) <= 1e-15 * abs(want)


class TestGaugeScalar:
    def test_conformal_unit(self):
        assert gauge_scalar(LambdaPair(0.1, 0.9), 0.5, 0.5) == pytest.approx(1.0)

    def test_conformal_sum(self):
        assert gauge_scalar(LambdaPair(0.3, 0.8), 0.5, 0.5) == pytest.approx(1.1)

    def test_general_exponent(self):
        got = gauge_scalar(LambdaPair(0.3, 0.8), 1.0 / 6.0, 0.5)
        assert got == pytest.approx(1.1 ** (1.0 / 3.0), rel=1e-14)


class TestPeriodBasis:
    def test_base_point_normalization(self):
        pv = period_basis(LambdaPair(0.0, 1.0))
        assert abs(pv.pi0 - 1.0) < 1e-15

    def test_theorem_identity(self):
        # the factorization statement itself, against the independent series
        pv = period_basis(LambdaPair(0.1, 0.9))
        f2 = f2_series(F2Params.conformal_case(), ModuliPoint(0.36, -0.1881))
        assert abs(pv.pi0 - f2) < 1e-9 * abs(pv.pi0)

    def test_product_identity(self):
        rng = _rng()
        for lp, _ in sample_theorem_domain(rng, 20):
            pv = period_basis(lp)
            lhs = pv.pi0 * pv.pi3 - pv.pi1 * pv.pi2
            scale = abs(pv.pi0 * pv.pi3) + abs(pv.pi1 * pv.pi2)
            assert abs(lhs) < 1e-14 * scale

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            period_basis(LambdaPair(1.5, 0.9))

    def test_boundary_pair_keeps_finite_pi0(self):
        # at (0, 1) two moduli are 1, where K is infinite: only Pi0 is finite
        # (the complex products with K = inf give nan+infj or nan+nanj), and
        # the regular point sharing the call is unaffected
        p0, p1, p2, p3 = periods_from_lambdas([0.0, 0.1], [1.0, 0.9])
        assert abs(p0[0] - 1.0) < 1e-15
        assert not any(np.isfinite(p[0]) for p in (p1, p2, p3))
        pv = period_basis(LambdaPair(0.1, 0.9))
        assert [p[1] for p in (p0, p1, p2, p3)] == list(pv.as_array())

    @pytest.mark.parametrize("seed", range(20))
    def test_sampler_equals_scalar_loop(self, seed):
        # block draws, the array domain filter and the scalar map_T give the
        # candidates and the points of one scalar loop
        def scalar_loop(rng, n):
            out = []
            while len(out) < n:
                l1 = rng.uniform(0.03, 0.5) + 1j * rng.uniform(-0.06, 0.06)
                l2 = rng.uniform(0.62, 0.97) + 1j * rng.uniform(-0.06, 0.06)
                lp = LambdaPair(l1, l2)
                if not lp.in_theorem_domain:
                    continue
                pt = map_T(lp)
                if pt.series_norm < 0.95:
                    out.append((lp, pt))
            return out

        for n in (1, 13, 100):
            got = sample_theorem_domain(_rng_seeded(seed), n)
            want = scalar_loop(_rng_seeded(seed), n)
            assert len(got) == n
            for (lp, pt), (ref_lp, ref_pt) in zip(got, want):
                assert type(lp.lambda1) is complex and type(pt.x) is complex
                assert (lp, pt) == (ref_lp, ref_pt)

    def test_batch_equals_per_point_calls(self):
        # one call on all points gives each point its scalar periods, bit for bit
        pairs = [lp for lp, _ in sample_theorem_domain(_rng(), 200)]
        l1 = np.array([lp.lambda1 for lp in pairs], dtype=complex)
        l2 = np.array([lp.lambda2 for lp in pairs], dtype=complex)
        batch = np.stack(periods_from_lambdas(l1, l2), axis=-1)
        single = np.array([period_basis(lp).as_array() for lp in pairs])
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))
        grid = periods_from_lambdas(l1.reshape(10, 20), l2.reshape(10, 20))
        assert np.array_equal(np.stack(grid, axis=-1).reshape(200, 4), batch)


class TestBilinear:
    def test_quadratic_relation_units(self):
        assert quadratic_relation(PeriodVector(1, 0, 0, 0)) == 0
        assert quadratic_relation(PeriodVector(1, 1, 1, 1)) == 0

    def test_quadratic_relation_random(self):
        rng = _rng()
        for _ in range(50):
            lp = LambdaPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            pv = period_basis(lp)
            scale = abs(pv.pi0 * pv.pi3) + abs(pv.pi1 * pv.pi2)
            assert abs(quadratic_relation(pv)) < 1e-12 * scale

    def test_pairing_sign_witnesses(self):
        assert positivity_pairing(PeriodVector(1, 0, 0, -1)) == pytest.approx(2.0)
        assert positivity_pairing(PeriodVector(1, 0, 0, 1)) == pytest.approx(-2.0)

    def test_pairing_positive_on_real_domain(self):
        rng = _rng()
        for _ in range(50):
            lp = LambdaPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            assert positivity_pairing(period_basis(lp)) > 0

    def test_pairing_returns_real_float(self):
        val = positivity_pairing(period_basis(LambdaPair(0.3, 0.7)))
        assert isinstance(val, float)


class TestTraintrackValue:
    def test_matches_composition(self):
        want = positivity_pairing(period_basis(LambdaPair(0.1, 0.9)))
        got = traintrack_value(0.36, 1.1881)
        assert got == pytest.approx(want, rel=1e-12)

    def test_swap_branch_invariance(self):
        # the pairing does not depend on which sheet labels lambda1 vs lambda2
        a = positivity_pairing(period_basis(LambdaPair(0.1, 0.9)))
        b = positivity_pairing(period_basis(LambdaPair(0.9, 0.1)))
        assert a == pytest.approx(b, rel=1e-12)

    def test_pairing_is_real(self):
        pv = period_basis(LambdaPair(0.25, 0.8))
        v = pv.as_array()
        raw = -np.conj(v) @ SIGMA @ v
        assert abs(raw.imag) < 1e-12 * abs(raw)
