"""Change of variables T, the period basis, and the bilinear pairing."""

import importlib.util
from pathlib import Path

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
    SingularityError,
    f2_series,
    invert_T,
    map_T,
    period_basis,
    positivity_pairing,
    quadratic_relation,
    traintrack_value,
)
from traintrack.factorization import (
    _in_theorem_domain,
    _map_T_arrays,
    _pairing_arrays,
    invert_T_arrays,
    period_derivatives,
    periods_from_lambdas,
)
from traintrack import verify
from traintrack.verify import sample_theorem_domain


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _rng():
    return np.random.Generator(np.random.Philox(77))


def _kinematics_points(seed):
    """The (z1, z2) points of the benchmark's kinematics workload at one seed."""
    spec = importlib.util.spec_from_file_location("workloads", _BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(z1, z2) for _, _, z1, z2 in workloads.WORKLOADS["kinematics"].items(seed)]


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

    @pytest.mark.parametrize(
        "l1", [2e154, -2e154, 2e154 + 2e154j, complex(np.nan, 0.0), complex(0.1, np.nan)]
    )
    def test_non_finite_image_is_a_domain_error(self, l1):
        # (L1 + L2)^2 and L1^2 overflow, or NaN propagates: DomainError, and
        # no RuntimeWarning, which the test run turns into an error
        with pytest.raises(DomainError, match="not finite"):
            map_T(LambdaPair(l1, 0.5))

    def test_equals_its_row_of_a_batched_call(self):
        # every in-domain row of the scan test's wide grid, bit for bit
        l1, l2 = (a.ravel() + 0j for a in np.meshgrid(
            np.linspace(-1, 1, 60), np.linspace(-1.5, 1.5, 61), indexing="ij"))
        keep = (np.abs(l1 + l2) >= 1e-12) & _in_theorem_domain(l1, l2)
        l1, l2 = l1[keep], l2[keep]
        x, y = _map_T_arrays(l1, l2)
        assert l1.size == 3660 - 410 - 2
        for i, (a, b) in enumerate(zip(l1.tolist(), l2.tolist())):
            pt = map_T(LambdaPair(a, b))
            got = np.array([pt.x, pt.y])
            assert np.array_equal(got.view(np.uint64), np.array([x[i], y[i]]).view(np.uint64))


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
        for l1, l2, x, y in zip(*(c.tolist() for c in sample_theorem_domain(_rng(), 25))):
            back = invert_T(ModuliPoint(x, y))
            assert abs(complex(back.lambda1) - l1) < 1e-10
            assert abs(complex(back.lambda2) - l2) < 1e-10

    @pytest.mark.parametrize("x, y", [(np.nan, 0.1), (0.1, complex(0.1, np.nan)), (np.inf, 0.1)])
    def test_non_finite_point_is_a_domain_error(self, x, y):
        # NaN would pass a round-trip check not written as "not (ok)"
        with pytest.raises(DomainError, match="finite"):
            invert_T(ModuliPoint(x, y))
        with pytest.raises(DomainError, match="finite"):
            invert_T_arrays(np.array([0.1, x]), np.array([0.2, y]))

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
        l1, l2, _, _ = sample_theorem_domain(_rng(), 20)
        for a, b in zip(l1.tolist(), l2.tolist()):
            pv = period_basis(LambdaPair(a, b))
            lhs = pv.pi0 * pv.pi3 - pv.pi1 * pv.pi2
            scale = abs(pv.pi0 * pv.pi3) + abs(pv.pi1 * pv.pi2)
            assert abs(lhs) < 1e-14 * scale

    def test_domain_violation(self):
        with pytest.raises(DomainError):
            period_basis(LambdaPair(1.5, 0.9))
        # squares that overflow, to inf and to NaN, are outside, with no RuntimeWarning
        huge = LambdaPair(2e154 + 2e154j, 0.5)
        assert huge.in_theorem_domain is False
        with pytest.raises(DomainError):
            period_basis(huge)

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
        # block draws and the array domain filter and T give the candidates
        # and the points of one scalar loop, whose map_T is T's array form
        def scalar_loop(rng, n):
            out = []
            while len(out) < n:
                l1 = rng.uniform(0.03, 0.5) + 1j * rng.uniform(-0.06, 0.06)
                l2 = rng.uniform(0.62, 0.97) + 1j * rng.uniform(-0.06, 0.06)
                lp = LambdaPair(l1, l2)
                if not lp.in_theorem_domain:
                    continue
                pt = map_T(lp)
                if abs(pt.x) + abs(pt.y) < 0.95:
                    out.append((l1, l2, pt.x, pt.y))
            return out

        for n in (1, 13, 100):
            got = sample_theorem_domain(_rng_seeded(seed), n)
            assert [c.shape for c in got] == [(n,)] * 4
            assert all(c.dtype == complex for c in got)
            want = np.array(list(zip(*scalar_loop(_rng_seeded(seed), n))))
            assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))

    def test_sampler_maps_each_block_in_one_call(self, monkeypatch):
        # T maps each block of candidates, then the 100 kept pairs: the first
        # block is 100 + 16 and keeps 40 at seed 0, so the second is sized
        # for 60 + 16 more at the share kept so far, (60 + 16) * 117 // 41
        sizes = []

        def counted(l1, l2):
            sizes.append(l1.size)
            return _map_T_arrays(l1, l2)

        monkeypatch.setattr(verify, "_map_T_arrays", counted)
        sample_theorem_domain(_rng_seeded(0), 100)
        assert sizes == [116, 216, 100]

    def test_batch_equals_per_point_calls(self):
        # one call on all points gives each point its scalar periods, bit for bit
        l1, l2, _, _ = sample_theorem_domain(_rng(), 200)
        batch = np.stack(periods_from_lambdas(l1, l2), axis=-1)
        pairs = [LambdaPair(a, b) for a, b in zip(l1.tolist(), l2.tolist())]
        single = np.array([period_basis(lp).as_array() for lp in pairs])
        assert np.array_equal(batch.view(np.uint64), single.view(np.uint64))
        grid = periods_from_lambdas(l1.reshape(10, 20), l2.reshape(10, 20))
        assert np.array_equal(np.stack(grid, axis=-1).reshape(200, 4), batch)


def _mp_period(i, x, y):
    """Pi_i at (x, y) through the closed forms of invert_T and the periods, in mpmath."""
    u, r, v = mp.sqrt(1 - y), mp.sqrt(1 - x), mp.sqrt(1 - x - y)
    s = 2 / (u + v)
    l1, l2 = s * x / (2 * (1 + r)), s * (1 + r) / 2
    k1, k1c, k2, k2c = (mp.ellipk(m) for m in (l1**2, 1 - l1**2, l2**2, 1 - l2**2))
    pref = 4 / mp.pi**2 * (l1 + l2)
    return (pref * k1 * k2c, 1j * pref * k1c * k2c, 1j * pref * k1 * k2, -pref * k1c * k2)[i]


ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


class TestPeriodDerivatives:
    def test_partials_against_mpmath(self):
        # all six partials of all four periods against mpmath's numerical
        # differentiation of the closed forms at 30 digits
        _, _, x, y = sample_theorem_domain(_rng_seeded(0), 5)
        d = period_derivatives(x, y)
        worst = 0.0
        with mp.workdps(30):
            for j, (xj, yj) in enumerate(zip(x.tolist(), y.tolist())):
                at = (mp.mpc(xj), mp.mpc(yj))
                for i in range(4):
                    for m, n in ORDERS:
                        want = complex(mp.diff(lambda a, b: _mp_period(i, a, b), at, (m, n)))
                        worst = max(worst, abs(d[m, n, i, j] - want) / abs(want))
        assert worst < 1e-12

    def test_value_row_is_the_periods(self):
        _, _, x, y = sample_theorem_domain(_rng_seeded(1), 2000)
        want = np.array(periods_from_lambdas(*invert_T_arrays(x, y)))
        got = period_derivatives(x, y)[0, 0]
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14

    def test_array_equals_per_point_calls(self):
        # bit for bit, in any shape, with the entries past order 2 NaN
        _, _, x, y = sample_theorem_domain(_rng_seeded(2), 24)
        d = period_derivatives(x, y)
        assert d.shape == (3, 3, 4, 24)
        single = np.stack([period_derivatives(a, b) for a, b in zip(x, y)], axis=-1)
        assert np.array_equal(d, single, equal_nan=True)
        grid = period_derivatives(x.reshape(4, 6), y.reshape(4, 6))
        assert np.array_equal(grid.reshape(3, 3, 4, 24), d, equal_nan=True)
        past = np.array([[m + n > 2 for n in range(3)] for m in range(3)])
        assert np.isnan(d[past]).all() and not np.isnan(d[~past]).any()

    @pytest.mark.parametrize(
        "x, y, error",
        [(0.6, 0.4, BranchTrackingError), (0.3, 1.0, BranchTrackingError),
         (np.nan, 0.1, DomainError), (np.inf, 0.1, DomainError),
         (0.0, 0.3, SingularityError), (0.3, 0.0, SingularityError),
         (0.2 + 0.1j, 0.0, SingularityError)],
    )
    def test_off_the_tracked_domain_raises(self, x, y, error):
        with pytest.raises(error):
            period_derivatives(x, y)
        with pytest.raises(error):
            period_derivatives([0.2, x], [0.1, y])


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

    def test_stack_rows_equal_scalar_wrappers(self):
        # periods at complex pairs, and vectors with entries from 1e-8 to 1e8 in
        # size, where a sum over the last axis rounds unlike v @ SIGMA @ v
        rng = _rng()
        l1 = rng.uniform(0.05, 0.95, 40) + 1j * rng.uniform(-0.05, 0.05, 40)
        l2 = rng.uniform(0.05, 0.95, 40) + 1j * rng.uniform(-0.05, 0.05, 40)
        spread = 10.0 ** rng.integers(-8, 8, (40, 4))
        wide = spread * (rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4)))
        stack = np.concatenate((np.stack(periods_from_lambdas(l1, l2), 1), wide))
        quads, pairings = _pairing_arrays(stack)
        assert quads.shape == pairings.shape == (80,)
        for row, quad, pairing in zip(stack.tolist(), quads, pairings):
            pv = PeriodVector(*row)
            assert np.complex128(quadratic_relation(pv)).tobytes() == quad.tobytes()
            assert np.float64(positivity_pairing(pv)).tobytes() == pairing.real.tobytes()
            # the 1-D products of the per-point implementation, as the reference
            v = np.array(row)
            assert (v @ SIGMA @ v).tobytes() == quad.tobytes()
            assert (-np.conj(v) @ SIGMA @ v).tobytes() == pairing.tobytes()

    def test_imaginary_residue_raises(self):
        # -Pi^dagger Sigma Pi is real for every vector, but rounding leaves an
        # imaginary part of 1 here, where terms of 1e17 cancel and the real part is 0
        bad = [1j, 1e9 - 1e9j, -1e8 - 1e8j, -1]
        good = period_basis(LambdaPair(0.3, 0.7)).as_array()
        _pairing_arrays(good)
        with pytest.raises(DomainError, match="imaginary residue"):
            _pairing_arrays(np.array([good, bad]))
        for wrapper in (positivity_pairing, quadratic_relation):
            with pytest.raises(DomainError, match="imaginary residue"):
                wrapper(PeriodVector(*bad))


class TestTraintrackValue:
    def test_matches_composition(self):
        # the array-core path gives the composition of the public calls to the bit
        points = [(0.36, 1.1881)] + _kinematics_points(3)
        assert len(points) == 61
        for z1, z2 in points:
            pt = ModuliPoint(complex(z1), 1.0 - complex(z2))
            assert traintrack_value(z1, z2) == positivity_pairing(period_basis(invert_T(pt)))
        assert traintrack_value(0.36, 1.1881) == pytest.approx(
            positivity_pairing(period_basis(LambdaPair(0.1, 0.9))), rel=1e-12
        )

    @pytest.mark.parametrize("z1, z2", [(np.nan, 1.0), (0.3, complex(0.5, np.inf)), (np.inf, 0.5)])
    def test_non_finite_point_is_a_domain_error(self, z1, z2):
        with pytest.raises(DomainError):
            traintrack_value(z1, z2)

    @pytest.mark.parametrize("z1, z2", [(1.5, 1.0), (2.0, 0.5)])
    def test_point_on_a_cut_of_T_raises(self, z1, z2):
        # x = 1.5, y = 0 and x = 2, y = 0.5: x is real and >= 1
        with pytest.raises(BranchTrackingError):
            traintrack_value(z1, z2)

    def test_preimage_outside_the_theorem_domain_raises(self):
        # (x, y) = (-1, 1 + i) inverts to L2 = 0.945 + 0.608i, |1 - L2^2| = 1.245
        l1, l2 = invert_T_arrays(-1.0, 1.0 + 1.0j)
        assert abs(complex(l1) ** 2) < 1.0 <= abs(1.0 - complex(l2) ** 2)
        with pytest.raises(DomainError):
            traintrack_value(-1.0, -1.0j)

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
