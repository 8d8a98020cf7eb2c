"""Gamma, elliptic integrals and Gauss 2F1 against independent oracles."""

import cmath

import mpmath

import numpy as np
import pytest

from traintrack import (
    DomainError,
    Hyper2F1Params,
    SingularityError,
    ellint_E,
    ellint_K,
    gamma_fn,
    gauss_2f1,
)
from traintrack.special import _agm_sequence, _ellint_KE


def _rng():
    return np.random.Generator(np.random.Philox(20260823))


class TestGamma:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_gamma_half(self):
        assert gamma_fn(0.5) == pytest.approx(np.sqrt(np.pi), rel=1e-13)

    def test_duplication_formula_oracle(self):
        # Gamma(z) Gamma(z+1/2) = 2^(1-2z) sqrt(pi) Gamma(2z), independent of
        # the rational-approximation coefficients.
        rng = _rng()
        draws = [0.75] + [
            complex(rng.uniform(0.2, 4.0), rng.uniform(-1.5, 1.5)) for _ in range(20)
        ]
        for z in draws:
            lhs = gamma_fn(z) * gamma_fn(z + 0.5)
            rhs = 2.0 ** (1.0 - 2.0 * z) * np.sqrt(np.pi) * gamma_fn(2.0 * z)
            assert abs(lhs - rhs) <= 1e-13 * abs(rhs)

    def test_pole_raises(self):
        with pytest.raises(SingularityError):
            gamma_fn(0.0)
        with pytest.raises(SingularityError):
            gamma_fn(-3.0)

    def test_real_axis_against_mpmath(self):
        # the Lanczos sum lost up to 16 eps here (1.1e-15 at z = 0.95), and
        # the Euler prefactor of F2 multiplies six of these values
        zs = [0.95, 0.5, 1.0] + list(_rng().uniform(-3.0, 3.0, 200))
        for z in zs:
            with mpmath.workdps(30):
                want = float(mpmath.gamma(z))
            assert abs(gamma_fn(z) - want) <= 4 * np.finfo(float).eps * abs(want)

    def test_overflow_is_a_domain_error(self):
        # math.gamma's range error on the real axis; off it, where the value
        # itself overflows
        for z in (172.0, 200.0, 200.0 + 1j, 175.0 + 0.01j):
            with pytest.raises(DomainError):
                gamma_fn(z)
        assert gamma_fn(171.0) == pytest.approx(float(mpmath.gamma(171)), rel=1e-13)

    def test_large_real_part_against_mpmath(self):
        # past Re z near 142 the Lanczos power t^(z - 1/2) alone overflows a
        # double, though Gamma does not: Gamma(142.25 + 0.01i) is about 6.5e243
        rng = _rng()
        zs = [142.25 + 0.01j] + [
            complex(re, im) for im in (0.01, 0.5, 3.0) for re in rng.uniform(0.5, 171.0, 40)
        ]
        for z in zs:
            with mpmath.workdps(30):
                want = complex(mpmath.gamma(z))
            assert abs(gamma_fn(z) - want) <= 1e-12 * abs(want)

    def test_reflection_region(self):
        # Gamma(-1/2) = -2 sqrt(pi), reached through the reflection formula.
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * np.sqrt(np.pi), rel=1e-13)

    @pytest.mark.parametrize(
        "z",
        [2.5, -0.5, 0.7 + 0.2j, -0.5 + 0.1j],
        ids=["real", "real-reflected", "lanczos", "reflection"],
    )
    def test_value_is_python_complex(self, z):
        assert type(gamma_fn(z)) is complex


class TestEllintK:
    def test_k_at_zero(self):
        assert ellint_K(0.0) == pytest.approx(np.pi / 2, rel=1e-15)

    def test_k_at_half_against_series(self):
        # AGM value cross-checked against the hypergeometric series route.
        k = ellint_K(0.5)
        series = np.pi / 2 * gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), 0.5)
        assert k == pytest.approx(1.85407467730137, rel=1e-12)
        assert abs(k - series) <= 1e-12 * abs(k)

    def test_k_019_series_oracle(self):
        k = ellint_K(0.19)
        series = np.pi / 2 * gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), 0.19)
        assert abs(k - series) <= 1e-12 * abs(k)

    def test_k_vs_2f1_random(self):
        # 100 random complex m with |m| <= 0.9, staying off the cut [1, oo).
        rng = _rng()
        p = Hyper2F1Params(0.5, 0.5, 1.0)
        count = 0
        while count < 100:
            m = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if abs(m) > 0.9:
                continue
            count += 1
            k = ellint_K(m)
            ref = np.pi / 2 * gauss_2f1(p, m)
            assert abs(k - ref) <= 1e-12 * abs(ref)

    def test_singular_at_one(self):
        with pytest.raises(SingularityError):
            ellint_K(1.0)

    def test_array_input(self):
        m = np.array([0.1, 0.5, -0.3 + 0.2j])
        vals = ellint_K(m)
        assert vals.shape == (3,)
        for mm, v in zip(m, vals):
            assert abs(v - ellint_K(complex(mm))) < 1e-15


class TestEllintE:
    def test_e_at_zero(self):
        assert ellint_E(0.0) == pytest.approx(np.pi / 2, rel=1e-15)

    def test_e_at_one(self):
        assert ellint_E(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_legendre_relation(self):
        # E(m)K(1-m) + E(1-m)K(m) - K(m)K(1-m) = pi/2 on 50 real draws.
        rng = _rng()
        for _ in range(50):
            m = rng.uniform(0.01, 0.99)
            resid = (
                ellint_E(m) * ellint_K(1 - m)
                + ellint_E(1 - m) * ellint_K(m)
                - ellint_K(m) * ellint_K(1 - m)
                - np.pi / 2
            )
            assert abs(resid) < 1e-12


def _agm_steps(m):
    """Steps of AGM(1, sqrt(1 - m)) to the 4e-16 relative stop, in cmath."""
    a, b = 1.0, cmath.sqrt(1.0 - m)
    for n in range(64):
        if abs(a - b) <= 4e-16 * abs(a):
            return n
        a, b = (a + b) / 2.0, cmath.sqrt(a * b)
    return 64


class TestBatchIndependence:
    """One call on many moduli gives each element its own scalar value."""

    def _moduli(self):
        # 2,400 seeded moduli: complex, hugging the cut [1, oo) from both
        # sides, negative reals and tiny |m|, in a shuffled order, so that
        # AGMs that stop after few and after many steps share each batch
        rng = _rng()
        m = np.concatenate(
            [
                rng.uniform(-3.0, 3.0, 1600) + 1j * rng.uniform(-2.0, 2.0, 1600),
                rng.uniform(1.01, 4.0, 400)
                + 1j * rng.choice([1e-9, -1e-9, 1e-3, -1e-3], 400),
                rng.uniform(-6.0, 0.99, 200) + 0j,
                10.0 ** rng.uniform(-12.0, -1.0, 200)
                * np.exp(2j * np.pi * rng.uniform(size=200)),
            ]
        )
        rng.shuffle(m)
        assert {_agm_steps(complex(v)) for v in m} == {1, 2, 3, 4, 5}
        return m

    @staticmethod
    def _bits(z):
        return np.asarray(z, dtype=complex).view(np.uint64)

    @pytest.mark.parametrize("fn", [ellint_K, ellint_E], ids=["K", "E"])
    def test_batch_equals_per_element_calls(self, fn):
        m = self._moduli()
        single = np.array([fn(complex(v)) for v in m])
        assert np.array_equal(self._bits(fn(m)), self._bits(single))
        grid = fn(m.reshape(40, 60))
        assert grid.shape == (40, 60)
        assert np.array_equal(self._bits(grid), self._bits(single.reshape(40, 60)))

    def test_one_agm_gives_k_and_e_to_the_bit(self):
        # the Legendre basis takes K and E from one AGM; m = 1 is K's pole
        m = self._moduli()
        k, e = _ellint_KE(m)
        assert np.array_equal(self._bits(k), self._bits(ellint_K(m)))
        assert np.array_equal(self._bits(e), self._bits(ellint_E(m)))
        with pytest.raises(SingularityError):
            _ellint_KE(np.array([0.5, 1.0 + 0j]))


def _tied_sqrt(w):
    """The principal root, with a root of real part 0 and negative imaginary part negated."""
    s = np.sqrt(w)
    return np.where((s.real == 0) & (s.imag < 0), -s, s)


def _agm_with_tie_rule(m):
    """AGM(1, sqrt(1 - m)) and the E sum, with an upward tie rule at every root.

    A reference for ``_agm_sequence``: the same per-element stop on
    |a - b| <= 4e-16 |a| and the same E sum, with every root tied upward.
    """
    a, b, total = np.ones_like(m), _tied_sqrt(1.0 - m), m / 2.0
    agm, sums = np.empty_like(m), np.empty_like(m)
    live, pow2 = np.arange(m.size), 0.5
    for _ in range(64):
        done = np.abs(a - b) <= 4e-16 * np.abs(a)
        agm[live[done]], sums[live[done]] = a[done], total[done]
        live, a, b, total = live[~done], a[~done], b[~done], total[~done]
        if not live.size:
            return agm, sums
        c = (a - b) / 2.0
        pow2 *= 2.0
        total = total + pow2 * c * c
        a, b = (a + b) / 2.0, _tied_sqrt(a * b)
    raise AssertionError("reference AGM did not converge")


class TestNoTieRule:
    """The AGM takes numpy's principal roots: a tie rule would change no bit but on the cut."""

    _bits = staticmethod(TestBatchIndependence._bits)

    def _extremes(self):
        # real m in (1, 1e12], |m| up to 1e300 in every direction, 1 +- 1e-300i
        rng = _rng()
        return np.concatenate(
            [
                1.0 + 10.0 ** rng.uniform(-12.0, 12.0, 300),
                [2.0, 5.0, 1e6, 1e12, complex(2.0, -0.0), complex(1e12, -0.0)],
                10.0 ** rng.uniform(0.0, 300.0, 300) * np.exp(2j * np.pi * rng.uniform(size=300)),
                [1e300, -1e300, 1e300j, -1e300j, 1e300 + 1e300j, -1e300 - 1e300j],
                [1.0 + 1e-300j, 1.0 - 1e-300j],
            ]
        ).astype(complex)

    @pytest.mark.parametrize("which", ["batch", "extremes"])
    def test_agm_and_e_sum_keep_their_bits(self, which):
        m = TestBatchIndependence()._moduli() if which == "batch" else self._extremes()
        agm_ref, sums_ref = _agm_with_tie_rule(m)
        agm, sums = _agm_sequence(m, want_sum=True)
        assert np.array_equal(self._bits(agm), self._bits(agm_ref))
        assert np.array_equal(self._bits(sums), self._bits(sums_ref))
        assert np.array_equal(self._bits(_agm_sequence(m)[0]), self._bits(agm_ref))

    @staticmethod
    def _mp(fn, m):
        with mpmath.workdps(30):
            return complex(fn(mpmath.mpc(m.real, m.imag)))

    @pytest.mark.parametrize("c, delta", [(2.0, 5e-324), (5.0, 5e-324), (1e6, 5e-324), (1e40, 1e-305)])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["above", "below"])
    def test_tiny_imaginary_part_keeps_its_side_of_the_cut(self, c, delta, sign):
        # the root of 1 - m = -(c - 1) - delta sign i has its real part,
        # delta / (2 sqrt(c - 1)), underflow to 0; an upward tie rule took K
        # and E above the cut to the values from below
        m = complex(c, sign * delta)
        for fn, ref in ((ellint_K, mpmath.ellipk), (ellint_E, mpmath.ellipe)):
            want = self._mp(ref, m)
            assert abs(fn(m) - want) <= 1e-14 * abs(want)
            assert abs(fn(m) - want.conjugate()) > 0.5 * abs(want)  # the other side

    @pytest.mark.parametrize("c", [2.0, 5.0, 1e6])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
    def test_real_m_above_one_takes_the_value_from_below(self, c, zero):
        m = complex(c, zero)
        for fn, ref in ((ellint_K, mpmath.ellipk), (ellint_E, mpmath.ellipe)):
            with mpmath.workdps(30):
                want = complex(ref(c))
            assert abs(fn(m) - want) <= 1e-14 * abs(want)
            assert fn(m) == pytest.approx(self._mp(ref, complex(c, -1e-300)), rel=1e-14)


def _mp_2f1(a, b, c, z):
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(a, b, c, z))


class TestGauss2F1:
    def test_empty_sum(self):
        assert gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), 0.0) == 1.0

    def test_agm_oracle(self):
        val = gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), 0.3)
        assert abs(val - 2.0 / np.pi * ellint_K(0.3)) < 1e-13

    def test_mpmath_at_half(self):
        p = Hyper2F1Params(0.5, 0.5, 1.0)
        assert abs(gauss_2f1(p, 0.5) - _mp_2f1(0.5, 0.5, 1.0, 0.5)) < 1e-10

    def test_mpmath_random(self):
        rng = _rng()
        for _ in range(20):
            b = rng.uniform(0.2, 1.5)
            g = b + rng.uniform(0.2, 1.5)
            a = rng.uniform(0.1, 2.0)
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.4, 0.4))
            if abs(z) > 0.8:
                continue
            got = gauss_2f1(Hyper2F1Params(a, b, g), z)
            want = _mp_2f1(a, b, g, z)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_pfaff_region(self):
        # |z| = 0.8 goes through the Pfaff transformation; same oracle applies.
        p = Hyper2F1Params(0.5, 0.5, 1.0)
        z = -0.8
        assert abs(gauss_2f1(p, z) - 2.0 / np.pi * ellint_K(z)) < 1e-12

    @pytest.mark.parametrize("pfaff", [True, False], ids=["pfaff", "direct"])
    def test_complex_points_against_mpmath(self, pfaff):
        # seeded complex z in each region of the summed argument: z/(z - 1)
        # where |1 - z| > 1, z itself elsewhere, |summed argument| <= 0.9
        rng = _rng()
        zs = []
        while len(zs) < 40:
            z = complex(rng.uniform(-4.0, 1.0), rng.uniform(-2.0, 2.0))
            summed = z / (z - 1.0) if abs(1.0 - z) > 1.0 else z
            if (abs(1.0 - z) > 1.0) == pfaff and abs(summed) <= 0.9:
                zs.append(z)
        a, b, c = complex(rng.uniform(-1, 2), rng.uniform(-1, 1)), 0.35, 1.3 - 0.2j
        got = gauss_2f1(Hyper2F1Params(a, b, c), np.array(zs))
        for z, v in zip(zs, got):
            want = _mp_2f1(a, b, c, z)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want)), z

    def test_array_equals_one_element_calls(self):
        # each point stops on its own tail estimate, so a point's value does
        # not depend on the points that share its array: near 0 next to deep
        rng = _rng()
        z = np.concatenate(
            [
                rng.uniform(-0.9, 0.9, 30) + 1j * rng.uniform(-0.3, 0.3, 30),
                rng.uniform(-5.0, -1.0, 10) + 1j * rng.uniform(-1, 1, 10),
                [0.0, 1e-9, 0.97, -0.97j],
            ]
        )
        rng.shuffle(z)
        p = Hyper2F1Params(0.7 + 0.1j, -0.4, 1.6)
        single = [gauss_2f1(p, complex(v)) for v in z]
        assert all(type(v) is complex for v in single)
        single = np.array(single)
        for arr, want in ((z, single), (z.reshape(4, 11), single.reshape(4, 11))):
            got = gauss_2f1(p, arr)
            assert got.shape == arr.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_near_the_unit_circle(self):
        # no transformation shrinks z = 0.97, so its series runs about 1,000 terms
        p = Hyper2F1Params(0.5, 0.5, 1.0)
        want = _mp_2f1(0.5, 0.5, 1.0, 0.97)
        assert abs(gauss_2f1(p, 0.97) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_parameters_are_a_domain_error(self, slot):
        for bad in (np.nan, -np.inf, complex(np.inf, 0.5)):
            params = [0.5, 0.5, 1.0]
            params[slot] = bad
            with pytest.raises(DomainError, match="finite"):
                Hyper2F1Params(*params)

    def test_outside_domain_raises(self):
        # the summed argument, z or z/(z - 1), has modulus >= 1
        p = Hyper2F1Params(0.5, 0.5, 1.0)
        for z in (1.0, 1.2, 2.5):
            with pytest.raises(DomainError):
                gauss_2f1(p, z)
            with pytest.raises(DomainError):
                gauss_2f1(p, np.array([0.1, z]))
