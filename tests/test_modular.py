"""Theta constants, the Hauptmodul, the mirror map and the weight probes."""

import mpmath as mp
import numpy as np
import pytest

from traintrack import (
    ConvergenceError,
    DomainError,
    LambdaPair,
    ModularGroupElement,
    NonConstantRatioError,
    TauPair,
    ellint_K,
    inverse_mirror,
    inverse_mirror_arrays,
    lambda_hauptmodul,
    mirror_map,
    multiplier_probe,
    pi0_modular,
    pi0_modular_arrays,
    theta2,
    theta3,
    theta4,
)
from traintrack import modular
from traintrack.factorization import period_basis
from traintrack.modular import mirror_map_arrays


def _rng():
    return np.random.Generator(np.random.Philox(31))


def _random_tau(rng):
    return complex(rng.uniform(-0.9, 0.9), rng.uniform(0.4, 2.0))


def _tau_array(rng, n, im_min, im_max):
    """n tau with Re in [-1.5, 1.5] and Im log-uniform in [im_min, im_max]."""
    im = np.exp(rng.uniform(np.log(im_min), np.log(im_max), n))
    return rng.uniform(-1.5, 1.5, n) + 1j * im


def _domain_pair(rng):
    return LambdaPair(rng.uniform(0.05, 0.7), rng.uniform(0.4, 0.95))


class TestTheta:
    def test_jacobi_identity_spot(self):
        t = 1.2j
        lhs = theta3(t) ** 4
        rhs = theta2(t) ** 4 + theta4(t) ** 4
        assert abs(lhs - rhs) < 1e-13

    def test_jacobi_identity_random(self):
        rng = _rng()
        for _ in range(50):
            t = _random_tau(rng)
            assert abs(theta3(t) ** 4 - theta2(t) ** 4 - theta4(t) ** 4) < 1e-13

    def test_symmetric_point(self):
        assert abs(theta2(1j) ** 4 / theta3(1j) ** 4 - 0.5) < 1e-12

    def test_cusp_limit(self):
        assert abs(theta4(20j) - 1.0) < 1e-15
        assert abs(theta3(20j) - 1.0) < 1e-15
        assert abs(theta2(20j)) < 1e-6

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            theta3(-1j)
        with pytest.raises(DomainError):
            theta3(0.5)
        with pytest.raises(DomainError):
            theta2(np.array([1j, 0.2 - 1e-3j, 2j]))

    def test_cut_belongs_to_re_tau_one(self):
        # Re tau is reduced to (-1, 1], so Re tau = -1 and 3 take the values
        # at Re tau = 1, bit for bit
        for f in (theta2, theta3, theta4):
            assert f(-1 + 1j) == f(1 + 1j) == f(3 + 1j)
        assert abs(theta2(1 + 1j) - theta2(0.999999 + 1j)) < 1e-5

    def test_too_close_to_the_real_axis(self):
        # 512 terms of a series reach down to Im tau of about 4.7e-5
        with pytest.raises(ConvergenceError):
            theta3(1e-5j)
        with pytest.raises(ConvergenceError):
            theta3(np.array([1j, 0.3 + 1e-5j]))

    def test_against_mpmath(self):
        # mpmath's jtheta(2) takes the principal q^(1/4), as the kernel does
        # for Re tau in (-1, 1].  The tolerance scales with theta3(i Im tau),
        # the sum of the terms' moduli: theta4 alone can be exponentially small.
        edges = np.array([0.999, -0.999, 1.001, -1.001]) + 1e-3j
        tau = np.concatenate([edges, _tau_array(_rng(), 60, 1e-3, 3.0)])
        got = np.array([theta2(tau), theta3(tau), theta4(tau)])
        with mp.workdps(30):
            for i, t in enumerate(tau.tolist()):
                q = mp.exp(1j * mp.pi * mp.mpc(t))
                scale = 1e-14 * float(mp.jtheta(3, 0, mp.exp(-mp.pi * t.imag)))
                for row, k in enumerate((2, 3, 4)):
                    want = complex(mp.jtheta(k, 0, q))
                    assert abs(got[row, i] - want) < scale, (k, t)

    def test_array_calls_match_one_element_calls(self):
        # Im tau over [0.03, 3] keeps k up to 4 to 40: the term counts differ
        rng = _rng()
        t1, t2 = _tau_array(rng, 40, 0.03, 3.0), _tau_array(rng, 40, 0.03, 3.0)
        for f in (theta2, theta3, theta4, lambda_hauptmodul):
            singles = [f(t) for t in t1.tolist()]
            assert all(type(v) is complex for v in singles)
            assert f(t1).tolist() == singles
            assert f(t1.reshape(5, 8)).ravel().tolist() == singles
        pairs = [TauPair(a, b) for a, b in zip(t1.tolist(), t2.tolist())]
        l1, l2 = inverse_mirror_arrays(t1, t2)
        assert l1.tolist() == [inverse_mirror(tp).lambda1 for tp in pairs]
        assert l2.tolist() == [inverse_mirror(tp).lambda2 for tp in pairs]
        assert pi0_modular_arrays(t1, t2).tolist() == [pi0_modular(tp) for tp in pairs]


class TestHauptmodul:
    def test_symmetric_value(self):
        assert abs(lambda_hauptmodul(1j) - 0.5) < 1e-12

    def test_real_on_imaginary_axis(self):
        v = lambda_hauptmodul(2j)
        assert abs(v.imag) < 1e-15
        assert 0.0 < v.real < 0.5

    def test_translation_invariance(self):
        rng = _rng()
        for _ in range(10):
            t = _random_tau(rng)
            assert abs(lambda_hauptmodul(t + 2.0) - lambda_hauptmodul(t)) < 1e-12


class TestMirrorMap:
    def test_symmetric_point(self):
        s = np.sqrt(0.5)
        tp = mirror_map(LambdaPair(s, s))
        assert abs(tp.tau1 - 1j) < 1e-14
        assert abs(tp.tau2 - 1j) < 1e-14

    def test_hauptmodul_round_trip(self):
        tp = mirror_map(LambdaPair(0.1, 0.9))
        assert abs(lambda_hauptmodul(tp.tau1) - 0.01) < 1e-10
        assert abs(1.0 - lambda_hauptmodul(tp.tau2) - 0.81) < 1e-10

    def test_upper_half_plane(self):
        rng = _rng()
        for _ in range(50):
            tp = mirror_map(_domain_pair(rng))
            assert tp.tau1.imag > 0 and tp.tau2.imag > 0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            mirror_map(LambdaPair(1.2, 0.9))

    def test_array_core_matches_scalar_wrapper(self):
        # one call on 120 pairs, half of them complex, gives every pair the
        # coordinates of its own scalar call, bit for bit, in any shape
        rng = _rng()
        pairs = [_domain_pair(rng) for _ in range(60)] + [
            LambdaPair(
                complex(rng.uniform(0.05, 0.7), rng.uniform(-0.06, 0.06)),
                complex(rng.uniform(0.62, 0.95), rng.uniform(-0.06, 0.06)),
            )
            for _ in range(60)
        ]
        l1 = np.array([lp.lambda1 for lp in pairs], dtype=complex)
        l2 = np.array([lp.lambda2 for lp in pairs], dtype=complex)
        t1, t2 = mirror_map_arrays(l1, l2)
        single = [mirror_map(lp) for lp in pairs]
        assert t1.tolist() == [tp.tau1 for tp in single]
        assert t2.tolist() == [tp.tau2 for tp in single]
        g1, g2 = mirror_map_arrays(l1.reshape(8, 15), l2.reshape(8, 15))
        assert g1.shape == (8, 15) and g1.ravel().tolist() == t1.tolist()
        assert g2.ravel().tolist() == t2.tolist()

    def test_array_core_domain_guard(self):
        with pytest.raises(DomainError):
            mirror_map_arrays([0.1, 1.2], [0.9, 0.9])

    @pytest.mark.parametrize("row", [1, 3], ids=["tau1", "tau2"])
    def test_array_core_half_plane_guard(self, monkeypatch, row):
        # K's cut keeps both coordinates in the upper half-plane; with K forced
        # negative in one slot at one pair of two, that coordinate is -i there
        def k(m):
            out = np.ones_like(m)
            out[row, 1] = -1.0
            return out

        monkeypatch.setattr(modular, "ellint_K", k)
        with pytest.raises(DomainError, match="upper half-plane"):
            mirror_map_arrays([0.1, 0.2], [0.9, 0.8])


class TestInverseMirror:
    def test_symmetric_point(self):
        lp = inverse_mirror(TauPair(1j, 1j))
        assert abs(complex(lp.lambda1) ** 2 - 0.5) < 1e-12
        assert abs(complex(lp.lambda2) ** 2 - 0.5) < 1e-12

    def test_round_trip(self):
        rng = _rng()
        for _ in range(50):
            lp = _domain_pair(rng)
            back = inverse_mirror(mirror_map(lp))
            assert abs(complex(back.lambda1) - complex(lp.lambda1)) < 1e-10
            assert abs(complex(back.lambda2) - complex(lp.lambda2)) < 1e-10

    def test_theta_quotient_vs_jacobi(self):
        rng = _rng()
        for _ in range(10):
            t = _random_tau(rng)
            l2sq = (theta4(t) ** 2 / theta3(t) ** 2) ** 2
            assert abs(l2sq - (1.0 - lambda_hauptmodul(t))) < 1e-13


class TestPi0Modular:
    def test_cusp_normalization(self):
        assert abs(pi0_modular(TauPair(20j, 20j)) - 1.0) < 1e-12

    def test_symmetric_point_bridge(self):
        tp = TauPair(1j, 1j)
        got = pi0_modular(tp)
        want = period_basis(inverse_mirror(tp)).pi0
        assert abs(got - want) < 1e-10

    def test_bridge_random(self):
        rng = _rng()
        for _ in range(50):
            lp = _domain_pair(rng)
            got = pi0_modular(mirror_map(lp))
            want = period_basis(lp).pi0
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_k_theta_identity(self):
        # valid off the cut of K: reject tau whose Hauptmodul straddles [1, oo)
        rng = _rng()
        done = 0
        while done < 50:
            t = _random_tau(rng)
            lam = lambda_hauptmodul(t)
            if lam.real > 0.95 and abs(lam.imag) < 0.01:
                continue
            done += 1
            resid = ellint_K(lam) - np.pi / 2 * theta3(t) ** 2
            assert abs(resid) < 1e-11

    def test_cusp_theta2_decay(self):
        # theta2(20i) = 2 exp(-5 pi) + smaller terms
        assert abs(theta2(20j) - 2.0 * np.exp(-5.0 * np.pi)) < 1e-15


class TestMultiplierProbe:
    def _samples(self, n=5):
        rng = _rng()
        return [
            TauPair(
                complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)),
                complex(rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.6)),
            )
            for _ in range(n)
        ]

    def test_identity_element(self):
        eps = multiplier_probe(ModularGroupElement(1, 0, 0, 1), 1, self._samples())
        assert abs(eps - 1.0) < 1e-10

    def test_translation_generator_both_slots(self):
        # The slot-1 assertion rests on theta2 being formed from principal
        # powers of the nome, which makes it invariant under tau -> tau + 2.
        # The holomorphic theta2^2 changes sign there, and slot 1 would fail.
        g = ModularGroupElement(1, 2, 0, 1)
        for slot in (1, 2):
            eps = multiplier_probe(g, slot, self._samples())
            assert abs(abs(eps) - 1.0) < 1e-8

    def test_lower_generator_slot_one(self):
        eps = multiplier_probe(ModularGroupElement(1, 0, 2, 1), 1, self._samples())
        assert abs(abs(eps) - 1.0) < 1e-8

    def test_lower_generator_slot_two_not_constant(self):
        # Measured obstruction: theta3^2 and theta4^2 transform with opposite
        # signs under [[1,0],[2,1]], so the slot-2 ratio genuinely varies.
        # The probe's contract is to report this rather than average it away.
        with pytest.raises(NonConstantRatioError) as exc:
            multiplier_probe(ModularGroupElement(1, 0, 2, 1), 2, self._samples())
        assert len(exc.value.ratios) == 5

    def test_non_gamma2_rejected(self):
        with pytest.raises(ValueError):
            multiplier_probe(ModularGroupElement(1, 1, 0, 1), 1, self._samples())

    def test_determinant_validated(self):
        with pytest.raises(ValueError):
            ModularGroupElement(1, 2, 2, 1)
