"""Jacobi theta constants, the level-2 Hauptmodul, and the mirror map.

Theta convention: each term is exp(i pi tau k^2 / 4) with Re tau reduced to
(-1, 1], the principal power q^(k^2/4) of the nome q = exp(i pi tau), so all
three thetas are unchanged under tau -> tau + 2.  Odd k give theta2, even k
theta3 and theta4 (DLMF 20.2).  Each tau keeps its terms down to 2^-56 of its
leading one.  Square roots of the Hauptmodul are avoided entirely: the
factorized coordinates are taken as theta quotients, which are single-valued
on the upper half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, NonConstantRatioError, SingularityError
from .factorization import _OUTSIDE_DOMAIN, LambdaPair, _squares_in_domain
from .special import _complex_pair, _like_input, ellint_K

__all__ = [
    "TauPair",
    "ModularGroupElement",
    "theta2",
    "theta3",
    "theta4",
    "lambda_hauptmodul",
    "mirror_map",
    "inverse_mirror",
    "inverse_mirror_arrays",
    "pi0_modular",
    "pi0_modular_arrays",
    "multiplier_probe",
]

_THETA_MAX_TERMS = 512  # terms of any one series; k runs to twice this
_THETA_EXPONENT = 4.0 * 56.0 * np.log(2.0) / np.pi  # pi y (k^2 - 1)/4 <= 56 ln 2
_K2 = np.arange(2.0 * _THETA_MAX_TERMS + 4.0)[:, None] ** 2 + 0j  # k = 0 to 1027
_GRID = 1.5 * 2.0**27  # x + _GRID - _GRID rounds |x| <= 1 to a multiple of 2^-25


@dataclass(frozen=True)
class TauPair:
    tau1: complex
    tau2: complex


def _thetas(tau):
    """(theta2, theta3, theta4) at every tau of an array, as flat arrays.

    Term k of a tau is kept while k^2 <= 1 + 224 ln 2 / (pi Im tau), that is
    down to 2^-56 of the leading theta2 term; the terms past it are exact
    zeros and the sums run in order of k, so every element gets the bits of
    its own one-element call.  The results stay arrays even for one tau:
    numpy scalars round complex products differently from array loops.
    DomainError if any Im tau <= 0; ConvergenceError if a series needs more
    than 512 terms (Im tau below about 4.7e-5).
    """
    tau = np.asarray(tau, dtype=complex).ravel()
    n, y = tau.size, tau.imag
    if np.count_nonzero(y > 0) < n:
        raise DomainError("tau is not in the upper half-plane")
    limit = 1.0 + _THETA_EXPONENT / y
    widest = max(limit.tolist(), default=1.0)
    if widest >= (2 * _THETA_MAX_TERMS + 1) ** 2:
        raise ConvergenceError(
            f"theta series needs more than {_THETA_MAX_TERMS} terms "
            f"at Im tau = {y.min():.3g}"
        )
    # Re tau into (-1, 1]: x - 2 rint(x/2) is exact and lies in [-1, 1]
    x = tau.real - 2.0 * np.rint(0.5 * tau.real)
    x[x == -1.0] = 1.0
    # The phase pi x k^2 / 4 is reduced mod 2 pi exactly: x on a 2^-25 grid
    # times k^2 < 2^21 is exact, and so is its remainder mod 8.  Rounding
    # the product instead cost up to 2.4e-14 |theta3| at tau = 1 + 0.001i.
    grid = (x + _GRID) - _GRID
    rows = 4 * math.ceil((math.isqrt(int(widest)) + 1) / 4)
    k2 = _K2[:rows]
    z = k2 * ((x - grid) + 1j * y)
    z.real += np.fmod(grid * k2.real, 8.0)
    terms = 2.0 * np.exp(0.25j * np.pi * z)
    terms[k2.real > limit] = 0.0
    terms[0] = 1.0
    # one running sum per class of k mod 4, added in order of k whatever the
    # length of the array: k = 1, 3 give theta2, k = 0, 2 theta3 and theta4
    s0, s1, s2, s3 = np.add.accumulate(terms.reshape(rows // 4, 4, n))[-1]
    return s1 + s3, s0 + s2, s0 - s2


def theta2(tau):
    """theta2 at a scalar (returns a complex) or an array of tau."""
    return _like_input(_thetas(tau)[0], tau)


def theta3(tau):
    """theta3 at a scalar (returns a complex) or an array of tau."""
    return _like_input(_thetas(tau)[1], tau)


def theta4(tau):
    """theta4 at a scalar (returns a complex) or an array of tau."""
    return _like_input(_thetas(tau)[2], tau)


def lambda_hauptmodul(tau):
    """Hauptmodul of the level-2 curve: lambda = theta2^4 / theta3^4."""
    th2, th3, _ = _thetas(tau)
    return _like_input(th2**4 / th3**4, tau)


_MIRROR_ERRORS = (
    (DomainError, _OUTSIDE_DOMAIN),
    (SingularityError, "K(m) is singular at m = 1"),
    (DomainError, "mirror map left the upper half-plane"),
)


def _mirror_map_rows(l1, l2):
    """tau1, tau2 and a code for each pair of flat complex arrays: 0 if good, else 1
    plus the index of the first check it fails in ``_MIRROR_ERRORS``, the errors a
    one-pair call raises in check order.  A bad pair's moduli are all 0 to the AGM."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq1, sq2 = l1 * l1, l2 * l2
        moduli = np.array((1.0 - sq1, sq1, sq2, 1.0 - sq2))
        outside = ~_squares_in_domain(sq1, sq2)
    singular = (moduli == 1).any(0)
    k1c, k1, k2, k2c = ellint_K(np.where(outside | singular, 0.0, moduli))
    t1 = 1j * k1c / k1
    t2 = 1j * k2 / k2c
    left = (t1.imag <= 0) | (t2.imag <= 0)
    return t1, t2, np.where(outside, 1, np.where(singular, 2, np.where(left, 3, 0)))


def mirror_map_arrays(l1, l2):
    """tau1 = i K(1-L1^2)/K(L1^2), tau2 = i K(L2^2)/K(1-L2^2) over broadcastable arrays.

    The four moduli of every pair go to K in one call; scalars are computed
    as arrays of one element, so a pair's coordinates do not depend on the
    other pairs passed with it.  If a pair fails a check, raises the error of
    the first check in ``_MIRROR_ERRORS`` that any pair fails.
    """
    l1, l2 = _complex_pair(l1, l2)
    t1, t2, code = _mirror_map_rows(l1.ravel(), l2.ravel())
    if np.count_nonzero(code):
        error, message = _MIRROR_ERRORS[code[code > 0].min() - 1]
        raise error(message)
    return t1.reshape(l1.shape), t2.reshape(l1.shape)


def mirror_map(lp: LambdaPair) -> TauPair:
    """Canonical coordinates of one pair; see ``mirror_map_arrays``."""
    t1, t2 = mirror_map_arrays(lp.lambda1, lp.lambda2)
    return TauPair(complex(t1), complex(t2))


def inverse_mirror_arrays(t1, t2):
    """L1 = theta2(tau1)^2/theta3(tau1)^2, L2 = theta4(tau2)^2/theta3(tau2)^2.

    Theta quotients keep the square-root branch single-valued: L1^2 equals
    the Hauptmodul at tau1 and L2^2 equals one minus the Hauptmodul at tau2,
    continuously anchored at (L1, L2) -> (0, 1) for large imaginary parts.
    Both slots go to the theta kernel in one call.
    """
    (sq2, sq3, sq4), shape = _theta_squares(t1, t2)
    return (sq2[0] / sq3[0]).reshape(shape), (sq4[1] / sq3[1]).reshape(shape)


def inverse_mirror(tp: TauPair) -> LambdaPair:
    """Factorized coordinates of one pair; see ``inverse_mirror_arrays``."""
    l1, l2 = inverse_mirror_arrays(tp.tau1, tp.tau2)
    return LambdaPair(complex(l1), complex(l2))


def pi0_modular_arrays(t1, t2):
    """Holomorphic period in modular coordinates over broadcastable arrays:
    theta2(tau1)^2 theta3(tau2)^2 + theta4(tau2)^2 theta3(tau1)^2."""
    (sq2, sq3, sq4), shape = _theta_squares(t1, t2)
    return (sq2[0] * sq3[1] + sq4[1] * sq3[0]).reshape(shape)


def pi0_modular(tp: TauPair) -> complex:
    """Holomorphic period of one pair; see ``pi0_modular_arrays``."""
    return complex(pi0_modular_arrays(tp.tau1, tp.tau2))


def _theta_squares(t1, t2):
    """theta2^2, theta3^2, theta4^2 as (2, n) arrays, row 0 at tau1 and row 1
    at tau2, from one kernel call; and the shape tau1 and tau2 broadcast to."""
    shape = np.broadcast(t1, t2).shape
    tau = np.empty((2,) + shape, dtype=complex)
    tau[0], tau[1] = t1, t2
    return [(th * th).reshape(2, -1) for th in _thetas(tau)], shape


@dataclass(frozen=True)
class ModularGroupElement:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")

    @property
    def in_gamma2(self) -> bool:
        return (
            self.a % 2 == 1
            and self.d % 2 == 1
            and self.b % 2 == 0
            and self.c % 2 == 0
        )

    def apply(self, tau: complex) -> complex:
        tau = complex(tau)
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def automorphy(self, tau: complex) -> complex:
        return self.c * complex(tau) + self.d


def multiplier_probe(g: ModularGroupElement, slot: int, samples) -> complex:
    """Common multiplier of the holomorphic period under g acting in one slot.

    Computes eps = Pi0(g tau_s, tau_o) / ((c tau_s + d) Pi0(tau_s, tau_o)) at
    each sample (slot s in {1, 2}); returns the shared value.  Raises
    NonConstantRatioError when the ratios disagree beyond tolerance or their
    modulus is not 1 -- either finding falsifies the scaling law in the
    implemented conventions.
    """
    if slot not in (1, 2):
        raise ValueError("slot must be 1 or 2")
    if not g.in_gamma2:
        raise ValueError("group element is not congruent to the identity mod 2")
    taus = np.array([(tp.tau1, tp.tau2) for tp in samples], dtype=complex).T
    moving = taus[slot - 1].tolist()
    moved = taus.copy()
    moved[slot - 1] = [g.apply(t) for t in moving]
    j = np.array([g.automorphy(t) for t in moving])
    ratios = (pi0_modular_arrays(*moved) / (j * pi0_modular_arrays(*taus))).tolist()
    mean = sum(ratios) / len(ratios)
    spread = max(abs(r - mean) for r in ratios)
    if spread > 1e-8:
        raise NonConstantRatioError(
            f"multiplier ratio varies across samples (spread {spread:.3e})",
            ratios=ratios,
        )
    if abs(abs(mean) - 1.0) > 1e-8:
        raise NonConstantRatioError(
            f"multiplier modulus {abs(mean):.6f} differs from 1", ratios=ratios
        )
    return mean
