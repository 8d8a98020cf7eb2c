"""Jacobi theta constants, the level-2 Hauptmodul, and the mirror map.

Nome convention: q = exp(i pi tau), cached per point; theta terms are formed
as principal powers of q, so every theta value here is a single-valued
function of the nome (in particular tau -> tau + 2 leaves all three thetas
unchanged).  Square roots of the Hauptmodul are avoided entirely: the
factorized coordinates are taken as theta quotients, which are single-valued
on the upper half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConstantRatioError
from .factorization import LambdaPair, _in_theorem_domain
from .special import ellint_K

__all__ = [
    "Tau",
    "TauPair",
    "ModularGroupElement",
    "theta2",
    "theta3",
    "theta4",
    "lambda_hauptmodul",
    "mirror_map",
    "inverse_mirror",
    "pi0_modular",
    "multiplier_probe",
]

_THETA_FLOOR = 1e-17
_THETA_MIN_TERMS = 8
_THETA_MAX_TERMS = 512


class Tau:
    """Point of the upper half-plane with its nome cached."""

    __slots__ = ("value", "q")

    def __init__(self, value: complex):
        value = complex(value)
        if value.imag <= 0:
            raise DomainError(f"tau = {value} is not in the upper half-plane")
        self.value = value
        self.q = complex(np.exp(1j * np.pi * value))

    def __repr__(self):
        return f"Tau({self.value!r})"


@dataclass(frozen=True)
class TauPair:
    tau1: complex
    tau2: complex


def _nome(t) -> complex:
    if isinstance(t, Tau):
        return t.q
    return Tau(t).q


def theta2(t) -> complex:
    q = _nome(t)
    total = 0j
    for n in range(_THETA_MAX_TERMS):
        term = 2.0 * q ** ((n + 0.5) ** 2)
        total += term
        if n >= _THETA_MIN_TERMS and abs(term) < _THETA_FLOOR:
            return total
    return total


def theta3(t) -> complex:
    q = _nome(t)
    total = 1.0 + 0j
    for n in range(1, _THETA_MAX_TERMS):
        term = 2.0 * q ** (n * n)
        total += term
        if n >= _THETA_MIN_TERMS and abs(term) < _THETA_FLOOR:
            return total
    return total


def theta4(t) -> complex:
    q = _nome(t)
    total = 1.0 + 0j
    for n in range(1, _THETA_MAX_TERMS):
        term = 2.0 * (-1) ** n * q ** (n * n)
        total += term
        if n >= _THETA_MIN_TERMS and abs(term) < _THETA_FLOOR:
            return total
    return total


def lambda_hauptmodul(t) -> complex:
    """Hauptmodul of the level-2 curve: lambda = theta2^4 / theta3^4."""
    return theta2(t) ** 4 / theta3(t) ** 4


def mirror_map_arrays(l1, l2):
    """tau1 = i K(1-L1^2)/K(L1^2), tau2 = i K(L2^2)/K(1-L2^2) over broadcastable arrays.

    The four moduli of every pair go to K in one call; scalars are computed
    as arrays of one element, so a pair's coordinates do not depend on the
    other pairs passed with it.  DomainError if any pair lies outside
    |L1^2| < 1, |1 - L2^2| < 1 or any coordinate leaves the upper half-plane.
    """
    l1, l2 = np.broadcast_arrays(
        np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    )
    shape = l1.shape
    l1, l2 = l1.ravel(), l2.ravel()
    if not _in_theorem_domain(l1, l2).all():
        raise DomainError("lambda pair outside the tracked domain")
    sq1, sq2 = l1 * l1, l2 * l2
    k1c, k1, k2, k2c = ellint_K(np.array((1.0 - sq1, sq1, sq2, 1.0 - sq2)))
    t1 = 1j * k1c / k1
    t2 = 1j * k2 / k2c
    if (t1.imag <= 0).any() or (t2.imag <= 0).any():
        raise DomainError("mirror map left the upper half-plane")
    return t1.reshape(shape), t2.reshape(shape)


def mirror_map(lp: LambdaPair) -> TauPair:
    """Canonical coordinates of one pair; see ``mirror_map_arrays``."""
    t1, t2 = mirror_map_arrays(lp.lambda1, lp.lambda2)
    return TauPair(complex(t1), complex(t2))


def inverse_mirror(tp: TauPair) -> LambdaPair:
    """L1 = theta2(tau1)^2/theta3(tau1)^2, L2 = theta4(tau2)^2/theta3(tau2)^2.

    Theta quotients keep the square-root branch single-valued: L1^2 equals
    the Hauptmodul at tau1 and L2^2 equals one minus the Hauptmodul at tau2,
    continuously anchored at (L1, L2) -> (0, 1) for large imaginary parts.
    """
    l1 = theta2(tp.tau1) ** 2 / theta3(tp.tau1) ** 2
    l2 = theta4(tp.tau2) ** 2 / theta3(tp.tau2) ** 2
    return LambdaPair(l1, l2)


def pi0_modular(tp: TauPair) -> complex:
    """Holomorphic period in modular coordinates:
    theta2(tau1)^2 theta3(tau2)^2 + theta4(tau2)^2 theta3(tau1)^2."""
    return (
        theta2(tp.tau1) ** 2 * theta3(tp.tau2) ** 2
        + theta4(tp.tau2) ** 2 * theta3(tp.tau1) ** 2
    )


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
    ratios = []
    for tp in samples:
        if slot == 1:
            moved = TauPair(g.apply(tp.tau1), tp.tau2)
            j = g.automorphy(tp.tau1)
        else:
            moved = TauPair(tp.tau1, g.apply(tp.tau2))
            j = g.automorphy(tp.tau2)
        ratios.append(pi0_modular(moved) / (j * pi0_modular(tp)))
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
