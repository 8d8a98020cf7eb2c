"""Scalar special functions: Gamma, complete elliptic integrals, Gauss 2F1.

Branch conventions: all square roots and powers are principal (cut on the
negative real axis); K(m) uses the squared-modulus convention with its cut
placed on m in [1, oo).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError

__all__ = [
    "SeriesControl",
    "Hyper2F1Params",
    "gamma_fn",
    "ellint_K",
    "ellint_E",
    "gauss_2f1",
    "deriv_K",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for power series."""

    max_terms: int = 2000
    rel_tol: float = 1e-14
    abs_floor: float = 1e-300

    def __post_init__(self):
        if self.max_terms < 8:
            raise ValueError("max_terms must be at least 8")
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.abs_floor <= 0:
            raise ValueError("abs_floor must be positive")


@dataclass(frozen=True)
class Hyper2F1Params:
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        if _is_nonpositive_integer(self.gamma):
            raise DomainError("gamma is a non-positive integer (series pole)")


def _is_nonpositive_integer(z) -> bool:
    z = complex(z)
    return abs(z.imag) < 1e-14 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-14


# Lanczos approximation, g = 7, 9 coefficients.  Accuracy is validated in the
# test suite against the duplication formula rather than trusted blindly.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def gamma_fn(z: complex) -> complex:
    """Gamma function on the complex plane, reflection used for Re(z) < 1/2."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise SingularityError(f"gamma pole at z = {z}")
    if z.imag == 0.0:
        # math.gamma is within 4 eps on the real axis; the Lanczos sum below
        # loses up to 16 eps on (0, 3) and far more through the reflection
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        return np.pi / (np.sin(np.pi * z) * gamma_fn(1.0 - z))
    z -= 1.0
    x = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        x += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return complex(np.sqrt(2 * np.pi) * t ** (z + 0.5) * np.exp(-t) * x)


def _right_sqrt(w):
    """Square root with non-negative real part, ties broken upward."""
    s = np.sqrt(np.asarray(w, dtype=complex))
    # the principal root has Re >= 0 already; a tie (Re = 0) needs w on the
    # non-positive real axis, where -0.0j gives the downward root -i sqrt|w|
    tie = s.real == 0
    if np.count_nonzero(tie):
        s = np.where(tie & (s.imag < 0), -s, s)
    return s


_AGM_MAX_ITER = 64


def _agm_sequence(m, want_sum=False):
    """AGM(1, sqrt(1-m)) over a 1-d array; optionally sum(2^(n-1) c_n^2) for E.

    Each element stops on its own test |a - b| <= 4e-16 |a|: converged
    elements leave the working arrays, so an element's result does not
    depend on the other elements of the array.
    """
    a = np.ones_like(m)
    b = _right_sqrt(1.0 - m)
    total = m / 2.0 if want_sum else np.zeros_like(m)
    agm, sums = np.empty_like(m), np.empty_like(m)
    live = np.arange(m.size)  # positions of the elements still iterating
    pow2 = 0.5
    for _ in range(_AGM_MAX_ITER):
        done = np.abs(a - b) <= 4e-16 * np.abs(a)
        stopped = np.count_nonzero(done)
        if stopped == live.size:
            agm[live], sums[live] = a, total
            return agm, sums
        if stopped:
            agm[live[done]], sums[live[done]] = a[done], total[done]
            keep = ~done
            live, a, b, total = live[keep], a[keep], b[keep], total[keep]
        if want_sum:
            c = (a - b) / 2.0
            pow2 *= 2.0
            total = total + pow2 * c * c
        a, b = (a + b) / 2.0, _right_sqrt(a * b)
    raise ConvergenceError("AGM iteration stalled (branch-straddling input?)")


def _like_input(out, arr):
    """A flat result back in the shape of the input; a complex for a scalar."""
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def ellint_K(m) -> complex:
    """Complete elliptic integral of the first kind, K(m) = (pi/2) 2F1(1/2,1/2;1|m).

    Computed by the complex AGM on the principal branch; accepts scalars
    or arrays.  Every element stops its AGM on its own convergence test,
    and scalars are computed as arrays of one element, so
    ``ellint_K(m)[i]`` equals ``ellint_K(m[i])`` bit for bit; one call on
    many moduli pays numpy's per-call overhead once.
    """
    arr = np.asarray(m, dtype=complex)
    if np.count_nonzero(arr == 1):
        raise SingularityError("K(m) is singular at m = 1")
    agm, _ = _agm_sequence(arr.ravel())
    return _like_input(np.pi / (2.0 * agm), arr)


def ellint_E(m) -> complex:
    """Complete elliptic integral of the second kind; m and the AGM as for K."""
    arr = np.asarray(m, dtype=complex)
    flat = arr.ravel()
    ones = flat == 1
    agm, total = _agm_sequence(np.where(ones, 0.0, flat), want_sum=True)
    out = np.where(ones, 1.0 + 0j, np.pi / (2.0 * agm) * (1.0 - total))
    return _like_input(out, arr)


def deriv_K(m) -> complex:
    """Closed-form dK/dm = (E(m) - (1-m) K(m)) / (2 m (1-m))."""
    arr = np.asarray(m, dtype=complex)
    if np.any(arr == 0) or np.any(arr == 1):
        raise SingularityError("dK/dm is singular at m in {0, 1}")
    out = (ellint_E(arr) - (1.0 - arr) * ellint_K(arr)) / (2.0 * arr * (1.0 - arr))
    return complex(out) if np.isscalar(m) or np.ndim(m) == 0 else out


def _2f1_raw_series(alpha, beta, gamma, z, ctrl: SeriesControl) -> complex:
    term = 1.0 + 0j
    total = 1.0 + 0j
    below = 0
    for n in range(ctrl.max_terms):
        term *= (alpha + n) * (beta + n) / ((gamma + n) * (n + 1)) * z
        total += term
        if abs(term) <= ctrl.rel_tol * abs(total) + ctrl.abs_floor:
            below += 1
            if below >= 3:
                return total
        else:
            below = 0
    raise ConvergenceError("2F1 series did not meet rel_tol within max_terms")


def gauss_2f1(p: Hyper2F1Params, z: complex, c: SeriesControl | None = None) -> complex:
    """Gauss hypergeometric function via direct series, Pfaff-accelerated.

    The direct series is used for |z| <= 0.6; for larger |z| < 1 the Pfaff
    transformation z -> z/(z-1) is applied automatically when it shrinks the
    effective argument.
    """
    c = c or SeriesControl()
    z = complex(z)
    if z == 0:
        return 1.0 + 0j
    w = z / (z - 1.0) if z != 1.0 else None
    if abs(z) <= 0.6:
        return _2f1_raw_series(p.alpha, p.beta, p.gamma, z, c)
    if w is not None and abs(w) <= 0.9 and abs(w) < abs(z):
        pref = (1.0 - z) ** (-p.alpha)
        return pref * _2f1_raw_series(p.alpha, p.gamma - p.beta, p.gamma, w, c)
    if abs(z) < 0.95:
        return _2f1_raw_series(p.alpha, p.beta, p.gamma, z, c)
    raise ConvergenceError(f"2F1 argument z = {z} outside the covered domain")
