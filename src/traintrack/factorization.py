"""Factorized period basis of the two-parameter K3 family.

The change of variables T maps the factorized coordinates (L1, L2) to the
base point (x, y); the four periods are products of complete elliptic
integrals, and the bilinear pairing against the fixed intersection matrix
J (x) J gives the value of the conformal traintrack integral up to an overall
normalization that is not fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .appell import ModuliPoint
from .errors import BranchTrackingError, DomainError
from .special import ellint_K

__all__ = [
    "LambdaPair",
    "PeriodVector",
    "SIGMA",
    "map_T",
    "invert_T",
    "period_basis",
    "period_component_fn",
    "quadratic_relation",
    "positivity_pairing",
    "traintrack_value",
]

J = np.array([[0, 1], [-1, 0]], dtype=np.int64)
SIGMA = np.kron(J, J)  # antidiagonal blocks; SIGMA @ SIGMA = identity


@dataclass(frozen=True)
class LambdaPair:
    lambda1: complex
    lambda2: complex

    def __post_init__(self):
        if complex(self.lambda1) + complex(self.lambda2) == 0:
            raise DomainError("degenerate pair: lambda1 + lambda2 = 0")

    @property
    def in_theorem_domain(self) -> bool:
        return bool(_in_theorem_domain(self.lambda1, self.lambda2))


def _in_theorem_domain(l1, l2):
    """Elementwise |L1^2| < 1 and |1 - L2^2| < 1, where the periods are tracked."""
    l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    return (np.abs(l1 * l1) < 1.0) & (np.abs(1.0 - l2 * l2) < 1.0)


@dataclass(frozen=True)
class PeriodVector:
    pi0: complex
    pi1: complex
    pi2: complex
    pi3: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.pi0, self.pi1, self.pi2, self.pi3], dtype=complex)


def _map_T_arrays(l1, l2):
    s2 = (l1 + l2) ** 2
    return 4.0 * l1 * l2 / s2, -(1.0 - l1 * l1) * (1.0 - l2 * l2) / s2


def map_T(lp: LambdaPair) -> ModuliPoint:
    """x = 4 L1 L2 / (L1+L2)^2,  y = -(1-L1^2)(1-L2^2) / (L1+L2)^2."""
    return ModuliPoint(*_map_T_arrays(complex(lp.lambda1), complex(lp.lambda2)))


def invert_T_arrays(x, y):
    """Inverse of T on the branch through (x,y)=(0,0) -> (L1,L2)=(0,1), in closed form.

    Substituting p = L1 L2 = x s^2 / 4 (s = L1 + L2) turns T into the
    quadratic (x^2/16) w^2 + (x/2 + y - 1) w + 1 = 0 in w = s^2.  Two
    identities make every root explicit:

        b^2 - x^2/4 = (1 - y)(1 - x - y)       (b = x/2 + y - 1)
        s^2 - 4 L1 L2 = s^2 (1 - x)

    so with the principal roots u = sqrt(1-y), v = sqrt(1-x-y), r = sqrt(1-x),

        s = 2 / (u + v),   L1 = s x / (2 (1 + r)),   L2 = s (1 + r) / 2.

    Cut rule: each principal root is continuous along the segment t (x, y),
    t in [0, 1], unless x, y or x + y is real and >= 1, and Re u, Re v > 0
    keeps u + v away from zero; so the formula is the continuation of the
    base branch along that segment.  T ramifies on x = 1, y = 1 and
    x + y = 1, and where the segment meets one of these cuts the branch is
    not determined: BranchTrackingError.  A non-finite x or y raises
    DomainError.

    Scalars are computed as arrays of one element, so a point's preimage
    does not depend on the other points passed with it.
    """
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    )
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("x and y must be finite")
    # numpy orders complex numbers by real part first: subtracting the larger
    # one from 1 first is exact (Sterbenz) when its real part lies in
    # [1/2, 2], which keeps that rounding out of a small radicand 1 - x - y
    radicands = np.concatenate(
        (1.0 - y, 1.0 - x, (1.0 - np.maximum(x, y)) - np.minimum(x, y))
    )
    if ((radicands.imag == 0) & (radicands.real <= 0)).any():
        raise BranchTrackingError(
            "x, y or x + y is real and >= 1: the segment from the base point "
            "meets a branch cut of T^-1"
        )
    u, r, v = np.sqrt(radicands).reshape(3, x.size)
    s = 2.0 / (u + v)
    l1 = s * x / (2.0 * (1.0 + r))
    l2 = s * (1.0 + r) / 2.0
    xr, yr = _map_T_arrays(l1, l2)
    err = (np.abs(xr - x) + np.abs(yr - y)).max()
    if not err <= 1e-10 * max(1.0, float((np.abs(x) + np.abs(y)).max())):
        raise BranchTrackingError(
            f"round trip through T failed (residual {err:.2e}); "
            "point outside the tracked neighborhood"
        )
    return l1.reshape(shape), l2.reshape(shape)


def invert_T(pt: ModuliPoint) -> LambdaPair:
    """Inverse of T on the branch continued from (L1,L2)=(0,1); see invert_T_arrays."""
    l1, l2 = invert_T_arrays(pt.x, pt.y)
    return LambdaPair(complex(l1), complex(l2))


def _k_or_inf(m):
    """K(m) with the logarithmic singularity at m = 1 mapped to infinity.

    Lets boundary pairs such as (0, 1) still report their finite components
    (there, only Pi0 is finite).
    """
    arr = np.asarray(m, dtype=complex)
    ones = arr == 1
    if not np.count_nonzero(ones):
        return ellint_K(arr)
    k = ellint_K(np.where(ones, 0.0, arr))
    return np.where(ones, complex(np.inf, 0.0), k)


def periods_from_lambdas(l1, l2):
    """The four period components as arrays, no domain validation.

    The moduli L1^2, 1 - L1^2, L2^2, 1 - L2^2 of every point go to K in one
    call.  Scalars are computed as arrays of one element, so a point's
    components do not depend on the other points passed with it.
    """
    l1, l2 = np.broadcast_arrays(
        np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    )
    shape = l1.shape
    l1, l2 = l1.ravel(), l2.ravel()
    sq1, sq2 = l1 * l1, l2 * l2
    k1, k1c, k2, k2c = _k_or_inf(np.array((sq1, 1.0 - sq1, sq2, 1.0 - sq2)))
    pref = 4.0 / np.pi**2 * (l1 + l2)
    with np.errstate(invalid="ignore"):
        periods = (
            pref * k1 * k2c,
            1j * pref * k1c * k2c,
            1j * pref * k1 * k2,
            -pref * k1c * k2,
        )
    return tuple(p.reshape(shape) for p in periods)


def period_basis(lp: LambdaPair) -> PeriodVector:
    """Periods Pi0..Pi3 as elliptic-integral products, on the tracked domain."""
    if not lp.in_theorem_domain:
        raise DomainError(
            "lambda pair outside the domain |L1^2| < 1, |1 - L2^2| < 1"
        )
    p0, p1, p2, p3 = periods_from_lambdas(lp.lambda1, lp.lambda2)
    return PeriodVector(complex(p0), complex(p1), complex(p2), complex(p3))


def period_component_fn(index: int):
    """Vectorized handle (x, y) -> Pi_index(invert_T(x, y)) for PDE checks."""
    if index not in (0, 1, 2, 3):
        raise ValueError("index must be 0..3")

    def handle(x, y):
        l1, l2 = invert_T_arrays(x, y)
        return periods_from_lambdas(l1, l2)[index]

    return handle


def quadratic_relation(pv: PeriodVector) -> complex:
    """Pi^T Sigma Pi = 2 (Pi0 Pi3 - Pi1 Pi2); vanishes for genuine periods."""
    v = pv.as_array()
    return complex(v @ SIGMA @ v)


def _pairing(pv: PeriodVector):
    """The real pairing -Pi^dagger Sigma Pi, and the complex product it is read from."""
    v = pv.as_array()
    val = -np.conj(v) @ SIGMA @ v
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise DomainError(f"pairing has imaginary residue {val.imag:.3e}")
    return float(val.real), val


def positivity_pairing(pv: PeriodVector) -> float:
    """The real pairing (-i)^2 Pi^dagger Sigma Pi = -Pi^dagger Sigma Pi."""
    return _pairing(pv)[0]


def traintrack_value(z1: complex, z2: complex) -> float:
    """Pairing value of the conformal traintrack integral at kinematics (z1, z2).

    Uses the correspondence (x, y) = (z1, 1 - z2); the overall constant
    normalization against the defining integral is not fixed.
    """
    pt = ModuliPoint(complex(z1), 1.0 - complex(z2))
    return positivity_pairing(period_basis(invert_T(pt)))
