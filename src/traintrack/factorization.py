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
from .errors import BranchTrackingError, DomainError, SingularityError
from .special import _complex_pair, _ellint_K_dK, ellint_K

__all__ = [
    "LambdaPair",
    "PeriodVector",
    "SIGMA",
    "map_T",
    "invert_T",
    "period_basis",
    "period_derivatives",
    "quadratic_relation",
    "positivity_pairing",
    "traintrack_value",
]

J = np.array([[0, 1], [-1, 0]], dtype=np.int64)
SIGMA = np.kron(J, J)  # antidiagonal blocks; SIGMA @ SIGMA = identity
_SIGMA_C = SIGMA.astype(complex)  # so the pairing does not cast SIGMA per matmul


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


_OUTSIDE_DOMAIN = "lambda pair outside the domain |L1^2| < 1, |1 - L2^2| < 1"


def _in_theorem_domain(l1, l2):
    """Elementwise |L1^2| < 1 and |1 - L2^2| < 1, where the periods are tracked."""
    l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is outside
        return _squares_in_domain(l1 * l1, l2 * l2)


def _squares_in_domain(sq1, sq2):
    """The same on the squares L1^2 and L2^2, under the errstate that formed them."""
    return (np.abs(sq1) < 1.0) & (np.abs(1.0 - sq2) < 1.0)


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
    """x = 4 L1 L2 / (L1+L2)^2,  y = -(1-L1^2)(1-L2^2) / (L1+L2)^2, as the element of a
    one-element ``_map_T_arrays`` call; DomainError where x or y is not finite."""
    with np.errstate(all="ignore"):
        x, y = _map_T_arrays(*np.array([[lp.lambda1], [lp.lambda2]], dtype=complex))
    if not np.isfinite([x, y]).all():
        raise DomainError("T(L1, L2) is not finite")
    return ModuliPoint(complex(x[0]), complex(y[0]))


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
    x, y = _complex_pair(x, y)
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    if np.count_nonzero(np.isfinite(x) & np.isfinite(y)) < x.size:
        raise DomainError("x and y must be finite")
    # numpy orders complex numbers by real part first: subtracting the larger
    # one from 1 first is exact (Sterbenz) when its real part lies in
    # [1/2, 2], which keeps that rounding out of a small radicand 1 - x - y
    radicands = np.concatenate(
        (1.0 - y, 1.0 - x, (1.0 - np.maximum(x, y)) - np.minimum(x, y))
    )
    if np.count_nonzero((radicands.imag == 0) & (radicands.real <= 0)):
        raise BranchTrackingError(
            "x, y or x + y is real and >= 1: the segment from the base point "
            "meets a branch cut of T^-1"
        )
    u, r, v = np.sqrt(radicands).reshape(3, x.size)
    s, r1 = 2.0 / (u + v), 1.0 + r
    l1 = s * x / (2.0 * r1)
    l2 = s * r1 / 2.0
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
    Each K is principal, so in the theorem domain only Pi0 is continuous: Pi1 jumps across
    the cut of K(1 - L1^2) at L1^2 <= 0, Pi2 and Pi3 across that of K(L2^2) at L2^2 >= 1.
    """
    l1, l2 = _complex_pair(l1, l2)
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
    """Periods Pi0..Pi3, elliptic-integral products, on the tracked domain; only Pi0 has no cut."""
    if not lp.in_theorem_domain:
        raise DomainError(_OUTSIDE_DOMAIN)
    p0, p1, p2, p3 = periods_from_lambdas(lp.lambda1, lp.lambda2)
    return PeriodVector(complex(p0), complex(p1), complex(p2), complex(p3))


class _Jet:
    """f(x, y) to second order: c[m, n] = d^(m+n) f / dx^m dy^n / (m! n!), 0 past m + n = 2.

    Each c[m, n] is an array over the points; a number or such an array is a
    constant.  ``apply`` composes g of one variable, given g, g', g''.
    """

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Jet(self.c + (other.c if isinstance(other, _Jet) else _ONE * other))

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            return _Jet(self.c * other)
        c = np.zeros_like(self.c)
        for (i, j), (k, l) in _PAIRS:
            c[i + k, j + l] += self.c[i, j] * other.c[k, l]
        return _Jet(c)

    __radd__, __rmul__ = __add__, __mul__

    def apply(self, g, dg, d2g):
        d = _Jet(self.c - _ONE * self.c[0, 0])
        return d * dg + d * d * (0.5 * d2g) + g

    def reciprocal(self):
        w = 1.0 / self.c[0, 0]
        return self.apply(w, -w * w, 2.0 * w * w * w)

    def sqrt(self):
        w = np.sqrt(self.c[0, 0])
        return self.apply(w, 0.5 / w, -0.25 / (w * self.c[0, 0]))


# the jets 1, dy and dx; the pairs of terms a product keeps; m! n!
_ONE, _DY, _DX = np.eye(9).reshape(9, 3, 3, 1)[[0, 1, 3]]
_PAIRS = [((i, j), (k, l)) for i, j, k, l in np.ndindex(3, 3, 3, 3) if i + j + k + l <= 2]
_SCALE = np.array([[1.0, 1.0, 2.0], [1.0, 1.0, np.nan], [2.0, np.nan, np.nan]])[..., None, None]


def period_derivatives(x, y):
    """The partials of the four periods at the points (x, y), to second order, exactly.

    D[m, n, i] = d^(m+n) Pi_i / dx^m dy^n for m + n <= 2, on trailing axes
    of the broadcast shape of x and y, and NaN for m + n > 2.  A point that
    invert_T_arrays rejects raises as it raises; one on x = 0 or y = 0, where
    some periods are singular, raises SingularityError.  The closed forms of
    invert_T_arrays and periods_from_lambdas are carried as jets: K and dK/dm
    come from one AGM, and K'' from Legendre's equation
    m (1 - m) K'' + (1 - 2m) K' = K/4 (DLMF §19.4).  A point's partials do not
    depend on the other points.
    """
    invert_T_arrays(x, y)
    x, y = _complex_pair(x, y)
    shape, x, y = x.shape, x.ravel(), y.ravel()
    if np.count_nonzero((x == 0) | (y == 0)):
        raise SingularityError("periods singular on x = 0 and y = 0")
    # sqrt(1 - y), sqrt(1 - x), sqrt(1 - x - y), the radicands as invert_T_arrays forms them
    radicands = (1.0 - y, 1.0 - x, (1.0 - np.maximum(x, y)) - np.minimum(x, y))
    u, r, v = (_Jet(_ONE * c - e).sqrt() for c, e in zip(radicands, (_DY, _DX, _DX + _DY)))
    s = 2.0 * (u + v).reciprocal()
    l1 = s * _Jet(_ONE * x + _DX) * (2.0 * (1.0 + r)).reciprocal()
    l2 = 0.5 * s * (1.0 + r)
    moduli = [q for sq in (l1 * l1, l2 * l2) for q in (sq, 1.0 + -1.0 * sq)]
    m = np.concatenate([j.c[0, 0] for j in moduli])
    k, dk = _ellint_K_dK(m)
    d2k = (k / 4.0 - (1.0 - 2.0 * m) * dk) / (m * (1.0 - m))
    parts = np.split(np.array([k, dk, d2k]), 4, axis=1)
    k1, k1c, k2, k2c = (j.apply(*g) for j, g in zip(moduli, parts))
    pref = 4.0 / np.pi**2 * (l1 + l2)
    periods = (pref * k1 * k2c, 1j * pref * k1c * k2c, 1j * pref * k1 * k2, -1.0 * pref * k1c * k2)
    return (_SCALE * np.stack([p.c for p in periods], axis=2)).reshape((3, 3, 4) + shape)


def _pairing_arrays(v):
    """Pi^T Sigma Pi and -Pi^dagger Sigma Pi of the period vectors on the last axis of v.

    Each vector is multiplied as a 1 x 4 row and a 4 x 1 column, rounding as
    the 1-D v @ SIGMA @ v does (a sum over the last axis does not).  Either
    form raises DomainError if a pairing, real for every vector, has an
    imaginary residue above 1e-12 max(1, |pairing|).
    """
    v = np.asarray(v, dtype=complex)
    row, col = v[..., None, :], v[..., None]
    quad = (row @ _SIGMA_C @ col)[..., 0, 0]
    val = (-np.conj(row) @ _SIGMA_C @ col)[..., 0, 0]
    bad = np.abs(val.imag) > 1e-12 * np.maximum(1.0, np.abs(val))
    if np.count_nonzero(bad):
        raise DomainError(f"pairing has imaginary residue {val.imag[bad][0]:.3e}")
    return quad, val


def quadratic_relation(pv: PeriodVector) -> complex:
    """Pi^T Sigma Pi = 2 (Pi0 Pi3 - Pi1 Pi2); vanishes for genuine periods."""
    return complex(_pairing_arrays(pv.as_array())[0])


def positivity_pairing(pv: PeriodVector) -> float:
    """The real pairing (-i)^2 Pi^dagger Sigma Pi = -Pi^dagger Sigma Pi."""
    return float(_pairing_arrays(pv.as_array())[1].real)


def traintrack_value(z1: complex, z2: complex) -> float:
    """Pairing value of the conformal traintrack integral at kinematics (z1, z2).

    Uses the correspondence (x, y) = (z1, 1 - z2); the overall constant
    normalization against the defining integral is not fixed.  The value,
    bit for bit, and the errors are those of
    ``positivity_pairing(period_basis(invert_T(ModuliPoint(x, y))))``, taken
    on the array cores without the LambdaPair and PeriodVector between them:
    DomainError for a non-finite point or a preimage outside the theorem
    domain, BranchTrackingError where T^-1 is not tracked.
    """
    l1, l2 = invert_T_arrays(complex(z1), 1.0 - complex(z2))
    if not _in_theorem_domain(l1, l2):
        raise DomainError(_OUTSIDE_DOMAIN)
    return float(_pairing_arrays(np.array(periods_from_lambdas(l1, l2)))[1].real)
