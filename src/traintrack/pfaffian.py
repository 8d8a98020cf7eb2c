"""First-order matrix form of the hypergeometric systems and their transport.

The 2x2 connection lives in the section basis (f, z df/dz); the 4x4 one in
(F, x dF/dx, y dF/dy, x y d2F/dxdy).  Both are derived from the scalar
equations by eliminating higher derivatives, and accepted only because the
test suite checks horizontality of known solution sections and flatness.
Connection matrices are computed on arrays of points, one (d, d) matrix per
point; the scalar functions wrap the array ones.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .appell import F2Params, ModuliPoint
from .errors import ConvergenceError, DomainError, SingularityError
from .quadrature import cauchy_derivs_2d
from .special import Hyper2F1Params, ellint_E, ellint_K

__all__ = [
    "PfaffianSystem1D",
    "PfaffianSystem2D",
    "PathSpec",
    "a_2f1",
    "a_2f1_arrays",
    "system_2f1",
    "a_f2",
    "a_f2_arrays",
    "system_f2",
    "tensor_system",
    "restrict_to_line",
    "integrate_pfaffian",
    "monodromy_2f1",
    "legendre_basis_matrix",
    "gamma2_membership",
    "flatness_residual",
    "horizontality_residual_f2",
    "horizontality_residual_from_derivatives",
]

_CLEARANCE = 1e-3
# Taylor steps: ring nodes (also the most terms a step may use), the
# longest step as a fraction of the clearance R of its centre, and the
# Frobenius norm below which a propagator term is small.
_NODES = 48
_STEP = 0.35
_TAIL = 1e-14
_RING = np.exp(2j * np.pi * np.arange(_NODES) / _NODES)
_FLATNESS_NODES = 24


@dataclass(frozen=True)
class PfaffianSystem1D:
    """dY/dz = A(z) Y; ``coefficient`` maps an array of z to a (..., d, d) stack."""

    dimension: int
    coefficient: Callable[[np.ndarray], np.ndarray]
    singular_points: tuple


@dataclass(frozen=True)
class PfaffianSystem2D:
    """dY = (A_x dx + A_y dy) Y; the coefficients broadcast over (x, y) arrays."""

    dimension: int
    coefficient_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    coefficient_y: Callable[[np.ndarray, np.ndarray], np.ndarray]
    singular_locus: tuple


def _piece_position(piece):
    """z(t) on t in [0, 1] and the length of a segment (z0, z1) or an arc."""
    if len(piece) == 2:
        z0, z1 = piece
        return (lambda t: z0 + (z1 - z0) * t), abs(z1 - z0)
    c, r, phi0, dphi = piece
    return (lambda t: c + r * np.exp(1j * (phi0 + dphi * t))), abs(dphi) * r


def _piece_distance(piece, p: complex) -> float:
    """Exact least distance from a segment or an arc to the point p; see clearance."""
    if len(piece) == 2:
        z0, z1 = piece
        dz = z1 - z0
        t = ((p - z0) * dz.conjugate()).real / abs(dz) ** 2 if dz else 0.0
        return abs(p - z0 - min(max(t, 0.0), 1.0) * dz)
    c, r, phi0, dphi = piece
    w = p - c
    turn = math.copysign(1.0, dphi) * (math.atan2(w.imag, w.real) - phi0)
    if turn % (2.0 * math.pi) <= abs(dphi):
        return abs(abs(w) - r)
    return min(abs(w - r * cmath.exp(1j * phi)) for phi in (phi0, phi0 + dphi))


# Pieces join where the end of one and the start of the next agree to this
# share of their size: the ends of arcs are rounded from their angles.
_JOIN_TOL = 1e-12


def _piece_ends(piece):
    """Start and end of a segment or an arc, and the size their rounding is relative to."""
    if len(piece) == 2:
        z0, z1 = piece
        return z0, z1, abs(z0) + abs(z1)
    c, r, phi0, dphi = piece
    ends = (c + r * cmath.exp(1j * phi) for phi in (phi0, phi0 + dphi))
    return (*ends, abs(c) + r * (1.0 + abs(phi0) + abs(dphi)))


@dataclass(frozen=True)
class PathSpec:
    """A path as a chain of pieces, each starting where the one before ends.

    A piece is a segment (z0, z1) or an arc (centre, radius, start angle,
    sweep), the sweep in radians and positive counter-clockwise.
    ``polyline`` and ``circle`` build chains of one kind, and ``a + b`` is
    ``a`` followed by ``b``.  A chain whose pieces do not join raises
    ValueError when it is built.  A polyline through one point is a segment of
    length 0 and a circle of no turns an arc of no sweep: such a piece adds
    no step to a transport, but its point counts for the clearance.
    """

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a path needs at least one piece")
        for before, after in zip(self.pieces, self.pieces[1:]):
            (_, end, size), (start, _, other) = _piece_ends(before), _piece_ends(after)
            if abs(end - start) > _JOIN_TOL * max(size, other):
                raise ValueError(f"pieces do not join: one ends at {end}, the next at {start}")

    @classmethod
    def polyline(cls, points: Sequence[complex]) -> "PathSpec":
        pts = [complex(p) for p in points]
        return cls(tuple(zip(pts, pts[1:] or pts)))

    @classmethod
    def circle(
        cls, center: complex, radius: float, turns: float = 1.0, start_angle: float = 0.0
    ) -> "PathSpec":
        sweep = 2.0 * math.pi * float(turns)
        return cls(((complex(center), float(radius), float(start_angle), sweep),))

    def __add__(self, other: "PathSpec") -> "PathSpec":
        return PathSpec(self.pieces + other.pieces)

    def segments(self):
        """(z(t) on t in [0, 1], length) for each piece of nonzero length."""
        return [(pos, n) for pos, n in map(_piece_position, self.pieces) if n != 0.0]

    def clearance(self, points) -> float:
        """Exact least distance from the path to the points; inf for none.

        A segment is nearest a point at the point's projection clamped to
        its ends.  For an arc, a point whose angle about the centre lies in
        the arc's range is as far from the arc as from its circle; any other
        point is nearest one of the arc's ends.
        """
        return min(
            (_piece_distance(q, complex(p)) for q in self.pieces for p in points),
            default=math.inf,
        )

    def sample(self, n: int = 2048) -> np.ndarray:
        """n points on each piece, its ends included, in the order of the path."""
        t = np.linspace(0.0, 1.0, n)
        return np.concatenate([_piece_position(q)[0](t) for q in self.pieces])


def a_2f1_arrays(p: Hyper2F1Params, z) -> np.ndarray:
    """Connection matrices of the 2F1 equation in the basis (f, z f'), shape z.shape + (2, 2)."""
    z = np.asarray(z, dtype=complex)
    if np.any((z == 0.0) | (z == 1.0)):
        raise SingularityError("connection singular at z = 0 or z = 1")
    a, b, g = p.alpha, p.beta, p.gamma
    out = np.zeros(z.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = 1.0 / z
    out[..., 1, 0] = a * b / (1.0 - z)
    out[..., 1, 1] = 1.0 / z - (g - (a + b + 1.0) * z) / (z * (1.0 - z))
    return out


def a_2f1(p: Hyper2F1Params, z: complex) -> np.ndarray:
    """Connection matrix of the 2F1 equation in the basis (f, z f')."""
    return a_2f1_arrays(p, [complex(z)])[0]


def system_2f1(p: Hyper2F1Params) -> PfaffianSystem1D:
    return PfaffianSystem1D(2, lambda z: a_2f1_arrays(p, z), (0.0 + 0j, 1.0 + 0j))


def a_f2_arrays(p: F2Params, x, y):
    """Pair (A_x, A_y) of stacks of 4x4 connection matrices for the F2 system.

    Derived by closing the section basis (F, xF_x, yF_y, xyF_xy) under d/dx
    and d/dy: second derivatives come from the two defining PDEs, the third
    (mixed) ones from their first derivatives, a 2x2 linear system with
    determinant xy(1 - x - y) solved by Cramer's rule.  Each derivative is a
    row vector of coefficients on the basis, with the points on the leading
    axes; both matrices have shape broadcast(x, y).shape + (4, 4).
    """
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    )
    if np.any(
        (x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 1.0) | (np.abs(1.0 - x - y) < 1e-14)
    ):
        raise SingularityError("point on the singular locus of the F2 system")
    a, b1, b2 = complex(p.alpha), complex(p.beta1), complex(p.beta2)
    g1, g2 = complex(p.gamma1), complex(p.gamma2)
    x, y = x[..., None], y[..., None]
    c1 = g1 - (a + b1 + 1.0) * x
    c2 = g2 - (a + b2 + 1.0) * y

    v_f, v_f1, v_f2, v_f3 = np.eye(4, dtype=complex)
    v_fx = v_f1 / x
    v_fy = v_f2 / y
    v_fxy = v_f3 / (x * y)
    v_fxx = (a * b1 * v_f - c1 * v_fx + b1 * v_f2 + v_f3) / (x * (1.0 - x))
    v_fyy = (a * b2 * v_f + b2 * v_f1 - c2 * v_fy + v_f3) / (y * (1.0 - y))

    # x(1-x) F_xxy - xy F_xyy = RA ;  -xy F_xxy + y(1-y) F_xyy = RB
    ra = (x - c1) * v_fxy + b1 * (1.0 + a) * v_fy + b1 * y * v_fyy
    rb = (y - c2) * v_fxy + b2 * (1.0 + a) * v_fx + b2 * x * v_fxx
    # Cramer's rule: the determinant is xy(1 - x - y), and xy F_xxy, xy F_xyy
    # are what the matrices need
    omxy = 1.0 - x - y
    xy_fxxy = y * ((1.0 - y) * ra + x * rb) / omxy
    xy_fxyy = x * (y * ra + (1.0 - x) * rb) / omxy

    ax = np.stack([v_fx, v_f1 / x + x * v_fxx, v_f3 / x, v_f3 / x + xy_fxxy], axis=-2)
    ay = np.stack([v_fy, v_f3 / y, v_f2 / y + y * v_fyy, v_f3 / y + xy_fxyy], axis=-2)
    return ax, ay


def a_f2(p: F2Params, pt: ModuliPoint):
    """Pair (A_x, A_y) of 4x4 connection matrices for the F2 system; see a_f2_arrays."""
    ax, ay = a_f2_arrays(p, [complex(pt.x)], [complex(pt.y)])
    return ax[0], ay[0]


def system_f2(p: F2Params) -> PfaffianSystem2D:
    return PfaffianSystem2D(
        4,
        lambda x, y: a_f2_arrays(p, x, y)[0],
        lambda x, y: a_f2_arrays(p, x, y)[1],
        ("x=0", "x=1", "y=0", "y=1", "x+y=1"),
    )


def _kron(a, b):
    """np.kron of the last two axes, broadcast over the leading ones."""
    a, b = np.asarray(a), np.asarray(b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(lead + (m * p, n * q))


def tensor_system(s1: PfaffianSystem1D, s2: PfaffianSystem1D) -> PfaffianSystem2D:
    """Tensor product acting on the Kronecker section, variables (u, v)."""
    if s1.dimension != s2.dimension:
        raise ValueError("tensor factors must share their dimension")
    d = s1.dimension
    eye = np.eye(d, dtype=complex)

    def coefficient_u(u, v):
        u, _ = np.broadcast_arrays(np.asarray(u, dtype=complex), v)
        return _kron(s1.coefficient(u), eye)

    def coefficient_v(u, v):
        _, v = np.broadcast_arrays(u, np.asarray(v, dtype=complex))
        return _kron(eye, s2.coefficient(v))

    return PfaffianSystem2D(
        d * d,
        coefficient_u,
        coefficient_v,
        tuple(f"u={s}" for s in s1.singular_points)
        + tuple(f"v={s}" for s in s2.singular_points),
    )


def restrict_to_line(
    sys2d: PfaffianSystem2D, fixed: complex, vary: str, singular_points=()
) -> PfaffianSystem1D:
    """Freeze one variable of a 2D system, giving an ODE in the other."""
    if vary == "x":
        coeff = lambda z: sys2d.coefficient_x(z, fixed)
    elif vary == "y":
        coeff = lambda z: sys2d.coefficient_y(fixed, z)
    else:
        raise ValueError("vary must be 'x' or 'y'")
    return PfaffianSystem1D(sys2d.dimension, coeff, tuple(singular_points))


def integrate_pfaffian(s: PfaffianSystem1D, path: PathSpec, initial: np.ndarray) -> np.ndarray:
    """Parallel-transport `initial` along the path; returns the endpoint matrix.

    A Taylor-series method for the linear system dY/dz = A(z) Y, in four
    stages.  The plan: the path is a chain of pieces (see ``PathSpec``); a
    step from a point z of a piece with clearance R from the singular points
    (the length of the piece if there are none) goes h, at most 0.35 R,
    along the piece, and a piece of length 0 has no steps.  The steps depend
    on the path alone.  The coefficients: one call of ``s.coefficient``
    samples A on the rings |w - z| = R/2 of all S steps of all pieces, S x 48
    points, and one FFT reads off the Taylor coefficients A_j.  The
    propagators: each step is the matrix P = sum_k Y_k h^k, the series of
    the solution that starts from the identity, and the recurrence
    (k + 1) Y_{k+1} = sum_{j<=k} A_j Y_{k-j} runs for all steps at once.  A
    term is small when its Frobenius norm is at most 1e-14; a step is done
    after two small terms in a row, and the batch stops once every step is
    done (steps done earlier keep adding terms, which only adds accuracy).
    The endpoint is P_S ... P_1 initial.

    A step not done after 48 terms raises ConvergenceError; a path closer
    than 1e-3 to a singular point raises DomainError.
    """
    state = np.array(initial, dtype=complex)
    clearance = path.clearance(s.singular_points)
    if clearance < _CLEARANCE:
        raise DomainError(
            f"path clearance {clearance:.2e} below the required {_CLEARANCE:.0e}"
        )
    sing = [complex(p) for p in s.singular_points]
    plan = []
    for pos, length in path.segments():
        t, z = 0.0, complex(pos(0.0))
        while t < 1.0:
            radius = min((abs(z - p) for p in sing), default=length)
            dt = _STEP * radius / length
            t_next = 1.0 if t + dt >= 1.0 else t + dt
            z_next = complex(pos(t_next))
            plan.append((z, z_next - z, radius))
            t, z = t_next, z_next
    if not plan:
        return state

    n, d, steps = _NODES, s.dimension, len(plan)
    z, h, radius = np.array(plan).T
    rho = 0.5 * radius.real
    # the ring of radius rho samples A_j rho^j, up to aliasing of order
    # 2^-48; in the variable u = (w - z)/h the terms are Y_k h^k, and
    # (k + 1) Y_{k+1} h^{k+1} = sum_j (h A_j h^j)(Y_{k-j} h^{k-j})
    a = np.fft.fft(s.coefficient(z[:, None] + rho[:, None] * _RING), axis=1)
    a *= ((h / n)[:, None] * (h / rho)[:, None] ** np.arange(n))[..., None, None]
    # per step, [hA_0, h^2 A_1, ...] side by side, so one matmul forms a term
    a_row = a.transpose(0, 2, 1, 3).reshape(steps, d, n * d)
    # term k in rows (n-1-k)d ... (n-k)d - 1: terms k, k-1, ..., 0 are one
    # contiguous block of rows
    terms = np.empty((steps, n, d, d), dtype=complex)
    terms[:, -1] = np.eye(d)
    rows = terms.reshape(steps, n * d, d)
    # each term's real and imaginary parts as one vector, for its norm
    flat = terms.view(float).reshape(steps, n, 2 * d * d)
    small = done = np.zeros(steps, dtype=bool)
    for k in range(n - 1):
        top = (n - 1 - k) * d
        new = rows[:, top - d : top]
        np.matmul(a_row[:, :, : (k + 1) * d], rows[:, top:], out=new)
        new /= k + 1
        was_small = small
        parts = flat[:, n - 2 - k]
        small = np.einsum("si,si->s", parts, parts) <= _TAIL**2
        done = done | (was_small & small)
        if np.count_nonzero(done) == steps:
            break
    else:
        raise ConvergenceError(
            f"Taylor step at z = {z[np.argmin(done)]:.6g} did not reach its "
            f"tail target {_TAIL:.0e} in {n} terms"
        )
    for p in terms[:, n - 2 - k :].sum(axis=1):
        state = p @ state
    return state


def legendre_basis_matrix(z: complex) -> np.ndarray:
    """Fundamental matrix with columns the sections of (2/pi)K(z), (2i/pi)K(1-z).

    K and E are taken at m = z and m = 1 - z in one call each, and
    dK/dm = (E - (1-m) K) / (2 m (1-m)); z = 0 or 1 raises SingularityError.
    """
    z = complex(z)
    m = np.array([z, 1.0 - z])
    k = ellint_K(m)
    dk = (ellint_E(m) - (1.0 - m) * k) / (2.0 * m * (1.0 - m))
    f1, f2 = 2.0 / np.pi * k[0], 2j / np.pi * k[1]
    d1, d2 = 2.0 / np.pi * dk[0], -2j / np.pi * dk[1]
    return np.array([[f1, f2], [z * d1, z * d2]], dtype=complex)


def monodromy_2f1(
    s: PfaffianSystem1D, around: complex, basepoint: complex = 0.35 + 0.01j
) -> np.ndarray:
    """Monodromy around a singular point, in the Legendre K-basis.

    The loop is a positively-oriented circle through the radial projection of
    the basepoint, with radius capped at half the distance to the nearest
    other singular point.  Where the cap applies, a segment leads from the
    basepoint to the circle and back; leg out, circle and leg back are one
    path, transported in one ``integrate_pfaffian`` call.
    """
    around = complex(around)
    others = [p for p in s.singular_points if p != around]
    d = abs(basepoint - around)
    r = min([d] + [0.5 * abs(around - o) for o in others])
    # uncapped, the circle goes through the basepoint itself: no legs
    start = basepoint if r == d else around + r * (basepoint - around) / d
    phi0 = float(np.angle(start - around))
    loop = (
        PathSpec.polyline([basepoint, start])
        + PathSpec.circle(around, r, 1.0, phi0)
        + PathSpec.polyline([start, basepoint])
    )
    phi = legendre_basis_matrix(basepoint)
    return np.linalg.solve(phi, integrate_pfaffian(s, loop, phi))


def gamma2_membership(m: np.ndarray, int_tol: float = 1e-8) -> bool:
    """True iff m rounds to an integer matrix with det 1 congruent to I mod 2."""
    m = np.asarray(m)
    r = np.round(m.real)
    if np.max(np.abs(m - r)) > int_tol:
        raise ValueError("matrix entries are not integral to the stated tolerance")
    r = r.astype(np.int64)
    if round(float(np.linalg.det(r))) != 1:
        return False
    return bool(np.all((r - np.eye(2, dtype=np.int64)) % 2 == 0))


def flatness_residual(sys2d: PfaffianSystem2D, x0, y0, radius: float = 0.05):
    """Curvature d_y A_x - d_x A_y + [A_x, A_y], normalized, at points (x0, y0).

    x0 and y0 broadcast; the result is a float for one point and otherwise
    an array of their shape.  One call of each coefficient takes the rings
    of all points, each ring with its centre as its last point.
    """
    x0, y0 = np.broadcast_arrays(np.asarray(x0, dtype=complex), np.asarray(y0, dtype=complex))
    theta = 2.0 * np.pi * np.arange(_FLATNESS_NODES) / _FLATNESS_NODES
    ring = np.append(radius * np.exp(1j * theta), 0.0)
    x0, y0 = x0[..., None], y0[..., None]
    ax_stack = sys2d.coefficient_x(x0, y0 + ring)
    ay_stack = sys2d.coefficient_y(x0 + ring, y0)
    norm = _FLATNESS_NODES * radius
    day_dx = np.fft.fft(ay_stack[..., :-1, :, :], axis=-3)[..., 1, :, :] / norm
    dax_dy = np.fft.fft(ax_stack[..., :-1, :, :], axis=-3)[..., 1, :, :] / norm
    ax0, ay0 = ax_stack[..., -1, :, :], ay_stack[..., -1, :, :]
    curv = dax_dy - day_dx + ax0 @ ay0 - ay0 @ ax0
    scale = np.maximum.reduce(
        [np.abs(m).max(axis=(-2, -1)) for m in (dax_dy, day_dx, ax0 @ ay0)]
    )
    out = np.abs(curv).max(axis=(-2, -1)) / np.maximum(scale, 1e-300)
    return float(out) if out.ndim == 0 else out


def horizontality_residual_from_derivatives(p: F2Params, d, x, y) -> np.ndarray:
    """Residual of the 4x4 system on the section of a solution F, from its partials.

    d[m, n] holds d^(m+n) F / dx^m dy^n for m, n <= 2 at the points (x, y),
    on trailing axes of their broadcast shape.  The section
    (F, x F_x, y F_y, x y F_xy) and its two derivatives are formed from d and
    compared with A_x and A_y times the section.  Returns, per point, the
    largest residual entry over the largest entry of the section and its
    derivatives.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    d = np.asarray(d)
    vec = np.stack([d[0, 0], x * d[1, 0], y * d[0, 1], x * y * d[1, 1]], axis=-1)
    dvec_dx = np.stack(
        [d[1, 0], d[1, 0] + x * d[2, 0], y * d[1, 1], y * d[1, 1] + x * y * d[2, 1]],
        axis=-1,
    )
    dvec_dy = np.stack(
        [d[0, 1], x * d[1, 1], d[0, 1] + y * d[0, 2], x * d[1, 1] + x * y * d[1, 2]],
        axis=-1,
    )
    ax, ay = a_f2_arrays(p, x, y)
    resid = np.maximum(
        np.abs(dvec_dx - (ax @ vec[..., None])[..., 0]).max(axis=-1),
        np.abs(dvec_dy - (ay @ vec[..., None])[..., 0]).max(axis=-1),
    )
    scale = np.maximum.reduce([np.abs(v).max(axis=-1) for v in (dvec_dx, dvec_dy, vec)])
    return resid / np.maximum(scale, 1e-300)


def horizontality_residual_f2(p: F2Params, F, pt: ModuliPoint, radius) -> float:
    """Residual of the 4x4 system on the section of a scalar solution F.

    The partials come from Cauchy integrals of F on the bi-circle of the
    given radii (a pair, or one float for both), which take F at a grid of
    nodes in one call: F must take arrays that broadcast.  See
    ``horizontality_residual_from_derivatives``.
    """
    x, y = complex(pt.x), complex(pt.y)
    rx, ry = (radius, radius) if np.isscalar(radius) else radius
    d = cauchy_derivs_2d(F, x, y, rx, ry)
    return float(horizontality_residual_from_derivatives(p, d, x, y))
