"""First-order matrix form of the hypergeometric systems and their transport.

The 2x2 connection lives in the section basis (f, z df/dz); the 4x4 one in
(F, x dF/dx, y dF/dy, x y d2F/dxdy).  Both are Fuchsian, held as data: constant
residues over singular points or lines, all finite (else DomainError).  The
connection on arrays of points, the poles of a restriction to a line and the
curvature follow from them in closed form.  Transport takes Taylor steps,
each expanded about its midpoint and summed to both of its ends; the terms
of all steps come from a recurrence per pole, one matrix product a term.
The tests check the F2 residues against Cramer's rule on the two PDEs, and
their integrability exactly in rationals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .appell import F2Params
from .errors import ConvergenceError, DomainError, SingularityError
from .special import Hyper2F1Params, _ellint_K_dK

__all__ = [
    "PfaffianSystem1D",
    "PfaffianSystem2D",
    "PathSpec",
    "system_2f1",
    "system_f2",
    "tensor_system",
    "restrict_to_line",
    "integrate_pfaffian",
    "monodromy_2f1",
    "legendre_basis_matrix",
    "gamma2_membership",
    "flatness_residual",
    "horizontality_residual_from_derivatives",
]

_CLEARANCE = 1e-3
# Taylor steps: the most terms a step may use, the longest step as a
# fraction of the clearance R of its centre, and the Frobenius norm below
# which a propagator term is small.
_TERMS = 48
_STEP = 0.35
_TAIL = 1e-14
# The tail test's blocks after the first (see integrate_pfaffian)
_TAIL_BLOCK = 8


def _residue_sum(residues, weights, forms) -> np.ndarray:
    """sum_j w_j R_j / l_j over the j with w_j != 0, the l_j on a last axis; l_j = 0 raises."""
    used = np.flatnonzero(weights)
    if np.count_nonzero(forms[..., used] == 0):
        raise SingularityError("point on a singular line or pole of the system")
    out = np.zeros(forms.shape[:-1] + residues.shape[1:], dtype=complex)
    for j in used:
        out += residues[j] * (weights[j] / forms[..., j])[..., None, None]
    return out


class PfaffianSystem1D:
    """dY/dz = A(z) Y, A = sum_j R_j / (z - p_j); complex arrays poles (P,), residues (P, d, d)."""

    def __init__(self, dimension: int, poles, residues):
        d = self.dimension = dimension
        self.poles = np.asarray(poles, dtype=complex).reshape(-1)
        self.residues = np.asarray(residues, dtype=complex).reshape(len(self.poles), d, d)
        if not (np.isfinite(self.poles).all() and np.isfinite(self.residues).all()):
            raise DomainError("a system's poles and residues must be finite")
        self.singular_points = tuple(self.poles.tolist())

    def coefficient(self, z) -> np.ndarray:
        """A at an array of z, shape z.shape + (d, d)."""
        forms = np.asarray(z, dtype=complex)[..., None] - self.poles
        return _residue_sum(self.residues, np.ones(len(self.poles)), forms)


class PfaffianSystem2D:
    """dY = (A_x dx + A_y dy) Y, A_x = sum_j a_j R_j / l_j and A_y = sum_j b_j R_j / l_j.

    The complex arrays ``lines`` (L, 3) and ``residues`` (L, d, d) hold the line
    l_j = a_j x + b_j y - c_j = 0 as (a_j, b_j, c_j) and its residue R_j.
    """

    def __init__(self, dimension: int, lines, residues):
        d = self.dimension = dimension
        self.lines = np.asarray(lines, dtype=complex).reshape(-1, 3)
        self.residues = np.asarray(residues, dtype=complex).reshape(len(self.lines), d, d)
        if not (np.isfinite(self.lines).all() and np.isfinite(self.residues).all()):
            raise DomainError("a system's lines and residues must be finite")

    def _forms(self, x, y) -> np.ndarray:
        """l_j at the points (x, y), which broadcast, on a last axis."""
        a, b, c = self.lines.T
        x, y = (np.asarray(v, dtype=complex)[..., None] for v in (x, y))
        return a * x + b * y - c

    def coefficient_x(self, x, y) -> np.ndarray:
        return _residue_sum(self.residues, self.lines[:, 0], self._forms(x, y))

    def coefficient_y(self, x, y) -> np.ndarray:
        return _residue_sum(self.residues, self.lines[:, 1], self._forms(x, y))


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


def _check_join(before, after) -> None:
    """ValueError unless the piece ``after`` starts where ``before`` ends."""
    (_, end, size), (start, _, other) = _piece_ends(before), _piece_ends(after)
    if abs(end - start) > _JOIN_TOL * max(size, other):
        raise ValueError(f"pieces do not join: one ends at {end}, the next at {start}")


@dataclass(frozen=True)
class PathSpec:
    """A path as a chain of pieces, each starting where the one before ends.

    A piece is a segment (z0, z1) or an arc (centre, radius, start angle,
    sweep), the sweep in radians and positive counter-clockwise.
    ``polyline`` and ``circle`` build chains of one kind, and ``a + b`` is
    ``a`` followed by ``b``.  Pieces that do not join, are not finite or of finite
    length, or are arcs of negative radius raise ValueError.  A polyline through one
    point is a segment of length 0 and a circle of no turns an arc of no sweep: such
    a piece adds no step to a transport, but its point counts for the clearance.
    """

    pieces: tuple

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a path needs at least one piece")
        for piece in self.pieces:
            numbers = (*piece, _piece_position(piece)[1])  # the length may overflow
            if not all(map(cmath.isfinite, numbers)) or (len(piece) == 4 and piece[1] < 0):
                raise ValueError(f"not a finite segment or an arc of radius >= 0: {piece}")
        for before, after in zip(self.pieces, self.pieces[1:]):
            _check_join(before, after)

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
        """The chain of both; each was checked when it was built, so only the join is."""
        _check_join(self.pieces[-1], other.pieces[0])
        chain = object.__new__(PathSpec)
        object.__setattr__(chain, "pieces", self.pieces + other.pieces)
        return chain

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


def system_2f1(p: Hyper2F1Params) -> PfaffianSystem1D:
    """The 2F1 system R0/z + R1/(z - 1) in the basis (f, z f')."""
    a, b, g = p.alpha, p.beta, p.gamma
    return PfaffianSystem1D(2, (0, 1), ([[0, 1], [0, 1 - g]], [[0, 0], [-a * b, g - a - b - 1]]))


def _f2_residues(p: F2Params):
    """F2 residues on x = 0, x = 1, y = 0, y = 1, x + y = 1, as 4x4 lists, exact if p is."""
    a, b1, b2, g1, g2 = p
    e1, e2 = a + b1 - g1 + 1, a + b2 - g2 + 1
    o = [0, 0, 0, 0]
    return (
        [[0, 1, 0, 0], [0, 1 - g1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1 - g1]],
        [o, [-a * b1, -e1, -b1, -1], o, [a * b1 * b2, b2 * e1, b1 * b2, b2]],
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1 - g2, 0], [0, 0, 0, 1 - g2]],
        [o, o, [-a * b2, -b2, -e2, -1], [a * b1 * b2, b1 * b2, b1 * e2, b1]],
        [o, o, o, [-a * b1 * b2, -b2 * e1, -b1 * e2, -(e1 + e2 - a)]],
    )


def system_f2(p: F2Params) -> PfaffianSystem2D:
    """The F2 system in the section basis, its lines in the order of ``_f2_residues``."""
    lines = ((1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 1))
    return PfaffianSystem2D(4, lines, _f2_residues(p))


def tensor_system(s1: PfaffianSystem1D, s2: PfaffianSystem1D) -> PfaffianSystem2D:
    """Tensor product on the Kronecker section (u, v): u = p gets kron(R, I), v = q kron(I, R)."""
    if s1.dimension != s2.dimension:
        raise ValueError("tensor factors must share their dimension")
    eye = np.eye(s1.dimension)
    return PfaffianSystem2D(
        s1.dimension**2,
        [(1, 0, p) for p in s1.poles] + [(0, 1, q) for q in s2.poles],
        [np.kron(r, eye) for r in s1.residues] + [np.kron(eye, r) for r in s2.residues],
    )


def restrict_to_line(
    sys2d: PfaffianSystem2D, fixed: complex, vary: str, singular_points=None
) -> PfaffianSystem1D:
    """Freeze one variable of a 2D system, giving an ODE in the other.

    A line a x + b y = c with a nonzero coefficient a of the varying x gives
    the pole (c - b fixed)/a with its residue (y likewise); the other lines
    drop out.  ``singular_points``, if given, must be these poles as a set, else ValueError.
    A ``fixed`` that is not finite raises DomainError.
    """
    if vary not in ("x", "y"):
        raise ValueError("vary must be 'x' or 'y'")
    if not cmath.isfinite(fixed):
        raise DomainError(f"the fixed variable must be finite, not {fixed}")
    a, b, c = (sys2d.lines if vary == "x" else sys2d.lines[:, [1, 0, 2]]).T
    meets = a != 0
    poles = (c[meets] - b[meets] * fixed) / a[meets]
    if singular_points is not None and set(map(complex, singular_points)) != set(poles.tolist()):
        raise ValueError(f"the line's poles are {poles.tolist()}, not {list(singular_points)}")
    return PfaffianSystem1D(sys2d.dimension, poles, sys2d.residues[meets])


def _step_plan(path: PathSpec, sing: Sequence[complex]):
    """Starts z and steps h of the Taylor steps along the path; see integrate_pfaffian."""
    plan, sing = [], tuple(sing)
    for pos, length in path.segments():
        t, z = 0.0, complex(pos(0.0))
        while t < 1.0:
            radius = min([abs(z - p) for p in sing]) if sing else length
            dt = _STEP * radius / length
            t_next = 1.0 if t + dt >= 1.0 else t + dt
            z_next = complex(pos(t_next))
            plan.append((z, z_next - z))
            t, z = t_next, z_next
    return np.array(plan, dtype=complex).reshape(-1, 2).T


def _step_terms(s: PfaffianSystem1D, q):
    """Terms Y_k h^k of the steps h from the centres z, laid out (48, d, S, d) with
    term 0 the identity, and form(k), which forms term k + 1 if called for k = 0, 1, ...
    The steps enter by their ratios q = h/(p - z) to the poles p, (P, S).

    The per-pole sums W_p lie (P, d, S, d), so that a term is one 2-D product:
    -[R_1 ... R_P]/(k + 1), (d, P d), times the sums stacked, (P d, S d).
    """
    d, steps = s.dimension, q.shape[1]
    q = q[:, None, :, None]
    blocks = -s.residues.transpose(1, 0, 2).reshape(d, -1) / np.arange(1.0, _TERMS)[:, None, None]
    sums = np.zeros((len(s.poles), d, steps, d), dtype=complex)
    stacked = sums.reshape(-1, steps * d)
    terms = np.empty((_TERMS, d, steps, d), dtype=complex)
    terms[0] = np.eye(d)[:, None]
    rows = terms.reshape(_TERMS, d, -1)

    def form(k):
        np.add(sums, terms[k], out=sums)
        np.multiply(sums, q, out=sums)
        np.matmul(blocks[k], stacked, out=rows[k + 1])

    return terms, form


def _first_tail_block(q) -> int:
    """The first block of the tail test, 1.15 n + 2 terms with q^n = 1e-14, q the largest |q_p|.

    The terms fall like q^k; on the transport bench (seeds 0 to 4) the last
    summed was 0.97 n to 1.16 n.  Without poles the block is 2 zero terms.
    """
    q = float(np.abs(q).max()) if q.size else 0.0
    n = 1.15 * math.log(_TAIL) / math.log(q) if q > 0.0 else 0.0
    return min(math.ceil(n) + 2, _TERMS - 1)


def integrate_pfaffian(s: PfaffianSystem1D, path: PathSpec, initial: np.ndarray) -> np.ndarray:
    """Parallel-transport `initial` along the path; returns the endpoint matrix.

    A Taylor-series method for dY/dz = A(z) Y, in four stages.  The plan: a
    step from a point z of a piece (see ``PathSpec``) with clearance R from
    the poles (the piece's length if there are none) goes h, at most 0.35 R,
    along the piece; a piece of length 0 has none.  The steps depend on the
    path alone.  Each step's series is taken about its midpoint c = z + h/2,
    in the half-step u = h/2, at least 0.825 R from every pole: the ratios
    q_p = u/(p - c), one per step and pole p, are at most 0.175/0.825 = 0.212
    in modulus, and in v = (w - c)/u, u A(c + u v) = -sum_p R_p q_p / (1 - q_p v).
    The terms: Y(v) = sum_k Y_k u^k v^k, the solution that is the identity at
    c, and its recurrence (k + 1) Y_{k+1} = sum_{j<=k} A_j Y_{k-j}, a sum of
    geometric series, runs per pole as W_p = q_p (Y_k u^k + W_p),
    (k + 1) Y_{k+1} u^{k+1} = -sum_p R_p W_p, for all steps at once
    (``_step_terms``).  A term is small when its Frobenius norm is at most
    1e-14; a step is done after two small terms in a row, and the batch
    stops at the first term after which every step is done (steps done
    earlier keep adding terms, which only adds accuracy).  The norms are
    taken once per block, the rule running along the block and carrying
    into the next: a first block sized from the largest ratio q_p
    (``_first_tail_block``), which usually holds the stop, then blocks of 8.
    Terms past the stop are formed but not summed, so the sums are those of
    a test after every term.  The propagators: the even and the odd terms,
    each summed from the last to the identity, give
    P+ = Y(1) and P- = Y(-1), and the step is P+ P-^-1, one batched solve.
    The endpoint: P_S ... P_1 initial.

    A step not done after 48 terms raises ConvergenceError that names its
    start z; a path closer than 1e-3 to a pole raises DomainError.
    """
    state = np.array(initial, dtype=complex)
    clearance = path.clearance(s.singular_points)
    if clearance < _CLEARANCE:
        raise DomainError(f"path clearance {clearance:.2e} below the required {_CLEARANCE:.0e}")
    z, h = _step_plan(path, s.singular_points)
    if not len(z):
        return state

    c, u = z + 0.5 * h, 0.5 * h
    q = u / (s.poles[:, None] - c)
    terms, form = _step_terms(s, q)
    # real and imaginary parts side by side, for the norms
    parts = terms.view(float)
    small = done = np.zeros(len(z), dtype=bool)
    starts = [0, *range(_first_tail_block(q), _TERMS - 1, _TAIL_BLOCK)]
    for k0, k1 in zip(starts, starts[1:] + [_TERMS - 1]):
        ks = range(k0, k1)
        for k in ks:
            form(k)
        block = parts[k0 + 1 : ks[-1] + 2]
        now = np.einsum("bisj,bisj->sb", block, block) <= _TAIL**2
        pair = now & np.concatenate((small[:, None], now[:, :-1]), axis=1)
        done_at = np.logical_or.accumulate(pair, axis=1) | done[:, None]
        every = done_at.all(axis=0)
        if every.any():
            k = k0 + int(every.argmax())
            break
        small, done = now[:, -1], done_at[:, -1]
    else:
        raise ConvergenceError(
            f"Taylor step at z = {z[np.argmin(done)]:.6g} did not reach its "
            f"tail target {_TAIL:.0e} in {_TERMS} terms"
        )
    # the sums transposed, steps first: P+ P-^-1 is solve(P-^T, P+^T) transposed
    even, odd = (terms[i : k + 2 : 2][::-1].sum(axis=0).transpose(1, 2, 0) for i in (0, 1))
    for p in np.linalg.solve(even - odd, even + odd).transpose(0, 2, 1):
        state = p @ state
    return state


def legendre_basis_matrix(z: complex) -> np.ndarray:
    """Fundamental matrix with columns the sections of (2/pi)K(z), (2i/pi)K(1-z).

    K and dK/dm are taken at m = z and m = 1 - z from one AGM
    (``special._ellint_K_dK``); z = 0 or 1 raises SingularityError.
    """
    z = complex(z)
    k, dk = _ellint_K_dK(np.array([z, 1.0 - z]))
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
    around, basepoint = complex(around), complex(basepoint)
    others = [p for p in s.singular_points if p != around]
    d = abs(basepoint - around)
    r = min([d] + [0.5 * abs(around - o) for o in others])
    # uncapped, the circle goes through the basepoint itself: no legs
    start = basepoint if r == d else around + r * (basepoint - around) / d
    phi0 = float(np.angle(start - around))
    loop = PathSpec(((basepoint, start), (around, r, phi0, 2.0 * math.pi), (start, basepoint)))
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
    return bool(np.all((r - np.eye(len(r), dtype=np.int64)) % 2 == 0))


def flatness_residual(sys2d: PfaffianSystem2D, x0, y0):
    """Curvature d_y A_x - d_x A_y + [A_x, A_y], normalized, at points (x0, y0).

    For residues over lines, d_y A_x = d_x A_y = -sum_j a_j b_j R_j / l_j^2
    identically, so the curvature is the commutator; d_y A_x stays in the
    scale it is normalized by.  x0 and y0 broadcast; the result is a float
    for one point and otherwise an array of their shape.  A point on a line
    of the system raises SingularityError.
    """
    ax, ay = sys2d.coefficient_x(x0, y0), sys2d.coefficient_y(x0, y0)
    a, b, _ = sys2d.lines.T
    dax_dy = _residue_sum(sys2d.residues, -a * b, sys2d._forms(x0, y0) ** 2)
    ax_ay = ax @ ay
    scale = np.maximum(np.abs(dax_dy).max(axis=(-2, -1)), np.abs(ax_ay).max(axis=(-2, -1)))
    out = np.abs(ax_ay - ay @ ax).max(axis=(-2, -1)) / np.maximum(scale, 1e-300)
    return float(out) if out.ndim == 0 else out


def horizontality_residual_from_derivatives(p: F2Params, d, x, y) -> np.ndarray:
    """Residual of the 4x4 system on the section of a solution F, from its partials.

    d[m, n] holds d^(m+n) F / dx^m dy^n for m, n <= 2 at the points (x, y),
    on trailing axes of their broadcast shape.  The section
    (F, x F_x, y F_y, x y F_xy) and its two derivatives are formed from d and
    compared with A_x and A_y times the section.  Returns, per point, the
    largest residual entry over the largest entry of the section and its
    derivatives.  A_x and A_y are the coefficients of ``system_f2(p)``; a point on
    one of its lines raises SingularityError, as does one within 1e-14 of x + y = 1.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    if np.any(np.abs(1.0 - x - y) < 1e-14):
        raise SingularityError("point on the singular locus of the F2 system")
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
    s = system_f2(p)
    ax, ay = s.coefficient_x(x, y), s.coefficient_y(x, y)
    resid = np.maximum(
        np.abs(dvec_dx - (ax @ vec[..., None])[..., 0]).max(axis=-1),
        np.abs(dvec_dy - (ay @ vec[..., None])[..., 0]).max(axis=-1),
    )
    scale = np.maximum.reduce([np.abs(v).max(axis=-1) for v in (dvec_dx, dvec_dy, vec)])
    return resid / np.maximum(scale, 1e-300)
