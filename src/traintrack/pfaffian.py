"""First-order matrix form of the hypergeometric systems and their transport.

The 2x2 connection lives in the section basis (f, z df/dz); the 4x4 one in
(F, x dF/dx, y dF/dy, x y d2F/dxdy).  Both are derived from the scalar
equations by eliminating higher derivatives, and accepted only because the
test suite checks horizontality of known solution sections and flatness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .appell import F2Params, ModuliPoint
from .errors import ConvergenceError, DomainError, SingularityError
from .quadrature import cauchy_derivs_1d, cauchy_derivs_2d
from .special import Hyper2F1Params, deriv_K, ellint_K

__all__ = [
    "PfaffianSystem1D",
    "PfaffianSystem2D",
    "PathSpec",
    "a_2f1",
    "system_2f1",
    "a_f2",
    "system_f2",
    "tensor_system",
    "restrict_to_line",
    "integrate_pfaffian",
    "monodromy_2f1",
    "legendre_basis_matrix",
    "gamma2_membership",
    "flatness_residual",
    "horizontality_residual_1d",
    "horizontality_residual_f2",
]

_CLEARANCE = 1e-3


@dataclass(frozen=True)
class PfaffianSystem1D:
    dimension: int
    coefficient: Callable[[complex], np.ndarray]
    singular_points: tuple


@dataclass(frozen=True)
class PfaffianSystem2D:
    dimension: int
    coefficient_x: Callable[[complex, complex], np.ndarray]
    coefficient_y: Callable[[complex, complex], np.ndarray]
    singular_locus: tuple


@dataclass(frozen=True)
class PathSpec:
    """Polyline through waypoints, or a circle (center, radius, turns)."""

    waypoints: tuple = ()
    center: complex | None = None
    radius: float = 0.0
    turns: float = 1.0
    start_angle: float = 0.0

    @classmethod
    def polyline(cls, points: Sequence[complex]) -> "PathSpec":
        return cls(waypoints=tuple(complex(p) for p in points))

    @classmethod
    def circle(
        cls,
        center: complex,
        radius: float,
        turns: float = 1.0,
        start_angle: float = 0.0,
    ) -> "PathSpec":
        return cls(
            center=complex(center),
            radius=float(radius),
            turns=float(turns),
            start_angle=float(start_angle),
        )

    def segments(self):
        """Yield (z(t), dz/dt, t_span) parametrizations, each on t in [0,1]."""
        if self.center is not None:
            c, r = self.center, self.radius
            phi0, dphi = self.start_angle, 2.0 * np.pi * self.turns

            def pos(t, c=c, r=r, phi0=phi0, dphi=dphi):
                return c + r * np.exp(1j * (phi0 + dphi * t))

            def vel(t, r=r, phi0=phi0, dphi=dphi):
                return 1j * dphi * r * np.exp(1j * (phi0 + dphi * t))

            yield pos, vel
            return
        pts = self.waypoints
        for z0, z1 in zip(pts[:-1], pts[1:]):
            if z0 == z1:
                continue

            def pos(t, z0=z0, z1=z1):
                return z0 + (z1 - z0) * t

            def vel(t, z0=z0, z1=z1):
                return (z1 - z0) * np.ones_like(np.asarray(t))

            yield pos, vel

    def sample(self, n: int = 2048) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n)
        pieces = [np.asarray(pos(t), dtype=complex) for pos, _ in self.segments()]
        if not pieces:
            base = self.waypoints[0] if self.waypoints else self.center
            return np.array([complex(base)])
        return np.concatenate(pieces)


def a_2f1(p: Hyper2F1Params, z: complex) -> np.ndarray:
    """Connection matrix of the 2F1 equation in the basis (f, z f')."""
    z = complex(z)
    if z in (0.0, 1.0):
        raise SingularityError(f"connection singular at z = {z}")
    a, b, g = p.alpha, p.beta, p.gamma
    return np.array(
        [
            [0.0, 1.0 / z],
            [a * b / (1.0 - z), 1.0 / z - (g - (a + b + 1.0) * z) / (z * (1.0 - z))],
        ],
        dtype=complex,
    )


def system_2f1(p: Hyper2F1Params) -> PfaffianSystem1D:
    return PfaffianSystem1D(2, lambda z: a_2f1(p, z), (0.0 + 0j, 1.0 + 0j))


def a_f2(p: F2Params, pt: ModuliPoint):
    """Pair (A_x, A_y) of 4x4 connection matrices for the F2 system.

    Derived by closing the section basis (F, xF_x, yF_y, xyF_xy) under d/dx
    and d/dy: second derivatives come from the two defining PDEs, the third
    (mixed) ones from their first derivatives, solved as a 2x2 linear system.
    """
    x, y = complex(pt.x), complex(pt.y)
    if x in (0.0, 1.0) or y in (0.0, 1.0) or abs(1.0 - x - y) < 1e-14:
        raise SingularityError("point on the singular locus of the F2 system")
    a, b1, b2 = complex(p.alpha), complex(p.beta1), complex(p.beta2)
    g1, g2 = complex(p.gamma1), complex(p.gamma2)
    c1 = g1 - (a + b1 + 1.0) * x
    c2 = g2 - (a + b2 + 1.0) * y

    e = np.eye(4, dtype=complex)
    v_f, v_f1, v_f2, v_f3 = e
    v_fx = v_f1 / x
    v_fy = v_f2 / y
    v_fxy = v_f3 / (x * y)
    v_fxx = (a * b1 * v_f - c1 * v_fx + b1 * v_f2 + v_f3) / (x * (1.0 - x))
    v_fyy = (a * b2 * v_f + b2 * v_f1 - c2 * v_fy + v_f3) / (y * (1.0 - y))

    # x(1-x) F_xxy - xy F_xyy = RA ;  -xy F_xxy + y(1-y) F_xyy = RB
    ra = (x - c1) * v_fxy + b1 * (1.0 + a) * v_fy + b1 * y * v_fyy
    rb = (y - c2) * v_fxy + b2 * (1.0 + a) * v_fx + b2 * x * v_fxx
    mat = np.array([[x * (1.0 - x), -x * y], [-x * y, y * (1.0 - y)]], dtype=complex)
    sol = np.linalg.solve(mat, np.vstack([ra, rb]))
    v_fxxy, v_fxyy = sol[0], sol[1]

    ax = np.vstack(
        [v_fx, v_f1 / x + x * v_fxx, v_f3 / x, v_f3 / x + x * y * v_fxxy]
    )
    ay = np.vstack(
        [v_fy, v_f3 / y, v_f2 / y + y * v_fyy, v_f3 / y + x * y * v_fxyy]
    )
    return ax, ay


def system_f2(p: F2Params) -> PfaffianSystem2D:
    return PfaffianSystem2D(
        4,
        lambda x, y: a_f2(p, ModuliPoint(x, y))[0],
        lambda x, y: a_f2(p, ModuliPoint(x, y))[1],
        ("x=0", "x=1", "y=0", "y=1", "x+y=1"),
    )


def tensor_system(s1: PfaffianSystem1D, s2: PfaffianSystem1D) -> PfaffianSystem2D:
    """Tensor product acting on the Kronecker section, variables (u, v)."""
    if s1.dimension != s2.dimension:
        raise ValueError("tensor factors must share their dimension")
    d = s1.dimension
    eye = np.eye(d, dtype=complex)
    return PfaffianSystem2D(
        d * d,
        lambda u, v: np.kron(s1.coefficient(u), eye),
        lambda u, v: np.kron(eye, s2.coefficient(v)),
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


def _path_clearance(s: PfaffianSystem1D, path: PathSpec) -> float:
    pts = path.sample()
    if not s.singular_points:
        return np.inf
    sing = np.asarray(s.singular_points, dtype=complex)
    return float(np.min(np.abs(pts[:, None] - sing[None, :])))


def integrate_pfaffian(
    s: PfaffianSystem1D,
    path: PathSpec,
    initial: np.ndarray,
    rtol: float = 1e-12,
    atol: float = 1e-14,
) -> np.ndarray:
    """Parallel-transport `initial` along the path; returns the endpoint matrix.

    Uses an adaptive high-order Runge-Kutta stepper with the maximum step
    capped at a quarter of the path clearance from the singular points.
    """
    initial = np.asarray(initial, dtype=complex)
    clearance = _path_clearance(s, path)
    if clearance < _CLEARANCE:
        raise DomainError(
            f"path clearance {clearance:.2e} below the required {_CLEARANCE:.0e}"
        )
    state = initial.copy()
    shape = state.shape
    for pos, vel in path.segments():
        speed = float(np.max(np.abs(vel(np.linspace(0, 1, 64)))))
        if speed == 0.0:
            continue
        max_step = max(clearance / 4.0 / speed, 1e-6)

        def rhs(t, flat):
            mat = flat.reshape(shape)
            return (s.coefficient(complex(pos(t))) @ mat * vel(t)).ravel()

        sol = solve_ivp(
            rhs,
            (0.0, 1.0),
            state.ravel(),
            method="DOP853",
            rtol=rtol,
            atol=atol,
            max_step=max_step,
        )
        if not sol.success:
            raise ConvergenceError(f"transport step failed: {sol.message}")
        state = sol.y[:, -1].reshape(shape)
    return state


def legendre_basis_matrix(z: complex) -> np.ndarray:
    """Fundamental matrix with columns the sections of (2/pi)K(z), (2i/pi)K(1-z)."""
    z = complex(z)
    f1 = 2.0 / np.pi * ellint_K(z)
    d1 = 2.0 / np.pi * deriv_K(z)
    f2 = 2j / np.pi * ellint_K(1.0 - z)
    d2 = -2j / np.pi * deriv_K(1.0 - z)
    return np.array([[f1, f2], [z * d1, z * d2]], dtype=complex)


def monodromy_2f1(
    s: PfaffianSystem1D, around: complex, basepoint: complex = 0.35 + 0.01j
) -> np.ndarray:
    """Monodromy around a singular point, in the Legendre K-basis.

    The loop is a positively-oriented circle through the radial projection of
    the basepoint, with radius capped at half the distance to the nearest
    other singular point.
    """
    around = complex(around)
    others = [p for p in s.singular_points if p != around]
    r = abs(basepoint - around)
    if others:
        r = min(r, 0.5 * min(abs(around - o) for o in others))
    start = around + r * (basepoint - around) / abs(basepoint - around)
    phi0 = float(np.angle(start - around))

    phi = legendre_basis_matrix(basepoint)
    state = phi
    if abs(start - basepoint) > 0:
        state = integrate_pfaffian(s, PathSpec.polyline([basepoint, start]), state)
    state = integrate_pfaffian(s, PathSpec.circle(around, r, 1.0, phi0), state)
    if abs(start - basepoint) > 0:
        state = integrate_pfaffian(s, PathSpec.polyline([start, basepoint]), state)
    return np.linalg.solve(phi, state)


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


def flatness_residual(
    sys2d: PfaffianSystem2D, x0: complex, y0: complex, radius: float = 0.05, n_nodes: int = 24
) -> float:
    """Curvature d_y A_x - d_x A_y + [A_x, A_y], normalized, at a point."""
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    ring = np.exp(1j * theta)
    ax_stack = np.stack([sys2d.coefficient_x(x0, y0 + radius * w) for w in ring])
    ay_stack = np.stack([sys2d.coefficient_y(x0 + radius * w, y0) for w in ring])
    day_dx = np.fft.fft(ay_stack, axis=0)[1] / (n_nodes * radius)
    dax_dy = np.fft.fft(ax_stack, axis=0)[1] / (n_nodes * radius)
    ax0 = sys2d.coefficient_x(x0, y0)
    ay0 = sys2d.coefficient_y(x0, y0)
    curv = dax_dy - day_dx + ax0 @ ay0 - ay0 @ ax0
    scale = max(
        np.max(np.abs(dax_dy)),
        np.max(np.abs(day_dx)),
        np.max(np.abs(ax0 @ ay0)),
        1e-300,
    )
    return float(np.max(np.abs(curv)) / scale)


def horizontality_residual_1d(
    s: PfaffianSystem1D, f, z0: complex, radius: float, n_nodes: int = 32
) -> float:
    """Residual of d(f, z f')^T = A (f, z f')^T dz for a scalar solution f."""
    z0 = complex(z0)
    d = cauchy_derivs_1d(f, z0, radius, n_nodes=n_nodes, max_order=2)
    vec = np.array([d[0], z0 * d[1]])
    dvec = np.array([d[1], d[1] + z0 * d[2]])
    resid = dvec - s.coefficient(z0) @ vec
    scale = max(np.max(np.abs(dvec)), np.max(np.abs(vec)), 1e-300)
    return float(np.max(np.abs(resid)) / scale)


def horizontality_residual_f2(
    p: F2Params, F, pt: ModuliPoint, radius, n_nodes: int = 32
) -> float:
    """Residual of the 4x4 system on the section built from a scalar solution F."""
    x, y = complex(pt.x), complex(pt.y)
    rx, ry = (radius, radius) if np.isscalar(radius) else radius
    d = cauchy_derivs_2d(F, x, y, rx, ry, n_nodes=n_nodes, max_order=3)
    vec = np.array([d[0, 0], x * d[1, 0], y * d[0, 1], x * y * d[1, 1]])
    dvec_dx = np.array(
        [
            d[1, 0],
            d[1, 0] + x * d[2, 0],
            y * d[1, 1],
            y * d[1, 1] + x * y * d[2, 1],
        ]
    )
    dvec_dy = np.array(
        [
            d[0, 1],
            x * d[1, 1],
            d[0, 1] + y * d[0, 2],
            x * d[1, 1] + x * y * d[1, 2],
        ]
    )
    ax, ay = a_f2(p, pt)
    rx_vec = dvec_dx - ax @ vec
    ry_vec = dvec_dy - ay @ vec
    scale = max(np.max(np.abs(dvec_dx)), np.max(np.abs(dvec_dy)), np.max(np.abs(vec)), 1e-300)
    return float(max(np.max(np.abs(rx_vec)), np.max(np.abs(ry_vec))) / scale)
