"""Appell F2: row sum of Gauss functions, Euler double integral, PDE residuals.

Three mutually independent routes to the same function are kept side by side
on purpose: the Burchnall–Chaundy row sum of the double series, whose rows are
Gauss 2F1 values advanced by the contiguous recurrence in a, the
double-exponential evaluation of the Euler integral, and the residual of the
defining second-order system checked with Cauchy-integral derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .quadrature import LEVEL_MAX_2D, cauchy_derivs_2d, integrate_01_2d
from .special import SeriesControl, _is_nonpositive_integer, gamma_fn

__all__ = [
    "F2Params",
    "ModuliPoint",
    "QuadratureControl",
    "f2_series",
    "f2_series_on_arrays",
    "f2_euler_integral",
    "f2_pde_residual",
    "quadratic_criterion",
]


@dataclass(frozen=True)
class F2Params:
    alpha: complex
    beta1: complex
    beta2: complex
    gamma1: complex
    gamma2: complex

    def __post_init__(self):
        for g in (self.gamma1, self.gamma2):
            if _is_nonpositive_integer(g):
                raise DomainError("gamma1/gamma2 must not be non-positive integers")

    @classmethod
    def conformal_case(cls) -> "F2Params":
        return cls(0.5, 0.5, 0.5, 1.0, 1.0)

    def swapped(self) -> "F2Params":
        return F2Params(self.alpha, self.beta2, self.beta1, self.gamma2, self.gamma1)


@dataclass(frozen=True)
class ModuliPoint:
    """Point (x, y) in the two-parameter base; x = z1, y = 1 - z2."""

    x: complex
    y: complex

    @property
    def series_norm(self) -> float:
        return abs(self.x) + abs(self.y)


@dataclass(frozen=True)
class QuadratureControl:
    level_max: int = 8
    target_tol: float = 1e-11

    def __post_init__(self):
        if not 4 <= self.level_max <= LEVEL_MAX_2D:
            raise ValueError(
                f"level_max must lie in 4..{LEVEL_MAX_2D}: the rule starts at level 3"
                " and needs two levels, and a level-8 grid holds up to 3,073^2"
                " complex values (151 MB)"
            )
        if self.target_tol <= 0:
            raise ValueError("target_tol must be positive")


# Series are checked for convergence every _CHECK_EVERY terms.  A point stops
# once its tail estimate is below _TAIL_SHARE * rel_tol * |sum| at two checks
# in a row, so that truncation is a small share of the error next to the
# rounding of the sum, and one term that happens to be small cannot stop it.
_CHECK_EVERY = 4
_TAIL_SHARE = 1e-2


def _converged(prev, last, total, ok_before, ctrl: SeriesControl):
    """Tail estimates, where they are below tolerance, and which points stop.

    The tail after a term of size ``last`` is estimated as last * r / (1 - r),
    r being the observed ratio per term: the geometric mean over the
    _CHECK_EVERY terms since the one of size ``prev``.  It is inf while r >= 1.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(last == 0.0, 0.0, (last / prev) ** (1.0 / _CHECK_EVERY))
        tail = np.where(r < 1.0, last * r / (1.0 - r), np.inf)
    ok = tail <= _TAIL_SHARE * ctrl.rel_tol * np.abs(total) + ctrl.abs_floor
    return tail, ok, ok & ok_before


def _gauss_seeds(a, b, c, y, ctrl: SeriesControl):
    """2F1(a, b; c; y) and 2F1(a + 1, b; c; y) from one pass of their series.

    Where |1 - y| > 1 the Pfaff transformation to y / (y - 1), which is then
    smaller than y and has no alternating signs, is summed instead.
    """
    pfaff = np.abs(1.0 - y) > 1.0
    z = np.where(pfaff, y / (y - 1.0), y)
    bz = np.where(pfaff, c - b, b)
    t0, t1 = np.ones_like(y), np.ones_like(y)
    s0, s1 = np.ones_like(y), np.ones_like(y)
    prev = np.ones(y.shape)
    ok = np.zeros(y.shape, dtype=bool)
    for n in range(ctrl.max_terms):
        f = (bz + n) * z / ((c + n) * (n + 1.0))
        t0 = t0 * (f * (a + n))
        t1 = t1 * (f * (a + 1.0 + n))
        s0 += t0
        s1 += t1
        if (n + 1) % _CHECK_EVERY == 0:
            last = np.maximum(np.abs(t0), np.abs(t1))
            small = np.where(np.abs(s0) < np.abs(s1), s0, s1)
            _, ok, done = _converged(prev, last, small, ok, ctrl)
            prev = last
            if done.all():
                break
            z = np.where(done, 0.0, z)  # a finished point adds zeros from here on
    else:
        raise ConvergenceError("2F1 seed series did not meet rel_tol within max_terms")
    pref = np.where(pfaff, (1.0 - y) ** (-a), 1.0)
    return pref * s0, np.where(pfaff, pref / (1.0 - y), 1.0) * s1


def _f2_row_sum(p: F2Params, x, y, c: SeriesControl | None = None):
    """F2 and its tail estimate by rows of Gauss functions (Burchnall–Chaundy).

    F2 = sum_m (a)_m (b1)_m / ((c1)_m m!) x^m G_m with the ladder
    G_m = 2F1(a + m, b2; c2; y).  G_0 and G_1 come from one series pass, and
    Gauss's contiguous relation in a advances the ladder:

        G_{m+1} = [(c2-a-m) G_{m-1} + (2(a+m) - c2 + (b2-a-m) y) G_m] / ((a+m)(1-y)).

    The recurrence runs on V_m = x^m G_m, the ladder with the factor x^m of
    its row coefficient folded in.  G_m grows like |1 - y|^-m (past 1e308
    near m = 300 at y = 0.9), but V_m falls like the terms, since
    |x| < min(1, |1 - y|) when |x| + |y| < 1.  Each point stops on its own
    tail estimate, so its value does not depend on the other points of the
    array.

    Forward recurrence is the stable direction: its characteristic roots are
    1 and 1 / (1 - y), and the ladder contains the solution growing like the
    larger one unless 1 / Gamma(b2) (for |1 - y| < 1) or 1 / Gamma(c2 - b2)
    (for |1 - y| > 1) vanishes (Gil, Segura and Temme, Numerical Methods for
    Special Functions, ch. 4).  In those cases the ladder is the minimal
    solution and forward recurrence adds errors of order eps times the
    dominant one; but they enter the sum multiplied by x^m, which damps
    them, and Miller's backward recurrence, tried there, gave no more
    accurate sums.

    Returns (values, tail estimates), both of the broadcast shape.
    """
    c = c or SeriesControl()
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xf = np.broadcast_to(x, shape).ravel()
    yf = np.broadcast_to(y, shape).ravel()
    rho = float(np.max(np.abs(xf) + np.abs(yf))) if xf.size else 0.0
    if rho >= 1.0:
        raise DomainError(f"F2 series diverges: max(|x|+|y|) = {rho:.4f} >= 1")
    a, b1, b2, g1, g2 = (
        complex(p.alpha),
        complex(p.beta1),
        complex(p.beta2),
        complex(p.gamma1),
        complex(p.gamma2),
    )
    g0, g1_seed = _gauss_seeds(a, b2, g2, yf, c)
    x1 = xf / (1.0 - yf)
    x2, xy = xf * x1, yf * x1
    v_prev, v = g0, xf * g1_seed  # V_0, V_1
    coef = 1.0 + 0j  # (a)_m (b1)_m / ((c1)_m m!)
    total, comp = g0.copy(), np.zeros_like(g0)  # Kahan-compensated sum
    value, est = np.zeros_like(g0), np.zeros(xf.shape)
    prev = np.abs(g0)
    ok = done = np.zeros(xf.shape, dtype=bool)
    for m in range(1, c.max_terms + 1):
        coef *= (a + m - 1) * (b1 + m - 1) / ((g1 + m - 1) * m)
        term = coef * v
        add = term - comp
        new_total = total + add
        comp = (new_total - total) - add
        total = new_total
        if a + m == 0:  # (a)_k vanishes for k > m: every later row is zero
            break
        if m % _CHECK_EVERY == 0:
            last = np.abs(term)
            tail, ok, stop = _converged(prev, last, total, ok, c)
            prev = last
            stop &= ~done
            value[stop], est[stop] = (total - comp)[stop], tail[stop]
            done = done | stop
            if done.all():
                break
        v_prev, v = v, ((g2 - a - m) / (a + m)) * (x2 * v_prev) + (
            ((2 * (a + m) - g2) / (a + m)) * x1 + ((b2 - a - m) / (a + m)) * xy
        ) * v
    else:
        raise ConvergenceError("F2 row sum tail bound not met within max_terms")
    value = np.where(done, value, total - comp)  # sums ended by the a + m = 0 row
    return value.reshape(shape), est.reshape(shape)


def f2_series_on_arrays(p: F2Params, x, y, c: SeriesControl | None = None):
    """Appell F2 by its Burchnall–Chaundy row sum, over broadcastable x, y arrays.

    Convergence requires |x| + |y| < 1 everywhere; see ``_f2_row_sum``.
    """
    return _f2_row_sum(p, x, y, c)[0]


def f2_series(p: F2Params, pt: ModuliPoint, c: SeriesControl | None = None) -> complex:
    """F2 at a single point via the row sum (|x|+|y| < 1)."""
    return complex(f2_series_on_arrays(p, pt.x, pt.y, c))


def _euler_prefactor(p: F2Params) -> complex:
    return (
        gamma_fn(p.gamma1)
        * gamma_fn(p.gamma2)
        / (
            gamma_fn(p.beta1)
            * gamma_fn(p.gamma1 - p.beta1)
            * gamma_fn(p.beta2)
            * gamma_fn(p.gamma2 - p.beta2)
        )
    )


def _distance_from_one(x: complex, y: complex) -> float:
    """Distance from 1 to the parallelogram {x s + y t : s, t in [0, 1]}.

    It is 0 where 1 = x s + y t has a real solution in the square, and
    otherwise the least distance to the four edges, which also covers the
    collinear case, where the parallelogram is a segment.
    """
    det = (x.conjugate() * y).imag
    if det != 0.0 and 0.0 <= y.imag / det <= 1.0 and 0.0 <= -x.imag / det <= 1.0:
        return 0.0
    dist = np.inf
    for a, e in ((0.0, x), (0.0, y), (x, y), (y, x)):  # edges a + u e, 0 <= u <= 1
        u = ((1.0 - a) * e.conjugate()).real / abs(e) ** 2 if e else 0.0
        dist = min(dist, abs(1.0 - a - min(max(u, 0.0), 1.0) * e))
    return dist


def _f2_euler(p: F2Params, pt: ModuliPoint, q: QuadratureControl | None = None):
    """F2 by the Euler integral, and the error bound of its quadrature.

    The endpoint powers t^(b-1) (1-t)^(g-b-1) go into the weights of
    ``integrate_01_2d``, and the kernel is (1 - x t2 - y t1)^-a.  With d
    the distance from 1 to the values of x t2 + y t1 on the square, its
    modulus is at most max(d^-Re(a), (1 + |x| + |y|)^-Re(a)) e^(pi |Im a|).
    Returns (value, error): the error of ``integrate_01_2d`` times
    |prefactor|.
    """
    q = q or QuadratureControl()
    for b, g in ((p.beta1, p.gamma1), (p.beta2, p.gamma2)):
        if not (complex(g).real > complex(b).real > 0):
            raise DomainError("Euler integral needs Re(gamma) > Re(beta) > 0")
    x, y, a = complex(pt.x), complex(pt.y), complex(p.alpha)
    dist = _distance_from_one(x, y)
    if dist < 1e-9:
        raise SingularityError("1 - x t2 - y t1 vanishes on the unit square")
    bound = max(dist**-a.real, (1.0 + abs(x) + abs(y)) ** -a.real) * np.exp(
        np.pi * abs(a.imag)
    )
    real = x.imag == y.imag == a.imag == 0.0

    def kernel(t1, t2):
        re = 1.0 - x.real * t2 - y.real * t1
        if real:  # then re >= dist > 0 on the square
            return np.exp(-a.real * np.log(re))
        # log|z| + i arg z, as numpy's complex log is several times slower
        im = -x.imag * t2 - y.imag * t1
        return np.exp(-a * (0.5 * np.log(re * re + im * im) + 1j * np.arctan2(im, re)))

    b1, b2, g1, g2 = p.beta1, p.beta2, p.gamma1, p.gamma2
    val, err = integrate_01_2d(
        kernel,
        ((b2 - 1.0, g2 - b2 - 1.0), (b1 - 1.0, g1 - b1 - 1.0)),
        bound,
        target_tol=q.target_tol,
        level_max=q.level_max,
    )
    pref = _euler_prefactor(p)
    return complex(pref * val), float(abs(pref) * err)


def f2_euler_integral(
    p: F2Params, pt: ModuliPoint, q: QuadratureControl | None = None
) -> complex:
    """F2 via the Euler double integral over the unit square.

    Requires Re(gamma_i) > Re(beta_i) > 0 and the linear factor
    1 - x t2 - y t1 to be zero-free on the closed square.
    """
    return _f2_euler(p, pt, q)[0]


def default_pde_radii(pt: ModuliPoint):
    """Bi-circle radii, 0.4 of the distance to the singular locus x,y in {0,1}, x+y=1."""
    x, y = complex(pt.x), complex(pt.y)
    margin = min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y))
    if margin <= 0:
        raise SingularityError("point lies on the singular locus")
    r = 0.4 * margin
    return r, r


def f2_pde_residual(F, p: F2Params, pt: ModuliPoint, radius=None):
    """Normalized residuals of the two defining PDEs at pt.

    F must be analytic on the bi-circle of the given radii (a pair, or one
    float used for both); derivatives are taken by Cauchy-integral
    differentiation, and each residual is divided by the largest term
    magnitude entering its equation.
    """
    x, y = complex(pt.x), complex(pt.y)
    if radius is None:
        rx, ry = default_pde_radii(pt)
    elif np.isscalar(radius):
        rx = ry = float(radius)
    else:
        rx, ry = radius
    d = cauchy_derivs_2d(F, x, y, rx, ry, max_order=2)
    f, fx, fy = d[0, 0], d[1, 0], d[0, 1]
    fxx, fyy, fxy = d[2, 0], d[0, 2], d[1, 1]
    a, b1, b2, g1, g2 = p.alpha, p.beta1, p.beta2, p.gamma1, p.gamma2
    terms1 = [
        x * (1 - x) * fxx,
        -x * y * fxy,
        (g1 - (a + b1 + 1) * x) * fx,
        -b1 * y * fy,
        -a * b1 * f,
    ]
    terms2 = [
        y * (1 - y) * fyy,
        -x * y * fxy,
        (g2 - (a + b2 + 1) * y) * fy,
        -b2 * x * fx,
        -a * b2 * f,
    ]
    s1 = max(max(abs(t) for t in terms1), 1e-300)
    s2 = max(max(abs(t) for t in terms2), 1e-300)
    return sum(terms1) / s1, sum(terms2) / s2


def quadratic_criterion(p: F2Params, tol: float = 1e-12) -> bool:
    """True iff alpha = beta1 + beta2 - 1/2, gamma1 = 2 beta1, gamma2 = 2 beta2."""
    a, b1, b2 = complex(p.alpha), complex(p.beta1), complex(p.beta2)
    g1, g2 = complex(p.gamma1), complex(p.gamma2)
    return (
        abs(a - (b1 + b2 - 0.5)) <= tol
        and abs(g1 - 2 * b1) <= tol
        and abs(g2 - 2 * b2) <= tol
    )
