"""Appell F2: row sum of Gauss functions, Euler double integral, PDE residuals.

Two mutually independent routes to the same function are kept side by side
on purpose: the Burchnall–Chaundy row sum of the double series, whose rows are
Gauss 2F1 values advanced by the contiguous recurrence in a, and the
double-exponential evaluation of the Euler integral.  A third check is the
residual of the defining second-order system, ``f2_pde_residual``, on a
table of exact partial derivatives.

Each point's rows run in the variable whose rows fall faster: in x, or,
by F2(a; b1, b2; c1, c2; x, y) = F2(a; b2, b1; c2, c1; y, x), in y.  The
ladder's two seeds are Gauss functions of the other variable.  Where their
parameters are (1/2, 1/2, 1), as in the conformal case, they are the
Legendre functions 2 K / pi and 2 E / (pi (1 - y)) (DLMF 19.5.1, 19.5.2 and
15.8.1), from one AGM; elsewhere they are summed as a Gauss series.

The row sum and its seeds form their terms in blocks, 32 at a time over an
array of points; a call at one point sizes its first block from the point's
own ratio, so that one block of each usually holds every term it needs.  The
Euler kernel (1 - x t2 - y t1)^-a at a complex point is formed from real
square roots where a is a positive multiple of 1/2, as the conformal a = 1/2
is, and from a logarithm and an exponential elsewhere.

The partial derivatives of F2 are F2 values at shifted parameters, so the row
sum also gives them exactly: ``f2_derivatives_on_arrays`` sums every
(point, shift) pair of a derivative table in one call, its five parameters
broadcast with the points.

Work that depends only on the parameters is memoized, so that calls at the
same parameters pay only for their points.  Where every parameter is the
same at every point, the row coefficients and the ladder's alpha, beta,
gamma come from one table per parameter set, and the seeds' factors in a
and c2 from another (``special._factors``).  A table is formed whole at
first use, all 2,000 rows, read-only and at most 128 kB; it is keyed by
the bits of its parameters, and ``special._TABLES`` = 16 tables are kept,
the least recently used leaving first.  Per-point parameters, such as the
shifted ones of a derivative table, bypass them.  The Euler prefactor is
not cached: its six Gamma values cost a few microseconds a call.  The axes
of the Euler quadrature are memoized in ``quadrature``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .quadrature import integrate_01_2d
from .special import (
    _CHECK_EVERY,
    _blocks,
    _converged,
    _ellint_KE,
    _factors,
    _first_block,
    _first_stop,
    _gauss_seeds,
    _is_nonpositive_integer,
    _keep,
    gamma_fn,
)

__all__ = [
    "F2Params",
    "ModuliPoint",
    "f2_series",
    "f2_series_on_arrays",
    "f2_derivatives_on_arrays",
    "f2_euler_integral",
    "f2_pde_residual",
]


@dataclass(frozen=True)
class F2Params:
    alpha: complex
    beta1: complex
    beta2: complex
    gamma1: complex
    gamma2: complex

    def __post_init__(self):
        if not all(cmath.isfinite(complex(v)) for v in self):
            raise DomainError("F2 parameters must be finite")
        for g in (self.gamma1, self.gamma2):
            if _is_nonpositive_integer(g):
                raise DomainError("gamma1/gamma2 must not be non-positive integers")

    @classmethod
    def conformal_case(cls) -> "F2Params":
        return cls(0.5, 0.5, 0.5, 1.0, 1.0)

    def swapped(self) -> "F2Params":
        return F2Params(self.alpha, self.beta2, self.beta1, self.gamma2, self.gamma1)

    def __iter__(self):
        """alpha, beta1, beta2, gamma1, gamma2, so that ``a, b1, b2, c1, c2 = p``."""
        return iter((self.alpha, self.beta1, self.beta2, self.gamma1, self.gamma2))


@dataclass(frozen=True)
class ModuliPoint:
    """Point (x, y) in the two-parameter base; x = z1, y = 1 - z2."""

    x: complex
    y: complex


def _parameters(p, shape):
    """The five F2 parameters over the flattened points, each a flat array.

    A parameter of one element, or with the same value at every point, is
    one element, so that its coefficients are formed once per row and
    broadcast with the points; any other is one element per point of the
    broadcast shape.
    """
    return [
        v.reshape(1) if v.size == 1
        else v.ravel()[:1] if v.size and (v == v.flat[0]).all()
        else np.broadcast_to(v, shape).ravel()
        for v in p
    ]


def _row_coefficients(ms, coef, a, b1, b2, g1, g2):
    """The row coefficients and the ladder's alpha, beta, gamma at the rows ms of a block.

    The coefficient (a)_m (b1)_m / ((c1)_m m!) is carried from ``coef``, the
    one sequential step: one ``np.cumprod`` multiplies in the ratios down the
    block, in order.  Where a + m = 0 the ladder divides by 1, so that the
    points stopping there stay finite.  Returns the four as arrays with a
    row per m, columns that broadcast with the points, and the coefficient
    to carry.
    """
    m = np.array(ms)[:, None]
    am = a + m
    ratio = (am - 1) * (b1 + m - 1) / ((g1 + m - 1) * m)
    coefs = np.empty((len(ms) + 1, ratio.shape[1]), dtype=complex)
    coefs[0], coefs[1:] = coef, ratio
    np.cumprod(coefs, axis=0, out=coefs)
    am = np.where(am == 0, 1.0, am)
    return (coefs[1:], (g2 - a - m) / am, (2 * am - g2) / am, (b2 - a - m) / am), coefs[-1]


def _f2_row_sum(p, x, y):
    """F2 and its tail estimate by rows of Gauss functions (Burchnall–Chaundy).

    F2 = sum_m (a)_m (b1)_m / ((c1)_m m!) x^m G_m with the ladder
    G_m = 2F1(a + m, b2; c2; y), for a point whose rows run in x.  A point
    whose rows fall faster in y is summed with x and y, b1 and b2, c1 and
    c2 exchanged (``_oriented``), so below x is the variable of the rows
    and y that of the ladder.  G_0 and G_1 are 2 K(y) / pi and
    2 E(y) / (pi (1 - y)) from one AGM where (a, b2, c2) = (1/2, 1/2, 1),
    and elsewhere come from one pass of the series of ``gauss_2f1``
    (``_seeds``).  Gauss's contiguous relation in a advances the ladder:

        G_{m+1} = [(c2-a-m) G_{m-1} + (2(a+m) - c2 + (b2-a-m) y) G_m] / ((a+m)(1-y)).

    The recurrence runs on V_m = x^m G_m, the ladder with the factor x^m of
    its row coefficient folded in.  G_m grows like |1 - y|^-m (past 1e308
    near m = 300 at y = 0.9), but V_m falls like the terms, since
    |x| < min(1, |1 - y|) when |x| + |y| < 1.  Each point stops on its own
    tail estimate, so its value does not depend on the other points of the
    array.

    p is an F2Params or the five parameters (a, b1, b2, c1, c2), each a
    number or an ndarray that broadcasts with x and y; see ``_parameters``.
    Where a + m = 0 the rows after m vanish: a point is done at that row,
    with tail 0, and the rows it no longer needs are kept finite.

    The rows are summed a block at a time, and rounded as one row at a time
    would round them.  A call at one point sizes its first block from the
    point's ratio rho = |x| / min(1, |1 - y|) (``special._first_block``), so
    that it usually holds every row the point needs; an array call, and any
    block after the first, takes _BLOCK rows.  Whole-block operations, which
    act on each element alone, form the coefficients (``_row_coefficients``)
    and the terms coef V_m; the ladder steps and the Kahan steps stay one
    row after another (``_ladder``, ``_compensated``).  The stop test runs on all the
    checks of a block at once, and points that stop leave the working arrays.
    Where all five parameters are shared, after the exchange too, the
    coefficients come from a memoized table of them (``special._factors``):
    all 2,000 rows, formed whole at the first call at those parameters by
    the same arithmetic, so later calls pay nothing for them; at most 16
    such tables of at most 128 kB are kept.

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
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    p = [np.asarray(v, dtype=complex) for v in p]
    shape = np.broadcast(x, y, *p).shape
    xf, yf = (v.ravel() if v.shape == shape else np.broadcast_to(v, shape).ravel() for v in (x, y))
    rho = float(np.max(np.abs(xf) + np.abs(yf))) if xf.size else 0.0
    if not rho < 1.0:  # NaN, where x or y is not finite, fails it too
        raise DomainError(f"F2 series needs finite x, y with max(|x|+|y|) < 1, not {rho:.4f}")
    a, b1, b2, g1, g2 = _parameters(p, shape)
    xf, yf, b1, b2, g1, g2 = _oriented(xf, yf, b1, b2, g1, g2)
    # the rows m at which a + m = 0 for some point
    stops_at = {
        int(-v.real) for v in set(a.tolist()) if v.imag == 0 and v.real < 0 and v.real.is_integer()
    }
    g0, g1_seed = _seeds(a, b2, g2, yf)
    x1 = xf / (1.0 - yf)
    x2, xy = xf * x1, yf * x1
    v_prev, v = g0, xf * g1_seed  # V_0, V_1
    coef = np.ones(1, dtype=complex)  # (a)_m (b1)_m / ((c1)_m m!)
    total, comp = g0, np.zeros_like(g0)  # Kahan-compensated sum
    value, est = np.zeros_like(g0), np.zeros(xf.shape)
    prev, ok = np.abs(g0), np.zeros(xf.shape, dtype=bool)
    live = np.arange(xf.size)  # positions of the points still summing
    factors = _factors(_row_coefficients, 1, a, b1, b2, g1, g2)
    head = None
    if xf.size == 1:
        # a conformal point needed 0.76 to 1.50 n_hat rows, the fewer the more
        # it needs (400 points of the f2_hard bench), and a row past its need
        # costs about 1/50 of a block, so the margin is narrow
        head = _first_block(abs(xf[0]) / min(1.0, abs(1.0 - yf[0])), 0.8, 4)
    for ms in _blocks(1, head):
        n, size = len(ms), live.size
        (coefs, alpha, beta, gamma), coef = factors(ms, coef, a, b1, b2, g1, g2)
        ladder = _ladder(v_prev, v, x2, alpha, beta * x1 + gamma * xy)
        terms = coefs * ladder[1:-1]
        sums, comps = _compensated(terms, total, comp)
        rows = np.arange(-ms[0] % _CHECK_EVERY, n, _CHECK_EVERY)  # m % _CHECK_EVERY == 0
        last = np.abs(terms[rows])
        tail, stops, ok = _converged(prev, last, sums[rows + 1], ok)
        ends, tails = np.zeros((n, size), dtype=bool), np.zeros((n, size))
        ends[rows], tails[rows] = stops, tail
        for m in stops_at.intersection(ms):  # (a)_k vanishes for k > m where a + m = 0
            end, j = a + m == 0, m - ms[0]
            ends[j] |= end
            tails[j] = np.where(end, 0.0, tails[j])
        at, first = _first_stop(ends)
        value[live[at]] = sums[first + 1, at] - comps[first + 1, at]
        est[live[at]] = tails[first, at]
        if at.size == size:
            break
        v_prev, v, total, comp, prev = ladder[-2], ladder[-1], sums[-1], comps[-1], last[-1]
        live, x1, x2, xy, v_prev, v, total, comp, prev, ok, coef, a, b1, b2, g1, g2 = _keep(
            at, live, x1, x2, xy, v_prev, v, total, comp, prev, ok, coef, a, b1, b2, g1, g2
        )
    else:
        raise ConvergenceError("F2 row sum tail bound not met within max_terms")
    return value.reshape(shape), est.reshape(shape)


def _oriented(x, y, b1, b2, g1, g2):
    """The flat points and parameters, each point's rows put in its variable of smaller ratio.

    The rows in x fall like |x| / min(1, |1 - y|) and the rows in y like
    |y| / min(1, |1 - x|); the second is the smaller where
    |y| min(1, |1 - y|) < |x| min(1, |1 - x|).  There the point is summed
    as F2(a; b2, b1; c2, c1; y, x), which equals F2(a; b1, b2; c1, c2;
    x, y) term by term; a tie keeps the rows in x.  The test is elementwise,
    so a point's orientation does not depend on the other points.  A
    parameter equal at every point after the exchange stays one element
    (``_parameters``), as b1 = b2 and c1 = c2 keep the conformal tables.
    """

    def reach(u):
        return np.abs(u) * np.minimum(1.0, np.abs(1.0 - u))

    swap = reach(y) < reach(x)
    if not swap.any():
        return x, y, b1, b2, g1, g2
    params = []
    for u, v in ((b1, b2), (g1, g2)):
        if not (u.size == v.size == 1 and u[0] == v[0]):  # else the exchange keeps both
            u, v = _parameters((np.where(swap, v, u), np.where(swap, u, v)), swap.shape)
        params += u, v
    return np.where(swap, y, x), np.where(swap, x, y), *params


def _seeds(a, b, c, y):
    """The ladder's seeds G_0 = 2F1(a, b; c; y) and G_1 = 2F1(a + 1, b; c; y).

    Where (a, b, c) = (1/2, 1/2, 1), the Legendre triple of the conformal
    F2, they are G_0 = 2 K(y) / pi (DLMF 19.5.1) and, by Euler's
    transformation (DLMF 15.8.1) of 2 E(y) / pi = 2F1(-1/2, 1/2; 1; y)
    (DLMF 19.5.2), G_1 = 2 E(y) / (pi (1 - y)): K and E from one AGM
    (``special._ellint_KE``).  Every other point sums the series of
    ``special._gauss_seeds``.  The test is elementwise, as in ``_oriented``.
    """
    if a.size == b.size == c.size == 1:
        legendre = (a[0], b[0], c[0]) == (0.5, 0.5, 1.0)
        return _legendre_seeds(y) if legendre else _gauss_seeds(a, b, c, y)
    legendre = (a == 0.5) & (b == 0.5) & (c == 1.0)
    g0, g1 = np.empty((2, y.size), dtype=complex)
    g0[legendre], g1[legendre] = _legendre_seeds(y[legendre])
    rest = ~legendre
    g0[rest], g1[rest] = _gauss_seeds(*(v if v.size == 1 else v[rest] for v in (a, b, c)), y[rest])
    return g0, g1


def _legendre_seeds(y):
    """2F1(1/2, 1/2; 1; y) = 2 K(y) / pi and 2F1(3/2, 1/2; 1; y) = 2 E(y) / (pi (1 - y))."""
    k, e = _ellint_KE(y)
    return 2.0 * k / np.pi, 2.0 * e / (np.pi * (1.0 - y))


def _ladder(v_prev, v, x2, alpha, beta_gamma):
    """V_{m-1}, V_m, ..., V_{m+n}: the ladder steps of a block's n rows, one after another.

    A step is V_{m+1} = (alpha x2) V_{m-1} + (beta x1 + gamma xy) V_m.  Both
    factors are formed for the whole block first, so the two products of a
    step are one multiply of pairs, and a step is that and one add.  No
    product writes over its input: numpy rounds that differently for a
    single point.
    """
    n, size = len(alpha), v.size
    factors = np.empty((n, size, 2), dtype=complex)
    factors[..., 0], factors[..., 1] = alpha * x2, beta_gamma
    ladder = np.empty((n + 2, size), dtype=complex)
    ladder[0], ladder[1] = v_prev, v
    row, point = ladder.strides
    pairs = np.lib.stride_tricks.as_strided(ladder, (n + 1, size, 2), (row, point, row))
    products = np.empty((size, 2), dtype=complex)
    moved, stayed = products.T
    for f, pair, new in zip(factors, pairs, ladder[2:]):
        np.multiply(f, pair, out=products)
        np.add(moved, stayed, out=new)
    return ladder


def _compensated(terms, total, comp):
    """Kahan's compensated sums of the rows of ``terms``, and their compensations.

    Row 0 of each holds the ``total`` and ``comp`` carried in, row j + 1
    the state after row j of the terms.  Complex add and subtract act on
    each part alone, in numpy and in Python alike, so a single point is
    summed in a Python loop, which rounds as numpy does and skips its cost
    per call.
    """
    sums, comps = np.empty((2, len(terms) + 1) + total.shape, dtype=complex)
    sums[0], comps[0] = total, comp
    if total.size == 1:
        s, c, out = complex(total[0]), complex(comp[0]), []
        for term in terms.ravel().tolist():
            add = term - c
            new = s + add
            s, c = new, (new - s) - add
            out += s, c
        sums[1:, 0], comps[1:, 0] = np.array(out).reshape(-1, 2).T
        return sums, comps
    add = np.empty(total.shape, dtype=complex)
    for term, s0, s1, c0, c1 in zip(terms, sums, sums[1:], comps, comps[1:]):
        np.subtract(term, c0, out=add)
        np.add(s0, add, out=s1)
        np.subtract(s1, s0, out=c1)
        np.subtract(c1, add, out=c1)
    return sums, comps


def f2_series_on_arrays(p: F2Params, x, y):
    """Appell F2 by its Burchnall–Chaundy row sum, over broadcastable x, y arrays.

    Convergence requires |x| + |y| < 1 everywhere; see ``_f2_row_sum``.
    """
    return _f2_row_sum(p, x, y)[0]


def _rising(z: complex, k: int):
    """Pochhammer symbols (z)_0, ..., (z)_k."""
    return np.cumprod(np.concatenate(([1.0 + 0j], z + np.arange(k))))


def f2_derivatives_on_arrays(p: F2Params, x, y, order: int):
    """Partial derivatives of F2 up to ``order`` in each variable, by parameter shifts.

    Term by term in the double series (DLMF §16.13),

        d^(m+n) F2 / dx^m dy^n = (a)_{m+n} (b1)_m (b2)_n / ((c1)_m (c2)_n)
                                 * F2(a+m+n; b1+m, b2+n; c1+m, c2+n; x, y),

    so every derivative is a row sum at shifted parameters, and one row-sum
    call sums all (point, shift) pairs.  Returns D with D[m, n] the partial
    of order m in x and n in y, of shape (order + 1, order + 1) plus the
    broadcast shape of x and y.  Convergence requires |x| + |y| < 1.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    a, b1, b2, g1, g2 = (complex(v) for v in p)
    pad = (1,) * x.ndim
    m = np.arange(order + 1).reshape((-1, 1) + pad)
    n = np.arange(order + 1).reshape((1, -1) + pad)
    shifted = (a + m + n, b1 + m, b2 + n, g1 + m, g2 + n)
    values = _f2_row_sum(shifted, x, y)[0]
    k = np.arange(order + 1)
    in_x = _rising(b1, order) / _rising(g1, order)
    in_y = _rising(b2, order) / _rising(g2, order)
    pref = _rising(a, 2 * order)[k[:, None] + k] * np.outer(in_x, in_y)
    return pref.reshape(pref.shape + pad) * values


def f2_series(p: F2Params, pt: ModuliPoint) -> complex:
    """F2 at a single point via the row sum (|x|+|y| < 1)."""
    return complex(f2_series_on_arrays(p, pt.x, pt.y))


def _euler_prefactor(p: F2Params) -> complex:
    """Gamma(c1) Gamma(c2) / (Gamma(b1) Gamma(c1 - b1) Gamma(b2) Gamma(c2 - b2))."""
    b1, b2, g1, g2 = p.beta1, p.beta2, p.gamma1, p.gamma2
    return (
        gamma_fn(g1)
        * gamma_fn(g2)
        / (gamma_fn(b1) * gamma_fn(g1 - b1) * gamma_fn(b2) * gamma_fn(g2 - b2))
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


def _inverse_sqrt(re, im):
    """w^(-1/2) = conj(sqrt(w)) / |w| for w = re + i im != 0, principal, from real square roots.

    With t = sqrt((|w| + |re|) / 2), sqrt(w) is t + i im / 2t where re >= 0
    and |im| / 2t + i t sign(im) where re < 0, so that no difference of
    near-equal numbers is formed in either half-plane; the sign of a zero
    im picks the side of the cut, as numpy's complex sqrt does.
    """
    r = np.sqrt(re * re + im * im)
    t = np.sqrt(0.5 * (r + np.abs(re)))
    s = im / (2.0 * t)
    left = re < 0.0
    if left.any():
        t, s = np.where(left, np.abs(s), t), np.where(left, np.copysign(t, im), s)
    out = np.empty(r.shape, dtype=complex)
    np.divide(t, r, out=out.real)
    np.divide(s, -r, out=out.imag)
    return out


def _f2_euler(p: F2Params, x, y):
    """F2 at (x, y) by the Euler integral, and the error bound of its quadrature.

    The endpoint powers t^(b-1) (1-t)^(g-b-1) go into the weights of
    ``integrate_01_2d``, and the kernel is w^-a, w = 1 - x t2 - y t1: where
    x or y is complex and a = k / 2 for a positive integer k, it is
    (w^-1/2)^k with w^-1/2 from real square roots (``_inverse_sqrt``), about
    twice as fast as the logarithm and exponential it takes otherwise.  With d
    the distance from 1 to the values of x t2 + y t1 on the square, its
    modulus is at most max(d^-Re(a), (1 + |x| + |y|)^-Re(a)) e^(pi |Im a|).
    Returns (value, error): the error of ``integrate_01_2d`` times
    |prefactor|.
    """
    for b, g in ((p.beta1, p.gamma1), (p.beta2, p.gamma2)):
        if not (complex(g).real > complex(b).real > 0):
            raise DomainError("Euler integral needs Re(gamma) > Re(beta) > 0")
    x, y, a = complex(x), complex(y), complex(p.alpha)
    if not (cmath.isfinite(x) and cmath.isfinite(y)):
        raise DomainError(f"Euler integral needs finite x and y, not {x}, {y}")
    dist = _distance_from_one(x, y)
    if not dist >= 1e-9:
        raise SingularityError("1 - x t2 - y t1 vanishes on the unit square")
    bound = max(dist**-a.real, (1.0 + abs(x) + abs(y)) ** -a.real) * np.exp(
        np.pi * abs(a.imag)
    )
    real = x.imag == y.imag == a.imag == 0.0
    # w^-a = (w^-1/2)^k for the real a = k / 2, k = 1, 2, ...
    k = int(2.0 * a.real) if a.imag == 0.0 and a.real > 0.0 and (2.0 * a.real).is_integer() else 0

    def kernel(t1, t2):
        re = 1.0 - x.real * t2 - y.real * t1
        if real:  # then re >= dist > 0 on the square
            return np.exp(-a.real * np.log(re))
        im = -x.imag * t2 - y.imag * t1
        if k:
            w = _inverse_sqrt(re, im)
            return w if k == 1 else w**k
        # log|z| + i arg z, as numpy's complex log is several times slower
        return np.exp(-a * (0.5 * np.log(re * re + im * im) + 1j * np.arctan2(im, re)))

    b1, b2, g1, g2 = p.beta1, p.beta2, p.gamma1, p.gamma2
    exponents = ((b2 - 1.0, g2 - b2 - 1.0), (b1 - 1.0, g1 - b1 - 1.0))
    val, err = integrate_01_2d(kernel, exponents, bound)
    pref = _euler_prefactor(p)
    return complex(pref * val), float(abs(pref) * err)


def f2_euler_integral(p: F2Params, pt: ModuliPoint) -> complex:
    """F2 via the Euler double integral over the unit square.

    Requires Re(gamma_i) > Re(beta_i) > 0 and the linear factor
    1 - x t2 - y t1 to be zero-free on the closed square.
    """
    return _f2_euler(p, pt.x, pt.y)[0]


def f2_pde_residual(p: F2Params, d, x, y):
    """Normalized residuals of the two defining PDEs, from a table of partials.

    d[m, n] holds d^(m+n) F / dx^m dy^n, m + n <= 2, at the points (x, y) on
    trailing axes that broadcast with them, as ``f2_derivatives_on_arrays``
    and ``factorization.period_derivatives`` give it.  Each residual is
    divided by the largest term magnitude entering its equation.
    """
    a, b1, b2, g1, g2 = p

    def residual(u, v, fuu, fu, fv, b, g):
        terms = np.broadcast_arrays(
            u * (1 - u) * fuu, -u * v * d[1, 1], (g - (a + b + 1) * u) * fu, -b * v * fv,
            -a * b * d[0, 0],
        )
        return sum(terms) / np.maximum(np.abs(terms).max(axis=0), 1e-300)

    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    first = residual(x, y, d[2, 0], d[1, 0], d[0, 1], b1, g1)
    return first, residual(y, x, d[0, 2], d[0, 1], d[1, 0], b2, g2)
