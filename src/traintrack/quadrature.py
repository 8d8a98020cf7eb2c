"""Double-exponential quadrature on (0,1)^2 and Cauchy-integral differentiation.

The 2-D rule, ``integrate_01_2d``, takes the endpoint powers
t^p (1-t)^q apart from a kernel; they handle algebraic endpoint
singularities (the conformal exponents give inverse-square-root behaviour
at both endpoints).  Weights: each axis folds its powers into the 1-D
weights, formed in logs from log(1 + e^-s) and log(1 + e^s), so neither t
nor 1 - t is formed by subtraction, they cost O(n), not O(n^2), and they
cannot overflow.  Truncation: a node is kept while its log-density is
within log(1e-20) of the peak, a test on t alone.  Nesting: each level
halves the mesh, keeps the kernel values of the last level's nodes and
evaluates the kernel on the new rows and columns only.  Error: the change
between the last two levels, plus the rounding of the last one, plus a
bound on the dropped nodes.

Memoized: each axis of each level, with the index work of its nesting and
its error sums, depends only on its exponents, its level and its floor, and
is kept in a least-recently-used cache of _AXES = 32 entries, keyed by the
type and bits of the exponents, its arrays read-only.  A call with the
exponents of an earlier one pays only for its kernel and its sums.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "integrate_01_2d",
    "cauchy_derivs_2d",
]

# The 2-D rule keeps nodes on |t| <= 6, a multiple of every mesh, so that
# the grids of all levels end at the same node; it drops nodes more than
# 1e-20 below the peak.  At its highest level the full grid has 3,073^2
# nodes, 151 MB of complex values; level 9 would take 604 MB.
_T_2D = 6.0
_LOG_KEEP = np.log(1e-20)
_TOL_2D = 1e-11
_LEVEL_MIN_2D = 3
LEVEL_MAX_2D = 8
# Memoized axes (``_axis``): one axis holds 15 kB at levels 3 to 5, where
# the rule usually stops, and 68 to 85 kB at level 8, so the cache holds
# at most about 2.7 MB.
_AXES = 32
# Cauchy differentiation: nodes on each circle, and the highest order
_CAUCHY_NODES = 32
_CAUCHY_ORDER = 2


class _Axis(NamedTuple):
    """One axis of the 2-D rule at one level; see ``_axis``."""

    x: np.ndarray  # the kept nodes
    w: np.ndarray  # their weights, the endpoint powers included
    new: np.ndarray  # positions of the kept nodes the level below does not have
    old: np.ndarray  # positions of the others, in the order of the level below
    dropped: float  # bound on sum |w| over the nodes left out
    floor: float  # the log-density below which a node is dropped
    wc: np.ndarray  # |w| (1 + |s|), the rounding weight of each node
    abs_sum: float  # sum |w| over the kept nodes


def _exact(v):
    """A key for a number that tells apart its type and every bit, signed zeros included."""
    v = np.asarray(v)
    return v.dtype.str, v.tobytes()


def _axis(p, q, level: int, floor=None) -> _Axis:
    """One axis of the 2-D rule at mesh h = 2**-level, truncated.

    The kept nodes x carry the weights w = h pi cosh(t) x^(p+1) (1-x)^(q+1),
    the endpoint powers included, formed in logs so that they cannot
    overflow; wc = |w| (1 + |s|).  ``new`` indexes the kept nodes at odd
    multiples of h, which the level below does not have, and ``old`` the
    rest, and ``dropped`` bounds sum |w| over the nodes left out: those of
    the grid below ``floor``, the log-density at which a node is dropped,
    and a geometric tail for those past |t| = 6.  Without a floor it is set
    from this level's peak.

    Memoized: the axis depends only on (p, q, level, floor), with p and q
    keyed by their type and bits, in a least-recently-used cache of _AXES
    entries whose arrays are read-only.
    """
    return _axis_of(_exact(p), _exact(q), level, floor)


@lru_cache(maxsize=_AXES)
def _axis_of(p, q, level, floor) -> _Axis:
    (p,), (q,) = (np.frombuffer(bits, dtype) for dtype, bits in (p, q))
    h = 2.0**-level
    kmax = int(_T_2D / h)
    k = np.arange(-kmax, kmax + 1)
    t = h * k
    s = np.pi * np.sinh(t)
    mlog_x, mlog_omx = np.logaddexp(0.0, -s), np.logaddexp(0.0, s)
    base = np.log(np.pi * np.cosh(t))
    dens = base - (np.real(p) + 1.0) * mlog_x - (np.real(q) + 1.0) * mlog_omx
    ratio = np.exp(dens[[0, -1]] - dens[[1, -2]])
    if np.any(ratio >= 1.0):
        raise ConvergenceError("tanh-sinh weights do not decay: need Re(p), Re(q) > -1")
    if floor is None:
        floor = dens.max() + _LOG_KEEP
    keep = dens >= floor
    tail = np.exp(dens[[0, -1]]) * ratio / (1.0 - ratio)
    dropped = h * (np.exp(dens[~keep]).sum() + tail.sum())
    w = h * np.exp(base[keep] - (p + 1.0) * mlog_x[keep] - (q + 1.0) * mlog_omx[keep])
    x = 1.0 / (1.0 + np.exp(-s[keep]))
    odd = k[keep] % 2 == 1
    wc = np.abs(w) * (1.0 + np.abs(s[keep]))
    new, old = np.flatnonzero(odd), np.flatnonzero(~odd)
    axis = _Axis(x, w, new, old, dropped, floor, wc, np.abs(w).sum())
    for a in (x, w, new, old, wc):
        a.flags.writeable = False
    return axis


def _bilinear(w1, vals, w2):
    """w1 @ vals @ w2, with no complex matrix product for a complex grid.

    Between real weights, a complex grid is contracted with w1 as real
    products, through its (re, im) pairs: numpy would make w1 complex for
    ``@``, and a complex matrix product can stall in OpenBLAS when the host
    is loaded.  The row that results is dotted with w2 as complex numbers,
    a product of vectors: summed as real products too, it lost accuracy.
    """
    if np.iscomplexobj(vals) and not (np.iscomplexobj(w1) or np.iscomplexobj(w2)):
        return complex((w1 @ np.ascontiguousarray(vals).view(float)).view(complex) @ w2)
    return w1 @ vals @ w2


def integrate_01_2d(kernel, exponents, bound: float):
    """Integral of t1^p1 (1-t1)^q1 t2^p2 (1-t2)^q2 kernel(t1, t2) over (0,1)^2.

    ``exponents`` is ((p1, q1), (p2, q2)) with real parts above -1;
    kernel(t1, t2) must broadcast over a column of t1 and a row of t2, and
    ``bound`` must bound |kernel| on the square.  The tensor tanh-sinh
    rule runs from level 3 up to LEVEL_MAX_2D = 8 and stops once two levels
    agree to 1e-11.

    Weights: each axis has the weights w_i t_i^p (1-t_i)^q of ``_axis``, so
    the endpoint powers cost O(n) instead of O(n^2) and cannot overflow.
    Truncation: a node is kept while its log-density is within log(1e-20)
    of the peak on the first level's grid.  The test depends on t alone, so
    each level's kept nodes contain the last level's.  Nesting: h halves
    from level to level, so a level's nodes at even multiples of h are the
    last level's to the bit; their kernel values are copied, and the kernel
    is evaluated only on the rows and columns of the new nodes.  The axes
    are memoized (``_axis``).  A complex kernel between real weights is
    summed as real products (``_bilinear``).

    Returns (value, error).  The error is the change between the last two
    levels, plus a first-order estimate of the rounding of the last one,
    eps * sum_ij |w_i| c_i |K_ij| |w_j| c_j, plus the dropped nodes,
    bound * (D1 (S2 + D2) + S1 D2), with S the kept and D the dropped sum
    of |w| on each axis.  c = 1 + |s| counts the rounding of the sum and of
    each node: a node is exp of the rounded exponent s = pi sinh(t), whose
    absolute rounding error, about eps |s|, becomes a relative error of
    the node and its weight.
    """
    (p1, q1), (p2, q2) = exponents
    floor1 = floor2 = prev = vals = None
    for level in range(_LEVEL_MIN_2D, LEVEL_MAX_2D + 1):
        a1, a2 = _axis(p1, q1, level, floor1), _axis(p2, q2, level, floor2)
        floor1, floor2 = a1.floor, a2.floor
        if vals is None:
            vals = kernel(a1.x[:, None], a2.x[None, :])
        else:
            old1 = a1.old[:, None]
            grid = np.empty((a1.x.size, a2.x.size), dtype=vals.dtype)
            grid[old1, a2.old] = vals
            grid[a1.new] = kernel(a1.x[a1.new, None], a2.x[None, :])
            grid[old1, a2.new] = kernel(a1.x[old1], a2.x[None, a2.new])
            vals = grid
        val = _bilinear(a1.w, vals, a2.w)
        if prev is not None:
            delta = abs(val - prev)
            if delta <= _TOL_2D * max(1.0, abs(val)):
                rounding = np.finfo(float).eps * (a1.wc @ np.abs(vals) @ a2.wc)
                d1, d2 = a1.dropped, a2.dropped
                dropped = bound * (d1 * (a2.abs_sum + d2) + a1.abs_sum * d2)
                return val, delta + rounding + dropped
        prev = val
    raise ConvergenceError(f"2d tanh-sinh quadrature did not reach {_TOL_2D:.0e}")


def cauchy_derivs_2d(f, x0, y0, rx: float, ry: float):
    """Mixed partials d^(m+k) F / dx^m dy^k at (x0, y0) on a bi-circle.

    32 nodes on each circle.  F must take arrays that broadcast: it is
    called once, on a column of x nodes and a row of y nodes, and
    ValueError is raised unless it returns their 32 x 32 grid of values.
    Returns a (3, 3) array D, orders up to 2, with D[m, k] the partial of
    order m in x and k in y.
    """
    theta = 2.0 * np.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES
    zx = x0 + rx * np.exp(1j * theta)
    zy = y0 + ry * np.exp(1j * theta)
    vals = np.asarray(f(zx[:, None], zy[None, :]), dtype=complex)
    if vals.shape != (_CAUCHY_NODES, _CAUCHY_NODES):
        raise ValueError(f"F must take arrays that broadcast; it returned shape {vals.shape}")
    coeff = np.fft.fft2(vals) / _CAUCHY_NODES**2
    out = np.empty((_CAUCHY_ORDER + 1, _CAUCHY_ORDER + 1), dtype=complex)
    for m in range(_CAUCHY_ORDER + 1):
        for k in range(_CAUCHY_ORDER + 1):
            out[m, k] = factorial(m) * factorial(k) * coeff[m, k] / (rx**m * ry**k)
    return out
