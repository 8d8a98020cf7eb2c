"""Double-exponential quadrature on (0,1)^2.

The 2-D rule, ``integrate_01_2d``, takes the endpoint powers
t^p (1-t)^q apart from a kernel; they handle algebraic endpoint
singularities (the conformal exponents give inverse-square-root behaviour
at both endpoints).  Weights: each axis folds its powers into the 1-D
weights, formed in logs from log(1 + e^-s) and log(1 + e^s), so neither t
nor 1 - t is formed by subtraction, they cost O(n), not O(n^2), and they
cannot overflow.  Truncation: a node is kept while its log-density is
within log(1e-20) of the peak, a test on t alone.  Nesting: each level
halves the mesh, keeps the kernel values of the last level's nodes, every
other one of a run of kept nodes, and evaluates the kernel on the new rows
and columns only, all by strided slices.  Error: the change between the
last two levels, plus the rounding of the last one, plus a bound on the
dropped nodes.

Memoized: each axis of each level, with the offset of its nesting and its
error sums, depends only on its exponents, its level and its floor, and
is kept in a least-recently-used cache of _AXES = 32 entries, keyed by the
type and bits of the exponents, its arrays read-only.  A call with the
exponents of an earlier one pays only for its kernel and its sums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "integrate_01_2d",
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
# Memoized axes (``_axis_of``): one axis holds at most 7 kB at levels 3 to 5,
# where the rule usually stops, and 50 to 56 kB at level 8, so the cache
# holds at most about 1.8 MB.
_AXES = 32
_EPS = np.finfo(float).eps


class _Axis(NamedTuple):
    """One axis of the 2-D rule at one level; see ``_axis_of``."""

    x: np.ndarray  # the kept nodes
    w: np.ndarray  # their weights, the endpoint powers included
    offset: int  # x[offset::2] are the level below's nodes, x[1 - offset::2] the new ones
    dropped: float  # bound on sum |w| over the nodes left out
    floor: float  # the log-density below which a node is dropped
    wc: np.ndarray  # |w| (1 + |s|), the rounding weight of each node
    abs_sum: float  # sum |w| over the kept nodes


def _exact(v):
    """A key for a number that tells apart its type and every bit, signed zeros included."""
    v = np.asarray(v)
    return v.dtype.str, v.tobytes()


@lru_cache(maxsize=_AXES)
def _axis_of(p, q, level, floor) -> _Axis:
    """One axis of the 2-D rule at mesh h = 2**-level, truncated.

    The kept nodes x carry the weights w = h pi cosh(t) x^(p+1) (1-x)^(q+1),
    the endpoint powers included, formed in logs so that they cannot
    overflow; wc = |w| (1 + |s|).  The kept k are one run (else
    ConvergenceError), so the even k, which the level below has, are
    x[offset::2], offset the parity of the first.  ``dropped`` bounds sum
    |w| over the nodes left out: those of the grid below ``floor``, the
    log-density at which a node is dropped, and a geometric tail for those
    past |t| = 6.  A floor of None is set from this level's peak.

    Memoized: p and q come keyed by their type and bits (``_exact``), in a
    least-recently-used cache of _AXES entries whose arrays are read-only.
    """
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
    run = np.flatnonzero(keep)
    if not run.size or run[-1] - run[0] + 1 != run.size:
        raise ConvergenceError("tanh-sinh nodes above the floor are not one run")
    tail = np.exp(dens[[0, -1]]) * ratio / (1.0 - ratio)
    dropped = h * (np.exp(dens[~keep]).sum() + tail.sum())
    w = h * np.exp(base[keep] - (p + 1.0) * mlog_x[keep] - (q + 1.0) * mlog_omx[keep])
    x = 1.0 / (1.0 + np.exp(-s[keep]))
    wc = np.abs(w) * (1.0 + np.abs(s[keep]))
    axis = _Axis(x, w, int(k[run[0]] % 2), dropped, floor, wc, np.abs(w).sum())
    for a in (x, w, wc):
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

    Weights: each axis has the weights w_i t_i^p (1-t_i)^q of ``_axis_of``, so
    the endpoint powers cost O(n) instead of O(n^2) and cannot overflow.
    Truncation: a node is kept while its log-density is within log(1e-20)
    of the peak on the first level's grid.  The test depends on t alone, so
    each level's kept nodes contain the last level's.  Nesting: h halves
    from level to level, so a level's nodes at even multiples of h, every
    other node of its run from the axis's offset, are the last level's to
    the bit; their kernel values are copied, and the kernel is evaluated
    only on the rows and columns of the new nodes, all by strided slices.
    The axes are memoized (``_axis_of``), keyed once per call.  A complex
    kernel between real weights is summed as real products (``_bilinear``).

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
    key1, key2 = (_exact(p1), _exact(q1)), (_exact(p2), _exact(q2))
    floor1 = floor2 = prev = vals = None
    for level in range(_LEVEL_MIN_2D, LEVEL_MAX_2D + 1):
        a1, a2 = _axis_of(*key1, level, floor1), _axis_of(*key2, level, floor2)
        floor1, floor2 = a1.floor, a2.floor
        if vals is None:
            vals = kernel(a1.x[:, None], a2.x[None, :])
        else:
            o1, o2 = a1.offset, a2.offset
            grid = np.empty((a1.x.size, a2.x.size), dtype=vals.dtype)
            grid[o1::2, o2::2] = vals
            grid[1 - o1 :: 2] = kernel(a1.x[1 - o1 :: 2, None], a2.x[None, :])
            grid[o1::2, 1 - o2 :: 2] = kernel(a1.x[o1::2, None], a2.x[None, 1 - o2 :: 2])
            vals = grid
        val = _bilinear(a1.w, vals, a2.w)
        if prev is not None:
            delta = abs(val - prev)
            if delta <= _TOL_2D * max(1.0, abs(val)):
                rounding = _EPS * (a1.wc @ np.abs(vals) @ a2.wc)
                d1, d2 = a1.dropped, a2.dropped
                dropped = bound * (d1 * (a2.abs_sum + d2) + a1.abs_sum * d2)
                return val, delta + rounding + dropped
        prev = val
    raise ConvergenceError(f"2d tanh-sinh quadrature did not reach {_TOL_2D:.0e}")
