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
"""

from __future__ import annotations

from math import factorial

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
# Cauchy differentiation: nodes on each circle, and the highest order
_CAUCHY_NODES = 32
_CAUCHY_ORDER = 2


def _axis(p, q, level: int, floor=None):
    """One axis of the 2-D rule at mesh h = 2**-level, truncated.

    Returns (x, w, c, new, dropped, floor).  The kept nodes x carry the
    weights w = h pi cosh(t) x^(p+1) (1-x)^(q+1), the endpoint powers
    included, formed in logs so that they cannot overflow; c = 1 + |s|.
    ``new`` marks the kept nodes at odd multiples of h, which the level
    below does not have, and ``dropped`` bounds sum |w| over the nodes left
    out: those of the grid below ``floor``, the log-density at which a node
    is dropped, and a geometric tail for those past |t| = 6.  Without
    a floor it is set from this level's peak.
    """
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
    return x, w, 1.0 + np.abs(s[keep]), k[keep] % 2 == 1, dropped, floor


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
    is evaluated only on the rows and columns of the new nodes.

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
        axis1 = _axis(p1, q1, level, floor1)
        axis2 = axis1 if (p2, q2) == (p1, q1) else _axis(p2, q2, level, floor2)
        x1, w1, c1, new1, drop1, floor1 = axis1
        x2, w2, c2, new2, drop2, floor2 = axis2
        if vals is None:
            vals = kernel(x1[:, None], x2[None, :])
        else:
            old1, old2 = ~new1, ~new2
            grid = np.empty((x1.size, x2.size), dtype=vals.dtype)
            grid[np.ix_(old1, old2)] = vals
            grid[new1] = kernel(x1[new1, None], x2[None, :])
            grid[np.ix_(old1, new2)] = kernel(x1[old1, None], x2[None, new2])
            vals = grid
        val = w1 @ vals @ w2
        if prev is not None:
            delta = abs(val - prev)
            if delta <= _TOL_2D * max(1.0, abs(val)):
                wc1, wc2 = np.abs(w1) * c1, np.abs(w2) * c2
                rounding = np.finfo(float).eps * (wc1 @ np.abs(vals) @ wc2)
                s1, s2 = np.abs(w1).sum(), np.abs(w2).sum()
                dropped = bound * (drop1 * (s2 + drop2) + s1 * drop2)
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
