"""Double-exponential quadrature on (0,1) and Cauchy-integral differentiation.

The tanh-sinh rule handles algebraic endpoint singularities (the conformal
exponents give inverse-square-root behaviour at both endpoints), which is why
nodes are returned together with their distance to the *far* endpoint: the
quantity 1-x is computed directly rather than by subtraction.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "tanh_sinh_nodes",
    "integrate_01",
    "integrate_01_2d",
    "cauchy_derivs_1d",
    "cauchy_derivs_2d",
]

_T_MAX = 6.1  # exp(pi*sinh(t)) stays finite in double precision


def tanh_sinh_nodes(level: int):
    """Nodes on (0,1) for mesh h = 2**-level.

    Returns (x, one_minus_x, w); weights include the mesh factor so the
    integral is approximated by sum(w * f(x)).
    """
    h = 2.0 ** (-level)
    kmax = int(np.floor(_T_MAX / h))
    t = h * np.arange(-kmax, kmax + 1)
    s = np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-s))
    omx = 1.0 / (1.0 + np.exp(s))
    w = h * np.pi * np.cosh(t) * x * omx
    return x, omx, w


def integrate_01(f, target_tol: float = 1e-12, level_min: int = 3, level_max: int = 10):
    """Integrate f over (0,1); f(x, 1-x) must accept numpy arrays.

    Returns (value, error_estimate); raises ConvergenceError if successive
    level doublings never agree to target_tol.
    """
    prev = None
    for level in range(level_min, level_max + 1):
        x, omx, w = tanh_sinh_nodes(level)
        val = np.sum(w * f(x, omx))
        if prev is not None:
            err = abs(val - prev)
            if err <= target_tol * max(1.0, abs(val)):
                return val, err
        prev = val
    raise ConvergenceError("tanh-sinh quadrature did not reach target_tol")


def integrate_01_2d(f, target_tol: float = 1e-11, level_min: int = 3, level_max: int = 8):
    """Tensor tanh-sinh rule over (0,1)^2; f(x1, 1-x1, x2, 1-x2) broadcastable.

    Returns (value, error).  The levels stop once two agree to target_tol;
    the error is their difference plus a first-order estimate of the
    rounding of the last level, eps * sum_ij |w_i| c_i |f_ij| |w_j| c_j.
    There c = 1 + |s| counts the rounding of the sum and of each node: a
    node is exp of the rounded exponent s = pi sinh(t), whose absolute
    rounding error, about eps |s|, becomes a relative error of x, 1 - x, w.
    """
    prev = None
    for level in range(level_min, level_max + 1):
        x, omx, w = tanh_sinh_nodes(level)
        vals = f(x[:, None], omx[:, None], x[None, :], omx[None, :])
        val = w @ vals @ w
        if prev is not None:
            err = abs(val - prev)
            if err <= target_tol * max(1.0, abs(val)):
                wc = np.abs(w) * (1.0 + np.abs(np.log(x) - np.log(omx)))
                rounding = np.finfo(float).eps * (wc @ np.abs(vals) @ wc)
                return val, err + rounding
        prev = val
    raise ConvergenceError("2d tanh-sinh quadrature did not reach target_tol")


def _call_on_grid(f, *grids):
    shape = np.broadcast_shapes(*(np.shape(g) for g in grids))
    try:
        out = np.asarray(f(*grids), dtype=complex)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    vec = np.vectorize(lambda *a: complex(f(*a)))
    return vec(*grids)


def cauchy_derivs_1d(f, z0: complex, r: float, n_nodes: int = 32, max_order: int = 4):
    """Derivatives f^(k)(z0), k = 0..max_order, by trapezoid on a circle.

    f is sampled on n_nodes equispaced points of the circle |z - z0| = r and
    the Taylor coefficients are read off the FFT; the circle must stay inside
    the domain of analyticity.
    """
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    z = z0 + r * np.exp(1j * theta)
    vals = _call_on_grid(f, z)
    coeff = np.fft.fft(vals) / n_nodes
    return np.array(
        [factorial(k) * coeff[k] / r**k for k in range(max_order + 1)]
    )


def cauchy_derivs_2d(f, x0, y0, rx: float, ry: float, n_nodes: int = 32, max_order: int = 3):
    """Mixed partials d^(m+k) F / dx^m dy^k at (x0, y0) on a bi-circle.

    Returns a (max_order+1, max_order+1) array D with D[m, k] the partial of
    order m in x and k in y.
    """
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    zx = x0 + rx * np.exp(1j * theta)
    zy = y0 + ry * np.exp(1j * theta)
    vals = _call_on_grid(f, zx[:, None], zy[None, :])
    coeff = np.fft.fft2(vals) / n_nodes**2
    out = np.empty((max_order + 1, max_order + 1), dtype=complex)
    for m in range(max_order + 1):
        for k in range(max_order + 1):
            out[m, k] = factorial(m) * factorial(k) * coeff[m, k] / (rx**m * ry**k)
    return out
