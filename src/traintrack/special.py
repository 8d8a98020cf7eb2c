"""Special functions: Gamma, complete elliptic integrals, Gauss 2F1.

``ellint_K``, ``ellint_E`` and ``gauss_2f1`` take a scalar, and return a
complex, or an array, and return an array of its shape; each element of an
array is computed as in its own one-element call.  ``gamma_fn`` is scalar.

Branch conventions: all square roots and powers are principal (cut on the
negative real axis); K(m) uses the squared-modulus convention with its cut
placed on m in [1, oo).  K and E run the AGM on numpy's principal roots with
no tie rule: at real m > 1 they take the value from below the cut, as
mpmath's ellipk and ellipe do, and off the real axis the value on the side
of Im m, however small it is (``_agm_sequence``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError

__all__ = [
    "Hyper2F1Params",
    "gamma_fn",
    "ellint_K",
    "ellint_E",
    "gauss_2f1",
]


@dataclass(frozen=True)
class Hyper2F1Params:
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        if not all(cmath.isfinite(complex(v)) for v in (self.alpha, self.beta, self.gamma)):
            raise DomainError("2F1 parameters must be finite")
        if _is_nonpositive_integer(self.gamma):
            raise DomainError("gamma is a non-positive integer (series pole)")


def _is_nonpositive_integer(z) -> bool:
    z = complex(z)
    return abs(z.imag) < 1e-14 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-14


# Lanczos approximation, g = 7, 9 coefficients.  Accuracy is validated in the
# test suite against the duplication formula rather than trusted blindly.
_LANCZOS_G = 7.0
_LANCZOS_C = np.array(
    [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ]
)


def gamma_fn(z: complex) -> complex:
    """Gamma function on the complex plane, reflection used for Re(z) < 1/2.

    Off the real axis the Lanczos power and exponential are formed as one,
    exp((z - 1/2) log t - t), so that they overflow only with the value.
    Raises DomainError where the value overflows a double, as Gamma(172)
    and Gamma(175 + 0.01i) do.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise SingularityError(f"gamma pole at z = {z}")
    try:
        if z.imag == 0.0:
            # math.gamma is within 4 eps on the real axis; the Lanczos sum below
            # loses up to 16 eps on (0, 3) and far more through the reflection
            return complex(math.gamma(z.real))
        if z.real < 0.5:
            return complex(np.pi / (np.sin(np.pi * z) * gamma_fn(1.0 - z)))
        w = z - 1.0
        x = _LANCZOS_C[0]
        for i in range(1, len(_LANCZOS_C)):
            x += _LANCZOS_C[i] / (w + i)
        t = w + _LANCZOS_G + 0.5
        value = complex(math.sqrt(2 * math.pi) * cmath.exp((w + 0.5) * cmath.log(t) - t) * x)
    except OverflowError as exc:
        raise DomainError(f"Gamma({z}) overflows a double") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"Gamma({z}) overflows a double")
    return value


_AGM_MAX_ITER = 64


def _agm_sequence(m, want_sum=False):
    """AGM(1, sqrt(1-m)) over a 1-d array, and sum(2^(n-1) c_n^2) for E or None.

    The sum is formed only if ``want_sum``.  Each element stops on its own
    test |a - b| <= 4e-16 |a|: converged elements leave the working arrays,
    so an element's result does not depend on the other elements of the
    array.

    Every b is numpy's principal square root, which has Re >= 0; no tie
    rule picks between the two roots of real part 0 (DLMF §19.8(i)).  None
    is needed:

    * b_0 = sqrt(1 - m).  Its real part is 0 where 1 - m lies on the
      negative real axis, m real and > 1, and there numpy's ``1.0 - m``
      has imaginary part +0.0 whatever the sign of zero in Im m, so the
      root is the upward one, +i sqrt(m - 1): K and E take the value from
      below the cut [1, oo), as mpmath's ellipk and ellipe do at real m.
      Where Im m is nonzero but so small that the root's real part
      underflows, as at m = 2 + 5e-324i, the sign of Im (1 - m) still
      puts the root on the side of the cut that m lies on; an upward tie
      rule would move it to the other side.
    * For n >= 1, b_n = sqrt(a_{n-1} b_{n-1}), where a_0 = 1, Re b_0 >= 0,
      b_0 != 0 (m = 1 is rejected), and every later a and b has Re > 0, as
      a mean of such numbers or the principal root of a number off the
      negative real axis.  So the product has argument in (-pi, pi) and
      positive real part wherever its imaginary part is 0, and its root is
      never a tie.
    """
    a = np.ones_like(m)
    b = np.sqrt(1.0 - m)
    total, sums = (m / 2.0, np.empty_like(m)) if want_sum else (None, None)
    agm = np.empty_like(m)
    live = np.arange(m.size)  # positions of the elements still iterating
    pow2 = 0.5
    for _ in range(_AGM_MAX_ITER):
        diff = a - b
        done = np.abs(diff) <= 4e-16 * np.abs(a)
        stopped = np.count_nonzero(done)
        if stopped == live.size:
            agm[live] = a
            if want_sum:
                sums[live] = total
            return agm, sums
        if stopped:
            out, keep = live[done], ~done
            agm[out] = a[done]
            if want_sum:
                sums[out], total = total[done], total[keep]
            live, a, b, diff = live[keep], a[keep], b[keep], diff[keep]
        if want_sum:
            c = diff / 2.0
            pow2 *= 2.0
            total = total + pow2 * c * c
        a, b = (a + b) / 2.0, np.sqrt(a * b)
    raise ConvergenceError("AGM iteration stalled (branch-straddling input?)")


def _like_input(out, arr):
    """A flat result back in the shape of the input; a complex for a scalar."""
    return complex(out[0]) if np.ndim(arr) == 0 else out.reshape(np.shape(arr))


def _complex_pair(x, y):
    """x and y as complex arrays of one shape, broadcast only where their shapes differ."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    return x, y


def ellint_K(m) -> complex:
    """Complete elliptic integral of the first kind, K(m) = (pi/2) 2F1(1/2,1/2;1|m).

    Computed by the complex AGM on the principal branch; accepts scalars
    or arrays.  Every element stops its AGM on its own convergence test,
    and scalars are computed as arrays of one element, so
    ``ellint_K(m)[i]`` equals ``ellint_K(m[i])`` bit for bit; one call on
    many moduli pays numpy's per-call overhead once.
    """
    arr = np.asarray(m, dtype=complex)
    if np.count_nonzero(arr == 1):
        raise SingularityError("K(m) is singular at m = 1")
    agm, _ = _agm_sequence(arr.ravel())
    return _like_input(np.pi / (2.0 * agm), arr)


def ellint_E(m) -> complex:
    """Complete elliptic integral of the second kind; m and the AGM as for K."""
    arr = np.asarray(m, dtype=complex)
    flat = arr.ravel()
    ones = flat == 1
    _, e = _ellint_KE(np.where(ones, 0.0, flat))
    return _like_input(np.where(ones, 1.0 + 0j, e), arr)


def _ellint_KE(m):
    """K and E of a 1-d array from one AGM, to the bit those of ellint_K and ellint_E."""
    if np.count_nonzero(m == 1):
        raise SingularityError("K(m) is singular at m = 1")
    agm, total = _agm_sequence(m, want_sum=True)
    k = np.pi / (2.0 * agm)
    return k, k * (1.0 - total)


def _ellint_K_dK(m):
    """K and dK/dm = (E - (1 - m) K) / (2 m (1 - m)) of a 1-d array, from one AGM."""
    k, e = _ellint_KE(m)
    return k, (e - (1.0 - m) * k) / (2.0 * m * (1.0 - m))


# Series stop rule, shared with the F2 row sum of ``appell``.  A series may
# take up to _MAX_TERMS terms and is checked every _CHECK_EVERY terms.  A
# point stops once its tail estimate is below
# _TAIL_SHARE * _REL_TOL * |sum| + _ABS_FLOOR at two checks in a row, so
# that truncation is a small share of the error next to the rounding of
# the sum, and one term that happens to be small cannot stop it.  The terms
# are formed in blocks of _BLOCK, but for a series of one point the first
# block is sized from the point's ratio (``_first_block``) so that it holds
# every term the point is predicted to need; _MAX_TERMS, _BLOCK and every
# first block are multiples of _CHECK_EVERY, so that every block holds a
# check.
_MAX_TERMS = 2000
_REL_TOL = 1e-14
_ABS_FLOOR = 1e-300
_CHECK_EVERY = 4
_TAIL_SHARE = 1e-2
_BLOCK = 32


def _first_block(ratio, slope, extra):
    """The length of the first block of a one-point series whose terms fall like ratio^n.

    Such terms reach 1e-17, about where the stop test passes, at
    n_hat = ln(1e-17) / ln(ratio), taken as 0 for a ratio outside (0, 1).
    The block is slope * n_hat + extra terms, rounded up to a multiple of
    _CHECK_EVERY and held between _CHECK_EVERY and _MAX_TERMS.
    """
    n = extra + (slope * math.log(1e-17) / math.log(ratio) if 0.0 < ratio < 1.0 else 0.0)
    return min(max(_CHECK_EVERY * math.ceil(n / _CHECK_EVERY), _CHECK_EVERY), _MAX_TERMS)


def _blocks(first, size=None):
    """The term indices first, ..., first + _MAX_TERMS - 1, in ranges of _BLOCK.

    The first range is ``size`` long (``_first_block``) where it is given.
    """
    end, head = first + _MAX_TERMS, first + (size or _BLOCK)
    yield range(first, min(head, end))
    yield from (range(n, min(n + _BLOCK, end)) for n in range(head, end, _BLOCK))


def _keep(stopped, *values):
    """Each array without the points ``stopped`` (on its last axis), one-element ones as they are.

    A one-element array is a parameter shared by every point: ``_keep`` runs
    only while 2 or more points are live, so a per-point array has more.
    """
    if not len(stopped):
        return values
    keep = np.ones(values[0].shape[-1], dtype=bool)
    keep[stopped] = False
    return [v if v.shape[-1] == 1 else v[..., keep] for v in values]


def _converged(prev, last, total, ok_before):
    """Tail estimates at the checks of a block, the points that stop there, and the carry.

    ``last`` and ``total`` have a row per check: the size of the term there
    and the sum.  The tail after a term of size ``last`` is estimated as
    last * r / (1 - r), r being the observed ratio per term: the geometric
    mean over the _CHECK_EVERY terms since the check before, where the size
    was ``prev`` for the first row.  It is inf while r >= 1.  A point stops
    at a check it passes right after passing the one before (``ok_before``
    for the first row), a shift along the check axis.  Returns (tails,
    stops, whether each point passed the last check).
    """
    prev = np.concatenate((prev[None], last[:-1]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(last == 0.0, 0.0, (last / prev) ** (1.0 / _CHECK_EVERY))
        tail = np.where(r < 1.0, last * r / (1.0 - r), np.inf)
    ok = tail <= _TAIL_SHARE * _REL_TOL * np.abs(total) + _ABS_FLOOR
    return tail, ok & np.concatenate((ok_before[None], ok[:-1])), ok[-1]


def _first_stop(stops):
    """The points with a stop in rows of stop flags, and the row of each one's first."""
    first = stops.argmax(axis=0)
    at = np.flatnonzero(stops[first, np.arange(stops.shape[1])])
    return at, first[at]


# Memoized factors.  The factors of a series' terms that depend only on
# its parameters and the term index are kept in a table per parameter set,
# for series whose parameters are each one element, the same at every
# point.  The key is the function that forms the factors, the first row and
# the bits of the parameters; _TABLES tables are kept, the least recently
# used one leaving first.  A table is formed whole at first use, all
# _MAX_TERMS rows: 128 kB for the four factors of the F2 rows, 112 kB for
# the four of the seeds.
_TABLES = 16


@lru_cache(maxsize=_TABLES)
def _table(form, first, key: bytes):
    """The factors ``form`` gives at one parameter set, the _MAX_TERMS rows from ``first``.

    ``form(ms, carry, *params)`` returns the factors at the rows ms, a tuple
    of arrays with a row per m, and the carry into the next row; one call
    forms the whole table, carried in order as block after block would
    carry it, so its bits are those of the per-point path.  The arrays are
    read-only.  Late rows may overflow a double for large parameters; a
    point that reaches them fails as it would without the table, so they
    are formed without a warning.
    """
    params = np.frombuffer(key, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        factors, _ = form(
            range(first, first + _MAX_TERMS),
            np.ones(1, dtype=complex),
            *(params[i : i + 1] for i in range(params.size)),
        )
    for f in factors:
        f.flags.writeable = False
    return factors


def _factors(form, first, *params):
    """What gives the factors of a series whose rows start at ``first``: ``form`` or its table.

    Either is called as ``form(ms, carry, *params)`` with the rows ms of a
    block.  Where every parameter is one element, the same at every point,
    the factors are slices of the memoized table of ``form`` (``_table``)
    and the carry passes through.  Any per-point parameter keeps the series
    out of the cache, also once all but one of its points have stopped.
    """
    if any(v.size != 1 for v in params):
        return form
    table = _table(form, first, np.concatenate(params, dtype=complex).tobytes())
    return lambda ms, carry, *_: ([f[ms[0] - first : ms[-1] + 1 - first] for f in table], carry)


def _seed_factors(ns, carry, a, c):
    """n, (c + n)(n + 1), a + n and a + 1 + n for the seed terms n in ns, a row each.

    These depend on the parameters alone; ``carry`` passes through (see ``_table``).
    """
    n = np.array(ns)[:, None]
    return (n, (c + n) * (n + 1.0), a + n, a + 1.0 + n), carry


def _summed_argument(y):
    """Where Pfaff's transformation applies (|1 - y| > 1), and the argument summed.

    The argument is y / (y - 1) there, which is then smaller than y and has
    no alternating signs, and y elsewhere.
    """
    pfaff = np.abs(1.0 - y) > 1.0
    return pfaff, np.where(pfaff, y / (y - 1.0), y)


def _gauss_seeds(a, b, c, y):
    """2F1(a, b; c; y) and 2F1(a + 1, b; c; y) from one pass of their series.

    y is a 1-d array; each parameter is a flat array of one element (the
    same at every point) or shaped like y.  The series is summed at
    ``_summed_argument(y)``.  Each point stops on its own tail estimate and
    then leaves the working arrays, so its values do not depend on the
    other points of the array.

    The terms are formed a block at a time: _BLOCK terms, but where y
    has one point the first block is sized from the modulus of its summed
    argument (``_first_block``) and usually holds every term it needs.
    Whole-block operations, which act on each element alone, form the term
    ratios r_n; their factors that depend on a and c alone come from
    ``_factors``, a memoized table where a and c are shared.
    What carries from term to term is sequential, down the block in order
    as a loop over the terms would run: the products t_n = t_{n-1} r_n in
    one ``np.cumprod``, the partial sums in one ``np.cumsum``.
    """
    pfaff, z = _summed_argument(y)
    bz = np.where(pfaff, c - b, b)
    pref = np.where(pfaff, (1.0 - y) ** (-a), 1.0)
    sums = np.empty((2, y.size), dtype=complex)
    live = np.arange(y.size)  # positions of the points still summing
    t, s = np.ones((2, y.size), dtype=complex), np.ones((2, y.size), dtype=complex)
    prev, ok = np.ones(y.size), np.zeros(y.size, dtype=bool)
    factors = _factors(_seed_factors, 0, a, c)
    # at (1/2, 1/2, 1) a point needed 0.98 to 1.42 n_hat terms (the 400
    # points of the f2_hard bench, whose F2 seeds now come from the AGM), and
    # a term past its need costs about 1/800 of a block, so the margin is wide
    head = _first_block(abs(z[0]), 1.25, 8) if y.size == 1 else None
    for ns in _blocks(0, head):
        (n, den, an, a1n), _ = factors(ns, None, a, c)
        f = (bz + n) * z / den
        terms = np.empty((len(ns) + 1,) + t.shape, dtype=complex)
        terms[0] = t
        np.multiply(f, an, out=terms[1:, 0])
        np.multiply(f, a1n, out=terms[1:, 1])
        np.cumprod(terms, axis=0, out=terms)
        rows = np.arange(_CHECK_EVERY, len(ns) + 1, _CHECK_EVERY)  # after n + 1 terms
        last = np.abs(terms[rows]).max(axis=1)
        t, terms[0] = terms[-1].copy(), s
        partial = np.cumsum(terms, axis=0, out=terms)
        s0, s1 = partial[rows, 0], partial[rows, 1]
        _, stops, ok = _converged(prev, last, np.where(np.abs(s0) < np.abs(s1), s0, s1), ok)
        at, first = _first_stop(stops)
        sums[:, live[at]] = partial[rows[first], :, at].T
        if at.size == live.size:
            break
        prev, s = last[-1], partial[-1]
        live, z, bz, a, c, t, s, prev, ok = _keep(at, live, z, bz, a, c, t, s, prev, ok)
    else:
        raise ConvergenceError(f"2F1 series did not converge within {_MAX_TERMS} terms")
    return pref * sums[0], np.where(pfaff, pref / (1.0 - y), 1.0) * sums[1]


def gauss_2f1(p: Hyper2F1Params, z):
    """Gauss hypergeometric function 2F1(alpha, beta; gamma; z), z a scalar or an array.

    The value is the first of ``_gauss_seeds``: the series at z, or after
    Pfaff's transformation at z / (z - 1) where |1 - z| > 1.  Where that
    summed argument has modulus >= 1 (z = 1, 1.2 or 2.5, say) DomainError
    is raised; a point whose series needs more than _MAX_TERMS terms
    raises ConvergenceError.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        _, summed = _summed_argument(flat)
    if not (np.abs(summed) < 1.0).all():
        raise DomainError("2F1 series diverges: |z| >= 1 and Re z >= 1/2 somewhere")
    a, b, c = (np.array([v], dtype=complex) for v in (p.alpha, p.beta, p.gamma))
    return _like_input(_gauss_seeds(a, b, c, flat)[0], arr)
