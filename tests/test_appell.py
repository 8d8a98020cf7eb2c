"""Appell F2: series vs integral vs defining PDEs, and the series vs mpmath."""

import importlib.util
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from traintrack import (
    ConvergenceError,
    DomainError,
    F2Params,
    Hyper2F1Params,
    LambdaPair,
    ModuliPoint,
    SingularityError,
    f2_euler_integral,
    f2_pde_residual,
    f2_series,
    f2_derivatives_on_arrays,
    f2_series_on_arrays,
    gauss_2f1,
    period_basis,
)
from traintrack import appell, quadrature, special
from traintrack.appell import _f2_euler, _f2_row_sum

_BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFORMAL = F2Params.conformal_case()
# seeds from the series of _gauss_seeds; the conformal ones come from the AGM
GENERIC = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
# one-point series: tiny, a few rows, y near 1 (about 250 seed terms), same
# sign near the edge, complex
ONE_POINTS = [(0.01, 0.01), (0.3, -0.2), (0.12, 0.82), (0.5, 0.4), (0.5 + 0.3j, -0.2 + 0.35j)]
NON_FINITE = [(np.nan, 0.1), (0.1, complex(0.1, np.nan)), (np.inf, 0.1)]


def _rng():
    return np.random.Generator(np.random.Philox(915))


def _random_interior_points(rng, n, cap=0.8):
    pts = []
    while len(pts) < n:
        x = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        y = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.1, 0.1))
        if abs(x) + abs(y) > cap:
            continue
        if min(abs(x), abs(1 - x), abs(y), abs(1 - y), abs(1 - x - y)) < 0.05:
            continue
        pts.append(ModuliPoint(x, y))
    return pts


def _mp_f2(p, x, y, dps=20):
    with mp.workdps(dps):
        return complex(mp.appellf2(p.alpha, p.beta1, p.beta2, p.gamma1, p.gamma2, x, y))


def _mp_2f1(a, b, c, z):
    with mp.workdps(30):
        return complex(mp.hyp2f1(a, b, c, z))


def _quadrant_points(rng, per_region):
    """Points in the four sign quadrants and at complex phases, |x|+|y| <= 0.95.

    In each region the norms |x| + |y| take one value from each of
    ``per_region`` strata of [0.05, 0.95].
    """
    pts = []
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1), None):
        for j in range(per_region):
            norm = 0.05 + 0.9 * (j + rng.uniform()) / per_region
            t = rng.uniform(0.1, 0.9)
            if signs is None:
                px, py = np.exp(2j * np.pi * rng.uniform(size=2))
            else:
                px, py = signs
            pts.append(ModuliPoint(complex(px * t * norm), complex(py * (1 - t) * norm)))
    return pts


_param = st.floats(0.1, 1.5)
_bottom = st.floats(0.5, 2.5)
_interior_point = st.builds(
    lambda r, t, px, py: (
        r * t * np.exp(2j * np.pi * px),
        r * (1 - t) * np.exp(2j * np.pi * py),
    ),
    st.floats(0.0, 0.9),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)


class TestSeries:
    def test_origin(self):
        assert f2_series(CONFORMAL, ModuliPoint(0.0, 0.0)) == 1.0

    def test_collapse_to_2f1(self):
        p = F2Params(0.7, 0.4, 0.3, 1.2, 1.1)
        for x in (0.3, -0.45 + 0.1j):
            got = f2_series(p, ModuliPoint(x, 0.0))
            want = _mp_2f1(0.7, 0.4, 1.2, x)
            assert abs(got - want) < 1e-10
            # symmetric degeneration in the other slot
            got_y = f2_series(p, ModuliPoint(0.0, x))
            want_y = _mp_2f1(0.7, 0.3, 1.1, x)
            assert abs(got_y - want_y) < 1e-10

    def test_y_axis_is_gauss_2f1(self):
        # on x = 0 the row sum is its seed series, the one series of gauss_2f1
        rng = _rng()
        for _ in range(20):
            a, b1, b, c1, c = rng.uniform(-1.5, 1.5, 5) + 1j * rng.uniform(-0.3, 0.3, 5)
            c1, c = c1 + 2.0, c + 2.0
            y = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.3, 0.3))
            got = f2_series(F2Params(a, b1, b, c1, c), ModuliPoint(0.0, y))
            assert got == gauss_2f1(Hyper2F1Params(a, b, c), y)

    def test_divergence_error(self):
        with pytest.raises(DomainError):
            f2_series(CONFORMAL, ModuliPoint(0.6, 0.5))

    @pytest.mark.parametrize("x, y", NON_FINITE)
    def test_non_finite_point_is_a_domain_error(self, x, y):
        # NaN fails every comparison, so only a check of the form
        # "not (ok)" rejects it before the series runs out of terms
        with pytest.raises(DomainError, match="finite"):
            f2_series(CONFORMAL, ModuliPoint(x, y))

    def test_symmetry_swap(self):
        rng = _rng()
        p = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        for pt in _random_interior_points(rng, 10):
            a = f2_series(p, pt)
            b = f2_series(p.swapped(), ModuliPoint(pt.y, pt.x))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_array_evaluation_matches_scalar(self):
        # Each point's arithmetic is elementwise, it picks the variable of its
        # rows on its own, and it stops on its own tail estimate, so its value
        # is bit for bit its value alone, whichever points share its array:
        # easy ones next to deep ones, rows in x next to rows in y, a tie
        # x = y, and x = 0 or y = 0.  At GENERIC parameters the points of an
        # array whose rows run in y take b2, b1, c2, c1 per point, and alone
        # they take them shared, from the memoized tables.
        xs = np.array([0.1, 0.2 + 0.05j, -0.3, 0.475, 0.089, 0.0, 0.01, -0.6])
        ys = np.array([0.2, -0.1, 0.15 - 0.02j, 0.475, 0.9, 0.5, 0.0, -0.35j])
        xs = np.concatenate([xs, [0.66, 0.18, 0.3 - 0.1j, 0.7]])
        ys = np.concatenate([ys, [0.18, 0.66, 0.3 - 0.1j, 0.0]])
        rng = _rng()
        more = rng.uniform(-0.45, 0.45, 40) + 0.05j * rng.uniform(-1, 1, 40)
        xs = np.concatenate([xs, more])
        ys = np.concatenate([ys, rng.uniform(-0.45, 0.45, 40)])
        n = len(xs)
        for p in (CONFORMAL, GENERIC):
            alone = np.array([f2_series(p, ModuliPoint(*pt)) for pt in zip(xs, ys)])
            for order in (np.arange(n), np.arange(n)[::-1], rng.permutation(n)):
                vals = f2_series_on_arrays(p, xs[order], ys[order])
                assert np.array_equal(vals, alone[order])
            grid = f2_series_on_arrays(p, xs.reshape(4, 13), ys.reshape(4, 13))
            assert np.array_equal(grid, alone.reshape(4, 13))

    def test_against_mpmath_all_quadrants(self):
        # same-sign points near |x| + |y| = 0.95 are the hardest for the series
        rng = np.random.Generator(np.random.Philox(2024))
        generic = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        for p, per_region in ((CONFORMAL, 9), (generic, 2)):
            pts = _quadrant_points(rng, per_region)
            xs = np.array([pt.x for pt in pts])
            ys = np.array([pt.y for pt in pts])
            vals = f2_series_on_arrays(p, xs, ys)
            for pt, v in zip(pts, vals):
                ref = _mp_f2(p, pt.x, pt.y)
                assert abs(v - ref) <= 1e-13 * abs(ref), (p, pt)

    def test_ladder_overflow_guard_near_y_one(self):
        # |x| + |y| = 0.989: about 300 rows, where 2F1(1/2 + m, 1/2; 1; 0.9)
        # grows like 10^m and would overflow
        v = f2_series(CONFORMAL, ModuliPoint(0.089, 0.9))
        ref = _mp_f2(CONFORMAL, 0.089, 0.9)
        assert np.isfinite(v)
        assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_minimal_ladder_closed_form(self):
        # beta2 = gamma2: the ladder (1-y)^(-a-m) is the minimal solution of
        # the recurrence for y < 0, and F2 = (1-y)^-a 2F1(a, b1; c1; x/(1-y))
        a, b1, c1 = 0.7, 0.4, 1.2
        p = F2Params(a, b1, 1.0, c1, 1.0)
        for x, y in ((0.3, -0.6), (0.05, -0.94), (-0.5, -0.4), (0.39, -0.6 + 0.1j)):
            with mp.workdps(30):
                w = 1 - mp.mpc(y)
                ref = complex(w**-a * mp.hyp2f1(a, b1, c1, x / w))
            v = f2_series(p, ModuliPoint(x, y))
            assert abs(v - ref) <= 1e-13 * abs(ref)

    def test_tail_estimate_measures_truncation(self, monkeypatch):
        # with a loose tolerance truncation dominates rounding, so the
        # reported estimate can be compared with the actual error
        monkeypatch.setattr(special, "_REL_TOL", 1e-6)
        for x, y in ((0.36, -0.1881), (0.8, 0.15), (-0.7, 0.2), (0.2j, 0.7)):
            v, est = _f2_row_sum(CONFORMAL, x, y)
            actual = abs(complex(v) - _mp_f2(CONFORMAL, x, y))
            assert 0.5 * actual <= float(est) <= 50 * actual

    def test_terminating_alpha(self):
        # alpha = -2: rows beyond m = 2 vanish and the ladder recurrence, which
        # divides by alpha + m, must stop there
        p = F2Params(-2.0, 0.5, 0.7, 1.0, 1.3)
        for x, y in ((0.3, 0.2), (-0.6, 0.35j)):
            ref = _mp_f2(p, x, y)
            assert abs(f2_series(p, ModuliPoint(x, y)) - ref) <= 1e-14 * abs(ref)

    def test_max_terms_exhausted(self, monkeypatch):
        monkeypatch.setattr(special, "_MAX_TERMS", 8)
        # GENERIC sums its seeds as a series; the conformal seeds come from the AGM
        with pytest.raises(ConvergenceError, match="2F1 series"):
            f2_series(GENERIC, ModuliPoint(0.45, 0.45))
        # the rows of (0.45, 0.45) need more than 8 terms in x and in y
        with pytest.raises(ConvergenceError, match="row sum"):
            f2_series(CONFORMAL, ModuliPoint(0.45, 0.45))

    @given(
        st.tuples(_param, _param, _param, _bottom, _bottom),
        _interior_point,
    )
    def test_swap_symmetry_property(self, params, point):
        p = F2Params(*params)
        x, y = point
        a = f2_series(p, ModuliPoint(x, y))
        b = f2_series(p.swapped(), ModuliPoint(y, x))
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    @given(st.tuples(_param, _param, _param, _bottom, _bottom), _interior_point)
    def test_collapse_to_2f1_property(self, params, point):
        p = F2Params(*params)
        z = point[0] + point[1]  # |z| <= 0.9
        on_x = _mp_2f1(p.alpha, p.beta1, p.gamma1, z)
        on_y = _mp_2f1(p.alpha, p.beta2, p.gamma2, z)
        got_x = f2_series(p, ModuliPoint(z, 0.0))
        got_y = f2_series(p, ModuliPoint(0.0, z))
        assert abs(got_x - on_x) <= 1e-12 * max(1.0, abs(on_x))
        assert abs(got_y - on_y) <= 1e-12 * max(1.0, abs(on_y))

    def test_parameter_pole_guard(self):
        with pytest.raises(DomainError):
            F2Params(0.5, 0.5, 0.5, 0.0, 1.0)


GENERIC_COMPLEX = F2Params(0.6 + 0.2j, 0.35 - 0.1j, 0.55 + 0.05j, 1.3 + 0.1j, 0.9 - 0.2j)


def _table_points():
    """One seeded real point and one complex point, |x| + |y| <= 0.45."""
    rng = _rng()
    real = (rng.uniform(0.1, 0.25), rng.uniform(-0.2, -0.1))
    cplx = (
        complex(rng.uniform(-0.25, -0.1), rng.uniform(-0.1, 0.1)),
        complex(rng.uniform(0.05, 0.15), rng.uniform(-0.1, 0.1)),
    )
    return [real, cplx]


def _mp_f2_partials(p, x, y, order, dps=30):
    """d^(m+n) F2 / dx^m dy^n for m, n <= order, at dps digits (mpmath).

    The double series is differentiated term by term: the coefficient c_ij
    of x^i y^j contributes c_ij i!/(i-m)! j!/(j-n)! x^(i-m) y^(j-n), and the
    sums stop past (|x| + |y|)^i+j = 10^-(dps+3).
    """
    with mp.workdps(dps):
        a, b1, b2, c1, c2, x, y = (mp.mpc(complex(v)) for v in (*p, x, y))
        top = int(-(dps + 3) * mp.log(10) / mp.log(abs(x) + abs(y))) + 4 * order
        d = [[mp.mpc(0)] * (order + 1) for _ in range(order + 1)]
        row = mp.mpc(1)  # c_i0
        for i in range(top):
            # inner[n] = sum_j c_ij j!/(j-n)! y^(j-n)
            inner = [mp.mpc(0)] * (order + 1)
            c = row
            powers = [mp.mpc(0)] * order + [mp.mpc(1)]  # y^(j-n) at index order - n
            for j in range(top - i):
                for n in range(min(j, order) + 1):
                    inner[n] += c * mp.ff(j, n) * powers[order - n]
                powers = powers[1:] + [powers[-1] * y]
                c *= (a + i + j) * (b2 + j) / ((c2 + j) * (j + 1))
            for m in range(min(i, order) + 1):
                xm = mp.ff(i, m) * x ** (i - m)
                for n in range(order + 1):
                    d[m][n] += xm * inner[n]
            row *= (a + i) * (b1 + i) / ((c1 + i) * (i + 1))
        return np.array([[complex(v) for v in r] for r in d])


def _tested_parameters(p, shape):
    """The flat parameters, each tested for one shared value whatever its size."""
    return [
        v.ravel()[:1] if v.size and (v == v.flat[0]).all() else np.broadcast_to(v, shape).ravel()
        for v in p
    ]


def _broadcast_prologue(p, x, y):
    """The shape, flat points and flat parameters of the row sum, formed by
    np.broadcast_shapes and np.broadcast_to."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    p = [np.asarray(v, dtype=complex) for v in p]
    shape = np.broadcast_shapes(x.shape, y.shape, *(v.shape for v in p))
    flat = [np.broadcast_to(v, shape).ravel() for v in (x, y)]
    return shape, flat, _tested_parameters(p, shape)


def _derivative_parameters(p, x, order=2):
    """The per-point parameters ``f2_derivatives_on_arrays`` passes for points x."""
    a, b1, b2, g1, g2 = (complex(v) for v in p)
    pad = (1,) * np.ndim(x)
    m = np.arange(order + 1).reshape((-1, 1) + pad)
    n = np.arange(order + 1).reshape((1, -1) + pad)
    return (a + m + n, b1 + m, b2 + n, g1 + m, g2 + n)


class TestPrologue:
    """The row sum's shape comes from np.broadcast, x and y of that shape are
    raveled as they are, and a one-element parameter is shared untested; the
    values and tails are those of the broadcast_shapes/broadcast_to form."""

    X, Y = 0.3 + 0.1j, -0.45 + 0.2j

    def cases(self):
        ys = np.linspace(-0.4, 0.5, 5) + 0.05j
        xs = np.array([[0.1], [-0.3 + 0.2j], [0.45]])
        col = np.array([0.2, -0.25 + 0.1j, 0.4])
        out = []
        for p in (CONFORMAL, GENERIC):
            one = [np.array([v], dtype=complex) for v in p]
            out += [
                (p, np.array(self.X), np.array(self.Y)),  # 0-d
                (p, self.X, self.Y),
                (one, np.array([self.X]), np.array([self.Y])),  # one-element arrays
                (p, np.array([self.X]), np.array([self.Y])),
                (p, self.X, ys),  # a scalar x with a (5,) y
                (p, xs, ys[:4]),  # a (3, 1) x with a (4,) y
                (_derivative_parameters(p, col), col, col[::-1]),
                (_derivative_parameters(p, self.X), np.array(self.X), np.array(self.Y)),
            ]
        return out

    def test_values_and_tails_have_the_old_bits(self, monkeypatch):
        cases = self.cases()
        got = [_f2_row_sum(*case) for case in cases]
        # given the old prologue's flat arrays, and testing every parameter,
        # the row sum runs the old prologue's arithmetic
        monkeypatch.setattr(appell, "_parameters", _tested_parameters)
        for case, values in zip(cases, got):
            shape, (xf, yf), params = _broadcast_prologue(*case)
            want = [r.reshape(shape) for r in _f2_row_sum(params, xf, yf)]
            for g, w in zip(values, want):
                assert g.shape == shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()

    def test_inputs_are_not_written(self):
        for p, x, y in self.cases():
            x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
            before = x.copy(), y.copy()
            _f2_row_sum(p, x, y)
            assert x.tobytes() == before[0].tobytes() and y.tobytes() == before[1].tobytes()

    def test_shapes_that_do_not_broadcast_raise(self):
        with pytest.raises(ValueError):
            _f2_row_sum(CONFORMAL, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            _f2_row_sum([np.zeros(2)] * 5, 0.1, np.zeros(3))


class TestBlocks:
    """The series are summed a block of special._BLOCK terms at a time; the
    block size must not change a bit of any value or tail estimate."""

    @staticmethod
    def _values():
        rng = _rng()
        # norms from 0.05 to 0.9, and y from 0 to 0.85: the points stop in
        # different blocks of the seeds and of the rows
        norm = np.linspace(0.05, 0.9, 12)
        split = rng.uniform(0.1, 0.9, 12)
        xs = norm * split * np.exp(0.3j * rng.uniform(-1, 1, 12))
        ys = norm * (1 - split)
        ys[:2] = 0.0, 0.85
        # a + m = 0 at m = 2 and 5 (inside a block of 4 or 12), 4 and 12
        # (the last row of one) and 13 (the first row of the next)
        alphas = np.array([0.5, -2.0, -4.0, -5.0, -12.0, -13.0, 0.3 + 0.2j])
        out = list(_f2_row_sum(CONFORMAL, xs, ys))
        out += _f2_row_sum((alphas[:, None], 0.5, 0.7, 1.0, 1.3), xs, ys)
        for a in (-2.0, -4.0, -12.0, -13.0):
            out += _f2_row_sum(F2Params(a, 0.5, 0.7, 1.0, 1.3), xs, ys)
        out.append(f2_derivatives_on_arrays(CONFORMAL, xs, ys, 2))
        zs = np.concatenate((ys, xs, [0.95, -3.0 + 0.5j, 0.5 - 0.7j]))
        for p in (Hyper2F1Params(0.5, 0.5, 1.0), Hyper2F1Params(-2.0, 0.5 + 0.1j, 1.2)):
            out.append(gauss_2f1(p, zs))
            # one point: its first block is sized from its own ratio
            out += [np.array(gauss_2f1(p, z)) for z in (0.82, -3.0 + 0.5j, 0.3 + 0.1j)]
        for x, y in ONE_POINTS:
            out += _f2_row_sum(CONFORMAL, x, y)
        out += _f2_row_sum(F2Params(-13.0, 0.5, 0.7, 1.0, 1.3), 0.3, -0.2)
        return out

    @pytest.mark.parametrize("rel_tol", [special._REL_TOL, 1e-6])
    @pytest.mark.parametrize("block", [4, 12])
    def test_block_size_changes_no_bit(self, block, rel_tol, monkeypatch):
        # at the loose tolerance a stop one check early or late shows in the values
        monkeypatch.setattr(special, "_REL_TOL", rel_tol)
        want = self._values()
        # every block _BLOCK long, the first of a one-point series too
        monkeypatch.setattr(special, "_BLOCK", block)
        for module in (special, appell):
            monkeypatch.setattr(module, "_first_block", lambda *_: block)
        got = self._values()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestFirstBlock:
    """A one-point series forms a first block sized from its point's ratio
    (``special._first_block``), which holds every term the point needs;
    an array call forms blocks of special._BLOCK.  The conformal seeds come
    from the AGM and form no block; GENERIC sums them as a series."""

    @staticmethod
    def _formed(monkeypatch):
        """The (first index, length) of every block formed from now on."""
        formed = []

        def recording(first, size=None):
            for ns in blocks(first, size):
                formed.append((first, len(ns)))
                yield ns

        blocks = special._blocks
        for module in (special, appell):
            monkeypatch.setattr(module, "_blocks", recording)
        return formed

    @pytest.mark.parametrize("x, y", ONE_POINTS)
    def test_one_point_forms_one_seed_block_and_one_row_block(self, x, y, monkeypatch):
        formed = self._formed(monkeypatch)
        f2_series(GENERIC, ModuliPoint(x, y))
        assert [first for first, _ in formed] == [0, 1]  # the seeds from 0, the rows from 1
        assert all(n % special._CHECK_EVERY == 0 for _, n in formed)
        formed.clear()
        f2_series(CONFORMAL, ModuliPoint(x, y))
        assert [first for first, _ in formed] == [1]  # the rows alone

    def test_deep_point_needs_more_than_a_fixed_block(self, monkeypatch):
        # about 250 seed terms and 80 rows at (0.12, 0.82)
        formed = self._formed(monkeypatch)
        f2_series(GENERIC, ModuliPoint(0.12, 0.82))
        assert len(formed) == 2 and all(n > 2 * special._BLOCK for _, n in formed)
        formed.clear()
        gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), 0.82)
        assert len(formed) == 1

    def test_array_call_forms_fixed_blocks(self, monkeypatch):
        formed = self._formed(monkeypatch)
        f2_series_on_arrays(GENERIC, np.array([0.12, 0.3]), np.array([0.82, -0.2]))
        seeds = [n for first, n in formed if first == 0]
        rows = [n for first, n in formed if first == 1]
        assert len(seeds) > 2 and len(rows) > 2
        assert set(seeds + rows) == {special._BLOCK}
        formed.clear()
        f2_series_on_arrays(CONFORMAL, np.array([0.12, 0.3]), np.array([0.82, -0.2]))
        assert len(formed) > 2 and set(formed) == {(1, special._BLOCK)}

    @pytest.mark.parametrize("p", [CONFORMAL, GENERIC], ids=["conformal", "generic"])
    def test_rows_run_in_the_variable_of_smaller_ratio(self, p, monkeypatch):
        # the rows in x fall like |x| / min(1, |1 - y|): 0.66 / 0.82 at
        # (0.66, 0.18), about 150 rows, and 0.18 / 0.34 in y, 56 rows
        formed = self._formed(monkeypatch)
        for x, y in ((0.66, 0.18), (0.18, 0.66)):
            formed.clear()
            f2_series(p, ModuliPoint(x, y))
            rows = [n for first, n in formed if first == 1]
            assert rows == [special._first_block(0.18 / 0.34, 0.8, 4)] and rows[0] <= 64
        # at (0.12, 0.82) the rows stay in x: 0.12 / 0.18 against 0.82 / 0.88
        formed.clear()
        f2_series(p, ModuliPoint(0.12, 0.82))
        assert [n for first, n in formed if first == 1] == [special._first_block(0.12 / 0.18, 0.8, 4)]

    @pytest.mark.parametrize(
        "ratio, size",
        # 0.8 ln(1e-17) / ln(0.3) + 4 = 30.01
        [(0.0, 4), (0.3, 32), (1.0 - 1e-9, special._MAX_TERMS), (1.0, 4)],
    )
    def test_first_block_is_a_whole_number_of_checks(self, ratio, size):
        assert special._first_block(ratio, 0.8, 4) == size


class TestLegendreSeeds:
    """At (a, b, c) = (1/2, 1/2, 1) the row sum's seeds are 2 K(y) / pi and
    2 E(y) / (pi (1 - y)), from one AGM, in place of the series."""

    # small |y|, near 0.95, the Pfaff region |1 - y| > 1, and complex
    YS = np.array(
        [1e-3, -0.02 + 0.01j, 0.3, 0.9, 0.94 + 0.05j, -0.5, -0.95, -0.6 + 0.5j, 0.4j,
         0.5 - 0.7j, 0.2 + 0.3j]
    )

    def test_against_the_series(self):
        half, one = np.full(1, 0.5 + 0j), np.full(1, 1.0 + 0j)
        got = appell._legendre_seeds(self.YS)
        want = special._gauss_seeds(half, half, one, self.YS)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 2e-15 * np.abs(w))

    def test_against_mpmath(self):
        # at the real y = 0.95 the series' own G_1 is 11 ulp off (2.5e-15),
        # so only the 30-digit reference covers that point
        ys = np.append(self.YS, 0.95)
        for a, values in zip((0.5, 1.5), appell._legendre_seeds(ys)):
            for y, v in zip(ys, values):
                ref = _mp_2f1(a, 0.5, 1.0, y)
                assert abs(v - ref) <= 1e-15 * abs(ref), (a, y)

    def test_per_point_parameters_take_them_point_by_point(self):
        # alpha = 1/2 at some points of a per-point alpha: those points take
        # the AGM seeds, the others the series, each with its one-point bits
        alphas = np.array([0.5, 0.6, 0.5, -2.0, 0.5 + 0.1j])
        xs = np.array([0.3, 0.3, -0.2 + 0.1j, 0.4, 0.1])
        ys = np.array([0.2, 0.2, 0.7, -0.3, 0.5j])
        vals, tails = _f2_row_sum((alphas, 0.5, 0.5, 1.0, 1.0), xs, ys)
        for a, x, y, v, t in zip(alphas, xs, ys, vals, tails):
            want, want_tail = _f2_row_sum((a, 0.5, 0.5, 1.0, 1.0), x, y)
            assert v.tobytes() == want.tobytes() and t.tobytes() == want_tail.tobytes()


def _clear_caches():
    special._table.cache_clear()
    quadrature._axis_of.cache_clear()


def _key(*params):
    return np.array(params, dtype=complex).tobytes()


def _axis(p, q, level, floor=None):
    """One axis of the 2-D rule, keyed as ``integrate_01_2d`` keys it."""
    return quadrature._axis_of(quadrature._exact(p), quadrature._exact(q), level, floor)


class TestMemo:
    """Work that depends only on the parameters or the rule is memoized:
    the series factors (``special._factors``) and the quadrature axes
    (``quadrature._axis_of``).  A cache must change no bit of any result,
    whether it is cold or warm."""

    POINTS = [
        ModuliPoint(0.3, -0.2 + 0.1j),
        ModuliPoint(0.12, 0.82),  # about 250 seed terms
        ModuliPoint(-0.45, 0.5),
        ModuliPoint(0.5 + 0.3j, 0.2),
    ]
    # each twin moves one parameter of CONFORMAL, so that a key which
    # missed that parameter would serve it the conformal factors
    PARAMS = [CONFORMAL, F2Params(0.6 + 0.2j, 0.35, 0.55, 1.3, 0.9)] + [
        F2Params(*(v + 1e-6 * (i == k) for i, v in enumerate(CONFORMAL))) for k in range(5)
    ]

    @classmethod
    def _bytes(cls, p):
        xs = np.array([pt.x for pt in cls.POINTS])
        ys = np.array([pt.y for pt in cls.POINTS])
        values = [f2_series(p, pt) for pt in cls.POINTS]
        values += [f2_euler_integral(p, pt) for pt in cls.POINTS]
        return np.array(values).tobytes() + f2_derivatives_on_arrays(p, xs, ys, 2).tobytes()

    def test_cold_and_warm_caches_give_the_same_bytes(self, monkeypatch):
        n = len(self.PARAMS)
        cases = [(p, block) for block in (special._BLOCK, 4) for p in self.PARAMS]
        cold = {}
        for p, block in cases:
            monkeypatch.setattr(special, "_BLOCK", block)
            _clear_caches()
            cold[p, block] = self._bytes(p)
        for p in self.PARAMS:  # tables sliced 4 rows or 32 at a time
            assert cold[p, 4] == cold[p, special._BLOCK]
        _clear_caches()
        # the parameter sets and the block sizes in turn, twice: a table
        # keyed wrongly would serve one case another's factors
        turns = [c for pair in zip(cases[:n], reversed(cases[n:])) for c in pair]
        for p, block in turns * 2:
            monkeypatch.setattr(special, "_BLOCK", block)
            assert self._bytes(p) == cold[p, block]

    def test_cached_arrays_are_read_only(self):
        _clear_caches()
        f2_series(CONFORMAL, self.POINTS[1])  # the rows' table; its seeds come from the AGM
        f2_series(GENERIC, self.POINTS[1])  # and a seed table: the rows stay in x there
        f2_euler_integral(CONFORMAL, self.POINTS[1])
        rows = special._table(appell._row_coefficients, 1, _key(*CONFORMAL))
        seeds = special._table(special._seed_factors, 0, _key(GENERIC.alpha, GENERIC.gamma2))
        assert special._table.cache_info().hits == 2  # both were made by the calls
        assert all(len(f) == special._MAX_TERMS for f in (*rows, *seeds))
        params = [np.array([v], dtype=complex) for v in CONFORMAL]
        factors = special._factors(appell._row_coefficients, 1, *params)
        sliced, _ = factors(range(1, 5), None, *params)
        axis = _axis(-0.5, -0.5, 3)
        assert quadrature._axis_of.cache_info().hits >= 1
        for a in [*rows, *seeds, *sliced, axis.x, axis.w, axis.wc]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_more_parameter_sets_than_the_bound(self):
        _clear_caches()
        n = special._TABLES + 3
        for k in range(n):  # b1 moves the rows and one axis
            p = F2Params(0.5, 0.4 + 0.01 * k, 0.5, 1.0, 1.0)
            f2_series(p, self.POINTS[0])
            f2_euler_integral(p, self.POINTS[0])
        # the rows stay in x, and the seeds are the Legendre ones, from the AGM
        assert special._table.cache_info().misses == n
        assert special._table.cache_info().currsize == special._TABLES
        assert quadrature._axis_of.cache_info().misses > quadrature._AXES
        assert quadrature._axis_of.cache_info().currsize == quadrature._AXES

    def test_per_point_parameters_enter_no_cache(self):
        _clear_caches()
        xs = np.array([pt.x for pt in self.POINTS])
        ys = np.array([pt.y for pt in self.POINTS])
        alphas = np.array([0.5, 0.6, -2.0, 0.3 + 0.2j])
        _f2_row_sum((alphas, 0.5, 0.7, 1.0, 1.3), xs, ys)
        f2_derivatives_on_arrays(CONFORMAL, xs, ys, 2)
        gauss_2f1(Hyper2F1Params(0.5, 0.5, 1.0), ys)  # one parameter set: cached
        assert special._table.cache_info().currsize == 1

    @pytest.mark.parametrize("slot", range(5))
    def test_non_finite_parameters_are_a_domain_error(self, slot):
        for bad in (np.nan, np.inf, complex(0.5, np.nan)):
            params = [0.5, 0.5, 0.5, 1.0, 1.0]
            params[slot] = bad
            with pytest.raises(DomainError, match="finite"):
                F2Params(*params)

    def test_non_finite_parameters_enter_no_cache(self):
        # NaN parameters once ran the series to ConvergenceError and left a
        # table of NaN in the cache
        _clear_caches()
        with pytest.raises(DomainError):
            f2_series(F2Params(np.nan, 0.5, 0.5, 1.0, 1.0), ModuliPoint(0.3, 0.2))
        assert special._table.cache_info().currsize == 0

    def test_table_rows_that_overflow(self):
        # a whole table forms rows no point may reach: at these parameters
        # the row coefficient passes the largest double before row 2,000
        p = (150.0, 150.0, 0.5, 1.0, 1.0)
        _clear_caches()
        # close to the origin the sum stops early; the table is formed on
        # the first call, with no RuntimeWarning, and serves the bits the
        # per-point path gives (alpha varies over the two points there)
        shared, shared_tail = _f2_row_sum(p, 0.001, 0.001)
        coefs = special._table(appell._row_coefficients, 1, _key(*p))[0]
        assert not np.isfinite(coefs).all()
        per_point, tails = _f2_row_sum(([150.0, 0.5],) + p[1:], 0.001, 0.001)
        assert shared.tobytes() == per_point[0].tobytes()
        assert shared_tail.tobytes() == tails[0].tobytes()
        # further out the sum needs those rows and fails, with a warning
        # where they enter the terms, as the per-point path does; the rows
        # of (0.3, 0.5) run in x, so their coefficients are the table's
        for action, error in (("error", RuntimeWarning), ("ignore", ConvergenceError)):
            with warnings.catch_warnings():
                warnings.simplefilter(action, RuntimeWarning)
                with pytest.raises(error):
                    _f2_row_sum(p, 0.3, 0.5)


class TestDerivativeTable:
    @pytest.mark.parametrize(
        "p", [CONFORMAL, GENERIC_COMPLEX], ids=["conformal", "generic"]
    )
    def test_first_partials_against_mpmath_diff(self, p):
        # mp.diff raises its working precision to (prec + 20)(n + 1) bits for
        # order n, where appellf2 takes seconds per call: first order only
        for x, y in _table_points():
            d = f2_derivatives_on_arrays(p, x, y, 1)
            with mp.workdps(30):
                f = lambda u, v: mp.appellf2(*p, u, v)
                for m, n in ((1, 0), (0, 1)):
                    ref = complex(mp.diff(f, (mp.mpc(x), mp.mpc(y)), (m, n)))
                    assert abs(d[m, n] - ref) <= 1e-13 * abs(ref), (x, y, m, n)

    @pytest.mark.parametrize(
        "p", [CONFORMAL, GENERIC_COMPLEX, F2Params(-2.0, 0.5, 0.7, 1.0, 1.3)],
        ids=["conformal", "generic", "terminating"],
    )
    @pytest.mark.filterwarnings("error")
    def test_table_against_differentiated_series(self, p):
        # alpha = -2 shifts to -2, -1, 0, 1, 2: rows stop per element, and
        # the partials of total order above 2 vanish
        for x, y in _table_points():
            d = f2_derivatives_on_arrays(p, x, y, 2)
            ref = _mp_f2_partials(p, x, y, 2)
            assert d.shape == (3, 3)
            assert np.all(np.abs(d - ref) <= 1e-13 * np.abs(ref)), (x, y, d, ref)

    def test_array_shape_and_points(self):
        xs = np.array([[0.1, -0.2 + 0.05j], [0.3, 0.0]])
        ys = np.array([0.2, -0.15j])
        d = f2_derivatives_on_arrays(GENERIC_COMPLEX, xs, ys, 2)
        assert d.shape == (3, 3, 2, 2)
        for idx in np.ndindex(2, 2):
            one = f2_derivatives_on_arrays(GENERIC_COMPLEX, xs[idx], ys[idx[1]], 2)
            assert np.array_equal(d[(...,) + idx], one)

    def test_order_zero_is_the_series(self):
        xs = np.array([0.1, 0.2 + 0.05j, -0.3, 0.475, 0.089, 0.0, -0.6])
        ys = np.array([0.2, -0.1, 0.15 - 0.02j, 0.475, 0.9, 0.5, -0.35j])
        d = f2_derivatives_on_arrays(CONFORMAL, xs, ys, 0)
        assert np.array_equal(d[0, 0], f2_series_on_arrays(CONFORMAL, xs, ys))
        with pytest.raises(ValueError):
            f2_derivatives_on_arrays(CONFORMAL, xs, ys, -1)
        with pytest.raises(DomainError):
            f2_derivatives_on_arrays(CONFORMAL, 0.6, 0.5, 2)

    def test_unshifted_entry_is_the_series(self):
        # D[0, 0] sums its points at the unshifted parameters, among per-point
        # shifted ones, with the bits of the series at shared ones
        xs = np.array([0.1, 0.66, 0.18 + 0.05j, -0.3, 0.0, 0.3])
        ys = np.array([0.2, 0.18, 0.66, 0.15 - 0.02j, 0.5, 0.0])
        for p in (CONFORMAL, GENERIC):
            d = f2_derivatives_on_arrays(p, xs, ys, 2)
            assert np.array_equal(d[0, 0], f2_series_on_arrays(p, xs, ys))

    @pytest.mark.parametrize(
        "p",
        [CONFORMAL, F2Params(-3.0, 0.5, 0.7, 1.0, 1.3), F2Params(-2, 0.5, 0.7, 1, 1.3)],
        ids=["conformal", "alpha=-3", "alpha=-2"],
    )
    def test_uniform_parameter_arrays_are_bit_identical(self, p):
        # a parameter with one value at every point is one element, whether
        # it is given as a number or as an array
        rng = _rng()
        xs = rng.uniform(-0.45, 0.45, 40) + 0.05j * rng.uniform(-1, 1, 40)
        ys = rng.uniform(-0.45, 0.45, 40)
        want, want_tail = _f2_row_sum(p, xs, ys)
        arrays = [np.full(xs.shape, complex(v)) for v in p]
        got, tail = _f2_row_sum(arrays, xs, ys)
        assert np.array_equal(got, want) and np.array_equal(tail, want_tail)
        assert np.array_equal(got, f2_series_on_arrays(p, xs, ys))

    def test_shared_and_per_point_parameters_are_bit_identical(self):
        # only alpha varies, so the four shared parameters stay one-element
        # arrays while points leave the working arrays; norms from 0.05 to
        # 0.9 stop the points in different blocks of the seeds and the rows
        rng = _rng()
        norm = np.linspace(0.05, 0.9, 16)
        split = rng.uniform(0.1, 0.9, 16)
        xs = norm * split * np.exp(0.3j * rng.uniform(-1, 1, 16))
        ys = norm * (1 - split)
        alphas = rng.uniform(0.2, 1.5, 16) + 0.2j * rng.uniform(-1, 1, 16)
        alphas[3] = -4.0  # done at the row where a + m = 0
        vals, tails = _f2_row_sum((alphas, 0.5, 0.7, 1.0, 1.3), xs, ys)
        for a, x, y, v, t in zip(alphas, xs, ys, vals, tails):
            want, want_tail = _f2_row_sum((a, 0.5, 0.7, 1.0, 1.3), x, y)
            assert v.tobytes() == want.tobytes() and t.tobytes() == want_tail.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_mixed_alpha_stops_per_element(self):
        a = np.array([-2.0, 0.5, -3.0, 0.0, 1.2 + 0.3j, -1.0, -7.0])
        x, y = 0.3, -0.2 + 0.1j
        vals, tails = _f2_row_sum((a, 0.5, 0.7, 1.0, 1.3), x, y)
        for ai, v in zip(a, vals):
            ref = _mp_f2(F2Params(ai, 0.5, 0.7, 1.0, 1.3), x, y, dps=30)
            assert abs(v - ref) <= 1e-14 * abs(ref), ai
        terminating = (a.imag == 0) & (a.real < 0)
        assert np.all(tails[terminating] == 0.0)


class TestEulerIntegral:
    @pytest.mark.parametrize("x, y", NON_FINITE)
    def test_non_finite_point_is_a_domain_error(self, x, y):
        # rejected before the quadrature, which would refine to its last level
        with pytest.raises(DomainError, match="finite"):
            f2_euler_integral(CONFORMAL, ModuliPoint(x, y))

    def test_origin_normalization(self):
        # the Beta-function prefactor cancels exactly at (0, 0)
        assert f2_euler_integral(CONFORMAL, ModuliPoint(0.0, 0.0)) == pytest.approx(
            1.0, abs=1e-11
        )

    def test_against_series_point(self):
        pt = ModuliPoint(0.2, 0.1)
        got = f2_euler_integral(CONFORMAL, pt)
        assert abs(got - f2_series(CONFORMAL, pt)) < 1e-8

    def test_theorem_point_against_period(self):
        # independent of the series route: quadrature vs K-products
        pi0 = period_basis(LambdaPair(0.1, 0.9)).pi0
        got = f2_euler_integral(CONFORMAL, ModuliPoint(0.36, -0.1881))
        assert abs(got - pi0) < 1e-8

    def test_triangle_identity_random(self):
        rng = _rng()
        for pt in _random_interior_points(rng, 20):
            a = f2_series(CONFORMAL, pt)
            b = f2_euler_integral(CONFORMAL, pt)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize(
        "x, y",
        [(0.6, 0.3), (0.8, 0.15), (0.36, -0.1881), (-0.7, -0.2), (0.5 + 0.3j, 0.2),
         (0.05, 0.9), (-0.45, 0.5)],
    )
    def test_error_covers_mpmath(self, x, y):
        # the last-level delta alone read 0 to 3.6e-16 here, against errors
        # of 1.1e-15 to 2.0e-15: the rounding of the last level dominates
        value, err = _f2_euler(CONFORMAL, x, y)
        assert abs(value - _mp_f2(CONFORMAL, x, y)) <= err

    def test_parameter_precondition(self):
        bad = F2Params(0.5, 1.5, 0.5, 1.0, 1.0)  # Re(gamma1) < Re(beta1)
        with pytest.raises(DomainError):
            f2_euler_integral(bad, ModuliPoint(0.1, 0.1))

    def test_singular_factor_guard(self):
        # 1 - x t2 - y t1 vanishes on the square when x + y = 1 with x, y > 0
        with pytest.raises(DomainError):
            f2_euler_integral(CONFORMAL, ModuliPoint(0.5, 0.5))

    @pytest.mark.parametrize(
        "x, y",
        [(0.9, 0.3), (0.6, 0.6), (0.7 + 0.05j, 0.5 - 0.05j), (1.3, 0.0),
         (0.5, 0.5), (1.1, -0.05), (0.55, 0.5)],
    )
    def test_zero_of_the_linear_factor_is_found(self, x, y):
        # zeros between the points of a grid scan, and on an edge of the square
        with pytest.raises(SingularityError):
            _f2_euler(CONFORMAL, x, y)

    def test_benchmark_points_are_not_singular(self):
        spec = importlib.util.spec_from_file_location("workloads", _BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for x, y in workloads.WORKLOADS["f2_hard"].items(0):
            _, err = _f2_euler(CONFORMAL, x, y)
            assert err < 1e-13

    @pytest.mark.parametrize(
        "p, x, y",
        [(F2Params(0.6, 0.35, 0.55, 1.3, 0.9), 0.2, 0.1),
         (F2Params(0.7, 0.3, 0.4, 1.1, 0.8), -0.3, 0.4 + 0.2j)],
    )
    def test_endpoint_exponents_below_minus_half(self, p, x, y):
        # the endpoint powers overflowed at the outermost nodes when they
        # were applied to the integrand instead of the weights
        value, err = _f2_euler(p, x, y)
        ref = _mp_f2(p, x, y, dps=30)
        assert abs(value - ref) <= 1e-13 * abs(ref)
        assert abs(value - ref) <= err

    @pytest.mark.parametrize(
        "p, x, y",
        [(F2Params(0.5 + 0.2j, 0.5, 0.5, 1.0, 1.0), 0.3, -0.2),
         (F2Params(0.7 - 0.3j, 0.4, 0.6, 1.3, 1.1), -0.4, 0.35),
         (F2Params(0.6 + 0.1j, 0.5, 0.5, 1.0, 1.0), 0.2 + 0.3j, -0.1)],
    )
    def test_complex_alpha(self, p, x, y):
        value, err = _f2_euler(p, x, y)
        ref = _mp_f2(p, x, y, dps=30)
        assert abs(value - ref) <= min(err, 1e-13 * abs(ref))

    @pytest.mark.parametrize("a", [0.5, 1.5])
    @pytest.mark.parametrize(
        "x, y", [(0.6, 0.3), (-0.45, 0.5), (0.5 + 0.3j, 0.2), (0.3 - 0.5j, -0.2 + 0.1j)]
    )
    def test_half_integer_alpha_against_mpmath(self, a, x, y):
        p = F2Params(a, 0.5, 0.5, 1.0, 1.0)
        ref = _mp_f2(p, x, y, dps=30)
        assert abs(_f2_euler(p, x, y)[0] - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("a", [0.5, 1.5])
    @pytest.mark.parametrize("x, y", [(0.5 + 0.3j, 0.2), (1.5 + 1j, 0.1), (1.5 - 1j, 0.1)])
    def test_half_integer_alpha_against_the_log_form(self, a, x, y, monkeypatch):
        # Re(1 - x t2 - y t1) < 0 on part of the square at x = 1.5 +- i,
        # outside the ball where the series and mpmath converge
        p = F2Params(a, 0.5, 0.5, 1.0, 1.0)
        calls = []

        def log_form(re, im):
            calls.append(np.count_nonzero(re < 0))
            return np.exp(-0.5 * np.log(re + 1j * im))

        got = _f2_euler(p, x, y)[0]
        monkeypatch.setattr(appell, "_inverse_sqrt", log_form)
        want = _f2_euler(p, x, y)[0]
        assert calls and (sum(calls) > 0) == (complex(x).real > 1)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_inverse_sqrt_is_the_principal_power(self, sign):
        # both half-planes, both sides of the cut (the sign of a zero im), and
        # re near -|w|, where t + i im / 2t would cancel
        re = np.array([[3.0, -3.0, 1e-300, -1e-8, -2.0, 0.0, 5.0, -7.5]])
        im = sign * np.array([[4.0, 4.0, 1.0, 1e-12, 0.0, 2.0, 0.0, 1e-9]])
        w = np.empty(re.shape, dtype=complex)
        w.real, w.imag = re, im
        want = 1.0 / np.sqrt(w)
        assert np.all(np.abs(appell._inverse_sqrt(re, im) - want) <= 4e-16 * np.abs(want))

    @pytest.mark.parametrize(
        "a, x, y",
        [(0.5, 0.6, 0.3), (0.5, -0.7, -0.2), (1.5, 0.5 + 0.3j, 0.2), (-0.4, 0.8, -0.15),
         (0.5 + 0.2j, 0.3, -0.6j)],
    )
    def test_kernel_bound(self, a, x, y, monkeypatch):
        # the bound passed to the quadrature covers |1 - x t2 - y t1|^-a on
        # the closed square, and is tight for real a > 0
        bounds = []

        def recording(kernel, exponents, bound, **kwargs):
            bounds.append(bound)
            return integrate(kernel, exponents, bound, **kwargs)

        integrate = appell.integrate_01_2d
        monkeypatch.setattr(appell, "integrate_01_2d", recording)
        _f2_euler(F2Params(a, 0.5, 0.5, 1.0, 1.0), x, y)
        t = np.linspace(0.0, 1.0, 401)
        top = np.max(np.abs((1.0 - x * t[None, :] - y * t[:, None]) ** -a))
        (bound,) = bounds
        assert top <= bound
        if complex(a).imag == 0 and complex(a).real > 0:
            assert bound <= 1.01 * top


class TestPdeResidual:
    def test_series_solves_system(self):
        rng = _rng()
        pts = _random_interior_points(rng, 20, cap=0.6)
        x, y = np.array([pt.x for pt in pts]), np.array([pt.y for pt in pts])
        d = f2_derivatives_on_arrays(CONFORMAL, x, y, 2)
        r1, r2 = f2_pde_residual(CONFORMAL, d, x, y)
        assert r1.shape == r2.shape == (20,)
        assert np.max(np.abs(r1)) < 1e-12 and np.max(np.abs(r2)) < 1e-12

    def test_constant_function_fails(self):
        p = F2Params(0.7, 0.4, 0.3, 1.2, 1.1)
        d = np.zeros((3, 3), dtype=complex)
        d[0, 0] = 1.0
        r1, r2 = f2_pde_residual(p, d, 0.2, 0.1)
        # only the -alpha beta_i F term survives; after normalization the
        # residual is exactly -1 (the sign of -alpha beta_i for positive data)
        assert r1 == pytest.approx(-1.0, abs=1e-12)
        assert abs(r1) > 0.5 and abs(r2) > 0.5

    def test_generic_parameters(self):
        p = F2Params(0.6, 0.35, 0.55, 1.3, 0.9)
        d = f2_derivatives_on_arrays(p, 0.25, -0.15, 2)
        r1, r2 = f2_pde_residual(p, d, 0.25, -0.15)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

