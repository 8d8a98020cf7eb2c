"""The nested, truncated 2-D tanh-sinh rule of ``integrate_01_2d``."""

from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from traintrack import ConvergenceError, F2Params, quadrature
from traintrack.quadrature import _axis_of, _exact, integrate_01_2d


def _axis(p, q, level, floor=None):
    """One axis of the 2-D rule, keyed as ``integrate_01_2d`` keys it."""
    return _axis_of(_exact(p), _exact(q), level, floor)


def _one(t1, t2):
    return np.ones(np.broadcast_shapes(t1.shape, t2.shape))


def _kernel(x, y, a):
    return lambda t1, t2: np.exp(-a * np.log(1.0 - x * t2 - y * t1))


def _levels(monkeypatch, tol, level_min, level_max):
    """Run the 2-D rule from level_min to level_max with target tol."""
    monkeypatch.setattr(quadrature, "_TOL_2D", tol)
    monkeypatch.setattr(quadrature, "_LEVEL_MIN_2D", level_min)
    monkeypatch.setattr(quadrature, "LEVEL_MAX_2D", level_max)


def _kept(p, q, level_min, level):
    """Kept nodes and weights of one axis at ``level``, floor set at level_min."""
    return _axis(p, q, level, _axis(p, q, level_min).floor)


@pytest.mark.parametrize(
    "exps1, exps2",
    [
        ((-0.5, -0.5), (-0.5, -0.5)),
        ((-0.9, 1.5), (0.0, 0.0)),
        ((0.0, -0.9), (1.5, -0.9)),
        ((1.5, 0.0), (-0.5, -0.5)),
        ((-0.9, -0.9), (1.5, 1.5)),
        ((0.3 + 0.4j, -0.2 - 1j), (-0.5, 0.0)),
    ],
)
def test_constant_kernel_gives_beta_product(exps1, exps2):
    value, err = integrate_01_2d(_one, (exps1, exps2), 1.0)
    with mp.workdps(30):
        want = complex(
            mp.beta(exps1[0] + 1, exps1[1] + 1) * mp.beta(exps2[0] + 1, exps2[1] + 1)
        )
    assert abs(value - want) <= err
    assert err <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "x, y, a",
    [(0.6, 0.3, 0.5), (0.5 + 0.3j, 0.2 + 0j, 0.5 + 0.1j), (-0.7 + 0j, -0.2 + 0j, 0.5)],
)
@pytest.mark.parametrize("level", [4, 5, 6])
def test_nested_sum_equals_fresh_grid(x, y, a, level, monkeypatch):
    # a target of 1 stops at the second level, the one asked for
    exps = ((-0.5, -0.5), (-0.3, 0.2))
    kernel = _kernel(x, y, a)
    _levels(monkeypatch, 1.0, level - 1, level)
    value, _ = integrate_01_2d(kernel, exps, 10.0)
    a1, a2 = (_kept(*e, level - 1, level) for e in exps)
    fresh = quadrature._bilinear(a1.w, kernel(a1.x[:, None], a2.x[None, :]), a2.w)
    assert value == fresh


def test_kernel_sees_each_kept_pair_once(monkeypatch):
    seen = []

    def recording(t1, t2):
        t1, t2 = np.broadcast_arrays(t1, t2)
        seen.extend(zip(t1.ravel().tolist(), t2.ravel().tolist()))
        return np.abs(t1 - t2)  # a kink: no two levels agree to the bit

    exps = ((-0.5, -0.5), (0.2, -0.7))
    _levels(monkeypatch, 0.0, 3, 5)
    with pytest.raises(ConvergenceError):  # a target of 0 runs levels 3 to 5
        integrate_01_2d(recording, exps, 1.0)
    x1 = _kept(*exps[0], 3, 5).x
    x2 = _kept(*exps[1], 3, 5).x
    # as multisets: the nodes next to t = 1 round to the same 1.0
    want = Counter((u, v) for u in x1.tolist() for v in x2.tolist())
    assert len(seen) == x1.size * x2.size
    assert Counter(seen) == want


@pytest.mark.parametrize("x, y, a", [(0.6, 0.3, 0.5), (-0.7, -0.2, 1.5)])
def test_real_grid_is_summed_as_before(x, y, a, monkeypatch):
    # a real kernel between real weights: the matrix products, bit for bit
    exps = ((-0.5, -0.5), (-0.3, 0.2))
    kernel = _kernel(x, y, a)
    _levels(monkeypatch, 1.0, 4, 5)
    value, _ = integrate_01_2d(kernel, exps, 10.0)
    a1, a2 = (_kept(*e, 4, 5) for e in exps)
    assert value.tobytes() == (a1.w @ kernel(a1.x[:, None], a2.x[None, :]) @ a2.w).tobytes()


@pytest.mark.parametrize("x, y, a", [(0.5 + 0.3j, 0.2, 0.5 + 0.1j), (-0.4, 0.35j, 0.7)])
def test_complex_grid_is_contracted_as_real_products(x, y, a):
    # a complex kernel between real weights: contracted with w1 as real
    # products, which agrees with the complex product to a few units in the
    # last place
    exps = ((-0.5, -0.5), (-0.3, 0.2))
    a1, a2 = (_axis(*e, 5) for e in exps)
    vals = _kernel(x, y, a)(a1.x[:, None], a2.x[None, :])
    got = quadrature._bilinear(a1.w, vals, a2.w)
    assert isinstance(got, complex)
    scale = a1.w @ np.abs(vals) @ a2.w
    assert abs(got - a1.w @ vals @ a2.w) <= 4 * np.finfo(float).eps * scale
    # complex weights are summed by the complex product itself
    wc = a1.w * (1 + 0.1j)
    assert quadrature._bilinear(wc, vals, a2.w) == wc @ vals @ a2.w


def _grid(level):
    """Every node of the level's grid on |t| <= 6, and its multiple k of h."""
    h = 2.0**-level
    k = np.arange(-int(6.0 / h), int(6.0 / h) + 1)
    return k, 1.0 / (1.0 + np.exp(-(np.pi * np.sinh(h * k))))


def _euler_exponents(p):
    """The exponents each axis of ``appell._f2_euler`` takes for F2Params p."""
    b1, b2, g1, g2 = p.beta1, p.beta2, p.gamma1, p.gamma2
    return [(b2 - 1.0, g2 - b2 - 1.0), (b1 - 1.0, g1 - b1 - 1.0)]


# those of test_constant_kernel_gives_beta_product, complex ones and those
# of the Euler integral at generic parameters
_NESTED = [(-0.5, -0.5), (-0.9, 1.5), (0.4 + 0.3j, -0.6), (0.0, 0.0), (0.0, -0.9),
           (1.5, -0.9), (1.5, 0.0), (-0.9, -0.9), (1.5, 1.5), (0.3 + 0.4j, -0.2 - 1j),
           (-0.5, 0.0), (-0.2 - 1j, 0.3 + 0.4j), (0.5j, -0.5j),
           *_euler_exponents(F2Params(0.6, 0.35, 0.55, 1.3, 0.9))]


@pytest.mark.parametrize("p, q", _NESTED)
def test_kept_nodes_nest(p, q):
    # each level keeps one run of its grid's nodes, bit for bit, and the
    # level below's are every other one of them, from the axis's offset
    floor = _axis(p, q, 3).floor
    below = None
    for level in range(3, 9):
        here = _axis(p, q, level, floor)
        k, x = _grid(level)
        n = here.x.size
        starts = [i for i in range(k.size - n + 1) if np.array_equal(x[i : i + n], here.x)]
        assert len(starts) == 1 and n >= 3
        assert k[starts[0] + here.offset] % 2 == 0
        if below is not None:
            assert np.array_equal(here.x[here.offset :: 2], below.x)
        below = here


def test_truncation_keeps_fewer_nodes():
    floor = _axis(-0.5, -0.5, 3).floor
    sizes = [_axis(-0.5, -0.5, level, floor).x.size for level in (3, 4)]
    assert sizes == [67, 133]  # of 97 and 193 nodes on |t| <= 6


def test_dropped_nodes_enter_the_error():
    exps = ((-0.5, -0.5), (0.0, -0.9))
    _, err = integrate_01_2d(_one, exps, 1.0)
    _, err_big = integrate_01_2d(_one, exps, 1e30)
    # the rule stops at level 4 here; D = D1 (S2 + D2) + S1 D2 at that level
    a1, a2 = (_kept(*e, 3, 4) for e in exps)
    (w1, d1), (w2, d2) = (a1.w, a1.dropped), (a2.w, a2.dropped)
    s1, s2 = np.abs(w1).sum(), np.abs(w2).sum()
    assert d1 > 0 and d2 > 0
    assert err_big - err == pytest.approx((1e30 - 1.0) * (d1 * (s2 + d2) + s1 * d2))


def test_weights_that_do_not_decay_raise():
    with pytest.raises(ConvergenceError):
        integrate_01_2d(_one, ((-1.0, 0.0), (0.0, 0.0)), 1.0)

