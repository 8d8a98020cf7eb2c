"""Independent references at 30 significant digits, computed with mpmath.

Nothing here calls traintrack.  The periods come from ``mp.ellipk`` on the
factorized coordinates (lambda1, lambda2) themselves, so the kinematics check
never passes through the program's inverse of T, and F2 comes from
``mp.appellf2``.  References are built before or after timed regions, never
inside one.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _periods(l1, l2):
    """Pi0..Pi3 = 4/pi^2 (L1+L2) (K1 K2', i K1' K2', i K1 K2, -K1' K2)."""
    l1, l2 = mp.mpc(l1), mp.mpc(l2)
    k1, k1c = mp.ellipk(l1 * l1), mp.ellipk(1 - l1 * l1)
    k2, k2c = mp.ellipk(l2 * l2), mp.ellipk(1 - l2 * l2)
    pref = 4 / mp.pi**2 * (l1 + l2)
    return (
        pref * k1 * k2c,
        1j * pref * k1c * k2c,
        1j * pref * k1 * k2,
        -pref * k1c * k2,
    ), (k1, k1c, k2, k2c)


def pi0(l1, l2) -> complex:
    with mp.workdps(DPS):
        l1, l2 = mp.mpc(l1), mp.mpc(l2)
        k1, k2c = mp.ellipk(l1 * l1), mp.ellipk(1 - l2 * l2)
        return complex(4 / mp.pi**2 * (l1 + l2) * k1 * k2c)


def kinematics(l1, l2) -> dict:
    """Pairing -Pi^dagger (J x J) Pi, the mirror coordinates and (L1, L2)."""
    with mp.workdps(DPS):
        (p0, p1, p2, p3), (k1, k1c, k2, k2c) = _periods(l1, l2)
        # J x J with J = [[0, 1], [-1, 0]] pairs Pi0 with Pi3 and Pi1 with Pi2
        form = mp.conj(p0) * p3 + mp.conj(p3) * p0 - mp.conj(p1) * p2 - mp.conj(p2) * p1
        return {
            "pairing": complex(-form).real,
            "tau1": complex(1j * k1c / k1),
            "tau2": complex(1j * k2 / k2c),
            "lambda1": complex(l1),
            "lambda2": complex(l2),
        }


def f2(x, y) -> complex:
    """Conformal Appell F2(1/2; 1/2, 1/2; 1, 1; x, y).

    The conformal parameters are symmetric under x <-> y; mpmath converges
    faster with the larger argument first.
    """
    if abs(y) > abs(x):
        x, y = y, x
    with mp.workdps(DPS):
        return complex(mp.appellf2(0.5, 0.5, 0.5, 1, 1, mp.mpc(x), mp.mpc(y)))
