"""Numerics for the conformal two-dimensional traintrack integral.

Hypergeometric, elliptic and modular building blocks, the factorized period
basis of the underlying K3 family, and verification suites for the
factorization, the bilinear relations, the mirror map and the modularity of
the holomorphic period.
"""

from .appell import (
    F2Params,
    ModuliPoint,
    f2_derivatives_on_arrays,
    f2_euler_integral,
    f2_pde_residual,
    f2_series,
    f2_series_on_arrays,
)
from .errors import (
    BranchTrackingError,
    ConvergenceError,
    DomainError,
    NonConstantRatioError,
    SingularityError,
)
from .factorization import (
    SIGMA,
    LambdaPair,
    PeriodVector,
    invert_T,
    map_T,
    period_basis,
    positivity_pairing,
    quadratic_relation,
    traintrack_value,
)
from .modular import (
    ModularGroupElement,
    TauPair,
    inverse_mirror,
    inverse_mirror_arrays,
    lambda_hauptmodul,
    mirror_map,
    multiplier_probe,
    pi0_modular,
    pi0_modular_arrays,
    theta2,
    theta3,
    theta4,
)
from .pfaffian import (
    PathSpec,
    PfaffianSystem1D,
    PfaffianSystem2D,
    a_2f1,
    a_f2,
    gamma2_membership,
    integrate_pfaffian,
    monodromy_2f1,
    system_2f1,
    system_f2,
    tensor_system,
)
from .special import (
    Hyper2F1Params,
    ellint_E,
    ellint_K,
    gamma_fn,
    gauss_2f1,
)

__version__ = "0.1.0"
