"""Qubit measurement elements as rescaled Lorentz transforms.

Unnormalized qubit states map isometrically onto the Minkowski future cone;
measurement elements act on that cone as rescaled restricted Lorentz
transforms (or rescaled null boosts for projective effects). This package
converts in both directions and verifies the invariants tying the two
pictures together.
"""
from .conemap import (
    ConeMembership,
    bloch_section,
    cone_membership,
    eta_conjugate,
    hs_inner,
    minkowski,
    phi,
    phi_inv,
)
from .correspond import (
    Measurement,
    apply_element,
    element_to_lorentz,
    info_measure,
    lambda_max,
    lorentz_to_element,
    measurement,
    prop2_invariants,
    validate,
)
from .adjoint import psi, psi_of_sqrt, psi_of_unitary
from .lorentz import (
    EffectGeometry,
    LorentzDecomposition,
    Velocity,
    classify,
    decompose,
    null_boost_rescaled,
    pure_boost,
    rotation4,
    spinor_lift,
    velocity,
)
from .qmat import (
    SIGMA,
    eigenvalues,
    herm2,
    is_positive,
    mat2,
    polar_decompose,
    sqrt_psd,
)
from .sim import (
    ScenarioOutcome,
    boosted_probabilities,
    observer_boost,
    report_invariants,
    scenario1_sample,
)

__all__ = [name for name in dir() if not name.startswith("_")]
