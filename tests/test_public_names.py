"""Public-name census: the names of qubitcone.__all__, apart from its
submodules. A name stays when the CLI, an engine or bench/ reaches it, when an
acceptance test pins it, or when it states a claim of the paper that its
docstring names. CI prints the count beside the option census
(tests/test_options.py)."""
import types

import qubitcone

KEPT = {
    # the CLI or a scenario engine calls it (herm2 by its closed form, qmat._herm2,
    # on the numbers the CLI's reader has validated)
    "cli": ("herm2", "element_to_lorentz", "lorentz_to_element", "rotation4", "velocity", "validate",
            "measurement", "observer_boost", "scenario1_sample", "boosted_probabilities", "report_invariants"),
    # bench/ calls and times it (bench/run.py LAYER_FUNCTIONS)
    "bench": ("mat2", "eigenvalues", "sqrt_psd", "polar_decompose", "phi", "phi_inv", "minkowski", "psi",
              "psi_of_unitary", "pure_boost", "decompose", "spinor_lift", "apply_element", "prop2_invariants"),
    # the records that the functions above take or return
    "records": ("Measurement", "EffectGeometry", "LorentzDecomposition", "Velocity", "ObserverBoost",
                "ScenarioOutcome", "ConeMembership"),
    # an acceptance test (tests/test_acceptance.py) pins it
    "acceptance": ("SIGMA", "is_positive", "hs_inner", "cone_membership", "psi_of_sqrt", "null_boost_rescaled",
                   "lambda_max"),
    # it states a claim of the paper: the classes of psi(M), index lowering,
    # the Bloch cross-sections of the cone and the additive information measure
    "paper": ("classify", "eta_conjugate", "bloch_section", "info_measure"),
}
SUBMODULES = {"adjoint", "conemap", "correspond", "errors", "lorentz", "qmat", "sim"}


def census() -> list[str]:
    """The names of qubitcone.__all__ that are not submodules."""
    return [name for name in qubitcone.__all__ if not isinstance(getattr(qubitcone, name), types.ModuleType)]


def test_only_the_kept_names_are_public():
    kept = [name for names in KEPT.values() for name in names]
    assert len(kept) == len(set(kept)) == 43
    assert sorted(census()) == sorted(kept)
    assert set(qubitcone.__all__) - set(census()) == SUBMODULES
