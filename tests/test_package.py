"""The package namespace: the names `from bbm92kit import *` binds and where each comes from."""

import importlib

import pytest

import bbm92kit
# imported here so the package binds them, though neither is public
from bbm92kit import cli, selfcheck  # noqa: F401

# The names the package re-exports, by defining module.
REEXPORTS = {
    "attack": [
        "AttackResult", "Sweep", "attack_density", "attack_state", "boundary_state",
        "boundary_sweep", "build_v", "run_attack",
    ],
    "fock": [
        "Basis", "Bit", "MAX_PHOTONS", "ModePartition", "basis_state", "inner_product",
        "multimode_inner_product",
    ],
    "povm": [
        "DIM_CAP", "Outcome", "PhotonPair", "joint_operators", "min_double_click",
        "outcome_projectors", "random_state_fractions", "region_membership", "trace_boundary",
    ],
    "rates": [
        "ObservedStats", "RateTable", "binary_entropy", "eps1_star", "g", "in_stats_domain",
        "key_rate", "multiphoton_envelope", "rate_table", "region_of", "tau_closed_form",
        "tau_low", "tau_numeric", "tau_numeric_array",
    ],
    "sim": [
        "SiftedTally", "SimulationReport", "SourceBranch", "SourceModel", "analytic_fractions",
        "end_to_end", "event_uniforms", "run_protocol",
    ],
}
STAR_NAMES = {
    *(name for names in REEXPORTS.values() for name in names),
    *REEXPORTS,
    "errors",
    "InfeasibleError",
    "NumericalError",
}


def test_star_import_binds_the_public_names():
    scope = {}
    exec("from bbm92kit import *", scope)
    assert set(scope) - {"__builtins__"} == STAR_NAMES
    assert len(STAR_NAMES) == 54


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in REEXPORTS.items() for name in names]
)
def test_reexport_is_the_defining_modules_object(module, name):
    assert getattr(bbm92kit, name) is getattr(importlib.import_module(f"bbm92kit.{module}"), name)


def test_dir_lists_the_public_names():
    assert STAR_NAMES <= set(dir(bbm92kit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'bbm92kit' has no attribute 'no_such_name'$"):
        bbm92kit.no_such_name
