"""Security-analysis toolkit for entanglement-based QKD with threshold detectors.

The protocol modeled here distributes polarization-entangled photons to two
parties who measure in randomly chosen bases with threshold detector pairs
and discard events where both detectors of one party click.  The toolkit
builds the joint measurement operators for arbitrary photon-number pairs,
certifies the double-click/error trade-off region, evaluates the
privacy-amplification fraction and final key rate, constructs the explicit
bit-copying attack that saturates the trade-off, and Monte Carlo-simulates
the sift-and-discard protocol.
"""

from .attack import (
    AttackResult,
    Sweep,
    attack_density,
    attack_state,
    boundary_state,
    boundary_sweep,
    build_v,
    run_attack,
)
from .errors import InfeasibleError, NumericalError
from .fock import (
    MAX_PHOTONS,
    Basis,
    Bit,
    ModePartition,
    PolarizedFockState,
    basis_state,
    inner_product,
    multimode_inner_product,
)
from .povm import (
    DIM_CAP,
    PhotonPair,
    TradeoffPoint,
    f_cor,
    f_dbl,
    f_err,
    min_double_click,
    outcome_projectors,
    random_state_fractions,
    region_membership,
    trace_boundary,
)
from .rates import (
    KeyRateResult,
    ObservedStats,
    RateTable,
    binary_entropy,
    conjectured_random_assignment_rate,
    eps1_star,
    g,
    in_stats_domain,
    key_rate,
    multiphoton_envelope,
    rate_table,
    region_of,
    tau_closed_form,
    tau_low,
    tau_low_array,
    tau_numeric,
    tau_numeric_array,
)
from .sim import (
    Outcome,
    SiftedTally,
    SimulationReport,
    SourceBranch,
    SourceModel,
    analytic_fractions,
    end_to_end,
    event_uniforms,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "AttackResult",
    "Basis",
    "Bit",
    "DIM_CAP",
    "InfeasibleError",
    "KeyRateResult",
    "MAX_PHOTONS",
    "ModePartition",
    "NumericalError",
    "ObservedStats",
    "Outcome",
    "PhotonPair",
    "PolarizedFockState",
    "RateTable",
    "SiftedTally",
    "SimulationReport",
    "SourceBranch",
    "SourceModel",
    "Sweep",
    "TradeoffPoint",
    "analytic_fractions",
    "attack_density",
    "attack_state",
    "basis_state",
    "binary_entropy",
    "boundary_state",
    "boundary_sweep",
    "build_v",
    "conjectured_random_assignment_rate",
    "end_to_end",
    "eps1_star",
    "event_uniforms",
    "f_cor",
    "f_dbl",
    "f_err",
    "g",
    "in_stats_domain",
    "inner_product",
    "key_rate",
    "min_double_click",
    "multimode_inner_product",
    "multiphoton_envelope",
    "outcome_projectors",
    "random_state_fractions",
    "rate_table",
    "region_membership",
    "region_of",
    "run_attack",
    "run_protocol",
    "tau_closed_form",
    "tau_low",
    "tau_low_array",
    "tau_numeric",
    "tau_numeric_array",
    "trace_boundary",
]
