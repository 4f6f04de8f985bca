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
    basis_state,
    inner_product,
    multimode_inner_product,
)
from .povm import (
    DIM_CAP,
    PhotonPair,
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
