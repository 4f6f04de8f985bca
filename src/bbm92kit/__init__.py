"""Security-analysis toolkit for entanglement-based QKD with threshold detectors.

The protocol modeled here distributes polarization-entangled photons to two
parties who measure in randomly chosen bases with threshold detector pairs
and discard events where both detectors of one party click.  The toolkit
builds the joint measurement operators for arbitrary photon-number pairs,
certifies the double-click/error trade-off region, evaluates the
privacy-amplification fraction and final key rate, constructs the explicit
bit-copying attack that saturates the trade-off, and Monte Carlo-simulates
the sift-and-discard protocol.

The layer modules are in ``sys.modules`` from ``import bbm92kit`` on, but the
code of each runs on its first attribute access, so a command runs only the
modules it uses.  First use is thread-safe.
"""

import importlib.util
import sys
import threading
import types

from .errors import InfeasibleError, NumericalError

__version__ = "0.1.0"

# The names each layer module exports through the package.
_EXPORTS = {
    "attack": (
        "AttackResult", "Sweep", "attack_density", "attack_state", "boundary_state",
        "boundary_sweep", "build_v", "run_attack",
    ),
    "fock": (
        "MAX_PHOTONS", "Basis", "Bit", "ModePartition", "basis_state", "inner_product",
        "multimode_inner_product",
    ),
    "povm": (
        "DIM_CAP", "PhotonPair", "joint_operators", "min_double_click", "outcome_projectors",
        "random_state_fractions", "region_membership", "trace_boundary",
    ),
    "rates": (
        "ObservedStats", "RateTable", "binary_entropy", "eps1_star", "g", "in_stats_domain",
        "key_rate", "multiphoton_envelope", "rate_table", "region_of", "tau_closed_form", "tau_low",
        "tau_numeric", "tau_numeric_array",
    ),
    "sim": (
        "Outcome", "SiftedTally", "SimulationReport", "SourceBranch", "SourceModel",
        "analytic_fractions", "end_to_end", "event_uniforms", "run_protocol",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_EXPORTS, "InfeasibleError", "NumericalError", "errors"])

# One re-entrant lock for every deferred module: a module's code may use another's.
_LOCK = threading.RLock()
_RUNNING = set()


class _DeferredModule(types.ModuleType):
    """A module whose code has not run yet; any attribute access runs it first."""

    def __getattribute__(self, name):
        _run(self)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        types.ModuleType.__delattr__(self, name)


def _run(module) -> None:
    """Run a deferred module's code once, then make it a plain module.

    Another thread waits on the lock until the code has run; the thread
    running it sees the partial module, as a circular import would.
    """
    with _LOCK:
        if type(module) is not _DeferredModule or module in _RUNNING:
            return
        _RUNNING.add(module)
        try:
            types.ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)
        finally:
            _RUNNING.discard(module)


def _defer(short: str) -> types.ModuleType:
    name = f"{__name__}.{short}"
    module = sys.modules[name] = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _DeferredModule
    return module


attack, fock, povm, rates, sim = map(_defer, _EXPORTS)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__():
    return sorted({*globals(), *_ORIGIN})
