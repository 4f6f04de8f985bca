import math
import re
from unittest import mock

import numpy as np
import pytest

from bbm92kit import (
    Basis,
    Bit,
    InfeasibleError,
    ModePartition,
    ObservedStats,
    PhotonPair,
    SourceBranch,
    SourceModel,
    analytic_fractions,
    attack_density,
    attack_state,
    basis_state,
    binary_entropy,
    boundary_state,
    boundary_sweep,
    build_v,
    end_to_end,
    g,
    inner_product,
    joint_operators,
    key_rate,
    min_double_click,
    multiphoton_envelope,
    outcome_projectors,
    random_state_fractions,
    rate_table,
    run_attack,
    run_protocol,
    tau_low,
    tau_numeric,
    trace_boundary,
)
from bbm92kit import povm, rates, sim

ORIGIN = ObservedStats(0.0, 0.0)


def _no_admissible_split():
    # tau_numeric's second message: a feasible row whose search finds no split
    with mock.patch.object(rates, "_tau_numeric_rows", lambda *args: np.array([-np.inf])):
        tau_numeric(ObservedStats(np.float64(0.1), np.float64(0.05)))


def _density(i: int, j: int, value: float) -> np.ndarray:
    """The 4x4 maximally mixed density with entries (i, j) and (j, i) set to value."""
    rho = np.eye(4) / 4.0
    rho[i, j] = rho[j, i] = value
    return rho


F64, RHO, NAN_CHI = np.float64, np.eye(4) / 4.0, np.array([math.nan, 0.0, 0.0])
ABOVE_ONE = "1.0204081632653061"  # the first value of np.linspace(0, 2, 50) above 1
Z1, Z2, Z3 = (basis_state(n, Basis.Z, Bit.ZERO) for n in (1, 2, 3))
SHAPE_4, TRACE_1_2 = "3 amplitudes, got shape (4,)", np.diag([1.2, 0.0, 0.0, 0.0])
# call, the exact exception type it raises, and a fragment of its message or a
# pattern the whole message must match
REJECTION_CASES = {
    "basis_state-zero-photons": (
        lambda: basis_state(0, Basis.Z, Bit.ZERO), ValueError, "count must be >= 1, got 0"
    ),
    "basis_state-above-cap": (
        lambda: basis_state(33, Basis.X, Bit.ZERO), ValueError, "33 exceeds supported maximum 32"
    ),
    "inner_product-photon-numbers": (lambda: inner_product(Z1, Z2), ValueError, "differ: 1 != 2"),
    "ModePartition-empty": (lambda: ModePartition(()), ValueError, "at least one mode"),
    "ModePartition-nonpositive": (
        lambda: ModePartition((2, 0, 1)), ValueError, "parts must be >= 1, got 0"
    ),
    "ModePartition-non-integral": (
        lambda: ModePartition((2, 1.5)), ValueError, "parts must be an integer, got 1.5"
    ),
    "ModePartition-bool": (
        lambda: ModePartition((True, 2)), ValueError, "parts must be an integer, got True"
    ),
    "PhotonPair-zero": (lambda: PhotonPair(0, 1), ValueError, "must be >= 1, got (0, 1)"),
    "capped_joint_dim-negative": (
        lambda: povm.capped_joint_dim(-3, -3), ValueError, "photon count must be >= 0, got -3"
    ),
    "PhotonPair-dimension-cap": (lambda: PhotonPair(10, 10), ValueError, "121 exceeds cap 64"),
    "SourceBranch-dimension-cap": (
        lambda: SourceBranch(1.0, 8, 7, np.eye(72) / 72), ValueError, "72 exceeds cap 64"
    ),
    "build_v-dimension-cap": (lambda: build_v(7, 8), ValueError, "72 exceeds cap 64"),
    # a non-integral photon number, refused by the one count gate fock._check_count, which
    # capped_joint_dim and basis_state call
    **{
        name: (call, ValueError, f"photon count must be an integer, got {shown}")
        for name, call, shown in [
            ("PhotonPair-non-integral", lambda: PhotonPair(1.5, 3), "1.5"),
            ("SourceModel-non-integral", lambda: SourceModel.custom([(1.0, 1.0, 1, RHO)]), "1.0"),
            ("build_v-non-integral", lambda: build_v(F64(1.5), 2), "1.5"),
            # not build_v(3, 2)'s cache entry, though 3.0 == 3
            ("build_v-float-after-int", lambda: build_v(3, 2) is build_v(3.0, 2), "3.0"),
            ("basis_state-non-integral", lambda: basis_state(2.0, Basis.Z, Bit.ZERO), "2.0"),
            # a bool would index the amplitudes as a mask and set every one of them
            ("basis_state-bool", lambda: basis_state(True, Basis.Z, Bit.ZERO), "True"),
            ("joint_operators-bool", lambda: joint_operators(PhotonPair(True, 2)), "True"),
            # not outcome_projectors(2, Z)'s cache entry, though 2.0 == 2
            (
                "outcome_projectors-float-after-int",
                lambda: outcome_projectors(2, Basis.Z) is outcome_projectors(2.0, Basis.Z),
                "2.0",
            ),
        ]
    },
    # under the dimension cap, but past the photon numbers basis_state supports
    "SourceModel-photon-count": (
        lambda: SourceModel.custom([(1.0, 0, 33, np.eye(34) / 34)]),
        ValueError,
        re.compile(r"^photon count 33 exceeds supported maximum 32$"),
    ),
    **{
        f"min_double_click-{n_a}-{n_b}": (
            lambda pair=PhotonPair(n_a, n_b): min_double_click(pair), ValueError, shown
        )
        for n_a, n_b, shown in [
            (1, 1, "(1, 1) events admit no double clicks"),
            (1, 2, "(1, 2) is not an odd-odd pair"),
            (2, 2, "(2, 2) is not an odd-odd pair"),
        ]
    },
    "trace_boundary-odd-odd": (
        lambda: trace_boundary(PhotonPair(1, 3)), ValueError, "(1, 3) is odd-odd"
    ),
    "random_state_fractions-count": (
        lambda: random_state_fractions(PhotonPair(1, 2), -1, np.random.default_rng(0)),
        ValueError,
        "count must be >= 0, got -1",
    ),
    "build_v-even-control": (lambda: build_v(2, 2), ValueError, "must be odd, got 2"),
    "build_v-odd-target": (lambda: build_v(1, 3), ValueError, "even and >= 2, got 3"),
    "boundary_state-zero": (
        lambda: boundary_state(0.0, 0.0), ValueError, "vanishes for alpha=0.0, beta=0.0"
    ),
    "run_attack-photon-number": (lambda: run_attack(Z3), ValueError, SHAPE_4),
    "attack_state-photon-number": (lambda: attack_state(Z3), ValueError, SHAPE_4),
    "attack_density-photon-number": (lambda: attack_density(np.ones(4) / 2), ValueError, SHAPE_4),
    "branch-weight": (lambda: SourceBranch(F64(1.5), 1, 1, RHO), ValueError, "got 1.5"),
    "weight-sum": (lambda: SourceModel.custom([(F64(0.5), 1, 1, RHO)]), ValueError, "got 0.5"),
    "density-nan": (
        lambda: SourceModel.custom([(1.0, 1, 1, _density(0, 1, math.nan))]), ValueError, "got nan"
    ),
    "density-negative-eigenvalue": (
        lambda: SourceModel.custom([(1.0, 1, 1, np.diag([1.5, -0.5, 0.0, 0.0]))]),
        ValueError,
        "positive semidefinite",
    ),
    "density-inf-diagonal": (
        lambda: SourceBranch(1.0, 1, 1, _density(2, 2, math.inf)), ValueError, "finite, got inf"
    ),
    "density-trace": (
        lambda: SourceModel.custom([(1.0, 1, 1, TRACE_1_2)]),
        ValueError,
        re.compile(r"density trace must be 1, got 1\.2$"),
    ),
    "outcome-probability-sum": (
        lambda: sim._branch_tables(TRACE_1_2, 1, 1),
        ValueError,
        re.compile(r"outcome probabilities sum to 1\.2$"),
    ),
    "werner": (lambda: SourceModel.werner(F64(1.5)), ValueError, "got 1.5"),
    "eve_attack": (
        lambda: SourceModel.eve_attack(boundary_state(1, 0), F64(2)), ValueError, "got 2.0"
    ),
    # Philox truncates a float key or counter, so a float would replay the integer's stream;
    # a float count would fail inside numpy with a TypeError that names no parameter
    **{
        f"{name}-non-integral-{param}": (
            call, ValueError, re.compile(rf"^{param} must be an integer, got {shown}$")
        )
        for name, param, call, shown in [
            ("event_uniforms", "seed", lambda: sim.event_uniforms(1.5, 0, 3), r"1\.5"),
            ("event_uniforms-numpy", "seed", lambda: sim.event_uniforms(F64(1.0), 0, 3), r"1\.0"),
            (
                "end_to_end",
                "seed",
                lambda: end_to_end(SourceModel.werner(0.8), 1000, seed=1.9),
                r"1\.9",
            ),
            ("event_uniforms", "start", lambda: sim.event_uniforms(1, 1.5, 2), r"1\.5"),
            ("event_uniforms", "count", lambda: sim.event_uniforms(1, 0, F64(2.0)), r"2\.0"),
            (
                "run_protocol",
                "num_events",
                lambda: run_protocol(SourceModel.ideal_pair(), 1e4, 1),
                r"10000\.0",
            ),
            (
                "end_to_end",
                "num_events",
                lambda: end_to_end(SourceModel.werner(0.8), 1e4, seed=1),
                r"10000\.0",
            ),
            (
                "random_state_fractions",
                "count",
                lambda: random_state_fractions(PhotonPair(1, 2), 10.0, np.random.default_rng(0)),
                r"10\.0",
            ),
            (
                "trace_boundary",
                "num_points",
                lambda: trace_boundary(PhotonPair(1, 2), 200.0),
                r"200\.0",
            ),
            ("boundary_sweep", "num_points", lambda: boundary_sweep(10.0), r"10\.0"),
        ]
    },
    # every call site of the count gate refuses a bool, which is an int to isinstance and
    # to <, and one below its least; capped_joint_dim(-1, 2) once returned 0
    **{
        f"{name}-count-gate-{shown}": (
            call, ValueError, re.compile(rf"^{param} must be {rule}, got {shown}$")
        )
        for name, param, rule, call, shown in [
            ("capped_joint_dim", "photon count", ">= 0", lambda: povm.capped_joint_dim(-1, 2), -1),
            (
                "capped_joint_dim",
                "photon count",
                "an integer",
                lambda: povm.capped_joint_dim(True, 2),
                True,
            ),
            ("PhotonPair", "photon count", ">= 0", lambda: PhotonPair(-1, 2), -1),
            ("PhotonPair", "photon count", "an integer", lambda: PhotonPair(2, False), False),
            ("SourceBranch", "photon count", ">= 0", lambda: SourceBranch(1.0, -1, 1, RHO), -1),
            (
                "trace_boundary",
                "num_points",
                ">= 2",
                lambda: trace_boundary(PhotonPair(1, 2), 1),
                1,
            ),
            (
                "trace_boundary",
                "num_points",
                "an integer",
                lambda: trace_boundary(PhotonPair(1, 2), True),
                True,
            ),
            ("boundary_sweep", "num_points", ">= 2", lambda: boundary_sweep(1), 1),
            ("boundary_sweep", "num_points", "an integer", lambda: boundary_sweep(True), True),
            (
                "random_state_fractions",
                "count",
                "an integer",
                lambda: random_state_fractions(PhotonPair(1, 2), True, np.random.default_rng(0)),
                True,
            ),
            ("event_uniforms-start", "start", ">= 0", lambda: sim.event_uniforms(1, -1, 2), -1),
            (
                "event_uniforms-start",
                "start",
                "an integer",
                lambda: sim.event_uniforms(1, True, 2),
                True,
            ),
            ("event_uniforms-count", "count", ">= 0", lambda: sim.event_uniforms(1, 0, -1), -1),
            (
                "event_uniforms-count",
                "count",
                "an integer",
                lambda: sim.event_uniforms(1, 0, True),
                True,
            ),
            (
                "event_uniforms-seed",
                "seed",
                "an integer",
                lambda: sim.event_uniforms(True, 0, 2),
                True,
            ),
            (
                "run_protocol",
                "num_events",
                "an integer",
                lambda: run_protocol(SourceModel.ideal_pair(), True, seed=1),
                True,
            ),
        ]
    },
    # the Philox counter holds [0, 2**256); past its end it would wrap round to event 0
    **{
        f"event_uniforms-counter-end-{name}": (
            lambda start=start, count=count: sim.event_uniforms(1, start, count),
            ValueError,
            re.compile(
                r"^start must be < 2\*\*256 and start \+ count <= 2\*\*256, "
                rf"got start {int(start)} and count {int(count)}$"
            ),
        )
        for name, start, count in [
            ("last-plus-one", 2**256 - 1, 2),
            ("start-at-end", 2**256, 0),
            ("numpy-count", 2**256 - 3, np.uint64(4)),
        ]
    },
    # a source that never sifts an event has no analytic fractions, so no run reports any
    **{
        f"{name}-no-same-basis-detection": (
            lambda call=call: call(SourceModel.custom([(1.0, 0, 1, np.eye(2) / 2)])),
            ValueError,
            "source never produces a same-basis detected event",
        )
        for name, call in [
            ("analytic_fractions", analytic_fractions),
            ("end_to_end", lambda source: end_to_end(source, 1000, seed=1)),
        ]
    },
    "run_protocol-num-events": (
        lambda: run_protocol(SourceModel.ideal_pair(), 0, seed=1),
        ValueError,
        "num_events must be >= 1, got 0",
    ),
    "run_attack-nan": (lambda: run_attack(NAN_CHI), ValueError, "unit norm, got nan"),
    "attack_state-nan": (lambda: attack_state(NAN_CHI), ValueError, "unit norm, got nan"),
    "binary_entropy": (lambda: binary_entropy(F64(1.5)), ValueError, "]: 1.5"),
    "binary_entropy-below": (lambda: binary_entropy(-0.01), ValueError, "]: -0.01"),
    "binary_entropy-above": (lambda: binary_entropy(1.01), ValueError, "]: 1.01"),
    "binary_entropy-array": (lambda: binary_entropy(np.linspace(0, 2, 50)), ValueError, ABOVE_ONE),
    "g": (lambda: g(F64(0.5)), ValueError, "]: 0.5"),
    "g-above": (lambda: g(0.34), ValueError, "]: 0.34"),
    "g-below": (lambda: g(-0.01), ValueError, "]: -0.01"),
    # past the curve's end by more than rounding, where _g_on_domain reads NaN
    "g-past-domain-tolerance": (lambda: g(1.0 / 3.0 + 5e-10), ValueError, "]: 0.33333333383"),
    "envelope-array": (lambda: multiphoton_envelope(np.linspace(0, 2, 50)), ValueError, ABOVE_ONE),
    "ObservedStats": (
        lambda: ObservedStats(F64(1.5), F64(0.0)), ValueError, "(delta=1.5, eps=0.0)"
    ),
    "ObservedStats-negative-delta": (
        lambda: ObservedStats(-0.1, 0.0), ValueError, "(delta=-0.1, eps=0.0)"
    ),
    "ObservedStats-eps-one": (lambda: ObservedStats(0.0, 1.0), ValueError, "(delta=0.0, eps=1.0)"),
    "ObservedStats-sum-above-one": (
        lambda: ObservedStats(0.7, 0.4), ValueError, "(delta=0.7, eps=0.4)"
    ),
    "tau_low": (lambda: tau_low(ObservedStats(F64(0.5), F64(0.1))), InfeasibleError, "delta=0.5"),
    "tau_low-large-delta": (
        lambda: tau_low(ObservedStats(0.4, 0.05)), InfeasibleError, "delta=0.4"
    ),
    "tau_numeric": (
        lambda: tau_numeric(ObservedStats(F64(0.3), F64(0.5))), InfeasibleError, "delta=0.3, "
    ),
    "tau_numeric-infeasible": (
        lambda: tau_numeric(ObservedStats(0.0, 0.7)), InfeasibleError, "certified domain"
    ),
    "tau_numeric-no-split": (_no_admissible_split, InfeasibleError, "(delta=0.1, eps=0.05)"),
    "key_rate": (
        lambda: key_rate(ObservedStats(F64(0.3), F64(0.5))),
        InfeasibleError,
        "(delta=0.3, eps=0.5)",
    ),
    "key_rate-infeasible": (
        lambda: key_rate(ObservedStats(0.3, 0.05)), InfeasibleError, "no certified key rate"
    ),
    "key_rate-f": (lambda: key_rate(ORIGIN, F64(0.5)), ValueError, "got 0.5"),
    **{
        f"{name}-f={f}": (lambda call=call, f=f: call(f), ValueError, "finite and >= 1")
        for name, call in [
            ("key_rate", lambda f: key_rate(ORIGIN, f=f)),
            ("rate_table", lambda f: rate_table([0.0], [0.0], f=f)),
        ]
        for f in (0.9, math.nan, math.inf, -math.inf)
    },
    # end_to_end checks f before the run, so a source with no certified rate rejects it too
    **{
        f"end_to_end-{name}-f={f}": (
            lambda source=source, f=f: end_to_end(source(), 1000, f=f, seed=1),
            ValueError,
            "finite and >= 1",
        )
        for name, source in [
            ("werner", lambda: SourceModel.werner(0.9)),
            ("no-rate", lambda: SourceModel.eve_attack(boundary_state(1.0, -1.0), 1.0)),
        ]
        for f in (0.5, math.nan, math.inf)
    },
}


@pytest.mark.parametrize("call, error, shown", REJECTION_CASES.values(), ids=REJECTION_CASES)
def test_errors_print_plain_floats(call, error, shown):
    # Each rejection raises exactly its type and names what it rejects; a numpy
    # scalar or array argument shows in the message as its offending float alone.
    with pytest.raises(error) as raised:
        call()
    message = str(raised.value)
    assert type(raised.value) is error
    assert shown.search(message) if isinstance(shown, re.Pattern) else shown in message
    assert "np.float64(" not in message and "array(" not in message
