"""One table of mutants: each breaks one program constant or function, and `selftest` must fail.

A row patches the program where its callers read it, clears the caches the
patch would bypass, runs `selfcheck.run_all()` at the quick size and asserts
the exact set of failing checks (mutation testing: DeMillo, Lipton & Sayward,
"Hints on test data selection", Computer 11(4), 1978).  Every check of
`selfcheck.CHECKS` fails in at least one row.
"""

from functools import lru_cache

import numpy as np
import pytest

from bbm92kit import fock, povm, rates, selfcheck, sim
from bbm92kit.fock import Basis

# the caches that keep values a row's patch changes: the plane constants of tau_b, which
# read H and eps1*, the projectors, which read povm's basis_state, and the tally rows,
# which read sim's _SAME_BASIS
CACHES = (rates._plane_constants, povm.outcome_projectors, sim._tally_rows)


def _scaled(kernel, scale):
    """A row kernel of `rates`, its output scaled."""
    return lambda x, out, tmp: np.multiply(kernel(x, out, tmp), scale, out=out)


def _tilted(basis_state):
    """basis_state with the bit-1 X state tilted by 0.1 towards bit 0, renormalized."""

    def tilted(n, w, b):
        state = basis_state(n, w, b) + (w is Basis.X and b == 1) * 0.1 * basis_state(n, w, 0)
        return state / np.linalg.norm(state)

    return tilted


TRADEOFF, TAU, ATTACK = "check_tradeoff_boundary", "check_tau_consistency", "check_attack"
# name: the patches (module, attribute, the mutant made from the original), the checks
# that must fail, and for some of them a fragment their detail line must hold
MUTANTS = {
    "tangent-point-moved": ([(rates, "TANGENT_DELTA", lambda t: t + 1e-3)], {TRADEOFF}, {}),
    "entropy-times-1.01": ([(rates, "_entropy", lambda h: _scaled(h, 1.01))], {TAU}, {}),
    "curve-times-0.99": (
        [(rates, "_curve", lambda g: _scaled(g, 0.99))], {TRADEOFF, TAU, ATTACK}, {}
    ),
    # 1e-14 above the closed form is past (d + 49) u for every quick-size pair (d <= 24)
    "odd-odd-bound-raised": (
        [(povm, "min_double_click", lambda f: lambda pair: f(pair) + 1e-14)],
        {"check_odd_odd_bound"},
        {},
    ),
    # on a curve near g, but off the dense operators' supporting lines
    "block-point-moved": (
        [(povm, "_block_points", lambda f: lambda t, lams: (f(t, lams)[0] + 1e-9, f(t, lams)[1]))],
        {TRADEOFF},
        {},
    ),
    # f_dbl is I - f_cor - f_err, complete whatever the bit states are; the POVM check
    # reads the broken orthogonality and, inside povm, the negative f_dbl on their own
    "x-states-tilted-in-selfcheck": (
        [(selfcheck, "basis_state", _tilted)],
        {"check_overlap_law", "check_povm_completeness"},
        {"check_povm_completeness": "bit overlap 9.95e-02"},
    ),
    "x-states-tilted-in-povm": (
        [(povm, "basis_state", _tilted)],
        {"check_odd_odd_bound", "check_povm_completeness", "check_region_soundness",
         "check_simulation", TRADEOFF},
        {
            "check_povm_completeness": "eigenvalues in [-1.04e-01,",
            "check_region_soundness": "raised ValueError: envelope argument outside [0, 1]: -0.",
        },
    ),
    # as every caller reads it: multimode_inner_product through fock, the law through selfcheck
    "inner-product-times-1+1e-11": (
        [
            (module, "inner_product", lambda f: lambda s1, s2: f(s1, s2) * (1.0 + 1e-11))
            for module in (fock, selfcheck)
        ],
        {"check_overlap_law"},
        {},
    ),
    # lru_cached like the original, whose cache check_eps1_star clears; criterion 5 holds
    # tau to tau_numeric within 1e-5 only, but its rows either side of a border see the
    # moved plane of region (b) part from its neighbours
    "eps1-star-plus-1e-4": (
        [(rates, "eps1_star", lambda root: lru_cache(lambda: root() + 1e-4))],
        {"check_eps1_star", TAU},
        {TAU: "max dev 9.02e-08, continuity 2.25e-08"},
    ),
    "shrink-at-0.99-delta": (
        [(rates, "_shrink", lambda f: lambda d, e, f_ec: f(0.99 * d, e, f_ec))],
        {"check_key_rate_anchors"},
        {},
    ),
    "sift-rule-inverted": ([(sim, "_SAME_BASIS", np.logical_not)], {"check_simulation"}, {}),
    # buckets of 2**-11 read through a table of 2**-12 buckets; werner's error cells floored
    "bucket-shift-plus-1": ([(sim, "_BUCKET_SHIFT", lambda s: s + 1)], {"check_simulation"}, {}),
    "prob-floor-0.05": ([(sim, "_PROB_FLOOR", lambda floor: 0.05)], {"check_simulation"}, {}),
    # the branch's key bits one lower, on Alice's basis bit: the mixture reads wrong groups
    "branch-shift-13": ([(sim, "_BRANCH_SHIFT", lambda s: s - 1)], {"check_simulation"}, {}),
    # the runtime border check off, so only criterion 5's rows either side of a border see it
    "tau-b-plus-1e-6": (
        [
            (rates, "_tau_b", lambda f: lambda d, e: f(d, e) + 1e-6),
            (rates, "_check_region_continuity", lambda f: lambda *args: None),
        ],
        {TAU},
        {},
    ),
    "membership-tolerance-negative": (
        [(povm, "_MEMBERSHIP_TOL", lambda tol: -1e-3)], {"check_region_soundness"}, {}
    ),
}


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


@pytest.mark.parametrize("patches, failing, details", MUTANTS.values(), ids=MUTANTS)
def test_selftest_fails_exactly(monkeypatch, patches, failing, details):
    for module, name, mutant in patches:
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    _clear_caches()
    try:
        results = dict(zip((check.__name__ for check in selfcheck.CHECKS), selfcheck.run_all()))
    finally:
        monkeypatch.undo()
        _clear_caches()
    assert {name for name, result in results.items() if not result.passed} == failing
    for name, fragment in details.items():
        assert fragment in results[name].detail


def test_every_check_fails_under_some_mutant():
    caught = set().union(*(failing for _, failing, _ in MUTANTS.values()))
    assert {check.__name__ for check in selfcheck.CHECKS} <= caught
