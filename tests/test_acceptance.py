"""Acceptance suite: one test per `selfcheck` check, each printing a PASS/FAIL line.

The checks are `selfcheck.CHECKS`: the nine release criteria and POVM
completeness.  Each test runs one check at its full size and requires it to
pass within the check's wall-clock budget; `bbm92kit selftest` runs the same
checks at the quick size.  Run with `pytest tests/test_acceptance.py -v -s` to
see the per-check lines and timings on a green run.
"""

import math
import time

import pytest

from bbm92kit import selfcheck

# each check's label on its PASS/FAIL line and its budget in seconds, by name; a
# check with no entry here fails its test
BUDGETS = {
    "check_overlap_law": ("criterion 1", 1.0),
    "check_povm_completeness": ("POVM", 5.0),
    "check_odd_odd_bound": ("criterion 2", 5.0),
    "check_tradeoff_boundary": ("criterion 3", 30.0),
    "check_eps1_star": ("criterion 4", 1e-3),
    "check_tau_consistency": ("criterion 5", 120.0),
    "check_key_rate_anchors": ("criterion 6", math.inf),
    "check_attack": ("criterion 7", 10.0),
    "check_simulation": ("criterion 8", 60.0),
    "check_region_soundness": ("criterion 9", 60.0),
}


@pytest.mark.parametrize("check", selfcheck.CHECKS, ids=lambda check: check.__name__)
def test_check_at_full_size(check):
    label, budget = BUDGETS[check.__name__]
    start = time.perf_counter()
    result = check(full=True)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {result.name} ({elapsed:.2f}s) {result.detail}")
    assert ok, f"{label} failed: {result.detail} in {elapsed:.2f}s (budget {budget}s)"
