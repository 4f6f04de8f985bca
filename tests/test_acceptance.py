"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Each test runs one `selfcheck` check at its full size and requires it to pass
within the criterion's wall-clock budget; `bbm92kit selftest` runs the same
checks at the quick size.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings on a green run.
"""

import math
import time

from bbm92kit import selfcheck


def _run(num: int, check, budget: float) -> None:
    start = time.perf_counter()
    result = check(full=True)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {result.name} ({elapsed:.2f}s) {result.detail}")
    assert ok, f"criterion {num} failed: {result.detail} in {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_inner_product_law():
    _run(1, selfcheck.check_overlap_law, 1.0)


def test_criterion_2_odd_odd_bound():
    _run(2, selfcheck.check_odd_odd_bound, 5.0)


def test_criterion_3_tradeoff_boundary():
    _run(3, selfcheck.check_tradeoff_boundary, 30.0)


def test_criterion_4_tangency_root():
    _run(4, selfcheck.check_eps1_star, 1e-3)


def test_criterion_5_tau_consistency():
    _run(5, selfcheck.check_tau_consistency, 120.0)


def test_criterion_6_key_rate_anchors():
    _run(6, selfcheck.check_key_rate_anchors, math.inf)


def test_criterion_7_attack_saturation():
    _run(7, selfcheck.check_attack, 10.0)


def test_criterion_8_monte_carlo_fidelity():
    _run(8, selfcheck.check_simulation, 60.0)


def test_criterion_9_region_soundness_sampling():
    _run(9, selfcheck.check_region_soundness, 60.0)
