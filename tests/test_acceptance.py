"""Acceptance suite: one test per `selfcheck` check, each printing a PASS/FAIL line.

The checks are the nine release criteria and POVM completeness.  Each test
runs one check at its full size and requires it to pass within the check's
wall-clock budget; `bbm92kit selftest` runs the same checks at the quick
size.  Run with `pytest tests/test_acceptance.py -v -s` to see the per-check
lines and timings on a green run.
"""

import math
import time

from bbm92kit import selfcheck


def _run(label: str, check, budget: float) -> None:
    start = time.perf_counter()
    result = check(full=True)
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}: {result.name} ({elapsed:.2f}s) {result.detail}")
    assert ok, f"{label} failed: {result.detail} in {elapsed:.2f}s (budget {budget}s)"


def test_criterion_1_inner_product_law():
    _run("criterion 1", selfcheck.check_overlap_law, 1.0)


def test_povm_completeness():
    _run("POVM", selfcheck.check_povm_completeness, 5.0)


def test_criterion_2_odd_odd_bound():
    _run("criterion 2", selfcheck.check_odd_odd_bound, 5.0)


def test_criterion_3_tradeoff_boundary():
    _run("criterion 3", selfcheck.check_tradeoff_boundary, 30.0)


def test_criterion_4_tangency_root():
    _run("criterion 4", selfcheck.check_eps1_star, 1e-3)


def test_criterion_5_tau_consistency():
    _run("criterion 5", selfcheck.check_tau_consistency, 120.0)


def test_criterion_6_key_rate_anchors():
    _run("criterion 6", selfcheck.check_key_rate_anchors, math.inf)


def test_criterion_7_attack_saturation():
    _run("criterion 7", selfcheck.check_attack, 10.0)


def test_criterion_8_monte_carlo_fidelity():
    _run("criterion 8", selfcheck.check_simulation, 60.0)


def test_criterion_9_region_soundness_sampling():
    _run("criterion 9", selfcheck.check_region_soundness, 60.0)


def test_every_selftest_check_runs_here(monkeypatch):
    # each check `bbm92kit selftest` runs, recorded by name, is called by a
    # test above, so none runs only at its quick size
    ran = []
    for name in [n for n in vars(selfcheck) if n.startswith("check_")]:
        result = selfcheck.CheckResult(name, True, "")
        monkeypatch.setattr(selfcheck, name, lambda r=result: ran.append(r.name) or r)
    assert len(selfcheck.run_all()) == len(ran) == 10
    tests = [fn for name, fn in globals().items() if name.startswith("test_")]
    called = {name for fn in tests for name in fn.__code__.co_names}
    assert [name for name in ran if name not in called] == []
