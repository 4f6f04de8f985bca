"""Property tests of the batched tau layer against its scalar wrappers and invariants."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbm92kit import (
    ObservedStats,
    g,
    key_rate,
    multiphoton_envelope,
    rates,
    region_of,
    tau_closed_form,
    tau_low,
    tau_numeric,
)

TABLE = Path(__file__).with_name("data") / "tau_low_table.json"

deltas = st.floats(0.0, 0.25)
fractions = st.floats(0.0, 1.0)


@st.composite
def feasible_points(draw):
    d = draw(deltas)
    return d, draw(fractions) * multiphoton_envelope(d)


def _interior(d: float, e: float) -> bool:
    """Whether tau_low maximises over an interval [3 delta, xi_hi] with xi_hi < 1."""
    return d > 0.0 and e > 0.0 and e < g(min(d, 1.0 / 3.0)) - 1e-12


@settings(max_examples=25)
@given(st.lists(feasible_points(), min_size=1, max_size=12), st.sampled_from([1.0, 1.2]))
def test_array_path_equals_scalar_wrappers(points, f):
    d, e = np.array(points).T
    table = rates.rate_table(d, e, f)
    numeric = rates.tau_numeric_array(d, e)
    for i, (di, ei) in enumerate(points):
        stats = ObservedStats(di, ei)
        assert table.region[i] == region_of(stats) != "infeasible"
        assert table.tau[i] == tau_closed_form(stats)
        assert table.tau_low[i] == tau_low(stats)
        assert table.r_key[i] == key_rate(stats, f)
        assert numeric[i] == tau_numeric(stats)


@given(deltas, st.lists(fractions, min_size=2, max_size=20))
def test_tau_non_decreasing_in_eps(d, fracs):
    eps = np.sort(np.array(fracs)) * multiphoton_envelope(d)
    tau = rates.rate_table(d, eps).tau
    assert np.all(np.diff(tau) >= -1e-12)


@given(feasible_points())
def test_xi_hi_is_the_root_of_the_curve_term(point):
    d, e = point
    xi_hi = float(rates._tau_low_xi_hi(d, e))
    assume(0.0 < xi_hi < 1.0)
    assert abs(xi_hi * g(min(d / xi_hi, 1.0 / 3.0)) - e) <= 1e-14


@given(feasible_points())
def test_objective_is_concave(point):
    d, e = point
    assume(_interior(d, e))
    xis = np.linspace(3.0 * d, float(rates._tau_low_xi_hi(d, e)), 200)
    values = rates._tau_low_objective(xis, d, e)
    assert np.max(np.diff(values, 2)) <= 1e-12


def test_newton_cap_returns_each_rows_last_iterate(monkeypatch):
    # rows still iterating when the step cap is hit return their last iterate,
    # inside the bracket and short of the root
    d, e = np.array([0.05, 0.12]), np.array([0.02, 0.02])
    lo, hi = 3.0 * d, rates._tau_low_xi_hi(d, e)
    root = rates._tau_low_argmax(lo.copy(), hi, d, e)
    monkeypatch.setattr(rates, "_NEWTON_MAX_STEPS", 1)
    first = rates._tau_low_argmax(lo.copy(), hi, d, e)
    assert np.all((lo < first) & (first < hi) & (first != root))


def test_tau_low_matches_pinned_table():
    """Against an earlier grid + golden-section implementation, pinned in TABLE.

    That search could stop short of the maximum by a few 1e-12, never above it.
    """
    rows = np.array(json.loads(TABLE.read_text())["rows"])
    d, e, old = rows.T
    new = rates.rate_table(d, e).tau_low
    assert np.all(new >= old - 1e-12)
    assert np.all(new <= old + 1e-10)
    assert [tau_low(ObservedStats(di, ei)) for di, ei in zip(d, e)] == new.tolist()


def test_continuity_check_runs_on_batched_rows(monkeypatch):
    e1 = rates.eps1_star()
    on_ab = ObservedStats(0.1, e1 * (1.0 - 0.4))
    off = ObservedStats(0.1, 0.01)
    closed_b = rates._tau_b
    monkeypatch.setattr(rates, "_tau_b", lambda d, e: closed_b(d, e) + 1e-6)
    with pytest.raises(rates.NumericalError):
        rates.rate_table([off.delta, on_ab.delta], [off.eps, on_ab.eps])
    assert tau_closed_form(off) == rates._tau_a(np.array([off.delta]), np.array([off.eps]))[0]


@given(st.floats(0.0, 0.25), st.floats(0.0, 1.0 / 6.0))
def test_tau_continuous_across_region_borders(d_ab, d_bc):
    """tau moves by at most 1e-9 across eps = eps1* (1 - 4 delta) and (1 - 6 delta) eps1* + delta/2.

    Each border is crossed from 1e-12 below to 1e-12 above, clipped to the
    feasible range, in one `rate_table` call.
    """
    e1 = rates.eps1_star()
    d = np.array([d_ab, d_bc])
    edge = np.array([e1 * (1.0 - 4.0 * d_ab), (1.0 - 6.0 * d_bc) * e1 + 0.5 * d_bc])
    limit = multiphoton_envelope(d)
    below = np.clip(edge - 1e-12, 0.0, limit)
    above = np.clip(edge + 1e-12, 0.0, limit)
    tau = rates.rate_table(np.tile(d, 2), np.concatenate([below, above])).tau
    assert np.all(np.abs(tau[2:] - tau[:2]) <= 1e-9)


# Rows within a few _DOMAIN_TOL of the region (c) edge eps = g(delta), where
# eps + delta/2 = 1/2 - sqrt(delta (1 - 2 delta)) comes closest to 1/2.
near_c_edge = st.tuples(st.floats(0.0, 1.0 / 6.0 + 1e-12), st.floats(-3e-12, 3e-12)).map(
    lambda p: (p[0], g(min(p[0], 1.0 / 3.0)) + p[1])
)


@given(st.one_of(st.tuples(fractions, fractions), near_c_edge))
def test_certified_rows_keep_the_conjectured_argument_within_half(point):
    # backs the clip in rates._conjectured_rate: every row of regions (a)-(c)
    # has eps + delta/2 <= 1/2 + _DOMAIN_TOL
    d, e = point
    assume(rates.in_stats_domain(d, e))
    if rates._regions(np.array([d]), np.array([e]))[0] != "infeasible":
        assert e + 0.5 * d <= 0.5 + rates._DOMAIN_TOL


@given(st.one_of(st.tuples(fractions, fractions), near_c_edge))
def test_certified_rows_keep_the_qber_within_half(point):
    # backs the clip in rates._shrink: every row of regions (a)-(c) has
    # eps / (1 - delta) <= 1/2 + _DOMAIN_TOL
    d, e = point
    assume(rates.in_stats_domain(d, e))
    if rates._regions(np.array([d]), np.array([e]))[0] != "infeasible":
        assert e / (1.0 - d) <= 0.5 + rates._DOMAIN_TOL
