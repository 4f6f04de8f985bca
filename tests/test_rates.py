import math

import numpy as np
import pytest

from bbm92kit import (
    InfeasibleError,
    ObservedStats,
    binary_entropy,
    conjectured_random_assignment_rate,
    eps1_star,
    g,
    key_rate,
    multiphoton_envelope,
    rate_table,
    region_of,
    tau_closed_form,
    tau_low,
    tau_numeric,
    tau_numeric_array,
)

TANGENT = 1.0 / 6.0


def feasible_grid(n_delta: int, n_eps: int):
    for d in np.linspace(0.0, 0.2499, n_delta):
        limit = multiphoton_envelope(float(d))
        if limit <= 0.0:
            continue
        for frac in np.linspace(0.0, 1.0, n_eps):
            stats = ObservedStats(float(d), float(frac * limit))
            if stats.feasible:
                yield stats


class TestBinaryEntropy:
    def test_endpoints_and_maximum(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_direct_evaluation(self):
        # frozen from 40-digit evaluation of -x log2 x - (1-x) log2(1-x)
        assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-12)
        direct = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        assert binary_entropy(0.11) == pytest.approx(direct, abs=1e-15)

    def test_symmetry(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert np.allclose(binary_entropy(xs), binary_entropy(1.0 - xs), atol=1e-13)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestTradeoffCurve:
    def test_endpoints(self):
        assert g(0.0) == pytest.approx(0.5, abs=1e-15)
        assert g(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_point(self):
        assert g(0.25) == pytest.approx(0.375 - math.sqrt(0.125), abs=1e-15)
        assert g(0.25) == pytest.approx(0.0214466094067262, abs=1e-13)

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 1.0 / 3.0, 200)
        assert np.all(np.diff(g(xs)) < 0.0)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            g(0.34)
        with pytest.raises(ValueError):
            g(-0.01)


class TestEps1Star:
    def test_defining_equation(self):
        x = eps1_star()
        assert abs(16.0 * x * (1.0 - x) ** 3 - 1.0) <= 1e-10

    def test_approximate_value(self):
        assert eps1_star() == pytest.approx(0.080, abs=5e-4)

    def test_selects_root_below_half(self):
        # x = 1/2 also satisfies the defining equation; the bracket avoids it
        assert eps1_star() < 0.1


class TestEnvelope:
    def test_matches_curve_below_tangent(self):
        xs = np.linspace(0.0, TANGENT, 50)
        assert np.allclose(multiphoton_envelope(xs), g(xs), atol=1e-15)

    def test_line_between_tangent_and_corner(self):
        xs = np.linspace(TANGENT, 0.25, 50)
        assert np.allclose(multiphoton_envelope(xs), 0.25 - xs, atol=1e-15)

    def test_zero_beyond_corner(self):
        assert multiphoton_envelope(0.3) == 0.0
        assert multiphoton_envelope(1.0) == 0.0

    def test_tangency_is_smooth(self):
        # the line 1/4 - delta touches the curve with matching slope at 1/6
        assert g(TANGENT) == pytest.approx(1.0 / 12.0, abs=1e-15)
        h = 1e-7
        slope = (g(TANGENT + h) - g(TANGENT - h)) / (2 * h)
        assert slope == pytest.approx(-1.0, abs=1e-5)

    def test_envelope_below_curve(self):
        xs = np.linspace(0.0, 1.0 / 3.0, 100)
        assert np.all(multiphoton_envelope(xs) <= g(xs) + 1e-15)


class TestRegions:
    @pytest.mark.parametrize(
        "d, e, want",
        [
            (0.0, 0.0, "a"),
            (0.1, 0.01, "a"),
            (0.25, 0.0, "a"),
            (0.1, 0.065, "b"),
            (0.2, 0.04, "b"),
            (0.05, 0.15, "c"),
            (0.0, 0.4, "c"),
            (0.2, 0.06, "infeasible"),
            (0.26, 0.0, "infeasible"),
            (0.0, 0.51, "infeasible"),
        ],
    )
    def test_region_map(self, d, e, want):
        assert region_of(ObservedStats(d, e)) == want

    def test_feasible_flag(self):
        assert ObservedStats(0.1, 0.05).feasible
        assert not ObservedStats(0.3, 0.01).feasible


class TestTauClosedForm:
    def test_origin(self):
        result = tau_closed_form(ObservedStats(0.0, 0.0))
        assert result.tau == 0.0
        assert result.region == "a"

    @pytest.mark.parametrize("d", np.linspace(0.0, 0.25, 11))
    def test_error_free_line(self, d):
        assert tau_closed_form(ObservedStats(float(d), 0.0)).tau == pytest.approx(
            3.0 * d, abs=1e-12
        )

    def test_pure_single_photon_cost(self):
        for e in np.linspace(0.0, eps1_star(), 8):
            result = tau_closed_form(ObservedStats(0.0, float(e)))
            assert result.region == "a"
            assert result.tau == pytest.approx(binary_entropy(float(e)), abs=1e-12)

    def test_infeasible_is_flagged_not_clamped(self):
        result = tau_closed_form(ObservedStats(0.3, 0.01))
        assert result.region == "infeasible"
        assert math.isnan(result.tau)
        assert not result.feasible

    def test_monotone_in_eps(self):
        for d in np.linspace(0.0, 0.24, 13):
            limit = multiphoton_envelope(float(d))
            taus = [
                tau_closed_form(ObservedStats(float(d), float(frac * limit))).tau
                for frac in np.linspace(0.0, 1.0, 30)
            ]
            assert np.all(np.diff(taus) >= -1e-12)


class TestTauNumeric:
    def test_origin(self):
        assert tau_numeric(ObservedStats(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_cross_validation_point(self):
        stats = ObservedStats(0.05, 0.02)
        assert tau_numeric(stats) == pytest.approx(
            tau_closed_form(stats).tau, abs=1e-6
        )

    def test_grid_agreement(self):
        deltas = np.linspace(0.0, 0.2499, 40)
        d = np.repeat(deltas, 40)
        e = np.outer(multiphoton_envelope(deltas), np.linspace(0.0, 1.0, 40)).ravel()
        table = rate_table(d, e)
        feasible = table.feasible
        numeric = tau_numeric_array(d[feasible], e[feasible], resolution=1000)
        assert np.max(np.abs(table.tau[feasible] - numeric)) <= 1e-5

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError, match="certified domain"):
            tau_numeric(ObservedStats(0.0, 0.7))

    @pytest.mark.parametrize("d", [2.06e-61, 1e-20, 1e-16, 1e-12, 2.4e-10])
    def test_tiny_delta_without_errors(self, d):
        # at eps = 0 only xi <= 4 delta is admissible, below the grid start
        # 1e-9, and tau = 3 delta, so only a relative bound can tell 5 delta apart
        stats = ObservedStats(d, 0.0)
        want = tau_closed_form(stats).tau
        assert abs(tau_numeric(stats) - want) <= 1e-12 * want


class TestTauLow:
    @pytest.mark.parametrize("e", [0.0, 0.05, 0.2, 0.4, 0.49])
    def test_no_double_clicks_gives_entropy(self, e):
        # at delta = 0 the maximizer is the xi -> 0 limit
        assert tau_low(ObservedStats(0.0, e)) == pytest.approx(
            binary_entropy(e), abs=1e-9
        )

    def test_equals_closed_form_in_region_c(self):
        for d, e in [(0.05, 0.15), (0.0, 0.3), (0.1, 0.09), (0.15, 0.09)]:
            stats = ObservedStats(d, e)
            assert region_of(stats) == "c"
            assert tau_closed_form(stats).tau == pytest.approx(
                tau_low(stats), abs=1e-12
            )

    def test_lower_bound_everywhere(self):
        for stats in feasible_grid(30, 30):
            assert tau_closed_form(stats).tau >= tau_low(stats) - 1e-9

    def test_error_free_line_value(self):
        # only xi = 3 delta admits a zero error rate, giving 2 delta
        assert tau_low(ObservedStats(0.1, 0.0)) == pytest.approx(0.2, abs=1e-9)

    def test_infeasible_for_large_delta(self):
        with pytest.raises(InfeasibleError):
            tau_low(ObservedStats(0.4, 0.05))


class TestKeyRate:
    def test_perfect_statistics(self):
        result = key_rate(ObservedStats(0.0, 0.0), f=1.0)
        assert result.r_key == 1.0
        assert result.has_key

    def test_junction_value(self):
        e1 = eps1_star()
        result = key_rate(ObservedStats(0.0, e1))
        assert result.r_key == pytest.approx(1.0 - 2.0 * binary_entropy(e1), abs=1e-12)

    def test_negative_rate_reported_with_flag(self):
        result = key_rate(ObservedStats(0.2, 0.05))
        assert result.r_key < 0.0
        assert not result.has_key

    def test_invariant_relation(self):
        for stats in [ObservedStats(0.05, 0.02), ObservedStats(0.1, 0.065)]:
            for f in (1.0, 1.2):
                result = key_rate(stats, f=f)
                shrink = (1.0 - stats.delta) * (
                    1.0 - f * binary_entropy(stats.eps / (1.0 - stats.delta))
                )
                assert result.r_key == pytest.approx(shrink - result.tau, abs=1e-12)

    def test_monotone_in_delta_and_eps(self):
        for e in (0.0, 0.02, 0.05):
            rs = []
            for d in np.linspace(0.0, 0.15, 16):
                stats = ObservedStats(float(d), e)
                if stats.feasible:
                    rs.append(key_rate(stats).r_key)
            assert np.all(np.diff(rs) < 1e-12)
        for d in (0.0, 0.05, 0.1):
            rs = []
            for e in np.linspace(0.0, multiphoton_envelope(d) * 0.999, 16):
                rs.append(key_rate(ObservedStats(d, float(e))).r_key)
            assert np.all(np.diff(rs) < 1e-12)

    def test_near_linear_in_delta_at_fixed_eps(self):
        # second differences stay below a tenth of the first differences
        for e in (0.02, 0.05):
            ds = np.linspace(0.0, 0.15, 16)
            rs = np.array([key_rate(ObservedStats(float(d), e)).r_key for d in ds])
            first = np.diff(rs)
            second = np.diff(first)
            assert np.max(np.abs(second)) <= 0.1 * np.min(np.abs(first))

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            key_rate(ObservedStats(0.3, 0.05))

    def test_rejects_bad_f(self):
        for f in (0.9, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and >= 1"):
                key_rate(ObservedStats(0.0, 0.0), f=f)
            with pytest.raises(ValueError, match="finite and >= 1"):
                rate_table([0.0], [0.0], f=f)


class TestConjecturedRate:
    def test_perfect_statistics(self):
        assert conjectured_random_assignment_rate(ObservedStats(0.0, 0.0)) == 1.0

    def test_saturated_entropy(self):
        assert conjectured_random_assignment_rate(
            ObservedStats(0.2, 0.4)
        ) == pytest.approx(-1.0, abs=1e-12)

    def test_direct_value(self):
        got = conjectured_random_assignment_rate(ObservedStats(0.1, 0.05))
        assert got == pytest.approx(1.0 - 2.0 * binary_entropy(0.1), abs=1e-12)

    def test_rejects_domain_violation(self):
        with pytest.raises(ValueError):
            conjectured_random_assignment_rate(ObservedStats(0.4, 0.35))


class TestObservedStats:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedStats(-0.1, 0.0)
        with pytest.raises(ValueError):
            ObservedStats(0.0, 1.0)
        with pytest.raises(ValueError):
            ObservedStats(0.7, 0.4)
