import math
import re
import tracemalloc
from fractions import Fraction
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
    attack_density,
    attack_state,
    basis_state,
    binary_entropy,
    boundary_state,
    boundary_sweep,
    build_v,
    end_to_end,
    eps1_star,
    g,
    inner_product,
    joint_operators,
    key_rate,
    min_double_click,
    multiphoton_envelope,
    outcome_projectors,
    random_state_fractions,
    rate_table,
    region_of,
    run_attack,
    run_protocol,
    tau_closed_form,
    tau_low,
    tau_numeric,
    trace_boundary,
)
from bbm92kit import rates, selfcheck, sim

TANGENT = 1.0 / 6.0


ORIGIN = ObservedStats(0.0, 0.0)


def _conjectured_cell(delta: float, eps: float) -> float:
    return float(rate_table(delta, eps).r_conjectured_random_assignment[0])


# call, expected value, and the absolute tolerance or None for exact equality
KNOWN_VALUES = {
    "binary_entropy-0": (lambda: binary_entropy(0.0), 0.0, None),
    "binary_entropy-1": (lambda: binary_entropy(1.0), 0.0, None),
    "binary_entropy-half": (lambda: binary_entropy(0.5), 1.0, None),
    # frozen from 40-digit evaluation of -x log2 x - (1-x) log2(1-x)
    "binary_entropy-0.11": (lambda: binary_entropy(0.11), 0.4999159581645280, 1e-12),
    "binary_entropy-0.11-direct": (
        lambda: binary_entropy(0.11), -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89)), 1e-15
    ),
    "g-0": (lambda: g(0.0), 0.5, 1e-15),
    "g-third": (lambda: g(1.0 / 3.0), 0.0, 1e-15),
    "g-quarter": (lambda: g(0.25), 0.375 - math.sqrt(0.125), 1e-15),
    "g-quarter-frozen": (lambda: g(0.25), 0.0214466094067262, 1e-13),
    "tau_closed_form-origin": (lambda: tau_closed_form(ORIGIN), 0.0, None),
    "tau_closed_form-is-a-float": (lambda: type(tau_closed_form(ORIGIN)), float, None),
    "tau_numeric-origin": (lambda: tau_numeric(ORIGIN), 0.0, 1e-12),
    # only xi = 3 delta admits a zero error rate, giving 2 delta
    "tau_low-error-free-line": (lambda: tau_low(ObservedStats(0.1, 0.0)), 0.2, 1e-9),
    "key_rate-perfect": (lambda: key_rate(ORIGIN, f=1.0), 1.0, None),
    "key_rate-perfect-has-key": (lambda: key_rate(ORIGIN, f=1.0) > 0.0, True, None),
    "key_rate-is-a-float": (lambda: type(key_rate(ObservedStats(0.1, 0.05))), float, None),
    # the conjectured rate is a rate_table cell; (0, 1/2) saturates it inside region (c)
    "conjectured-perfect": (lambda: _conjectured_cell(0.0, 0.0), 1.0, None),
    "conjectured-saturated": (lambda: _conjectured_cell(0.0, 0.5), -1.0, 1e-12),
    "conjectured-direct": (
        lambda: _conjectured_cell(0.1, 0.05), 1.0 - 2.0 * binary_entropy(0.1), 1e-12
    ),
}


@pytest.mark.parametrize("call, want, tol", KNOWN_VALUES.values(), ids=KNOWN_VALUES)
def test_known_value(call, want, tol):
    assert call() == (want if tol is None else pytest.approx(want, abs=tol))


class TestBinaryEntropy:
    def test_symmetry(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert np.allclose(binary_entropy(xs), binary_entropy(1.0 - xs), atol=1e-13)


class TestTradeoffCurve:
    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 1.0 / 3.0, 200)
        assert np.all(np.diff(g(xs)) < 0.0)

    def test_raises_exactly_off_the_curve_domain(self):
        # g and the curve-domain rule end the curve at one point: across a band
        # around 1/3, g raises exactly where _g_on_domain reads NaN
        cut, offsets = 1.0 / 3.0 + rates._DOMAIN_TOL, np.logspace(-17, -8, 37)
        edge = [np.nextafter(cut, 0.0), cut, np.nextafter(cut, 1.0)]
        band = np.concatenate([1.0 / 3.0 - offsets, 1.0 / 3.0 + offsets, edge])
        on_domain = rates._g_on_domain(band)
        assert np.isnan(on_domain).any() and not np.isnan(on_domain).all()
        for delta, want in zip(band, on_domain):
            if np.isnan(want):
                with pytest.raises(ValueError, match=r"outside \[0, 1/3\]"):
                    g(delta)
            else:
                assert g(delta) == want


class TestEps1Star:
    def test_correctly_rounded_root(self):
        # 16 x (1-x)^3 - 1 = (2x - 1) p(x); eps1_star is the root of the cubic p in (0, 1/2)
        def p(x):
            return -8 * x**3 + 20 * x**2 - 14 * x + 1

        x = Fraction(3, 7)
        assert 16 * x * (1 - x) ** 3 - 1 == (2 * x - 1) * p(x)
        root = eps1_star()
        assert root == 0.08035662239291944
        # p changes sign between the midpoints to the neighbouring doubles: no double is nearer
        below = (Fraction(root) + Fraction(math.nextafter(root, 0.0))) / 2
        above = (Fraction(root) + Fraction(math.nextafter(root, 1.0))) / 2
        assert p(below) > 0 > p(above)


@pytest.mark.parametrize("array", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize(
    "func, outside",
    [(binary_entropy, 2.0), (g, 1.0), (multiphoton_envelope, 5.0)],
    ids=["binary_entropy", "g", "multiphoton_envelope"],
)
def test_domain_check_rejects_nan(func, outside, array):
    # the first NaN or out-of-range value is named, and a NaN hides no other value
    for values in ([math.nan, outside], [outside, math.nan]):
        arg = np.array([0.1, *values]) if array else values[0]
        with pytest.raises(ValueError, match=rf": {values[0]!r}$"):
            func(arg)


class TestEnvelope:
    # each piece: its arguments, the values the envelope takes there, absolute tolerance
    @pytest.mark.parametrize(
        "xs, want, tol",
        [
            (np.linspace(0.0, TANGENT, 50), g, 1e-15),
            (np.linspace(TANGENT, 0.25, 50), lambda xs: 0.25 - xs, 1e-15),
            (np.array([0.3, 1.0]), np.zeros_like, 0.0),
        ],
        ids=["curve-below-tangent", "line-tangent-to-corner", "zero-beyond-corner"],
    )
    def test_piece(self, xs, want, tol):
        got = multiphoton_envelope(xs)
        assert np.allclose(got, want(xs), atol=tol)
        assert [multiphoton_envelope(float(x)) for x in xs] == got.tolist()

    def test_tangency_is_smooth(self):
        # the envelope's own tangent point T is where the line 1/4 - delta touches
        # the curve with matching slope: g(T) = 1/4 - T and g'(T) = -1, with
        # g'(d) = -1/2 - (1 - 4d) / (2 sqrt(d (1 - 2d))) in closed form
        t = rates.TANGENT_DELTA
        assert g(t) == pytest.approx(0.25 - t, abs=1e-15)
        slope = -0.5 - (1.0 - 4.0 * t) / (2.0 * math.sqrt(t * (1.0 - 2.0 * t)))
        assert slope == pytest.approx(-1.0, abs=1e-15)
        # and the envelope joins the two pieces continuously there
        around = [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)]
        values = [multiphoton_envelope(float(x)) for x in around]
        assert max(values) - min(values) <= 1e-15

    def test_selfcheck_catches_moved_tangent_point(self, monkeypatch):
        assert selfcheck.check_tradeoff_boundary().passed
        monkeypatch.setattr(rates, "TANGENT_DELTA", 1.0 / 6.0 + 1e-3)
        assert not selfcheck.check_tradeoff_boundary().passed

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
    @pytest.mark.parametrize("d", np.linspace(0.0, 0.25, 11))
    def test_error_free_line(self, d):
        assert tau_closed_form(ObservedStats(float(d), 0.0)) == pytest.approx(
            3.0 * d, abs=1e-12
        )

    def test_pure_single_photon_cost(self):
        for e in np.linspace(0.0, eps1_star(), 8):
            stats = ObservedStats(0.0, float(e))
            assert region_of(stats) == "a"
            assert tau_closed_form(stats) == pytest.approx(binary_entropy(float(e)), abs=1e-12)

    def test_infeasible_is_flagged_not_clamped(self):
        stats = ObservedStats(0.3, 0.01)
        assert region_of(stats) == "infeasible"
        assert math.isnan(tau_closed_form(stats))
        assert not stats.feasible

    def test_monotone_in_eps(self):
        for d in np.linspace(0.0, 0.24, 13):
            limit = multiphoton_envelope(float(d))
            taus = [
                tau_closed_form(ObservedStats(float(d), float(frac * limit)))
                for frac in np.linspace(0.0, 1.0, 30)
            ]
            assert np.all(np.diff(taus) >= -1e-12)


# The rate formulas and the tau_numeric search as they read when the search ran block by
# block, frozen: the reference the kernels and the workspace search must equal bit for bit.
def _reference_entropy(x):
    arr = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    inner = (arr > 0.0) & (arr < 1.0)
    safe = np.where(inner, arr, 0.5)
    return np.where(inner, -(safe * np.log2(safe) + (1 - safe) * np.log2(1 - safe)), 0.0)


def _reference_g(delta):
    arr = np.clip(np.asarray(delta, dtype=float), 0.0, 1.0 / 3.0)
    return 0.5 * (1.0 - arr) - np.sqrt(arr * (1.0 - 2.0 * arr))


def _reference_envelope(delta):
    arr = np.clip(np.asarray(delta, dtype=float), 0.0, 1.0)
    curve = _reference_g(np.minimum(arr, TANGENT))
    line = 0.25 - arr
    return np.where(arr <= TANGENT, curve, np.maximum(line, 0.0))


def _reference_tau_numeric_profile(xis, d, e):
    dm = np.divide(d, xis, out=np.zeros_like(xis), where=xis > 0)
    env = _reference_envelope(np.clip(dm, 0.0, 1.0))
    hi = (e - xis * env) / (1.0 - xis)
    lo = np.maximum(0.0, (e - xis * (1.0 - dm)) / (1.0 - xis))
    eps1 = np.minimum(hi, 0.5)
    slack = 1e-15 * (e + xis) / (1.0 - xis)
    ok = (eps1 >= lo - slack) & (dm <= 1.0 + 1e-12)
    eps1 = np.clip(np.where(ok, eps1, 0.5), 0.0, 1.0)
    out = xis - d + (1.0 - xis) * _reference_entropy(eps1)
    return np.where(ok, out, -np.inf)


def _reference_sorted_unique_rows(xis):
    xis = np.sort(xis, axis=1)
    keep = np.ones(xis.shape, dtype=bool)
    keep[:, 1:] = xis[:, 1:] != xis[:, :-1]
    out = np.repeat(xis[:, -1:], xis.shape[1], axis=1)
    rows = np.broadcast_to(np.arange(xis.shape[0])[:, None], xis.shape)
    out[rows[keep], (np.cumsum(keep, axis=1) - 1)[keep]] = xis[keep]
    return out


def _reference_tau_numeric_block(d, e):
    best = np.full(d.shape, -np.inf)
    zero = (d == 0.0) & (e <= 0.5 + 1e-15)
    best[zero] = _reference_entropy(np.minimum(e[zero], 0.5))  # xi = 0: single photons only
    multi = (e >= _reference_envelope(d) - 1e-12) & (e <= 1.0 - d + 1e-12)
    best[multi] = np.maximum(best[multi], 1.0 - d[multi])  # xi = 1: multiphoton only
    xi_min = np.maximum(d, 1e-9)
    xi_top = 1.0 - 1e-9
    rows = np.flatnonzero(xi_min < xi_top)
    if not rows.size:
        return best
    lo = xi_min[rows]
    specials = np.stack([3.0 * d[rows], 4.0 * d[rows], 6.0 * d[rows]], axis=1)
    specials[~((specials > d[rows, None]) & (specials < xi_top))] = xi_top
    xis = _reference_sorted_unique_rows(
        np.concatenate([np.linspace(lo, xi_top, 2000, axis=1), specials], axis=1)
    )
    for _ in range(4):
        dr, er = d[rows, None], e[rows, None]
        values = _reference_tau_numeric_profile(xis, dr, er)
        idx = np.argmax(values, axis=1)
        at = np.arange(rows.size)
        top = values[at, idx]
        finite = np.isfinite(top)
        best[rows[finite]] = np.maximum(best[rows[finite]], top[finite])
        last = xis.shape[1] - 1
        step = xis[at, np.minimum(idx + 1, last)] - xis[at, np.maximum(idx - 1, 0)]
        lo = np.maximum(xi_min[rows], xis[at, idx] - step)
        hi = np.minimum(xi_top, xis[at, idx] + step)
        going = hi > lo
        rows, lo, hi = rows[going], lo[going], hi[going]
        if not rows.size:
            break
        xis = np.linspace(lo, hi, 65, axis=1)
    return best


def test_formulas_equal_reference_bits():
    # the kernels behind binary_entropy, g and multiphoton_envelope, at scalars and arrays
    rng = np.random.default_rng(3)
    edges = [-1e-13, -0.0, 0.0, 1e-300, TANGENT, 0.25, 1.0 / 3.0, 0.5, 1.0 - 1e-16, 1.0]
    for public, reference, top in [
        (binary_entropy, _reference_entropy, 1.0),
        (g, _reference_g, 1.0 / 3.0),
        (multiphoton_envelope, _reference_envelope, 1.0),
    ]:
        xs = np.concatenate([[x for x in edges if x <= top], rng.uniform(0.0, top, 2000)])
        assert np.array_equal(public(xs).view(np.int64), reference(xs).view(np.int64))
        assert [public(float(x)) for x in xs[:40]] == reference(xs[:40]).tolist()


def _search_rows() -> tuple[np.ndarray, np.ndarray]:
    """Seeded feasible rows, the search's edge cases among them."""
    rng = np.random.default_rng(25)
    d = rng.uniform(0.0, 0.25, 300)
    e = rng.uniform(0.0, 1.0, 300) * multiphoton_envelope(d)
    tiny = rng.uniform(0.0, 1e-9, 6)
    sides = np.linspace(0.0, TANGENT, 12)
    on_ab, on_bc = rates._borders(sides)
    cols = [
        (d, e),
        (np.zeros(5), np.array([0.0, 0.02, 0.11, 0.3, 0.5])),  # delta = 0
        (tiny, np.zeros(6)),  # 0 < delta < 1e-9
        (tiny, np.full(6, 0.03)),
        # at eps = 0 and delta up to 1e-10 the grid pass leaves hi <= lo: no refinement
        (np.array([2.06e-61, 1e-20, 1e-12, 1e-10]), np.zeros(4)),
        # 4 delta or 3 delta equals the grid start 1e-9, a repeat _sorted_unique_rows
        # removes; at eps = 0.0739 keeping it would move tau by 5.6e-17
        (np.array([2.5e-10, 2.5e-10, 1e-9 / 3.0]), np.array([0.0, 0.0739, 0.0])),
        (np.linspace(0.0, 0.25, 9), np.zeros(9)),  # eps = 0
        (np.array([TANGENT, TANGENT, 0.2, 0.25]), np.array([0.0, 0.08, 0.049, 0.0])),
        (sides, on_ab),
        (sides, on_bc),
    ]
    return np.concatenate([c[0] for c in cols]), np.concatenate([c[1] for c in cols])


class TestTauNumeric:
    def test_search_equals_reference_blocks(self):
        d, e = _search_rows()
        block = rates._NUMERIC_BLOCK_ROWS
        assert d.size > 3 * block and d.size % block
        assert (rates._regions(d, e) != "infeasible").all()
        want = np.concatenate(
            [_reference_tau_numeric_block(d[i : i + block], e[i : i + block])
             for i in range(0, d.size, block)]
        )
        want[np.isneginf(want)] = np.nan
        got = rates.tau_numeric_array(d, e)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_memory_stays_bounded(self):
        # The bound is derived from the code, not fitted to a run.  The workspace is six
        # float buffers and one bool buffer of _NUMERIC_BLOCK_ROWS grids; numpy's buffered
        # iteration holds at most three buffers of np.getbufsize() doubles at a time.
        # Per row, at most 14 arrays of one float or index each are alive at once (in the
        # refinement: d, e, the result, the feasible rows and their d and e in
        # tau_numeric_array; best, xi_min, rows, lo and hi and the filtered copies of the
        # last three), beside one-byte masks and, earlier, the 40-byte U10 region label;
        # 16 arrays and the label bound that.
        n = 150
        d, e = np.meshgrid(np.linspace(0.0, 0.25, n), np.linspace(0.0, 0.12, n))
        rates.tau_numeric_array(d[:1, :1], e[:1, :1])
        tracemalloc.start()
        try:
            rates.tau_numeric_array(d, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workspace = rates._NUMERIC_BLOCK_ROWS * (rates._NUMERIC_GRID_POINTS + 3) * (6 * 8 + 1)
        iteration = 3 * np.getbufsize() * 8
        assert peak <= workspace + iteration + n * n * (16 * 8 + 40)

    def test_cross_validation_point(self):
        stats = ObservedStats(0.05, 0.02)
        assert tau_numeric(stats) == pytest.approx(
            tau_closed_form(stats), abs=1e-6
        )

    @pytest.mark.parametrize("d", [2.06e-61, 1e-20, 1e-16, 1e-12, 2.4e-10])
    def test_tiny_delta_without_errors(self, d):
        # at eps = 0 only xi <= 4 delta is admissible, below the grid start
        # 1e-9, and tau = 3 delta, so only a relative bound can tell 5 delta apart
        stats = ObservedStats(d, 0.0)
        want = tau_closed_form(stats)
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
            assert tau_closed_form(stats) == pytest.approx(
                tau_low(stats), abs=1e-12
            )


class TestKeyRate:
    def test_junction_value(self):
        e1 = eps1_star()
        r_key = key_rate(ObservedStats(0.0, e1))
        assert r_key == pytest.approx(1.0 - 2.0 * binary_entropy(e1), abs=1e-12)

    def test_negative_rate_reported_with_flag(self):
        assert key_rate(ObservedStats(0.2, 0.05)) < 0.0
        assert not rate_table(0.2, 0.05).has_key[0]

    def test_invariant_relation(self):
        for stats in [ObservedStats(0.05, 0.02), ObservedStats(0.1, 0.065)]:
            for f in (1.0, 1.2):
                shrink = (1.0 - stats.delta) * (
                    1.0 - f * binary_entropy(stats.eps / (1.0 - stats.delta))
                )
                want = shrink - tau_closed_form(stats)
                assert key_rate(stats, f=f) == pytest.approx(want, abs=1e-12)

    def test_monotone_in_delta_and_eps(self):
        for e in (0.0, 0.02, 0.05):
            rs = []
            for d in np.linspace(0.0, 0.15, 16):
                stats = ObservedStats(float(d), e)
                if stats.feasible:
                    rs.append(key_rate(stats))
            assert np.all(np.diff(rs) < 1e-12)
        for d in (0.0, 0.05, 0.1):
            rs = []
            for e in np.linspace(0.0, multiphoton_envelope(d) * 0.999, 16):
                rs.append(key_rate(ObservedStats(d, float(e))))
            assert np.all(np.diff(rs) < 1e-12)

    def test_near_linear_in_delta_at_fixed_eps(self):
        # second differences stay below a tenth of the first differences
        for e in (0.02, 0.05):
            ds = np.linspace(0.0, 0.15, 16)
            rs = np.array([key_rate(ObservedStats(float(d), e)) for d in ds])
            first = np.diff(rs)
            second = np.diff(first)
            assert np.max(np.abs(second)) <= 0.1 * np.min(np.abs(first))


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
        lambda: ModePartition((2, 0, 1)), ValueError, "parts must be >= 1, got (2, 0, 1)"
    ),
    "ModePartition-non-integral": (
        lambda: ModePartition((2, 1.5)), ValueError, "parts must be integers, got 1.5"
    ),
    "ModePartition-bool": (
        lambda: ModePartition((True, 2)), ValueError, "parts must be integers, got True"
    ),
    "PhotonPair-zero": (lambda: PhotonPair(0, 1), ValueError, "must be >= 1, got (0, 1)"),
    "PhotonPair-dimension-cap": (lambda: PhotonPair(10, 10), ValueError, "121 exceeds cap 64"),
    "SourceBranch-dimension-cap": (
        lambda: SourceBranch(1.0, 8, 7, np.eye(72) / 72), ValueError, "72 exceeds cap 64"
    ),
    "build_v-dimension-cap": (lambda: build_v(7, 8), ValueError, "72 exceeds cap 64"),
    # a non-integral photon number, refused by the one gate fock._check_integer, which
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
