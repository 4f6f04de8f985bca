import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bbm92kit import (
    ObservedStats,
    binary_entropy,
    eps1_star,
    g,
    key_rate,
    multiphoton_envelope,
    rate_table,
    region_of,
    tau_closed_form,
    tau_low,
    tau_numeric,
)
from bbm92kit import rates

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


# each formula's domain ends and, past each, the slack its gate reads as rounding
@pytest.mark.parametrize(
    "func, end, slack",
    [
        (binary_entropy, 0.0, -1e-12),
        (binary_entropy, 1.0, 1e-12),
        (g, 0.0, -1e-12),
        (g, 1.0 / 3.0, 1e-12),
        (multiphoton_envelope, 0.0, -1e-12),
        (multiphoton_envelope, 1.0, 1e-10),
    ],
    ids=["entropy-0", "entropy-1", "g-0", "g-third", "envelope-0", "envelope-1"],
)
def test_slack_past_each_end(func, end, slack):
    # half the slack past the end reads as the end; twice the slack is refused
    assert func(end + slack / 2) == func(end)
    with pytest.raises(ValueError, match=rf": {end + 2 * slack!r}$"):
        func(end + 2 * slack)


class TestEnvelope:
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
        # 4 delta or 3 delta equals the grid start 1e-9, a repeat _grid_into
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

    def test_every_grid_point_is_positive_and_at_least_delta(self, monkeypatch):
        # _tau_numeric_profile divides by xi and reads delta / xi <= 1 with no mask or clip
        seen = []
        profile = rates._tau_numeric_profile

        def spy(xis, d, e, scratch):
            seen.append((xis.shape[1], bool(np.all(xis > 0.0) and np.all(xis >= d))))
            return profile(xis, d, e, scratch)

        monkeypatch.setattr(rates, "_tau_numeric_profile", spy)
        grid_d, grid_e = np.linspace(0.0, 0.25, 13), np.linspace(0.0, 0.12, 13)
        for d, e in [_search_rows(), (np.repeat(grid_d, 13), np.tile(grid_e, 13))]:
            seen.clear()
            rates.tau_numeric_array(d, e)
            widths = {width for width, _ in seen}
            assert widths == {rates._NUMERIC_GRID_POINTS + 3, rates._NUMERIC_REFINE_POINTS}
            assert all(ok for _, ok in seen)

    def test_memory_stays_bounded(self):
        # The bound is derived from the code, not fitted to a run.  The workspace is six
        # float buffers and one bool buffer of _NUMERIC_BLOCK_ROWS grids; numpy's buffered
        # iteration holds at most three buffers of np.getbufsize() doubles at a time.
        # Per row, at most 14 arrays of one float or index each are alive at once (in the
        # refinement: d, e, the result, the feasible rows and their d and e in
        # tau_numeric_array; best, xi_min, rows, lo and hi and the filtered copies of the
        # last three), beside one-byte masks and, earlier, the 8-byte region code;
        # 16 arrays and 40 bytes bound that.
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
