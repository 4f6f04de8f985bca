"""Rate formulas: entropy, trade-off curve, privacy amplification, key fraction.

The privacy-amplification fraction tau(delta, eps) is the worst-case cost of
erasing the eavesdropper's knowledge given the observed double-click fraction
delta and error fraction eps.  It is the upper concave envelope, over all
admissible splits into single-photon and multiphoton events, of
(1 - xi) * H(eps_1) + xi * (1 - delta_m).  Three closed-form regions (a)-(c)
cover the whole domain where a key can survive; `tau_numeric` recomputes the
same maximum by direct search as an independent cross-check.

The tau layer works on arrays of observed (delta, eps): `rate_table` and
`tau_numeric_array` evaluate every row in one call.  The scalar functions
taking an `ObservedStats` run one row of the same code, without checking the
domain that type enforces, and return the same bits as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleError, NumericalError

# Lower envelope of the multiphoton region: the trade-off curve g up to its
# tangent point, then the straight line into the odd-odd corner (1/4, 0).
TANGENT_DELTA = 1.0 / 6.0
ODD_ODD_CORNER_DELTA = 0.25

# Slack at borders met in exact arithmetic but computed in floats: fractions built from a
# few roundings of values <= 1 miss them by ~1e-16, and 1e-12 admits 1e4 times that while
# staying 1e3 below the 1e-9 bound on closed forms disagreeing across a border.
_DOMAIN_TOL = 1e-12

# Newton iterations of the tau_low maximiser stop once a step moves xi by at
# most _XI_TOL; the objective is then within about |f''| * _XI_TOL**2 of its
# maximum.  Rows take about 5 steps and at most 16 on the tested points;
# _NEWTON_MAX_STEPS only guards against a loop.  A bisection in
# log(xi_hi - xi) whose bracket ends at xi_hi takes that end as _GAP_FLOOR
# below xi_hi.
_XI_TOL = 1e-14
_NEWTON_MAX_STEPS = 100
_GAP_FLOOR = 1e-18

# tau_numeric's grid of multiphoton fractions per row; tau_numeric_array takes rows in blocks
# of at most _NUMERIC_BLOCK_POINTS grid points, a few MB whatever the number of rows.
_NUMERIC_GRID_POINTS = 2000
_NUMERIC_BLOCK_POINTS = 1 << 14
_NUMERIC_BLOCK_ROWS = _NUMERIC_BLOCK_POINTS // (_NUMERIC_GRID_POINTS + 3)

_LN2 = math.log(2.0)

_DOMAIN_RULE = "need 0 <= delta < 1, 0 <= eps < 1 and delta + eps <= 1"


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _check_within(arr: np.ndarray, lo: float, hi: float, what: str) -> None:
    """Raise ValueError naming the first value of ``arr`` that is NaN or outside [lo, hi]."""
    # min and max propagate NaN, and a comparison with NaN is false
    if arr.size and not (arr.min() >= lo and arr.max() <= hi):
        first = arr[~((arr >= lo) & (arr <= hi))][0]
        raise ValueError(f"{what}: {float(first)!r}")


def binary_entropy(x):
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0.

    Accepts scalars or arrays; raises on inputs outside [0, 1].
    """
    arr, scalar = _as_array(x)
    _check_within(arr, -_DOMAIN_TOL, 1.0 + _DOMAIN_TOL, "entropy argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    inner = (arr > 0.0) & (arr < 1.0)
    safe = np.where(inner, arr, 0.5)
    out = np.where(inner, -(safe * np.log2(safe) + (1 - safe) * np.log2(1 - safe)), 0.0)
    return float(out) if scalar else out


def g(delta):
    """Trade-off curve (1-delta)/2 - sqrt(delta(1-2 delta)) on [0, 1/3].

    Bounds the multiphoton error fraction from below when one side receives an
    even photon number; decreases from 1/2 at delta=0 to 0 at delta=1/3.
    """
    arr, scalar = _as_array(delta)
    _check_within(
        arr, -_DOMAIN_TOL, 1.0 / 3.0 + _DOMAIN_TOL, "trade-off curve argument outside [0, 1/3]"
    )
    arr = np.clip(arr, 0.0, 1.0 / 3.0)
    out = 0.5 * (1.0 - arr) - np.sqrt(arr * (1.0 - 2.0 * arr))
    return float(out) if scalar else out


def _g_on_domain(delta: np.ndarray) -> np.ndarray:
    """g(delta) where delta lies on the curve's domain delta <= 1/3, NaN elsewhere.

    A delta past 1/3 by at most _DOMAIN_TOL is rounding at the curve's end
    and reads g(1/3).  Every comparison of a point with the curve reads
    its bound here, so all of them agree on which points the curve covers.
    """
    on_domain = delta <= 1.0 / 3.0 + _DOMAIN_TOL
    return np.where(on_domain, g(np.minimum(delta, 1.0 / 3.0)), np.nan)


@lru_cache(maxsize=1)
def eps1_star() -> float:
    """Root of 16 x (1-x)^3 = 1 in (0, 1/2), approximately 0.080.

    At this error rate the plane through the odd-odd corner (1/4, 0, 3/4) is
    tangent to the single-photon cost curve H.  Since
    16 x (1-x)^3 - 1 = (2x - 1) p(x) with p(x) = -8x^3 + 20x^2 - 14x + 1, the
    root is the zero of the cubic p in (0, 1/2).  p is convex and decreasing
    on [0, 1/2] and p(0.08) > 0, so Newton's method from 0.08 rises
    monotonically to the root and never overshoots; it stops at the first
    step that no longer raises x, which leaves the correctly rounded root.
    """
    x = 0.08
    while True:
        nxt = x - (((-8.0 * x + 20.0) * x - 14.0) * x + 1.0) / ((-24.0 * x + 40.0) * x - 14.0)
        if nxt <= x:
            return x
        x = nxt


def multiphoton_envelope(delta):
    """Lower envelope of the admissible multiphoton (delta_m, eps_m) region.

    Equals g on [0, 1/6], the tangent line 1/4 - delta on [1/6, 1/4], and 0
    beyond the odd-odd corner.
    """
    arr, scalar = _as_array(delta)
    _check_within(arr, -_DOMAIN_TOL, 1.0 + 1e-10, "envelope argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    curve = g(np.minimum(arr, TANGENT_DELTA))
    line = ODD_ODD_CORNER_DELTA - arr
    out = np.where(arr <= TANGENT_DELTA, curve, np.maximum(line, 0.0))
    return float(out) if scalar else out


def in_stats_domain(delta, eps):
    """Whether (delta, eps) are observed fractions: each in [0, 1), sum at most 1.

    Accepts scalars or arrays; NaN is outside the domain.
    """
    d, scalar = _as_array(delta)
    e = np.asarray(eps, dtype=float)
    ok = (d >= 0.0) & (d < 1.0) & (e >= 0.0) & (e < 1.0) & (d + e <= 1.0 + _DOMAIN_TOL)
    return bool(ok) if scalar and ok.ndim == 0 else ok


@dataclass(frozen=True)
class ObservedStats:
    """Observed double-click fraction and error fraction."""

    delta: float
    eps: float

    def __post_init__(self) -> None:
        if not in_stats_domain(self.delta, self.eps):
            d, e = float(self.delta), float(self.eps)
            raise ValueError(f"(delta={d!r}, eps={e!r}) are not observed fractions: {_DOMAIN_RULE}")

    @property
    def feasible(self) -> bool:
        """Whether a privacy-amplification fraction is defined at these stats."""
        return region_of(self) != "infeasible"


def _stats_arrays(delta, eps) -> tuple[np.ndarray, np.ndarray]:
    """1-D float copies of broadcast (delta, eps); raises on rows outside the domain."""
    d, e = np.broadcast_arrays(np.asarray(delta, float), np.asarray(eps, float))
    d, e = d.ravel(), e.ravel()
    bad = ~in_stats_domain(d, e)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"(delta={float(d[i])!r}, eps={float(e[i])!r}) are not observed fractions: "
            + _DOMAIN_RULE
        )
    return d.copy(), e.copy()


@lru_cache(maxsize=1)
def _plane_constants() -> tuple[float, float, float, float]:
    e1 = eps1_star()
    h1 = binary_entropy(e1)
    return 3.0 - 4.0 * h1 + 4.0 * e1, 4.0 * (1.0 - h1), h1 - 4.0 * e1, 1.0 - 4.0 * e1


def _borders(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eps on the (a)/(b) line e1 (1 - 4 delta) and the (b)/(c) line (1 - 6 delta) e1 + delta/2."""
    e1 = eps1_star()
    return e1 * (1.0 - 4.0 * d), (1.0 - 6.0 * d) * e1 + 0.5 * d


def _regions(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Region label per row; borders are checked in order a, b, c, so a wins ties."""
    ab, bc = _borders(d)
    region = np.full(d.shape, "infeasible", dtype="<U10")
    c_edge = g(np.minimum(d, 1.0 / 3.0))
    region[(d <= TANGENT_DELTA + _DOMAIN_TOL) & (e <= c_edge + _DOMAIN_TOL)] = "c"
    b_edge = np.minimum(bc, ODD_ODD_CORNER_DELTA - d)
    region[e <= b_edge + _DOMAIN_TOL] = "b"
    region[e <= ab + _DOMAIN_TOL] = "a"
    return region


def region_of(stats: ObservedStats) -> str:
    """Which closed-form region covers the observed stats: 'a', 'b', 'c' or 'infeasible'.

    Region boundaries are checked in order a, b, c; the closed forms agree on
    the shared boundaries, so the tie-break does not change the value.
    """
    return str(_regions(np.array([stats.delta]), np.array([stats.eps]))[0])


def _tau_a(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    x = 1.0 - 4.0 * d
    wide = x > _DOMAIN_TOL
    ratio = np.divide(e, x, out=np.zeros_like(x), where=wide)
    return np.where(wide, 3.0 * d + x * binary_entropy(np.minimum(ratio, 1.0)), 3.0 * d)


def _tau_b(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    c1, c2, c3, denom = _plane_constants()
    return (c1 * d + c2 * e + c3) / denom


def _tau_arrays(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(region, closed-form tau, tau_low) per row; NaN tau where infeasible.

    tau_low is computed only where the closed forms use it: in region (c) and
    on the (b)/(c) boundary.  It is NaN in the other rows.
    """
    region = _regions(d, e)
    ab, bc = _borders(d)
    in_b = region == "b"
    on_ab = ((region == "a") | in_b) & (np.abs(e - ab) < _DOMAIN_TOL)
    on_bc = (in_b | (region == "c")) & (d <= TANGENT_DELTA) & (np.abs(e - bc) < _DOMAIN_TOL)
    low = np.full(d.shape, np.nan)
    rows = (region == "c") | on_bc
    if rows.any():
        low[rows] = _tau_low_rows(d[rows], e[rows])
    tau = np.full(d.shape, np.nan)
    for name, closed in (("a", _tau_a), ("b", _tau_b)):
        rows = region == name
        tau[rows] = closed(d[rows], e[rows])
    rows = region == "c"
    tau[rows] = low[rows]
    if on_ab.any() or on_bc.any():
        _check_region_continuity(d, e, region, tau, low, on_ab, on_bc)
    return region, tau, low


def _check_region_continuity(d, e, region, tau, low, on_ab, on_bc) -> None:
    """Raise if the neighboring closed form disagrees with a row on a region boundary."""
    # Both forms are equal on the border and tangent across it, so rows within _DOMAIN_TOL of it
    # differ by rounding only: at most 3.2e-12 over 2e5 rows per border, 300 times below 1e-9.
    other_ab = np.where(region == "a", _tau_b(d, e), _tau_a(d, e))
    other_bc = np.where(region == "b", low, _tau_b(d, e))
    bad_ab = on_ab & (np.abs(other_ab - tau) > 1e-9)
    bad_bc = on_bc & (np.abs(other_bc - tau) > 1e-9)
    if bad_ab.any() or bad_bc.any():
        i = int(np.argmax(bad_ab | bad_bc))
        edge, other = ("(a)/(b)", other_ab[i]) if bad_ab[i] else ("(b)/(c)", other_bc[i])
        raise NumericalError(
            f"regions disagree at {edge} boundary: {float(tau[i])!r} vs {float(other)!r}"
        )


def tau_closed_form(stats: ObservedStats) -> float:
    """Piecewise closed-form privacy-amplification fraction.

    Region (a): mixtures of single-photon events with the odd-odd corner.
    Region (b): the planar facet through the corner, the tangent point of the
    trade-off curve, and the single-photon cost curve at eps1_star.
    Region (c): the single-photon/trade-off-curve mixture, i.e. tau_low.
    Outside these regions the value is NaN, flagged and never extrapolated;
    `region_of` names the region.  The tau cell of `rate_table`'s row.
    """
    _, tau, _ = _tau_arrays(np.array([stats.delta]), np.array([stats.eps]))
    return float(tau[0])


def _tau_low_slope(x, d, sqrt_d, e) -> tuple[np.ndarray, np.ndarray]:
    """First and second xi-derivatives of the tau_low objective at x in (3 delta, xi_hi).

    With s = sqrt(xi - 2 delta) the multiphoton error term is
    m = xi g(delta/xi) = (s - sqrt(delta))^2 / 2, so
    f' = 1 - H(eps_1) + H'(eps_1) (eps_1 - m') and
    f'' = H''(eps_1) (eps_1 - m')^2 / (1 - xi) - H'(eps_1) m''.
    """
    s = np.sqrt(x - 2.0 * d)
    gap = s - sqrt_d
    one_minus = 1.0 - x
    p = (e - 0.5 * gap * gap) / one_minus
    q = 1.0 - p
    log_p, log_q = np.log2(p), np.log2(q)
    h1 = log_q - log_p
    lean = p - 0.5 * gap / s
    slope = 1.0 + p * log_p + q * log_q + h1 * lean
    curve = -lean * lean / (p * q * _LN2 * one_minus) - h1 * 0.25 * sqrt_d / (s * s * s)
    return slope, curve


def _tau_low_argmax(lo, hi, d, e) -> np.ndarray:
    """Root of f' in (lo, hi) per row, given f'(lo) > 0 > f'(hi) = -inf.

    f' falls like log(hi - xi) towards hi, so each Newton step is taken in
    z = log(hi - xi), where f' is nearly linear near hi and a step never
    reaches hi.  A step that leaves the bracket is replaced by bisection in
    z.  A row stops once its Newton step moves xi by at most _XI_TOL.  Rows
    iterate independently, so a row's result does not depend on its batch.
    """
    top = hi
    x = 0.5 * (lo + hi)
    sqrt_d = np.sqrt(d)
    rows = np.arange(x.size)
    out = x.copy()
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            slope, curve = _tau_low_slope(x, d, sqrt_d, e)
            rising = slope > 0.0  # NaN (eps_1 rounded to <= 0) lies past the root
            lo = np.where(rising, x, lo)
            hi = np.where(rising, hi, x)
            gap = top - x
            step = top - gap * np.exp(slope / (curve * gap))
            done = (np.abs(step - x) <= _XI_TOL) & np.isfinite(curve)
            inside = (step > lo) & (step < hi)
            middle = top - np.sqrt((top - lo) * np.maximum(top - hi, _GAP_FLOOR))
            x = np.where(done | inside, step, middle)
            out[rows] = x
            if done.any():
                keep = ~done
                if not keep.any():
                    break
                rows, x, lo, hi, top, d, sqrt_d, e = (
                    a[keep] for a in (rows, x, lo, hi, top, d, sqrt_d, e)
                )
    return out


def _tau_low_xi_hi(d, e) -> np.ndarray:
    """Largest xi with xi g(delta/xi) <= eps, capped at 1.

    It solves (s - sqrt(delta))^2 / 2 = eps for s = sqrt(xi - 2 delta).
    """
    return np.minimum(2.0 * d + (np.sqrt(d) + np.sqrt(2.0 * e)) ** 2, 1.0)


def _tau_low_objective(x, d, e) -> np.ndarray:
    """xi - delta + (1 - xi) H(eps_1(xi)) for x in [3 delta, xi_hi], xi_hi < 1."""
    gap = np.sqrt(np.maximum(x - 2.0 * d, 0.0)) - np.sqrt(d)
    eps1 = np.clip((e - 0.5 * gap * gap) / (1.0 - x), 0.0, 1.0)
    return x - d + (1.0 - x) * binary_entropy(eps1)


def _tau_low_rows(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """tau_low for 1-D float64 rows inside the observed-fraction domain; NaN where delta > 1/3.

    Maximizes f(xi) = xi - delta + (1 - xi) H(eps_1(xi)), with
    eps_1 = (eps - xi g(delta/xi)) / (1 - xi), over the multiphoton fraction
    xi in [3 delta, xi_hi].  Writing s = sqrt(xi - 2 delta), the multiphoton
    error term is xi g(delta/xi) = (s - sqrt(delta))^2 / 2, which rises from 0
    at xi = 3 delta, so the largest xi with eps_1 >= 0 is in closed form
    xi_hi = min(2 delta + (sqrt(delta) + sqrt(2 eps))^2, 1).

    When xi_hi reaches 1 (eps >= g(delta), within 1e-12) the multiphoton events
    alone reproduce the statistics and the maximum is the xi = 1 value
    1 - delta, an upper bound of f.  Otherwise f is concave on
    [3 delta, xi_hi] and eps_1 stays in [0, 1/2] there; f'(3 delta) > 0 and
    f'(xi_hi) = -inf, so the maximum is the root of f', found by a safeguarded
    Newton iteration (see `_tau_low_argmax`) that stops once a step moves xi
    by at most 1e-14.  The endpoint values at xi = 3 delta and xi_hi also
    enter the maximum.  At delta = 0, f' <= 0 throughout and the maximum is
    the xi -> 0 limit H(eps); at eps = 0 the interval is the single point
    3 delta.
    """
    tau = np.full(d.shape, np.nan)
    admissible = 3.0 * d <= 1.0 + 1e-15
    full = admissible & (e >= g(np.minimum(d, 1.0 / 3.0)) - 1e-12)
    tau[full] = 1.0 - d[full]
    part = admissible & ~full
    d, e = d[part], e[part]
    lo = 3.0 * d
    hi = _tau_low_xi_hi(d, e)
    best = np.maximum(_tau_low_objective(lo, d, e), hi - d)
    flat = d == 0.0
    best[flat] = np.maximum(best[flat], binary_entropy(e[flat]))
    rows = (d > 0.0) & (e > 0.0) & (hi > lo)
    if rows.any():
        x = _tau_low_argmax(lo[rows], hi[rows], d[rows], e[rows])
        best[rows] = np.maximum(best[rows], _tau_low_objective(x, d[rows], e[rows]))
    tau[part] = best
    return tau


def tau_low(stats: ObservedStats) -> float:
    """Privacy cost of the explicit basis-independent bit-copying attack.

    Maximizes xi - delta + (1 - xi) H((eps - xi g(delta/xi)) / (1 - xi)) over
    the multiphoton fraction xi, with xi >= 3 delta so delta/xi stays in the
    curve's domain and the entropy argument confined to [0, 1].  This is a
    lower bound on tau everywhere and equals it in region (c).  One-row
    form of `_tau_low_rows`, which documents the closed-form upper limit
    xi_hi and the Newton stopping rule.
    """
    tau = _tau_low_rows(np.array([stats.delta], float), np.array([stats.eps], float))[0]
    if np.isnan(tau):
        raise InfeasibleError(
            f"no admissible multiphoton fraction for delta={float(stats.delta)!r}"
        )
    return float(tau)


def _tau_numeric_profile(xis, d, e) -> np.ndarray:
    """Best objective at each multiphoton fraction; rows of xis pair with d, e."""
    dm = np.divide(d, xis, out=np.zeros_like(xis), where=xis > 0)
    env = multiphoton_envelope(np.clip(dm, 0.0, 1.0))
    hi = (e - xis * env) / (1.0 - xis)
    lo = np.maximum(0.0, (e - xis * (1.0 - dm)) / (1.0 - xis))
    eps1 = np.minimum(hi, 0.5)
    # hi and lo round e and terms of size up to xis before dividing by
    # 1 - xis, so the slack scales with them; a fixed slack would admit
    # splits far below the envelope at tiny delta, such as xi = 6 delta at eps = 0.
    slack = 1e-15 * (e + xis) / (1.0 - xis)
    ok = (eps1 >= lo - slack) & (dm <= 1.0 + 1e-12)
    eps1 = np.clip(np.where(ok, eps1, 0.5), 0.0, 1.0)
    out = xis - d + (1.0 - xis) * binary_entropy(eps1)
    return np.where(ok, out, -np.inf)


def _sorted_unique_rows(xis: np.ndarray) -> np.ndarray:
    """Each row sorted with repeats removed, padded at the end with its last value.

    The padding reproduces np.unique per row for the search: argmax takes the
    first of equal values, and a padded right neighbor equals the point
    itself, as the clamped neighbor index of a shorter row does.
    """
    xis = np.sort(xis, axis=1)
    keep = np.ones(xis.shape, dtype=bool)
    keep[:, 1:] = xis[:, 1:] != xis[:, :-1]
    out = np.repeat(xis[:, -1:], xis.shape[1], axis=1)
    rows = np.broadcast_to(np.arange(xis.shape[0])[:, None], xis.shape)
    out[rows[keep], (np.cumsum(keep, axis=1) - 1)[keep]] = xis[keep]
    return out


def _tau_numeric_block(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """tau_numeric for a block of feasible rows; -inf where no split is admissible."""
    best = np.full(d.shape, -np.inf)
    zero = (d == 0.0) & (e <= 0.5 + 1e-15)
    best[zero] = binary_entropy(np.minimum(e[zero], 0.5))  # xi = 0: single photons only
    multi = (e >= multiphoton_envelope(d) - 1e-12) & (e <= 1.0 - d + 1e-12)
    best[multi] = np.maximum(best[multi], 1.0 - d[multi])  # xi = 1: multiphoton only
    xi_min = np.maximum(d, 1e-9)
    xi_top = 1.0 - 1e-9
    rows = np.flatnonzero(xi_min < xi_top)
    if not rows.size:
        return best
    lo = xi_min[rows]
    specials = np.stack([3.0 * d[rows], 4.0 * d[rows], 6.0 * d[rows]], axis=1)
    # Specials outside (delta, xi_top) become copies of the grid's last point.
    # Those below the grid start stay: for 0 < delta < 1e-9 at eps = 0 only
    # xi <= 4 delta is admissible.
    specials[~((specials > d[rows, None]) & (specials < xi_top))] = xi_top
    xis = _sorted_unique_rows(
        np.concatenate([np.linspace(lo, xi_top, _NUMERIC_GRID_POINTS, axis=1), specials], axis=1)
    )
    for _ in range(4):
        dr, er = d[rows, None], e[rows, None]
        values = _tau_numeric_profile(xis, dr, er)
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


def tau_numeric_array(delta, eps) -> np.ndarray:
    """tau_numeric for every row of broadcast (delta, eps); NaN where not certified.

    Each row runs the one _NUMERIC_GRID_POINTS search `tau_numeric` describes,
    independent of the other rows, in blocks of _NUMERIC_BLOCK_ROWS rows.
    """
    d, e = _stats_arrays(delta, eps)
    out = np.full(d.shape, np.nan)
    rows = np.flatnonzero(_regions(d, e) != "infeasible")
    for start in range(0, rows.size, _NUMERIC_BLOCK_ROWS):
        part = rows[start : start + _NUMERIC_BLOCK_ROWS]
        out[part] = _tau_numeric_block(d[part], e[part])
    out[np.isneginf(out)] = np.nan
    return out


def tau_numeric(stats: ObservedStats) -> float:
    """Privacy-amplification fraction by direct search over admissible splits.

    Discretizes the multiphoton fraction xi on _NUMERIC_GRID_POINTS = 2000 points
    of [max(delta, 1e-9), 1 - 1e-9] plus 3, 4 and 6 delta; for each grid value
    the single-photon error rate is pushed to the largest admissible value not
    exceeding 1/2 (the entropy term is monotone below 1/2), with the
    multiphoton point constrained to the admissible region via its lower
    envelope.  Three passes of 65 points around the best grid cell sharpen
    the maximum well below the 1e-6 agreement target with the closed forms.
    This search shares nothing with the tau_low maximiser, so it
    cross-checks it.  One row of `tau_numeric_array`.
    """
    d, e = float(stats.delta), float(stats.eps)
    if not stats.feasible:
        # the mixture program itself extends further, but values out there are
        # not certified; refuse rather than extrapolate
        raise InfeasibleError(f"(delta={d!r}, eps={e!r}) lies outside the certified domain")
    value = _tau_numeric_block(np.array([d]), np.array([e]))[0]
    if np.isneginf(value):
        raise InfeasibleError(f"no admissible split for (delta={d!r}, eps={e!r})")
    return float(value)


def _conjectured_rate(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """CONJECTURED random-assignment rate 1 - 2 H(eps + delta/2) per row of regions (a)-(c).

    A comparison value only: it treats double clicks as random bits instead
    of discarding them and carries no security proof here.  Every row of
    (a)-(c) has eps + delta/2 <= 1/2 + _DOMAIN_TOL, so the clip at 1/2 only
    removes rounding.
    """
    return 1.0 - 2.0 * binary_entropy(np.minimum(e + 0.5 * d, 0.5))


def _shrink(d: np.ndarray, e: np.ndarray, f: float) -> np.ndarray:
    """(1 - delta)(1 - f H(QBER)) with QBER = eps/(1 - delta), for feasible rows."""
    qber = e / (1.0 - d)
    if np.any(qber > 0.5 + _DOMAIN_TOL):
        raise ValueError(f"QBER {float(qber.max())!r} exceeds 1/2")
    return (1.0 - d) * (1.0 - f * binary_entropy(np.minimum(qber, 0.5)))


def _check_f(f: float, name: str = "error-correction inefficiency") -> None:
    # stated as what f must be: NaN fails every comparison
    if not (math.isfinite(f) and f >= 1.0):
        raise ValueError(f"{name} must be finite and >= 1, got {float(f)!r}")


@dataclass(frozen=True)
class RateTable:
    """Per-row results of `rate_table`; NaN in every rate of an infeasible row."""

    delta: np.ndarray
    eps: np.ndarray
    region: np.ndarray
    tau: np.ndarray
    tau_low: np.ndarray
    r_key: np.ndarray
    r_upper: np.ndarray
    r_conjectured_random_assignment: np.ndarray

    @property
    def feasible(self) -> np.ndarray:
        return self.region != "infeasible"

    @property
    def has_key(self) -> np.ndarray:
        return self.r_key > 0.0


def rate_table(delta, eps, f: float = 1.0) -> RateTable:
    """Region, tau, tau_low and key fractions for every row of broadcast (delta, eps).

    With the shrink term S = (1 - delta)(1 - f H(QBER)), QBER = eps/(1 - delta):
    r_key = S - tau is the certified key fraction, r_upper = S - tau_low the
    fraction the explicit attack still allows, so r_key <= r_upper.  The
    CONJECTURED random-assignment rate 1 - 2 H(eps + delta/2) rides along
    under its own name.  Rows outside regions (a)-(c) are labeled
    'infeasible' and carry NaN in every rate, the conjectured one too: no
    rate is given where none is certified.  Rows outside the
    observed-fraction domain raise ValueError.
    """
    _check_f(f)
    d, e = _stats_arrays(delta, eps)
    region, tau, low = _tau_arrays(d, e)
    feasible = region != "infeasible"
    rest = feasible & np.isnan(low)
    if rest.any():
        low[rest] = _tau_low_rows(d[rest], e[rest])
    shrink = np.full(d.shape, np.nan)
    shrink[feasible] = _shrink(d[feasible], e[feasible], f)
    conjectured = np.full(d.shape, np.nan)
    conjectured[feasible] = _conjectured_rate(d[feasible], e[feasible])
    return RateTable(
        delta=d,
        eps=e,
        region=region,
        tau=tau,
        tau_low=low,
        r_key=shrink - tau,
        r_upper=shrink - low,
        r_conjectured_random_assignment=conjectured,
    )


def _key_rate_row(delta: float, eps: float, f: float) -> tuple[str, float | None, float | None]:
    """(region, R, conjectured rate) of one row, for a checked f; None where none is given.

    Fractions outside the observed-fraction domain, such as delta = 1 when
    every sifted event is a double click, and rows outside regions (a)-(c)
    are 'infeasible' with no rates.  Elsewhere R and the conjectured rate are
    the row's `rate_table` r_key and r_conjectured_random_assignment cells,
    computed without the tau_low maximiser that r_upper needs.
    """
    if not in_stats_domain(delta, eps):
        return "infeasible", None, None
    d, e = np.array([delta], float), np.array([eps], float)
    region, tau, _ = _tau_arrays(d, e)
    if region[0] == "infeasible":
        return "infeasible", None, None
    r_key = float((_shrink(d, e, f) - tau)[0])
    return str(region[0]), r_key, float(_conjectured_rate(d, e)[0])


def key_rate(stats: ObservedStats, f: float = 1.0) -> float:
    """Final key fraction R = (1-delta)(1 - f H(QBER)) - tau(delta, eps).

    ``f >= 1`` is the error-correction inefficiency; QBER = eps/(1-delta).
    The r_key cell of `rate_table`'s row, a negative one as it is; raises
    InfeasibleError outside regions (a)-(c), where none is certified.
    """
    _check_f(f)
    _, r_key, _ = _key_rate_row(stats.delta, stats.eps, f)
    if r_key is None:
        raise InfeasibleError(
            f"no certified key rate at (delta={float(stats.delta)!r}, eps={float(stats.eps)!r})"
        )
    return r_key
