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

The domain is checked once, where input enters: `_stats_arrays` for the array
calls, `ObservedStats` for the scalar ones, and `in_stats_domain` for the key
rates of a simulated run.  The row code below the entry points calls the
unchecked kernels `_entropy`, `_curve` and `_envelope`, whose arguments the
checked rows keep inside their domains; the public `binary_entropy`, `g` and
`multiphoton_envelope` keep their checks for outside callers, all in `_gate`.
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

# tau_numeric searches _NUMERIC_GRID_POINTS multiphoton fractions per row, from
# max(delta, 1e-9) to _NUMERIC_XI_TOP, then refines three times on _NUMERIC_REFINE_POINTS.
# One call allocates one workspace: six float buffers of _NUMERIC_BLOCK_ROWS grids, at most
# _NUMERIC_BLOCK_POINTS values each, which every grid pass over a block of rows and every
# refinement pass over a batch of rows reuses.  With O(rows) per-row state, memory stays a
# few MB whatever the number of rows.  Allocated afresh per block, buffers of about 128 KB
# were freed to the top of the heap, which glibc gives back to the OS once more than
# 128 KiB of it is free, so every block faulted its pages in again.
_NUMERIC_GRID_POINTS = 2000
_NUMERIC_REFINE_POINTS = 65
_NUMERIC_XI_TOP = 1.0 - 1e-9
_NUMERIC_BLOCK_POINTS = 1 << 14
_NUMERIC_BLOCK_ROWS = _NUMERIC_BLOCK_POINTS // (_NUMERIC_GRID_POINTS + 3)

_LN2 = math.log(2.0)

_DOMAIN_RULE = "need 0 <= delta < 1, 0 <= eps < 1 and delta + eps <= 1"


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


# On one row the cost is numpy's call overhead, so the row code tests a mask with
# np.count_nonzero, a third of the time of ndarray.any, and fills NaN arrays with
# _nans, half the time of np.full.
def _nans(shape) -> np.ndarray:
    out = np.empty(shape)
    out.fill(np.nan)
    return out


def _gate(kernel, x, hi: float, slack: float, what: str):
    """The one domain gate of the public formulas: ``kernel`` at x clipped to [0, hi].

    Raises ValueError naming the first value of x that is NaN or outside
    [-_DOMAIN_TOL, hi + slack]; a scalar x gives a float.
    """
    arr, scalar = _as_array(x)
    top = hi + slack
    # min and max propagate NaN, and a comparison with NaN is false
    if arr.size and not (arr.min() >= -_DOMAIN_TOL and arr.max() <= top):
        first = arr[~((arr >= -_DOMAIN_TOL) & (arr <= top))][0]
        raise ValueError(f"{what}: {float(first)!r}")
    out = kernel(np.clip(arr, 0.0, hi, out=np.empty_like(arr)))
    return float(out) if scalar else out


def binary_entropy(x):
    """Binary Shannon entropy H(x) in bits, with H(0) = H(1) = 0.

    Accepts scalars or arrays; raises on inputs outside [0, 1].
    """
    return _gate(_entropy, x, 1.0, _DOMAIN_TOL, "entropy argument outside [0, 1]")


def _entropy(x: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """H(x) for x in [0, 1], written into out; x is overwritten, tmp is scratch; None ones are made.

    Any x outside (0, 1), NaN too, reads as an edge and gives 0, as its clip to 0 or 1 would.
    """
    out, tmp = (np.empty_like(x) if a is None else a for a in (out, tmp))
    edge = ~((x > 0.0) & (x < 1.0))
    np.copyto(x, 0.5, where=edge)
    np.log2(x, out=out)
    out *= x
    np.subtract(1.0, x, out=x)
    np.log2(x, out=tmp)
    x *= tmp
    out += x
    np.negative(out, out=out)
    np.copyto(out, 0.0, where=edge)
    return out


def g(delta):
    """Trade-off curve (1-delta)/2 - sqrt(delta(1-2 delta)) on [0, 1/3].

    Bounds the multiphoton error fraction from below when one side receives an
    even photon number; decreases from 1/2 at delta=0 to 0 at delta=1/3.
    """
    return _gate(_curve, delta, 1.0 / 3.0, _DOMAIN_TOL, "trade-off curve argument outside [0, 1/3]")


def _curve(x: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """g(x) for x in [0, 1/3], into out; x is overwritten, tmp is scratch; None ones are made."""
    out, tmp = (np.empty_like(x) if a is None else a for a in (out, tmp))
    np.subtract(1.0, x, out=out)
    out *= 0.5
    np.multiply(2.0, x, out=tmp)
    np.subtract(1.0, tmp, out=tmp)
    x *= tmp
    np.sqrt(x, out=x)
    out -= x
    return out


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
    return _gate(_envelope, delta, 1.0, 1e-10, "envelope argument outside [0, 1]")


def _envelope(x: np.ndarray, out=None, tmp=None, tmp2=None) -> np.ndarray:
    """The envelope at x in [0, 1], written into out; x is overwritten, tmp, tmp2 are scratch."""
    out = np.empty_like(x) if out is None else out
    on_curve = x <= TANGENT_DELTA
    np.subtract(ODD_ODD_CORNER_DELTA, x, out=out)
    np.maximum(out, 0.0, out=out)
    np.minimum(x, TANGENT_DELTA, out=x)
    np.copyto(out, _curve(x, tmp, tmp2), where=on_curve)
    return out


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
    if np.count_nonzero(bad):
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


# Region labels, indexed by the codes `_region_codes` gives.
_REGION_NAMES = np.array(["a", "b", "c", "infeasible"])
_INFEASIBLE = 3


def _region_codes(d: np.ndarray, e: np.ndarray, ab: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Index of each row's region in _REGION_NAMES, given the border lines `_borders(d)`.

    Borders are checked in order a, b, c, so a wins ties.
    """
    c_edge = _curve(np.minimum(d, 1.0 / 3.0))
    under_c = (d <= TANGENT_DELTA + _DOMAIN_TOL) & (e <= c_edge + _DOMAIN_TOL)
    code = np.where(under_c, 2, _INFEASIBLE)
    np.copyto(code, 1, where=e <= np.minimum(bc, ODD_ODD_CORNER_DELTA - d) + _DOMAIN_TOL)
    np.copyto(code, 0, where=e <= ab + _DOMAIN_TOL)
    return code


def _regions(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Region label per row; borders are checked in order a, b, c, so a wins ties."""
    return _REGION_NAMES[_region_codes(d, e, *_borders(d))]


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
    return np.where(wide, 3.0 * d + x * _entropy(np.minimum(ratio, 1.0)), 3.0 * d)


def _tau_b(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    c1, c2, c3, denom = _plane_constants()
    return (c1 * d + c2 * e + c3) / denom


def _tau_arrays(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(region, closed-form tau, tau_low) per row; NaN tau where infeasible.

    tau_low is computed only where the closed forms use it: in region (c) and
    on the (b)/(c) boundary.  It is NaN in the other rows.
    """
    ab, bc = _borders(d)
    code = _region_codes(d, e, ab, bc)
    in_a, in_b, in_c = code == 0, code == 1, code == 2
    on_ab = (in_a | in_b) & (np.abs(e - ab) < _DOMAIN_TOL)
    on_bc = (in_b | in_c) & (d <= TANGENT_DELTA) & (np.abs(e - bc) < _DOMAIN_TOL)
    low = _nans(d.shape)
    rows = in_c | on_bc
    if np.count_nonzero(rows):
        low[rows] = _tau_low_rows(d[rows], e[rows])
    tau = _nans(d.shape)
    for rows, closed in ((in_a, _tau_a), (in_b, _tau_b)):
        if np.count_nonzero(rows):
            tau[rows] = closed(d[rows], e[rows])
    tau[in_c] = low[in_c]
    if np.count_nonzero(on_ab) or np.count_nonzero(on_bc):
        _check_region_continuity(d, e, in_a, in_b, tau, low, on_ab, on_bc)
    return _REGION_NAMES[code], tau, low


def _check_region_continuity(d, e, in_a, in_b, tau, low, on_ab, on_bc) -> None:
    """Raise if the neighboring closed form disagrees with a row on a region boundary."""
    # Both forms are equal on the border and tangent across it, so rows within _DOMAIN_TOL of it
    # differ by rounding only: at most 3.2e-12 over 2e5 rows per border, 300 times below 1e-9.
    other_ab = np.where(in_a, _tau_b(d, e), _tau_a(d, e))
    other_bc = np.where(in_b, low, _tau_b(d, e))
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
    The bracket narrows in place in lo, which the caller gives up.
    """
    top, hi = hi, hi.copy()
    x = 0.5 * (lo + hi)
    sqrt_d = np.sqrt(d)
    rows = np.arange(x.size)
    out = np.empty_like(x)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            slope, curve = _tau_low_slope(x, d, sqrt_d, e)
            rising = slope > 0.0  # NaN (eps_1 rounded to <= 0) lies past the root
            np.copyto(lo, x, where=rising)
            np.copyto(hi, x, where=~rising)
            gap = top - x
            step = top - gap * np.exp(slope / (curve * gap))
            done = (np.abs(step - x) <= _XI_TOL) & np.isfinite(curve)
            x = step
            newton = done | ((step > lo) & (step < hi))
            if np.count_nonzero(newton) < x.size:
                middle = top - np.sqrt((top - lo) * np.maximum(top - hi, _GAP_FLOOR))
                np.copyto(x, middle, where=~newton)
            if np.count_nonzero(done):
                out[rows[done]] = x[done]
                keep = ~done
                if not np.count_nonzero(keep):
                    break
                rows, x, lo, hi, top, d, sqrt_d, e = (
                    a[keep] for a in (rows, x, lo, hi, top, d, sqrt_d, e)
                )
        else:
            out[rows] = x
    return out


def _tau_low_xi_hi(d, e) -> np.ndarray:
    """Largest xi with xi g(delta/xi) <= eps, capped at 1.

    It solves (s - sqrt(delta))^2 / 2 = eps for s = sqrt(xi - 2 delta).
    """
    return np.minimum(2.0 * d + (np.sqrt(d) + np.sqrt(2.0 * e)) ** 2, 1.0)


def _tau_low_objective(x, d, e) -> np.ndarray:
    """xi - delta + (1 - xi) H(eps_1(xi)) for x in [3 delta, xi_hi], xi_hi < 1.

    An eps_1 rounded outside [0, 1] counts as the edge it passes, as in `_entropy`.
    """
    gap = np.sqrt(np.maximum(x - 2.0 * d, 0.0)) - np.sqrt(d)
    eps1 = (e - 0.5 * gap * gap) / (1.0 - x)
    return x - d + (1.0 - x) * _entropy(eps1)


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
    tau = _nans(d.shape)
    admissible = 3.0 * d <= 1.0 + 1e-15
    full = admissible & (e >= _curve(np.minimum(d, 1.0 / 3.0)) - 1e-12)
    tau[full] = 1.0 - d[full]
    part = admissible & ~full
    d, e = d[part], e[part]
    lo = 3.0 * d
    hi = _tau_low_xi_hi(d, e)
    best = np.maximum(_tau_low_objective(lo, d, e), hi - d)
    flat = d == 0.0
    if np.count_nonzero(flat):
        best[flat] = np.maximum(best[flat], _entropy(e[flat]))
    rows = (d > 0.0) & (e > 0.0) & (hi > lo)
    if np.count_nonzero(rows):
        d, e = d[rows], e[rows]
        x = _tau_low_argmax(lo[rows], hi[rows], d, e)
        best[rows] = np.maximum(best[rows], _tau_low_objective(x, d, e))
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


def _tau_numeric_profile(xis, d, e, scratch) -> np.ndarray:
    """Best objective at each multiphoton fraction; rows of xis pair with d, e.

    Every grid point is > 0 and >= delta of its row: `_grid_into` starts a row
    at max(delta, 1e-9) and keeps specials only above delta, and each
    refinement grid starts at or above that start.  So delta / xi lies in
    [0, 1] without a mask or a clip.  Evaluates into ``scratch``, five float
    arrays and one bool array of xis's shape, and returns one of them.
    """
    dm, lo, hi, one_minus, slack, ok = scratch
    # dm = delta / xi, and lo = 1 - dm before the envelope overwrites dm
    np.divide(d, xis, out=dm)
    np.subtract(1.0, dm, out=lo)
    # hi = (e - xi env(dm)) / (1 - xi)
    env = _envelope(dm, hi, one_minus, slack)
    env *= xis
    np.subtract(e, env, out=hi)
    np.subtract(1.0, xis, out=one_minus)
    hi /= one_minus
    # lo = max(0, (e - xi (1 - dm)) / (1 - xi))
    lo *= xis
    np.subtract(e, lo, out=lo)
    lo /= one_minus
    np.maximum(0.0, lo, out=lo)
    eps1 = np.minimum(hi, 0.5, out=hi)
    # hi and lo round e and terms of size up to xis before dividing by
    # 1 - xis, so the slack scales with them; a fixed slack would admit
    # splits far below the envelope at tiny delta, such as xi = 6 delta at eps = 0.
    # slack = 1e-15 (e + xi) / (1 - xi); ok = eps1 >= lo - slack
    np.add(e, xis, out=slack)
    slack *= 1e-15
    slack /= one_minus
    lo -= slack
    np.greater_equal(eps1, lo, out=ok)
    refused = np.logical_not(ok, out=ok)
    # xi - delta + (1 - xi) H(eps1) where ok, -inf elsewhere; _entropy reads an
    # eps1 rounded below 0 as the edge 0
    out = _entropy(eps1, lo, slack)
    out *= one_minus
    out += np.subtract(xis, d, out=dm)
    np.copyto(out, -np.inf, where=refused)
    return out


def _linspace_into(out: np.ndarray, lo, hi) -> None:
    """np.linspace(lo, hi, out.shape[1], axis=1), written into out, for rows with lo < hi.

    The same arithmetic: row i holds k * step_i + lo_i, step_i = (hi - lo_i)/(n - 1),
    and ends at hi.  np.linspace takes another path only where a step is 0,
    which lo >= 1e-9 rules out here.
    """
    step = np.subtract(hi, lo) / (out.shape[1] - 1)
    np.multiply(np.arange(out.shape[1], dtype=float), step[:, None], out=out)
    out += lo[:, None]
    out[:, -1] = hi


def _grid_into(xis: np.ndarray, lo: np.ndarray, d: np.ndarray) -> None:
    """Each row's first-pass grid, written into xis.

    The _NUMERIC_GRID_POINTS points from lo to _NUMERIC_XI_TOP and 3, 4 and 6
    delta, sorted, each value once, and padded at the end with _NUMERIC_XI_TOP,
    the last point.  The padding reproduces np.unique per row for the search:
    argmax takes the first of equal values, and a padded right neighbor equals
    the point itself, as the clamped neighbor index of a shorter row does.
    """
    specials = xis[:, _NUMERIC_GRID_POINTS:]
    _linspace_into(xis[:, :_NUMERIC_GRID_POINTS], lo, _NUMERIC_XI_TOP)
    np.multiply(d[:, None], (3.0, 4.0, 6.0), out=specials)
    # Specials outside (delta, xi_top) become copies of the grid's last point.
    # Those below the grid start stay: for 0 < delta < 1e-9 at eps = 0 only
    # xi <= 4 delta is admissible.
    specials[~((specials > d[:, None]) & (specials < _NUMERIC_XI_TOP))] = _NUMERIC_XI_TOP
    # A row is one sorted run and three specials, which a stable sort merges in
    # about a third of the time of the default one; both give the same values.
    xis.sort(axis=1, kind="stable")
    # A repeat of the last point is already the padding.  A special equal to an
    # earlier grid point becomes padding too, and only its row is sorted again.
    repeats = (xis[:, 1:] == xis[:, :-1]) & (xis[:, :-1] < _NUMERIC_XI_TOP)
    moved = repeats.any(axis=1)
    if moved.any():
        xis[:, 1:][repeats] = _NUMERIC_XI_TOP
        xis[moved] = np.sort(xis[moved], axis=1, kind="stable")


def _tau_numeric_pass(xis, scratch, rows, d, e, xi_min, best):
    """Search the grids xis of `rows`: raise their `best`, return each row's next (lo, hi).

    A row with no admissible point peaks at -inf, which leaves its `best` as it is.
    """
    values = _tau_numeric_profile(xis, d[rows, None], e[rows, None], scratch)
    # flat indices into the C-contiguous xis and values: a row's first point, its peak
    first = np.arange(0, xis.size, xis.shape[1])
    at = first + values.argmax(axis=1)
    best[rows] = np.maximum(best[rows], values.take(at))
    last = first + (xis.shape[1] - 1)
    step = xis.take(np.minimum(at + 1, last)) - xis.take(np.maximum(at - 1, first))
    peak = xis.take(at)
    lo = np.maximum(xi_min[rows], peak - step)
    hi = np.minimum(_NUMERIC_XI_TOP, peak + step)
    return lo, hi


def _tau_numeric_rows(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """tau_numeric for 1-D feasible rows; -inf where no split is admissible.

    The grid pass takes rows in blocks of _NUMERIC_BLOCK_ROWS; each of the three
    refinement passes takes the rows still narrowing in batches that fill the
    same workspace.  Rows never mix, so a row's result does not depend on its
    block or batch.
    """
    best = np.empty(d.shape)
    best.fill(-np.inf)
    zero = (d == 0.0) & (e <= 0.5 + 1e-15)
    if np.count_nonzero(zero):  # xi = 0: single photons only
        best[zero] = _entropy(np.minimum(e[zero], 0.5))
    multi = (e >= _envelope(d.copy()) - 1e-12) & (e <= 1.0 - d + 1e-12)
    best[multi] = np.maximum(best[multi], 1.0 - d[multi])  # xi = 1: multiphoton only
    xi_min = np.maximum(d, 1e-9)
    rows = (xi_min < _NUMERIC_XI_TOP).nonzero()[0]
    if not rows.size:
        return best
    width = _NUMERIC_GRID_POINTS + 3
    block = min(rows.size, _NUMERIC_BLOCK_ROWS)
    buffers = [*np.empty((6, block * width)), np.empty(block * width, dtype=bool)]

    def views(n_rows: int, n_points: int) -> list[np.ndarray]:
        size = n_rows * n_points
        return [a[:size].reshape(n_rows, n_points) for a in buffers]

    lo, hi = np.empty(rows.size), np.empty(rows.size)
    for start in range(0, rows.size, block):
        part = slice(start, start + block)
        block_rows = rows[part]
        xis, *scratch = views(block_rows.size, width)
        _grid_into(xis, xi_min[block_rows], d[block_rows])
        lo[part], hi[part] = _tau_numeric_pass(xis, scratch, block_rows, d, e, xi_min, best)
    batch = block * width // _NUMERIC_REFINE_POINTS
    for _ in range(3):
        going = hi > lo
        rows, lo, hi = rows[going], lo[going], hi[going]
        for start in range(0, rows.size, batch):
            part = slice(start, start + batch)
            xis, *scratch = views(rows[part].size, _NUMERIC_REFINE_POINTS)
            _linspace_into(xis, lo[part], hi[part])
            lo[part], hi[part] = _tau_numeric_pass(xis, scratch, rows[part], d, e, xi_min, best)
    return best


def tau_numeric_array(delta, eps) -> np.ndarray:
    """tau_numeric for every row of broadcast (delta, eps); NaN where not certified.

    Each row runs the one search `tau_numeric` describes, independent of the
    other rows.  The search allocates its workspace once per call, so its
    memory stays a few MB whatever the number of rows.
    """
    d, e = _stats_arrays(delta, eps)
    return _tau_numeric_table(d, e, _region_codes(d, e, *_borders(d)) != _INFEASIBLE)


def _tau_numeric_table(d: np.ndarray, e: np.ndarray, feasible: np.ndarray) -> np.ndarray:
    """tau_numeric per row of checked 1-D (d, e); NaN where not feasible or not certified."""
    out = _nans(d.shape)
    rows = feasible.nonzero()[0]
    out[rows] = _tau_numeric_rows(d[rows], e[rows])
    out[np.isneginf(out)] = np.nan
    return out


def tau_numeric(stats: ObservedStats) -> float:
    """Privacy-amplification fraction by direct search over admissible splits.

    Discretizes the multiphoton fraction xi on _NUMERIC_GRID_POINTS = 2000 points
    of [max(delta, 1e-9), 1 - 1e-9] plus 3, 4 and 6 delta; for each grid value
    the single-photon error rate is pushed to the largest admissible value not
    exceeding 1/2 (the entropy term is monotone below 1/2), with the
    multiphoton point constrained to the admissible region via its lower
    envelope.  Three passes of _NUMERIC_REFINE_POINTS = 65 points around the
    best grid cell sharpen the maximum well below the 1e-6 agreement target
    with the closed forms.
    This search shares nothing with the tau_low maximiser, so it
    cross-checks it.  One row of `tau_numeric_array`.
    """
    d, e = float(stats.delta), float(stats.eps)
    if not stats.feasible:
        # the mixture program itself extends further, but values out there are
        # not certified; refuse rather than extrapolate
        raise InfeasibleError(f"(delta={d!r}, eps={e!r}) lies outside the certified domain")
    value = _tau_numeric_rows(np.array([d]), np.array([e]))[0]
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
    return 1.0 - 2.0 * _entropy(np.minimum(e + 0.5 * d, 0.5))


def _shrink(d: np.ndarray, e: np.ndarray, f: float) -> np.ndarray:
    """(1 - delta)(1 - f H(QBER)) with QBER = eps/(1 - delta), per row of regions (a)-(c).

    Every such row has QBER <= 1/2 + _DOMAIN_TOL, so the clip at 1/2 only removes rounding.
    """
    qber = e / (1.0 - d)
    return (1.0 - d) * (1.0 - f * _entropy(np.minimum(qber, 0.5)))


def _key_cells(d, e, feasible, f) -> tuple[np.ndarray, np.ndarray]:
    """The shrink term and the conjectured rate per row; NaN in both where not feasible."""
    shrink, conjectured = _nans(d.shape), _nans(d.shape)
    if np.count_nonzero(feasible):
        d, e = d[feasible], e[feasible]
        shrink[feasible] = _shrink(d, e, f)
        conjectured[feasible] = _conjectured_rate(d, e)
    return shrink, conjectured


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
    if np.count_nonzero(rest):
        low[rest] = _tau_low_rows(d[rest], e[rest])
    shrink, conjectured = _key_cells(d, e, feasible, f)
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


def _key_rate_rows(delta, eps, f: float) -> list[tuple[str, float | None, float | None]]:
    """(region, R, conjectured rate) per row of 1-D (delta, eps), for a checked f.

    Fractions outside the observed-fraction domain, such as delta = 1 when
    every sifted event is a double click or NaN when none is sifted, and rows
    outside regions (a)-(c) are 'infeasible' with None for both rates.
    Elsewhere R and the conjectured rate are the row's `rate_table` r_key and
    r_conjectured_random_assignment cells, computed without the tau_low
    maximiser that r_upper needs.
    """
    d, e = np.array(delta, float), np.array(eps, float)
    inside = in_stats_domain(d, e)
    region, tau = np.full(d.shape, "infeasible"), _nans(d.shape)
    region[inside], tau[inside], _ = _tau_arrays(d[inside], e[inside])
    shrink, conjectured = _key_cells(d, e, region != "infeasible", f)
    return [
        (name, *(None if math.isnan(x) else x for x in cells))
        for name, *cells in zip(region.tolist(), (shrink - tau).tolist(), conjectured.tolist())
    ]


def key_rate(stats: ObservedStats, f: float = 1.0) -> float:
    """Final key fraction R = (1-delta)(1 - f H(QBER)) - tau(delta, eps).

    ``f >= 1`` is the error-correction inefficiency; QBER = eps/(1-delta).
    The r_key cell of `rate_table`'s row, a negative one as it is; raises
    InfeasibleError outside regions (a)-(c), where none is certified.
    """
    _check_f(f)
    [(_, r_key, _)] = _key_rate_rows([stats.delta], [stats.eps], f)
    if r_key is None:
        raise InfeasibleError(
            f"no certified key rate at (delta={float(stats.delta)!r}, eps={float(stats.eps)!r})"
        )
    return r_key
