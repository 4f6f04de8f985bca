"""The invariant suite: one check per release criterion, plus POVM completeness.

Each check runs at one of two sizes.  The quick size (the default) keeps the
whole suite interactive and is what `bbm92kit selftest` runs; the full size
(`full=True`) is what the acceptance tests run, each under its wall-clock
budget.  Both sizes test the same conditions with the same thresholds, except
the sampling-density condition noted in `check_attack`, which only the full
size's denser samples can meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import attack, povm, rates, sim
from .fock import Basis, Bit, ModePartition, basis_state, inner_product, multimode_inner_product


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


def _feasible_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """size x size (delta, eps) rows: delta in [0, 0.2499], eps from 0 to its feasible limit."""
    deltas = np.linspace(0.0, 0.2499, size)
    limits = rates.multiphoton_envelope(deltas)
    return np.repeat(deltas, size), np.outer(limits, np.linspace(0.0, 1.0, size)).ravel()


def _capped_pairs() -> list[tuple[int, int]]:
    """Every photon-number pair (n_A, n_B >= 1) whose joint dimension is within DIM_CAP."""
    sizes = product(range(1, povm.DIM_CAP), repeat=2)
    return [(a, b) for a, b in sizes if (a + 1) * (b + 1) <= povm.DIM_CAP]


def check_overlap_law(full: bool = False) -> CheckResult:
    """Criterion 1: <n_X, b | n_Z, b'> = (-1)^(b b' n) 2^(-n/2), one mode and several.

    Both sizes are the same.
    """
    worst = 0.0
    for n, b, b2 in product(range(1, 9), Bit, Bit):
        got = inner_product(basis_state(n, Basis.X, b), basis_state(n, Basis.Z, b2))
        worst = max(worst, abs(got - (-1.0) ** (b * b2 * n) * 2.0 ** (-n / 2.0)))
    for n in range(2, 7):
        for parts, b, b2 in product(_compositions(n), Bit, Bit):
            got = multimode_inner_product(ModePartition(parts), Basis.X, b, Basis.Z, b2)
            worst = max(worst, abs(got - (-1.0) ** (b * b2 * n) * 2.0 ** (-n / 2.0)))
    return CheckResult("overlap law", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_povm_completeness(full: bool = False) -> CheckResult:
    """Correct, error and double click are a POVM for every pair under the cap.

    f_dbl is I - f_cor - f_err, so the three sum to I whatever the
    projectors are.  What completeness rests on is checked instead: every
    operator's spectrum lies in [0, 1], within 1e-10, and on every side the
    two bit states of each basis are orthogonal, within 1e-12.  Both sizes
    are the same.
    """
    pairs = [povm.PhotonPair(a, b) for a, b in _capped_pairs()]
    low, high = np.inf, -np.inf
    for pair in pairs:
        w = np.linalg.eigvalsh(np.stack(povm.joint_operators(pair)))
        low, high = min(low, float(w.min())), max(high, float(w.max()))
    overlap = max(
        abs(inner_product(basis_state(n, w, Bit.ZERO), basis_state(n, w, Bit.ONE)))
        for n in {pair.n_a for pair in pairs}
        for w in Basis
    )
    ok = low >= -1e-10 and high <= 1.0 + 1e-10 and overlap <= 1e-12
    return CheckResult(
        "POVM completeness",
        ok,
        f"{len(pairs)} pairs, eigenvalues in [{low:.2e}, 1{high - 1.0:+.2e}], "
        f"max same-basis bit overlap {overlap:.2e}",
    )


def check_odd_odd_bound(full: bool = False) -> CheckResult:
    """Criterion 2: min double clicks (1 - 2^-(l_A+l_B))/2 >= 1/4, against the dense eigenvalue.

    `povm.min_double_click` returns the closed form.  Its oracle is 1 - w,
    w the largest eigenvalue `povm.eigh_checked` finds for the computed
    A^ = f_cor + f_err; the two must agree within (d + 49) u (d the joint
    dimension, u = 2^-53), and the lowest value must be at least 1/4.  The
    exact A has its spectrum in [0, 1] and top eigenvalue 1 minus the closed
    form, and w lies in [1/2, 1], so the subtraction is exact (Sterbenz).
    - Eigensolver: w is an exact eigenvalue of A^ + E with |E| <= d u |A^|,
      the backward error the tests take for `eigh`, so by Weyl it is within
      d u |A^| of A^'s own.
    - Forming A^: an X amplitude rounds three times (2^(-n/2), the square
      root of the binomial, their product; Z amplitudes are exact), a
      projector entry 7 times, a kron entry 15; `joint_operators` adds 3
      roundings and f_cor + f_err one more, so |A^ - A| <= gamma_19 |A|+
      entrywise (Higham, Accuracy and Stability of Numerical Algorithms,
      ch. 3), where |A|+ = (1/2) sum over the 8 terms of |kron(P, Q)|.  Z
      projectors are nonnegative and |P_X0| = |P_X1| has norm 1, so |A|+
      has norm at most (1 + 2 * 2) / 2 = 2.5, and |A^ - A| < 48u.
    Together, with |A^| <= 1 + 48u: d u (1 + 48u) + 48u < (d + 49) u.  A^ is
    exactly symmetric, so `eigh_checked` leaves it unchanged.  Measured: at
    most 0.5 d u.  The quick size takes the odd-odd multiphoton pairs with
    n_A + n_B <= 9, the full size every one under the dimension cap.
    """
    odd = [(a, b) for a, b in _capped_pairs() if a % 2 == b % 2 == 1 and a + b >= 3]
    pairs = [povm.PhotonPair(a, b) for a, b in odd if full or a + b <= 9]
    u = 2.0**-53
    ok = True
    worst = 0.0
    lowest = 1.0
    for pair in pairs:
        _, err, cor = povm.joint_operators(pair)
        w, _ = povm.eigh_checked(cor + err)
        got = povm.min_double_click(pair)
        dev = abs(got - (1.0 - float(w[-1])))
        ok &= dev <= (pair.joint_dim + 49) * u
        worst = max(worst, dev)
        lowest = min(lowest, got)
    ok &= lowest >= 0.25
    return CheckResult(
        "odd-odd double-click bound", ok, f"max deviation {worst:.2e}, min {lowest:.6f}"
    )


def check_tradeoff_boundary(full: bool = False) -> CheckResult:
    """Criterion 3: the traced boundary is the dense operators' own, and for (1,2) it is g.

    For lambda = 0, each slope of a 400-point trace and lambda -> infinity,
    the lowest (eps + lambda delta)/(1 + lambda) over the traced rows must be
    the lowest eigenvalue of the dense (f_err + lambda f_dbl)/(1 + lambda),
    within 1e-12.  By Weyl's inequality the backward-stable `eigvalsh` errs
    by a modest multiple of d u <= 7.1e-15 (d <= 64), and the trace by 4u;
    the cut leaves a factor 140 for that multiple.  Measured: 1.1e-15 at the
    full size.  The pairs are (1,2), (2,2) and (1,4), and at the full size
    every pair with an even photon number under the dimension cap.

    The (1,2) boundary, traced at 2000 points, must lie on g within 1e-6,
    start at (0, 1/2), and interpolate onto 200 points of [0, 1/3] within
    1e-5 of g; (2,2) and (1,4) must stay above g.  The envelope's tangent
    point T must be where the line 1/4 - delta touches g: g(T) = 1/4 - T and
    g'(T) = -1, each to 1e-12, with
    g'(d) = -1/2 - (1 - 4d) / (2 sqrt(d (1 - 2d))) in closed form.
    """
    ok = abs(float(rates.g(0.0)) - 0.5) <= 1e-15 and abs(float(rates.g(1.0 / 3.0))) <= 1e-15
    t = rates.TANGENT_DELTA
    slope = -0.5 - (1.0 - 4.0 * t) / (2.0 * np.sqrt(t * (1.0 - 2.0 * t)))
    ok &= abs(float(rates.g(t)) - (0.25 - t)) <= 1e-12 and abs(slope + 1.0) <= 1e-12
    deltas, epss = povm.trace_boundary(povm.PhotonPair(1, 2), 2000).T
    gaps = epss - rates._g_on_domain(deltas)
    on_curve = ~np.isnan(gaps)
    dev = float(np.max(np.abs(gaps[on_curve])))
    ok &= dev <= 1e-6 and float(deltas.min()) <= 1e-9
    ok &= abs(float(epss[np.argmin(deltas)]) - 0.5) <= 1e-6
    xs, ys = deltas[on_curve], epss[on_curve]
    order = np.lexsort((ys, xs))
    grid = np.linspace(0.0, 1.0 / 3.0, 200)
    interp_dev = float(np.max(np.abs(np.interp(grid, xs[order], ys[order]) - rates.g(grid))))
    ok &= interp_dev <= 1e-5
    even = np.concatenate([povm.trace_boundary(povm.PhotonPair(*p), 400) for p in ((2, 2), (1, 4))])
    margin = float(np.fmin.reduce(even[:, 1] - rates._g_on_domain(even[:, 0]), initial=0.0))
    ok &= margin >= -1e-8
    sizes = _capped_pairs() if full else [(1, 2), (2, 2), (1, 4)]
    pairs = [povm.PhotonPair(a, b) for a, b in sizes if a * b % 2 == 0]
    lams = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 400)])
    support = 0.0
    for pair in pairs:
        (d, e), (fd, fe, _) = povm.trace_boundary(pair, 400).T, povm.joint_operators(pair)
        scaled = (fe + lams[:, None, None] * fd) / (1.0 + lams[:, None, None])
        lowest = np.linalg.eigvalsh(np.concatenate([scaled, fd[None]]))[:, 0]
        lines = np.append(np.min(e + lams[:, None] * d, axis=1) / (1.0 + lams), d.min())
        support = max(support, float(np.max(np.abs(lines - lowest))))
    ok &= support <= 1e-12
    return CheckResult(
        "trade-off boundary",
        bool(ok),
        f"(1,2) max |eps - g| {dev:.2e}, interpolated {interp_dev:.2e}, "
        f"even-pair margin {margin:.2e}, dense support gap {support:.2e} over {len(pairs)} pairs",
    )


def check_region_soundness(full: bool = False) -> CheckResult:
    """Criterion 9: random states of every pair up to dimension 36 lie in the region."""
    count, seed = (10**4, 202408) if full else (2000, 20240817)
    rng = np.random.default_rng(seed)
    pairs = [
        povm.PhotonPair(a, b)
        for a in range(1, 9)
        for b in range(1, 9)
        if a + b >= 3 and (a + 1) * (b + 1) <= 36
    ]
    violations = 0
    for pair in pairs:
        inside = povm.region_membership(*povm.random_state_fractions(pair, count, rng))
        violations += int(np.sum(~inside))
    return CheckResult(
        "trade-off region soundness",
        violations == 0,
        f"{violations}/{count * len(pairs)} outside across {len(pairs)} pairs",
    )


def check_eps1_star(full: bool = False) -> CheckResult:
    """Criterion 4: the tangency root, solved afresh; both sizes are the same."""
    rates.eps1_star.cache_clear()
    x = rates.eps1_star()
    residual = abs(16.0 * x * (1.0 - x) ** 3 - 1.0)
    ok = residual <= 1e-10 and abs(x - 0.080) <= 5e-4 and x < 0.1
    return CheckResult("tangency error rate", ok, f"x={x:.9f} residual {residual:.2e}")


def check_tau_consistency(full: bool = False) -> CheckResult:
    """Criterion 5: closed-form tau against the numeric search and tau_low, and region continuity.

    Both sizes run the one _NUMERIC_GRID_POINTS search of `rates.tau_numeric`.  Continuity
    compares tau either side of the (a)/(b) and (b)/(c) border lines of `rates._borders`, at
    10 * _DOMAIN_TOL = 1e-11: a row up to _DOMAIN_TOL above a border belongs to the lower
    region, so rows nearer than that take one closed form, and the rows must be 10 times
    further to straddle the border past the rounding of its line.  Tau's slope in eps is at
    most 3.5 at these rows, so across the 2e-11 gap it moves by 7.0e-11, 14 times under the
    1e-9 cut, which a closed form off by 1e-9 or more fails.
    """
    d, e = _feasible_grid(100 if full else 20)
    d_ab = np.linspace(0.0, 0.2499, 120)
    edge_ab = rates._borders(d_ab)[0]
    d_bc = np.linspace(0.0, 1.0 / 6.0 - 1e-9, 120)
    edge_bc = rates._borders(d_bc)[1]
    limit_bc = rates.multiphoton_envelope(d_bc)
    edge_d = np.concatenate([d_ab, d_bc])
    gap = 10 * rates._DOMAIN_TOL
    below = np.concatenate([np.maximum(edge_ab - gap, 0.0), edge_bc - gap])
    above = np.concatenate([edge_ab + gap, np.minimum(edge_bc + gap, limit_bc)])
    table = rates.rate_table(
        np.concatenate([d, edge_d, edge_d]), np.concatenate([e, below, above])
    )
    tau, low = table.tau[: d.size], table.tau_low[: d.size]
    feasible = table.feasible[: d.size]
    numeric = rates.tau_numeric_array(d[feasible], e[feasible])
    worst = float(np.max(np.abs(tau[feasible] - numeric), initial=0.0))
    dominance = float(np.min(tau[feasible] - low[feasible], initial=0.0))
    jumps = np.abs(np.diff(table.tau[d.size :].reshape(2, -1), axis=0))
    continuity = float(np.max(jumps, initial=0.0))
    ok = worst <= 1e-5 and dominance >= -1e-9 and continuity <= 1e-9
    return CheckResult(
        "tau closed form vs numeric",
        ok,
        f"{int(feasible.sum())} pts, max dev {worst:.2e}, continuity {continuity:.2e}, "
        f"min tau - tau_low {dominance:.2e}",
    )


def check_attack(full: bool = False) -> CheckResult:
    """Criterion 7: the bit-copying V, and its sweep saturates g with Eve's bit exact.

    Only the full size requires the on-curve points to leave no gap wider
    than 2e-3 in delta: the quick size's 500 angles leave gaps of 3.5e-3.
    """
    v = attack.build_v(1, 2)
    pairs = attack._generator_pairs(1, 2)
    defect = max(float(np.max(np.abs(v @ src - tgt))) for src, tgt in pairs)
    sweep = attack.boundary_sweep(4096 if full else 500)
    acc_dev = float(np.max(np.abs(sweep.eve_bit_accuracy - 1.0)))
    bound, on_curve = attack._curve_bounds(sweep.delta_m, sweep.eps_m)
    curve_dev = float(np.fmin.reduce(sweep.eps_m - bound, initial=0.0))
    coverage = attack._coverage(sweep.delta_m, on_curve)
    widest = coverage["max_gap"] or 0.0
    coverage_ok = (
        coverage["boundary_points"] > 0
        and coverage["delta_min"] <= 1e-12
        and coverage["delta_max"] >= 1.0 / 3.0 - 1e-12
        and (widest <= 2e-3 or not full)
    )
    ok = defect <= 1e-10 and acc_dev <= 1e-12 and curve_dev >= -1e-9 and coverage_ok
    return CheckResult(
        "explicit attack",
        ok,
        f"V defect {defect:.2e}, accuracy dev {acc_dev:.2e}, below-curve {curve_dev:.2e}, "
        f"{coverage['boundary_points']} on-curve points, max gap {widest:.2e}",
    )


def check_key_rate_anchors(full: bool = False) -> CheckResult:
    """Criterion 6: R(delta, 0) = 1 - 4 delta, and R stays below the attack's rate."""
    line_size, grid_size = (26, 40) if full else (11, 0)
    line = np.linspace(0.0, 0.25, line_size)
    d, e = _feasible_grid(grid_size)
    table = rates.rate_table(np.concatenate([line, d]), np.concatenate([np.zeros(line_size), e]))
    r_line = table.r_key[:line_size]
    want = 1.0 - 4.0 * line
    ok = r_line[0] == 1.0 and abs(r_line[-1]) <= 1e-14
    ok &= np.allclose(r_line, want, atol=1e-14) and np.max(np.abs(r_line - want)) <= 1e-12
    feasible = table.feasible
    margin = float(np.min(table.r_upper[feasible] - table.r_key[feasible]))
    ok &= margin >= -1e-9
    return CheckResult(
        "key-rate anchors", bool(ok), f"R(0,0)={r_line[0]}, min R_upper - R_key {margin:.2e}"
    )


_DRAWS = 1 << 53  # the draws v = w >> 11 of the kernel's words lie in [0, 2**53)
_LAW_BOUND = 2e-10  # |cut - Born|, derived in `check_simulation`


def _slot_law(slots, word_cut, rng) -> tuple[int, int]:
    """Draws of [0, 2**53) off the law of `sim._search` on one table, and spot draws off."""
    rows, width = word_cut.shape
    buckets = np.arange(1 << sim._GUIDE_BITS, dtype=np.uint64) << 53 - sim._GUIDE_BITS
    starts = [np.union1d(buckets, cuts[cuts < _DRAWS]) for cuts in word_cut]
    sizes = np.concatenate([np.diff(s, append=_DRAWS) for s in starts]).astype(np.int64)
    group = np.repeat(np.arange(rows), [len(s) for s in starts]) << sim._GUIDE_BITS
    starts = np.concatenate(starts)
    key = group | (starts >> 53 - sim._GUIDE_BITS).astype(np.intp)
    slot = sim._search(slots, word_cut, key, starts << 11)
    counts = np.zeros(rows * (width + 1), dtype=np.int64)
    np.add.at(counts, slot, sizes)
    edges = np.minimum(word_cut, _DRAWS).astype(np.int64)
    off = np.abs(counts - np.diff(edges, axis=1, prepend=0, append=_DRAWS).ravel()).sum() // 2
    inside = starts + rng.integers(0, sizes).astype(np.uint64)
    words = inside << 11 | rng.integers(0, 1 << 11, starts.size, dtype=np.uint64)
    return int(off), int(np.count_nonzero(sim._search(slots, word_cut, key, words) != slot))


def _kernel_law(sources, rng) -> tuple[int, int, float]:
    """Draws off the exact law of both draws, spot draws off their step, max |cut - Born|."""
    off = spot = dev = 0
    for source in sources:
        kernel = source._kernel
        for table in (kernel.slots, kernel.word_cut), (kernel.branch_slots, kernel.branch_word_cut):
            off, spot = np.add((off, spot), _slot_law(*table, rng))
        weights = np.cumsum([b.weight for b in source.branches])[None, :-1]
        pairs = [(weights, kernel.branch_word_cut)]
        for g, b in zip(range(0, len(kernel.word_cut), 4), source.branches):
            # tr(rho K) = sum(rho * K): both are exactly symmetric
            cells = np.sum(povm._outcome_krons(b.n_a, b.n_b) * b.rho, axis=(-2, -1))
            born = np.cumsum(cells, axis=1)[:, :-1] / cells.sum(axis=1, keepdims=True)
            pairs.append((born, kernel.word_cut[g : g + 4, : born.shape[1]]))
        dev = max(dev, *(float(np.max(np.abs(cut / 2.0**53 - c), initial=0)) for c, cut in pairs))
    return int(off), int(spot), dev


def check_simulation(full: bool = False) -> CheckResult:
    """Criterion 8: the kernel's exact outcome law, and seeded runs of three sources.

    Sampled: the ideal, Werner and attack-mixture runs lie within 5 standard
    errors of the analytic fractions, and a rerun repeats each tally.

    Exact (guide tables: Chen & Asau, AIIE Trans. 6(2), 1974).  Word w draws
    v = w >> 11.  For a row of slots and cut words W_s = ceil(c_s 2**53) (c_s
    the cumulative probabilities), `sim._search` reads v only through its bucket
    v >> 41 and the count of W_s <= v: a step function of v, stepping only at
    the 4096 bucket starts and the W_s below 2**53.  One search per step start
    counts every slot's draws, and slot s must take W_s - W_(s-1) (W_(-1) = 0,
    2**53 past the last cut), no other slot any.  That the search reads nothing
    else is the assumption: random words inside each step, low 11 bits random,
    must land on their step's slot.  Each W_s / 2**53 must also lie within
    2e-10 of the unfloored Born cumulative of rho / tr(rho), the sum of
    sum(rho * K_t) over cells t <= s (K_t of `povm._outcome_krons`), or for the
    branch draw of the cumulative weights, which the kernel neither floors nor
    normalises.  The bound, for k <= 9 cells, d <= 64 and rho PSD:
    - each cell, by the kernel's matmul and trace or by this sum alike, is within
      e = gamma_(d**2 + 15) |rho|_F |K|_F < 4112 * 8 u < 4e-12 of exact (Higham,
      ch. 3; 15 roundings per kron entry, as in criterion 2; |rho|_F <= 1 and
      |K|_F**2 = rank K <= d);
    - the floor phi = 1e-12 moves a cell by at most phi + e, so the kernel's
      normalised cumulative is within 2k (phi + e) of exact, the check's 2ke;
    - normalising, summing and the ceiling add under (3k + 1) u.
    In all 2k (phi + 2e) + (3k + 1) u < 18 * 9e-12 + 3e-15 < 2e-10; measured
    4.4e-16 on these sources.  The sources must have a split bucket in the outcome draw
    (werner(0.9)) and in the branch draw, from a weight off the 2**-12 grid
    (the mixture at 0.3), and a Born cell below 1e-3 (werner(0.999)): a wrong
    table, width or compare moves only draws in split buckets, and a wrong floor
    only cells that small, so the ideal pair catches none of them.  Both sizes
    check the law alike.
    """
    sizes = (10**6, 10**6, 10**6) if full else (20_000, 100_000, 100_000)
    seeds = (101, 102, 103) if full else (7, 8, 9)
    visibility, chi, xi = 0.9, attack.boundary_state(1.0, 0.0), 0.5
    sources = (
        sim.SourceModel.ideal_pair(),
        sim.SourceModel.werner(visibility),
        sim.SourceModel.eve_attack(chi, xi),
    )
    extra = sim.SourceModel.werner(0.999), sim.SourceModel.eve_attack(chi, 0.3)
    off, spot, dev = _kernel_law((*sources, *extra), np.random.default_rng(20240808))
    runs = list(zip(sources, sizes, seeds))
    ideal, werner, mix = tallies = [sim.run_protocol(s, n, seed=seed) for s, n, seed in runs]
    ok = ideal.n_dbl == 0 and ideal.n_err == 0 and ideal.n_cor == ideal.n
    z_w = abs(werner.eps_hat - (1.0 - visibility) / 2.0) / max(werner.eps_se, 1e-12)
    ok &= z_w <= 5.0 and werner.n_dbl == 0
    point = attack.run_attack(chi)
    z_d = abs(mix.delta_hat - xi * point.delta_m) / max(mix.delta_se, 1e-12)
    z_e = abs(mix.eps_hat - xi * point.eps_m) / max(mix.eps_se, 1e-12)
    ok &= z_d <= 5.0 and z_e <= 5.0
    ok &= off == spot == 0 and dev <= _LAW_BOUND
    repeated = [sim.run_protocol(s, n, seed=seed) for s, n, seed in runs] == tallies
    return CheckResult(
        "seeded simulation",
        bool(ok and repeated),
        f"law: {off:.3g} draws and {spot} spot draws off, max |cut - Born| {dev:.2e}; "
        f"ideal errors {ideal.n_err}, double clicks {ideal.n_dbl}, werner z={z_w:.2f}, "
        f"mixture z=({z_d:.2f}, {z_e:.2f}), reruns {'equal' if repeated else 'DIFFER'}",
    )


# every check, in `bbm92kit selftest` order
CHECKS = (
    check_overlap_law,
    check_povm_completeness,
    check_odd_odd_bound,
    check_tradeoff_boundary,
    check_region_soundness,
    check_eps1_star,
    check_tau_consistency,
    check_attack,
    check_key_rate_anchors,
    check_simulation,
)


def _run(check) -> CheckResult:
    """The check's result at the quick size, or a failure that names what it raised."""
    try:
        return check()
    except Exception as exc:  # a check that cannot finish has not passed
        return CheckResult(check.__name__, False, f"raised {type(exc).__name__}: {exc}")


def run_all() -> list[CheckResult]:
    """Every check of CHECKS at the quick size, in order; a check that raises fails."""
    return [_run(fn) for fn in CHECKS]
