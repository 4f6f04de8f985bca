"""The invariant suite: one check per release criterion, plus POVM completeness.

Each check runs at one of two sizes.  The quick size (the default) keeps the
whole suite interactive and is what `bbm92kit selftest` runs; the full size
(`full=True`) is what the acceptance tests run, each under its wall-clock
budget.  Both sizes test the same conditions with the same thresholds, except
the two sampling-density conditions noted in `check_tradeoff_boundary` and
`check_attack`, which only the full size's denser samples can meet.
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
    """Correct + error + double click = identity for every pair; both sizes are the same."""
    worst = 0.0
    for n_a in range(1, 8):
        for n_b in range(1, 8):
            if (n_a + 1) * (n_b + 1) > povm.DIM_CAP:
                continue
            pair = povm.PhotonPair(n_a, n_b)
            total = povm.f_cor(pair) + povm.f_err(pair) + povm.f_dbl(pair)
            worst = max(worst, float(np.max(np.abs(total - np.eye(pair.joint_dim)))))
    return CheckResult("POVM completeness", worst <= 1e-12, f"max |sum - I| {worst:.2e}")


def check_odd_odd_bound(full: bool = False) -> CheckResult:
    """Criterion 2: min double clicks (1 - 2^-(l_A+l_B))/2 >= 1/4; both sizes are the same."""
    worst = 0.0
    lowest = 1.0
    for n_a in range(1, 9, 2):
        for n_b in range(1, 9, 2):
            if n_a + n_b < 3 or n_a + n_b > 9:
                continue
            l_sum = (n_a - 1) // 2 + (n_b - 1) // 2
            want = 0.5 * (1.0 - 2.0 ** (-l_sum))
            got = povm.min_double_click(povm.PhotonPair(n_a, n_b))
            worst = max(worst, abs(got - want))
            lowest = min(lowest, got)
    ok = worst <= 1e-9 and lowest >= 0.25 - 1e-9
    return CheckResult(
        "odd-odd double-click bound", ok, f"max deviation {worst:.2e}, min {lowest:.6f}"
    )


def check_tradeoff_boundary(full: bool = False) -> CheckResult:
    """Criterion 3: the (1,2) boundary is g, and the even pairs (2,2), (1,4) stay above it.

    Only the full size requires the (1,2) points' interpolation onto 200
    points of [0, 1/3] to be within 1e-5 of g: at the quick size's 400 points
    the interpolation error alone is 3.4e-5, while every point lies on g to 1e-13.
    """
    ok = abs(float(rates.g(0.0)) - 0.5) <= 1e-15 and abs(float(rates.g(1.0 / 3.0))) <= 1e-15
    points = povm.trace_boundary(povm.PhotonPair(1, 2), num_points=2000 if full else 400)
    deltas = np.array([p.delta_m for p in points])
    epss = np.array([p.eps_m for p in points])
    on_curve = deltas <= 1.0 / 3.0 + 1e-12
    dev = float(
        np.max(np.abs(epss[on_curve] - rates.g(np.clip(deltas[on_curve], 0, 1.0 / 3.0))))
    )
    ok &= dev <= 1e-6 and float(deltas.min()) <= 1e-9
    ok &= abs(float(epss[np.argmin(deltas)]) - 0.5) <= 1e-6
    order = np.lexsort((epss, deltas))
    xs, ys = deltas[order], epss[order]
    curve = xs <= 1.0 / 3.0 + 1e-9
    grid = np.linspace(0.0, 1.0 / 3.0, 200)
    interp_dev = float(np.max(np.abs(np.interp(grid, xs[curve], ys[curve]) - rates.g(grid))))
    ok &= interp_dev <= 1e-5 or not full
    margin = 0.0
    for pair in (povm.PhotonPair(2, 2), povm.PhotonPair(1, 4)):
        for p in povm.trace_boundary(pair, num_points=400):
            if p.delta_m <= 1.0 / 3.0 + 1e-12:
                margin = min(margin, p.eps_m - float(rates.g(min(p.delta_m, 1.0 / 3.0))))
    ok &= margin >= -1e-8
    return CheckResult(
        "trade-off boundary",
        bool(ok),
        f"(1,2) max |eps - g| {dev:.2e}, interpolated {interp_dev:.2e}, "
        f"even-pair margin {margin:.2e}",
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
        delta, eps = povm.random_state_fractions(pair, count, rng)
        env = rates.multiphoton_envelope(np.clip(delta, 0.0, 1.0))
        violations += int(np.sum(eps < env - 1e-8))
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

    Continuity compares tau 1e-12 either side of the (a)/(b) and (b)/(c) borders.
    """
    size, resolution = (100, 2000) if full else (20, 1000)
    d, e = _feasible_grid(size)
    e1 = rates.eps1_star()
    d_ab = np.linspace(0.0, 0.2499, 120)
    edge_ab = e1 * (1.0 - 4.0 * d_ab)
    d_bc = np.linspace(0.0, 1.0 / 6.0 - 1e-9, 120)
    edge_bc = (1.0 - 6.0 * d_bc) * e1 + 0.5 * d_bc
    limit_bc = rates.multiphoton_envelope(d_bc)
    edge_d = np.concatenate([d_ab, d_bc])
    below = np.concatenate([np.maximum(edge_ab - 1e-12, 0.0), edge_bc - 1e-12])
    above = np.concatenate([edge_ab + 1e-12, np.minimum(edge_bc + 1e-12, limit_bc)])
    table = rates.rate_table(
        np.concatenate([d, edge_d, edge_d]), np.concatenate([e, below, above])
    )
    tau, low = table.tau[: d.size], table.tau_low[: d.size]
    feasible = table.feasible[: d.size]
    numeric = rates.tau_numeric_array(d[feasible], e[feasible], resolution)
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
    deltas, epss = sweep.delta_m, sweep.eps_m
    on_curve = deltas <= 1.0 / 3.0 + 1e-12
    gaps = epss[on_curve] - rates.g(np.minimum(deltas[on_curve], 1.0 / 3.0))
    curve_dev = float(np.min(gaps, initial=0.0))
    covered = np.sort(deltas[on_curve][np.abs(gaps) <= 1e-9])
    widest = float(np.max(np.diff(covered), initial=0.0))
    coverage_ok = (
        covered.size > 0
        and covered[0] <= 1e-12
        and covered[-1] >= 1.0 / 3.0 - 1e-12
        and (widest <= 2e-3 or not full)
    )
    ok = defect <= 1e-10 and acc_dev <= 1e-12 and curve_dev >= -1e-9 and bool(coverage_ok)
    return CheckResult(
        "explicit attack",
        ok,
        f"V defect {defect:.2e}, accuracy dev {acc_dev:.2e}, below-curve {curve_dev:.2e}, "
        f"{covered.size} on-curve points, max gap {widest:.2e}",
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


def check_simulation(full: bool = False) -> CheckResult:
    """Criterion 8: seeded runs of the ideal, Werner and attack-mixture sources.

    Estimates lie within 5 standard errors of the analytic fractions, and a
    rerun repeats each tally.
    """
    sizes = (10**6, 10**6, 10**6) if full else (20_000, 100_000, 100_000)
    seeds = (101, 102, 103) if full else (7, 8, 9)
    visibility, chi, xi = 0.9, attack.boundary_state(1.0, 0.0), 0.5
    sources = (
        sim.SourceModel.ideal_pair(),
        sim.SourceModel.werner(visibility),
        sim.SourceModel.eve_attack(chi, xi),
    )
    runs = list(zip(sources, sizes, seeds))
    ideal, werner, mix = tallies = [sim.run_protocol(s, n, seed=seed) for s, n, seed in runs]
    ok = ideal.n_dbl == 0 and ideal.n_err == 0 and ideal.n_cor == ideal.n
    z_w = abs(werner.eps_hat - (1.0 - visibility) / 2.0) / max(werner.eps_se, 1e-12)
    ok &= z_w <= 5.0 and werner.n_dbl == 0
    point = attack.run_attack(chi)
    z_d = abs(mix.delta_hat - xi * point.delta_m) / max(mix.delta_se, 1e-12)
    z_e = abs(mix.eps_hat - xi * point.eps_m) / max(mix.eps_se, 1e-12)
    ok &= z_d <= 5.0 and z_e <= 5.0
    repeated = [sim.run_protocol(s, n, seed=seed) for s, n, seed in runs] == tallies
    return CheckResult(
        "seeded simulation",
        bool(ok and repeated),
        f"ideal errors {ideal.n_err}, double clicks {ideal.n_dbl}, werner z={z_w:.2f}, "
        f"mixture z=({z_d:.2f}, {z_e:.2f}), reruns {'equal' if repeated else 'DIFFER'}",
    )


def run_all() -> list[CheckResult]:
    """Every check at the quick size, in `bbm92kit selftest` order."""
    checks = (
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
    return [fn() for fn in checks]
