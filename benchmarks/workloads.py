"""Workload definitions and the correctness gate of the bbm92kit benchmark.

A workload is a list of operations that forms one round; the benchmark
repeats identical rounds for the measured time.  An operation is one
``bbm92kit.cli.main(argv)`` call, or one library call where the CLI has no
route (a custom Monte Carlo source).  Every operation carries a check that
compares its output with the reference data stored beside this file and
with the program's own invariants; an operation fails when it raises, exits
non-zero, or fails its check.

Inputs come from the workload seed: it picks the rates query points from a
stored pool, the reference seed of the Monte Carlo and membership runs, the
held-out Monte Carlo query seeds, and the attack query angles.  The grids,
sources, photon-number pairs and sizes are fixed, so every seed does the same
amount of work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Reference tallies exist for seeds 0..REF_SEEDS-1; the workload seed picks one.
REF_SEEDS = 8

# Base of the Monte Carlo query seeds, far from the reference seeds.
HELD_OUT_SEED_BASE = 1_000_000

RATES_DELTA = (0.0, 0.25)
RATES_EPS = (0.0, 0.12)
MC_SOURCES = ("ideal", "werner:0.9", "attack:1,0,0.5")
BOUNDARY_PAIRS = ((1, 2), (1, 4), (2, 2), (3, 4), (5, 6))
MEMBERSHIP_PAIRS = ((1, 2), (2, 2), (3, 4))
ODD_ODD_PAIR = (3, 5)

SIZES = {
    "full": {
        "grid": 13,
        "queries_per_region": 8,
        "events": 2_200_000,
        "query_events": 20_000,
        "mc_queries": 30,
        "points": 400,
        "boundary_samples": 50,
        "membership_samples": 2000,
        "sweep": 1000,
        "attack_queries": 40,
        "setup_repeats": 5,
    },
    "tiny": {
        "grid": 3,
        "queries_per_region": 1,
        "events": 20_000,
        "query_events": 2000,
        "mc_queries": 3,
        "points": 10,
        "boundary_samples": 5,
        "membership_samples": 20,
        "sweep": 20,
        "attack_queries": 3,
        "setup_repeats": 1,
    },
}

# End-to-end throughput metrics of each workload: name -> (phase, unit).
PHASE_METRICS = {
    "rates": {
        "tau_rows_per_s": ("tau_grid", "rows/s"),
        "keyrate_rows_per_s": ("keyrate_grid", "rows/s"),
    },
    "monte_carlo": {
        "events_per_s": ("simulate", "events/s"),
        "multibranch_events_per_s": ("multibranch", "events/s"),
    },
    "operators": {
        "boundary_points_per_s": ("boundary", "points/s"),
        "sweep_points_per_s": ("sweep", "points/s"),
        "membership_samples_per_s": ("membership", "samples/s"),
    },
}

# The operation whose cold cost, with the import, is the workload's set-up.
FIRST_CALL = {
    "rates": ["keyrate", "--delta", "0.05", "--eps", "0.02"],
    "monte_carlo": ["simulate", "--source", "werner:0.9", "--events", "1000", "--seed", "1"],
    "operators": ["attack", "--alpha", "1", "--beta", "0"],
}

WORKLOADS = tuple(PHASE_METRICS)


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """One operation of a round."""

    phase: str
    check: Callable[[object], list[str]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    items: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv) if self.argv else self.phase


@dataclass
class Round:
    """The operations of one round plus the counts its outputs yield."""

    ops: list[Op]
    region_rows: dict[str, int] = field(default_factory=dict)


class Reference:
    """Reference outputs generated by ``make_reference.py`` at a known commit."""

    def __init__(self, data: dict) -> None:
        self.data = data
        self._rows: dict[str, list[dict]] = {}

    @classmethod
    def load(cls) -> "Reference":
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def entry(self, key: str) -> dict | None:
        return self.data["cli"].get(key)

    def rows(self, key: str) -> list[dict] | None:
        if key not in self._rows:
            entry = self.entry(key)
            if entry is None or "text" not in entry:
                return None
            self._rows[key] = parse_csv(entry["text"])
        return self._rows[key]

    def boundary(self, key: str) -> list[list[float]] | None:
        """Reference (delta_m, eps_m) points of a tradeoff call's boundary."""
        return self.data["boundaries"].get(boundary_key(key.split()))

    def byte_identical(self, key: str, out: str) -> bool | None:
        """Whether the output matches the stored digest; None when none is stored."""
        entry = self.entry(key)
        if entry is None:
            return None
        return digest(out) == entry["sha256"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str | None) -> float:
    return float("nan") if cell in ("", None) else float(cell)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


# Independent forms of the bounds the outputs must respect.


def g_curve(d: float) -> float:
    """Trade-off curve (1-d)/2 - sqrt(d(1-2d)) on [0, 1/3]."""
    d = min(max(d, 0.0), 1.0 / 3.0)
    return 0.5 * (1.0 - d) - math.sqrt(max(d * (1.0 - 2.0 * d), 0.0))


def envelope(d: float) -> float:
    """Lower envelope of the multiphoton region: g, then 1/4 - d, then 0."""
    if d <= 1.0 / 6.0:
        return g_curve(d)
    return max(0.25 - d, 0.0)


def _two_photon_basis() -> dict[tuple[str, int], np.ndarray]:
    s = math.sqrt(0.5)
    return {
        ("Z", 0): np.array([0.0, 0.0, 1.0]),
        ("Z", 1): np.array([1.0, 0.0, 0.0]),
        ("X", 0): np.array([0.5, s, 0.5]),
        ("X", 1): np.array([0.5, -s, 0.5]),
    }


def attack_fractions(alpha: float, beta: float) -> tuple[float, float]:
    """(delta_m, eps_m) of the two-photon boundary state for (alpha, beta)."""
    basis = _two_photon_basis()
    chi = sum(alpha * basis[(w, 0)] + beta * basis[(w, 1)] for w in ("Z", "X"))
    chi = chi / np.linalg.norm(chi)
    eps = 0.5 * sum(float(chi @ basis[(w, 1)]) ** 2 for w in ("Z", "X"))
    cor = 0.5 * sum(float(chi @ basis[(w, 0)]) ** 2 for w in ("Z", "X"))
    return max(1.0 - eps - cor, 0.0), eps


# Checks.  Each returns a list of failure messages, empty when the output passes.


def _cli_rows(result: CliResult, errors: list[str]) -> list[dict] | None:
    if result.code != 0:
        errors.append(f"exit code {result.code}: {result.err.strip()[:200]}")
        return None
    return parse_csv(result.out)


def _cli_json(result: CliResult, errors: list[str]) -> dict | None:
    if result.code != 0:
        errors.append(f"exit code {result.code}: {result.err.strip()[:200]}")
        return None
    return json.loads(result.out)


def _match_reference(rows, ref_rows, columns, errors: list[str]) -> None:
    if ref_rows is None:
        errors.append("no reference output")
        return
    if len(rows) != len(ref_rows):
        errors.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col in ("delta", "eps", "region", "has_key"):
            if col in ref and row.get(col) != ref[col]:
                errors.append(f"row {i}: {col} {row.get(col)!r} != reference {ref[col]!r}")
        for col in columns:
            if not _close(_num(row.get(col)), _num(ref[col]), 1e-9):
                errors.append(f"row {i}: {col} {row.get(col)} != reference {ref[col]}")


def check_tau(ref: Reference, key: str) -> Callable[[CliResult], list[str]]:
    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        rows = _cli_rows(result, errors)
        if rows is None:
            return errors
        _match_reference(rows, ref.rows(key), ("tau_closed",), errors)
        for i, row in enumerate(rows):
            if row["region"] == "infeasible":
                continue
            closed, numeric, low = (_num(row[c]) for c in ("tau_closed", "tau_numeric", "tau_low"))
            if not abs(closed - numeric) <= 1e-5:
                errors.append(f"row {i}: |tau_closed - tau_numeric| = {abs(closed - numeric):.3g}")
            if not low <= closed + 1e-9:
                errors.append(f"row {i}: tau_low {low} exceeds tau_closed {closed}")
        return errors

    return check


def check_keyrate(ref: Reference, key: str) -> Callable[[CliResult], list[str]]:
    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        rows = _cli_rows(result, errors)
        if rows is not None:
            _match_reference(rows, ref.rows(key), ("tau", "r_key", "r_upper"), errors)
        return errors

    return check


def _check_fractions(tally, delta_hat, eps_hat, analytic, errors: list[str]) -> None:
    """Sampled fractions within 5 standard errors of the reference analytic ones."""
    n = tally[0]
    for name, hat, p in (("delta", delta_hat, analytic[0]), ("eps", eps_hat, analytic[1])):
        se = math.sqrt(p * (1.0 - p) / n) if n else 0.0
        if not abs(hat - p) <= 5.0 * se:
            errors.append(f"{name}_hat {hat} is {abs(hat - p):.3g} from {p}, 5 SE = {5 * se:.3g}")


def check_simulate(ref: Reference, key: str, spec: str, exact: bool):
    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        rows = _cli_rows(result, errors)
        if rows is None:
            return errors
        row = rows[0]
        analytic = ref.data["analytic"][spec]
        for name, value in zip(("delta", "eps"), analytic):
            if not _close(_num(row[f"{name}_analytic"]), value, 1e-12):
                errors.append(f"{name}_analytic {row[f'{name}_analytic']} != reference {value}")
        tally = [int(row[c]) for c in ("n_sifted_basis", "n_dbl", "n_err", "n_cor")]
        _check_fractions(tally, _num(row["delta_hat"]), _num(row["eps_hat"]), analytic, errors)
        if exact:
            ref_rows = ref.rows(key)
            if ref_rows is None:
                errors.append("no reference output")
            else:
                expected = [int(ref_rows[0][c]) for c in ("n_sifted_basis", "n_dbl", "n_err", "n_cor")]
                if tally != expected:
                    errors.append(f"tally {tally} != reference {expected}")
        return errors

    return check


def check_multibranch(ref: Reference, events: int, seed: int):
    def check(report) -> list[str]:
        errors: list[str] = []
        analytic = ref.data["analytic"]["multibranch"]
        for name, value in zip(("delta", "eps"), analytic):
            got = getattr(report, f"analytic_{name}")
            if not _close(got, value, 1e-12):
                errors.append(f"{name}_analytic {got} != reference {value}")
        t = report.tally
        tally = [t.n, t.n_dbl, t.n_err, t.n_cor]
        _check_fractions(tally, report.delta_hat, report.eps_hat, analytic, errors)
        expected = ref.data["multibranch"].get(f"{events}:{seed}")
        if expected is None:
            errors.append("no reference tally")
        elif tally != expected:
            errors.append(f"tally {tally} != reference {expected}")
        return errors

    return check


def _check_operator_rows(rows, errors: list[str]) -> None:
    for i, row in enumerate(rows):
        if not row["eps_m"] >= envelope(row["delta_m"]) - 1e-9:
            errors.append(f"row {i}: point ({row['delta_m']}, {row['eps_m']}) below the envelope")


def check_tradeoff(ref: Reference, key: str, samples: int):
    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        payload = _cli_json(result, errors)
        if payload is None:
            return errors
        rows, summary = payload["rows"], payload["meta"]["summary"]
        _check_operator_rows(rows, errors)
        points = ref.boundary(key)
        if points is None:
            errors.append("no reference boundary")
        elif len(rows) != len(points):
            errors.append(f"{len(rows)} boundary points, reference has {len(points)}")
        else:
            # Boundary points are Rayleigh quotients, so an eigensolver change
            # moves them at second order in its eigenvector error.
            for i, (row, (d, e)) in enumerate(zip(rows, points)):
                if not (_close(row["delta_m"], d, 1e-9) and _close(row["eps_m"], e, 1e-9)):
                    errors.append(f"point {i}: ({row['delta_m']}, {row['eps_m']}) != reference ({d}, {e})")
        expected = ref.entry(key)
        if expected is None:
            errors.append("no reference output")
        # Where the reference boundary hugs g (pairs (1,2) and (2,2)) this
        # is the tightness check max |eps_m - g(delta_m)| <= 1e-6.
        elif not abs(summary["max_abs_eps_minus_bound"] - expected["max_dev"]) <= 1e-6:
            errors.append(
                f"max |eps_m - g| {summary['max_abs_eps_minus_bound']} != reference {expected['max_dev']}"
            )
        if not summary["random_states_inside"] == summary["random_states_total"] == samples:
            errors.append(
                f"random states inside: {summary['random_states_inside']}/{summary['random_states_total']}"
            )
        return errors

    return check


def check_odd_odd(na: int, nb: int):
    closed = 0.5 * (1.0 - 2.0 ** (-((na - 1) // 2 + (nb - 1) // 2)))

    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        rows = _cli_rows(result, errors)
        if rows is None:
            return errors
        value = _num(rows[0]["min_double_click"])
        if not abs(value - closed) <= 1e-12:
            errors.append(f"min double-click {value} != closed form {closed}")
        if not value >= 0.25 - 1e-12:
            errors.append(f"min double-click {value} below 1/4")
        return errors

    return check


def check_sweep(ref: Reference, key: str):
    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        payload = _cli_json(result, errors)
        if payload is None:
            return errors
        rows = payload["rows"]
        _check_operator_rows(rows, errors)
        for i, row in enumerate(rows):
            if not abs(row["eve_bit_accuracy"] - 1.0) <= 1e-12:
                errors.append(f"row {i}: eve_bit_accuracy {row['eve_bit_accuracy']}")
        expected = ref.entry(key)
        if expected is None:
            errors.append("no reference output")
            return errors
        on_boundary = sum(bool(row["on_boundary"]) for row in rows)
        if (len(rows), on_boundary) != (expected["rows"], expected["on_boundary"]):
            errors.append(
                f"{len(rows)} points, {on_boundary} on the boundary; reference "
                f"{expected['rows']}, {expected['on_boundary']}"
            )
        for name, value in expected["coverage"].items():
            if not _close(payload["meta"]["summary"][name], value, 1e-9):
                errors.append(f"coverage {name} {payload['meta']['summary'][name]} != reference {value}")
        return errors

    return check


def check_attack_point(alpha: float, beta: float):
    delta_m, eps_m = attack_fractions(alpha, beta)

    def check(result: CliResult) -> list[str]:
        errors: list[str] = []
        rows = _cli_rows(result, errors)
        if rows is None:
            return errors
        row = rows[0]
        if not abs(_num(row["eve_bit_accuracy"]) - 1.0) <= 1e-12:
            errors.append(f"eve_bit_accuracy {row['eve_bit_accuracy']}")
        for name, value in (("delta_m", delta_m), ("eps_m", eps_m)):
            if not _close(_num(row[name]), value, 1e-9):
                errors.append(f"{name} {row[name]} != {value}")
        if delta_m <= 1.0 / 3.0 and not eps_m >= g_curve(delta_m) - 1e-9:
            errors.append(f"({delta_m}, {eps_m}) lies below g")
        return errors

    return check


# Rounds.


def _grid_spec(lo_hi: tuple[float, float], n: int) -> str:
    return f"{lo_hi[0]:g}:{lo_hi[1]:g}:{n}"


def rates_grid_argvs(size: dict) -> list[tuple[str, list[str]]]:
    n = size["grid"]
    grid = ["--delta-grid", _grid_spec(RATES_DELTA, n), "--eps-grid", _grid_spec(RATES_EPS, n)]
    return [
        ("tau_grid", ["tau", *grid]),
        ("keyrate_grid", ["keyrate", *grid, "--f", "1.0"]),
        ("keyrate_grid", ["keyrate", *grid, "--f", "1.1"]),
    ]


def rates_query_argvs(point: tuple[str, str]) -> list[list[str]]:
    d, e = point
    return [["tau", "--delta", d, "--eps", e], ["keyrate", "--delta", d, "--eps", e]]


def rates_round(seed: int, size: dict, ref: Reference) -> Round:
    ops = []
    n = size["grid"]
    for phase, argv in rates_grid_argvs(size):
        key = " ".join(argv)
        check = check_tau(ref, key) if phase == "tau_grid" else check_keyrate(ref, key)
        ops.append(Op(phase, check, argv=argv, items=n * n))
    rng = random.Random(seed)
    for region in ("a", "b", "c"):
        for point in rng.sample(ref.data["rates_pool"][region], size["queries_per_region"]):
            for argv in rates_query_argvs(tuple(point)):
                key = " ".join(argv)
                check = check_tau(ref, key) if argv[0] == "tau" else check_keyrate(ref, key)
                ops.append(Op("query", check, argv=argv))
    rows = ref.rows(ops[0].key) or []
    regions = {r: sum(row["region"] == r for row in rows) for r in ("a", "b", "c", "infeasible")}
    return Round(ops, regions)


def multibranch_blocks() -> list[tuple]:
    """Nine-branch custom source: vacuum, single-photon and multiphoton blocks.

    Vacuum on either side gives no-detection outcomes; blocks with two or
    more photons on a side give double clicks.  The random densities are
    fixed, not drawn from the workload seed.
    """
    rng = np.random.default_rng(20080430)

    def random_density(dim: int) -> np.ndarray:
        a = rng.standard_normal((dim, dim))
        rho = a @ a.T
        return rho / np.trace(rho)

    phi = np.zeros(4)
    phi[0] = phi[3] = math.sqrt(0.5)
    phi_plus = np.outer(phi, phi)
    blocks = [
        (0.30, 1, 1, phi_plus),
        (0.15, 1, 1, 0.8 * phi_plus + 0.2 * np.eye(4) / 4.0),
        (0.08, 0, 1, np.eye(2) / 2.0),
        (0.07, 1, 0, np.eye(2) / 2.0),
        (0.05, 0, 0, np.eye(1)),
        (0.12, 1, 2, random_density(6)),
        (0.10, 2, 2, random_density(9)),
        (0.08, 1, 3, random_density(8)),
        (0.05, 3, 3, random_density(16)),
    ]
    return blocks


def simulate_argv(spec: str, events: int, seed: int) -> list[str]:
    return ["simulate", "--source", spec, "--events", str(events), "--seed", str(seed)]


def monte_carlo_round(seed: int, size: dict, ref: Reference, sim) -> Round:
    ref_seed = seed % REF_SEEDS
    events = size["events"]
    ops = []
    for spec in MC_SOURCES:
        argv = simulate_argv(spec, events, ref_seed)
        check = check_simulate(ref, " ".join(argv), spec, exact=True)
        ops.append(Op("simulate", check, argv=argv, items=events))
    blocks = multibranch_blocks()

    def multibranch():
        return sim.end_to_end(sim.SourceModel.custom(blocks), events, f=1.0, seed=ref_seed)

    ops.append(Op("multibranch", check_multibranch(ref, events, ref_seed), call=multibranch, items=events))
    rng = random.Random(seed)
    for i in range(size["mc_queries"]):
        spec = MC_SOURCES[i % len(MC_SOURCES)]
        argv = simulate_argv(spec, size["query_events"], HELD_OUT_SEED_BASE + rng.randrange(10**9))
        ops.append(Op("query", check_simulate(ref, " ".join(argv), spec, exact=False), argv=argv))
    return Round(ops)


def tradeoff_argv(pair, points: int, samples: int, seed: int) -> list[str]:
    return [
        "tradeoff", "--na", str(pair[0]), "--nb", str(pair[1]), "--points", str(points),
        "--samples", str(samples), "--seed", str(seed), "--format", "json",
    ]


def boundary_key(argv: list[str]) -> str:
    """'na,nb:points' of a tradeoff argv; the traced boundary depends on nothing else."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return f"{opts['--na']},{opts['--nb']}:{opts['--points']}"


def operator_batch_argvs(size: dict, ref_seed: int) -> list[tuple[str, list[str], int]]:
    """(phase, argv, random samples) of the fixed operator calls of a round."""
    calls = []
    for pair in BOUNDARY_PAIRS:
        samples = size["boundary_samples"]
        calls.append(("boundary", tradeoff_argv(pair, size["points"], samples, ref_seed), samples))
    for pair in MEMBERSHIP_PAIRS:
        samples = size["membership_samples"]
        calls.append(("membership", tradeoff_argv(pair, 2, samples, ref_seed), samples))
    return calls


def sweep_argv(size: dict) -> list[str]:
    return ["attack", "--sweep", str(size["sweep"]), "--format", "json"]


def operators_round(seed: int, size: dict, ref: Reference) -> Round:
    ops = []
    for phase, argv, samples in operator_batch_argvs(size, seed % REF_SEEDS):
        key = " ".join(argv)
        items = len(ref.boundary(key) or []) if phase == "boundary" else samples
        ops.append(Op(phase, check_tradeoff(ref, key, samples), argv=argv, items=items))
    na, nb = ODD_ODD_PAIR
    ops.append(Op("odd_odd", check_odd_odd(na, nb), argv=["tradeoff", "--na", str(na), "--nb", str(nb)]))
    argv = sweep_argv(size)
    entry = ref.entry(" ".join(argv))
    ops.append(Op("sweep", check_sweep(ref, " ".join(argv)), argv=argv, items=entry["rows"] if entry else 0))
    rng = random.Random(seed)
    for _ in range(size["attack_queries"]):
        theta = rng.uniform(-math.pi / 2, math.pi / 2)
        alpha, beta = f"{math.cos(theta):.6f}", f"{math.sin(theta):.6f}"
        argv = ["attack", "--alpha", alpha, "--beta", beta]
        ops.append(Op("query", check_attack_point(float(alpha), float(beta)), argv=argv))
    return Round(ops)


def build_round(workload: str, seed: int, size: dict, ref: Reference, package) -> Round:
    if workload == "rates":
        return rates_round(seed, size, ref)
    if workload == "monte_carlo":
        return monte_carlo_round(seed, size, ref, package.sim)
    if workload == "operators":
        return operators_round(seed, size, ref)
    raise ValueError(f"unknown workload {workload!r}")
