"""Benchmark of bbm92kit: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload rates --seed 1 --seconds 20 --trace 0

Workloads are ``rates``, ``monte_carlo`` and ``operators`` (see README.md);
``all`` runs the three in turn, each in its own process.  A run imports the
program from ``src/``, measures set-up in fresh interpreters, runs one
warm-up round, then repeats identical rounds for ``--seconds`` seconds in
one closed-loop client.  Every output is checked; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate between untraced and traced, and the metrics are the
per-layer ones, given per traced round, with the tracing overhead.  Lines
before the last one report the same run for people: every named metric with
its unit, and the environment.  Times are scaled to a reference CPU speed by
a probe timed around each round (see PROBE_REFERENCE_S); the raw times are
kept in the run's record under benchmarks/out/.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP pools, set before numpy is first imported.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, LayerStats, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Times are reported as if every speed probe had taken PROBE_REFERENCE_S,
# about the probe's median on the 2-core 2.1 GHz Xeon sandbox the bounds
# were set on.  That sandbox's host moves its vCPUs between speeds up to 40%
# apart every few seconds; scaling by the probe timed around each round
# removes most of that from the medians.
PROBE_REFERENCE_S = 0.0045
PROBE_REPEATS = 7

# Tail percentile: the highest of these with at least ten samples beyond it.
# It stops at p95 so a faster commit, which completes more queries in the
# same time, is still compared at the same percentile.
TAIL_LADDER = (95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
}

# (layer function, measures) pairs; "*" stands for calls, self_s and us_per_call.
LAYER_FUNCTIONS = (
    ("rates.tau_low", "*"),
    ("rates.tau_numeric", "*"),
    ("rates.binary_entropy", "*"),
    ("rates.g", "*"),
    ("rates.tau_closed_form", "*"),
    ("rates.key_rate", "*"),
    ("cli.main", ("calls", "self_s")),
    ("povm.trace_boundary", ("calls", "self_s", "points")),
    ("povm.eigh_checked", ("calls", "self_s")),
    ("povm.region_membership", ("calls", "self_s")),
    ("povm.min_double_click", ("self_s",)),
    ("attack.boundary_sweep", ("self_s",)),
    ("attack.run_attack", ("calls", "self_s")),
    ("attack.build_v", ("self_s",)),
    ("fock.basis_state", ("calls", "self_s")),
    ("sim.event_uniforms", ("calls", "events", "self_s")),
    ("sim.run_protocol", ("self_s", "events_per_s")),
    ("sim.analytic_fractions", ("self_s",)),
    ("sim.end_to_end", ("self_s",)),
)
MEASURE_UNITS = {
    "calls": "count",
    "self_s": "s",
    "us_per_call": "us",
    "points": "count",
    "events": "count",
    "events_per_s": "events/s",
}
ROUND_COUNTS = {
    "rates.rows_region_a": "count",
    "rates.rows_region_b": "count",
    "rates.rows_region_c": "count",
    "rates.rows_infeasible": "count",
    "cli.bytes_out": "bytes",
    "cli.outputs_checked": "count",
    "cli.outputs_byte_identical": "count",
    "sim.sifted_fraction": "fraction",
}
TRACE_TOTALS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.unaccounted_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for func, measures in LAYER_FUNCTIONS:
        for measure in ("calls", "self_s", "us_per_call") if measures == "*" else measures:
            units[f"{func}.{measure}"] = MEASURE_UNITS[measure]
    units.update(ROUND_COUNTS)
    units.update(TRACE_TOTALS)
    return units


@dataclass
class RoundResult:
    """Timings, counts and failures of one executed round."""

    traced: bool = False
    scale: float = 1.0
    op_times: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_out: int = 0
    checked: int = 0
    identical: int = 0

    @property
    def wall(self) -> float:
        return self.scale * sum(self.op_times)


def op_medians(rounds: list[RoundResult]) -> list[float]:
    """Each operation's median scaled time over the rounds."""
    return [
        statistics.median(times)
        for times in zip(*([r.scale * t for t in r.op_times] for r in rounds))
    ]


def speed_probe() -> None:
    """Fixed work that runs no bbm92kit code: a Python loop and small numpy calls.

    These are the two kinds of work the program's hot paths mix.  Of the
    probes tried (a Python loop, small ufunc calls, small eigh, large-array
    passes, and their sums) this pair tracked the host's speed changes best
    over the three workloads taken together.  The halves take similar time.
    """
    total = 0
    for i in range(30_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        np.sqrt(x * (1.0 - x)).sum()


def probe_time() -> float:
    """Median time of the speed probe, now."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        speed_probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale_between(before: float, after: float) -> float:
    """Factor that turns times measured between two probes into reference-speed times."""
    return 2.0 * PROBE_REFERENCE_S / (before + after)


def import_program():
    """Import the package from ``SRC``; refuse a copy installed elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise ImportError(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    where = Path(package.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"{PACKAGE} was imported from {where}, not {SRC}")
    return package


def execute(op: workloads.Op, cli) -> tuple[float, object]:
    """Run one operation; returns its duration and result (an exception if it raised)."""
    if op.argv is None:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises is counted as failed
            result = exc
        return time.perf_counter() - start, result
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises is counted as failed
            return time.perf_counter() - start, exc
        elapsed = time.perf_counter() - start
    return elapsed, workloads.CliResult(code, out.getvalue(), err.getvalue())


def run_round(round_: workloads.Round, package, ref: workloads.Reference, traced=False) -> RoundResult:
    res = RoundResult(traced=traced)
    for op in round_.ops:
        elapsed, result = execute(op, package.cli)
        res.op_times.append(elapsed)
        if op.phase == "query":
            res.query_ms.append(1e3 * elapsed)
        if isinstance(result, BaseException):
            errors = ["raised " + "".join(traceback.format_exception_only(result)).strip()]
        else:
            try:
                errors = op.check(result)
            except Exception as exc:  # output the check cannot read fails the operation
                errors = [f"check raised {exc!r}"]
            if isinstance(result, workloads.CliResult):
                res.bytes_out += len(result.out.encode("utf-8"))
                same = ref.byte_identical(op.key, result.out)
                if same is not None:
                    res.checked += 1
                    res.identical += same
        if errors:
            res.failures.append(f"{op.key}: {'; '.join(errors[:3])}")
    return res


def measure_setup(workload: str, before: float) -> tuple[float, float]:
    """Seconds to import the package and make the workload's first call, cold.

    Runs in a fresh interpreter; ``before`` is the probe time taken just
    before.  Returns the scaled seconds and the probe time taken after.
    """
    probe = BENCH_DIR / "setup_probe.py"
    argv = [sys.executable, str(probe), str(SRC), *workloads.FIRST_CALL[workload]]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    after = probe_time()
    return scale_between(before, after) * float(done.stdout.strip().splitlines()[-1]), after


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) of the tail percentile."""
    n = len(values)
    for p in TAIL_LADDER:
        beyond = n - int(np.ceil(n * p / 100.0))
        if beyond >= 10 or p == TAIL_LADDER[-1]:
            return float(np.percentile(values, p)), p, beyond
    raise AssertionError("unreachable")


def environment(seed: int, package) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "seed": seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bbm92kit": package.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def end_to_end_metrics(workload, round_, rounds, setup_times, error_rate) -> tuple[dict, dict]:
    """(metrics for the JSON line, every named end-to-end metric with its unit).

    ``wall_s`` sums each operation's median scaled time over the rounds,
    which drops a slow round's outliers operation by operation.
    """
    latencies = [r.scale * ms for r in rounds for ms in r.query_ms]
    tail_ms, tail_p, beyond = tail(latencies)
    medians = op_medians(rounds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_p50_ms": statistics.median(latencies),
    }
    report = {name: (value, END_TO_END[name]) for name, value in metrics.items()}
    report["query_tail_ms"] = (tail_ms, f"ms@p{tail_p}")
    report["query_samples"] = (len(latencies), f"count,{beyond}_beyond_tail")
    report["error_rate"] = (error_rate, "fraction")
    for name, (phase, unit) in workloads.PHASE_METRICS[workload].items():
        ops = [i for i, op in enumerate(round_.ops) if op.phase == phase]
        items = sum(round_.ops[i].items for i in ops)
        report[name] = (items / sum(medians[i] for i in ops), unit)
    report["rounds"] = (len(rounds), "count")
    return metrics, report


def per_layer_metrics(layers: dict[str, LayerStats], round_: workloads.Round, rounds) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    metrics = {}
    for func, measures in LAYER_FUNCTIONS:
        stats = layers[func]
        values = {
            "calls": stats.calls / n,
            "self_s": stats.self_s / n,
            "us_per_call": 1e6 * stats.self_s / stats.calls if stats.calls else 0.0,
            "points": stats.extra.get("points", 0.0) / n,
            "events": stats.extra.get("events", 0.0) / n,
            "events_per_s": stats.extra.get("events", 0.0) / stats.total_s if stats.total_s else 0.0,
        }
        for measure in ("calls", "self_s", "us_per_call") if measures == "*" else measures:
            metrics[f"{func}.{measure}"] = values[measure]
    for region in ("a", "b", "c"):
        metrics[f"rates.rows_region_{region}"] = round_.region_rows.get(region, 0)
    metrics["rates.rows_infeasible"] = round_.region_rows.get("infeasible", 0)
    metrics["cli.bytes_out"] = sum(r.bytes_out for r in traced) / n
    metrics["cli.outputs_checked"] = sum(r.checked for r in traced) / n
    metrics["cli.outputs_byte_identical"] = sum(r.identical for r in traced) / n
    protocol = layers["sim.run_protocol"].extra
    metrics["sim.sifted_fraction"] = (
        protocol["sifted"] / protocol["events"] if protocol.get("events") else 0.0
    )
    # Means, like the per-layer values, so that self_sum + unaccounted = wall.
    traced_wall = statistics.mean(r.wall for r in traced)
    untraced_wall = statistics.mean(r.wall for r in plain)
    self_sum = sum(s.self_s for s in layers.values()) / n
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.self_sum_s"] = self_sum
    metrics["trace.unaccounted_s"] = traced_wall - self_sum
    return metrics


def pin_to_one_cpu() -> set[int]:
    """Keep the run, and the set-up probes it starts, on one CPU; returns the old set.

    The speed probe then measures the CPU the work runs on.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Run every workload in its own process and print one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {done.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None, preset: str = "full", reference: workloads.Reference | None = None) -> int:
    args = parse_args(argv)
    try:
        package = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    allowed = pin_to_one_cpu()
    try:
        return measure(args, package, workloads.SIZES[preset], reference or workloads.Reference.load())
    finally:
        os.sched_setaffinity(0, allowed)


def measure(args, package, size: dict, ref: workloads.Reference) -> int:
    round_ = workloads.build_round(args.workload, args.seed, size, ref, package)
    warmup = run_round(round_, package, ref)
    tracer = Tracer() if args.trace else None
    layers: dict[str, LayerStats] = {}
    rounds: list[RoundResult] = []
    # Set-up is measured between rounds, spread over the run, so that its
    # median, like the rounds', samples the host's speed over the whole run.
    setup_repeats = 0 if args.trace else size["setup_repeats"]
    setup_times: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    before = probe_time()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.patch()
        try:
            rounds.append(run_round(round_, package, ref, traced=traced))
        finally:
            if traced:
                tracer.restore()
        after = probe_time()
        rounds[-1].scale = scale_between(before, after)
        before = after
        if traced:
            tracer.drain(layers, rounds[-1].scale)
        now = time.perf_counter()
        if len(setup_times) < setup_repeats and now >= start + len(setup_times) * args.seconds / setup_repeats:
            seconds, before = measure_setup(args.workload, before)
            setup_times.append(seconds)
        if now >= deadline and (tracer is None or len(rounds) >= 2):
            break
    while len(setup_times) < setup_repeats:
        seconds, before = measure_setup(args.workload, before)
        setup_times.append(seconds)

    done = [warmup, *rounds]
    attempted = sum(len(r.op_times) for r in done)
    failures = [msg for r in done for msg in r.failures]
    failed = len(failures)
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.seed, package)
    record = {
        "workload": args.workload,
        "env": env,
        "round_scales": [r.scale for r in rounds],
        "round_walls_s": [r.wall for r in rounds],
        "round_traced": [r.traced for r in rounds],
        "failures": failures[:100],
    }
    if tracer is None:
        metrics, report = end_to_end_metrics(
            args.workload, round_, rounds, setup_times, failed / attempted
        )
        units = END_TO_END
        record["setup_times_s"] = setup_times
        record["op_medians_s"] = [[op.key, t] for op, t in zip(round_.ops, op_medians(rounds))]
        record["report"] = report
        for name, (value, unit) in report.items():
            print(f"# {args.workload} {name} {value:.6g} {unit}")
    else:
        metrics = per_layer_metrics(layers, round_, rounds)
        units = per_layer_units()
        record["layers"] = {
            name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s, **s.extra}
            for name, s in layers.items()
        }
        record["spans"] = tracer.write_spans(OUT_DIR / f"{stem}-spans.npz")
        record["spans_dropped"] = tracer.spans_dropped
        for name, value in metrics.items():
            print(f"# {args.workload} {name} {value:.6g} {units[name]}")
    record["metrics"] = metrics
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
