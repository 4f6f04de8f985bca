"""Self-tests of the benchmark, at the tiny size preset.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, reference: workloads.Reference | None = None) -> tuple[int, dict, str]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, preset="tiny", reference=reference)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), out.getvalue()


def package_bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if module is not None and (name == run.PACKAGE or name.startswith(run.PACKAGE + "."))
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, result, text = run_tiny(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        for name in ["error_rate", "query_tail_ms", *workloads.PHASE_METRICS[workload]]:
            assert f"# {workload} {name} " in text


def test_traced_run_restores_every_binding():
    run.import_program()
    before = package_bindings()
    tracer = Tracer()
    tracer.patch()
    try:
        sim = sys.modules["bbm92kit.sim"]
        attack = sys.modules["bbm92kit.attack"]
        package = sys.modules["bbm92kit"]
        for module, name in [(sim, "outcome_projectors"), (attack, "outcome_projectors"),
                             (sim, "basis_state"), (attack, "basis_state"), (package, "tau_low")]:
            assert getattr(module, name).__wrapped__ is not None, (module.__name__, name)
        package.key_rate(package.ObservedStats(0.15, 0.09))  # region (c)
    finally:
        tracer.restore()
    assert package_bindings() == before
    assert tracer.stats["rates.tau_low"].calls >= 1
    assert tracer.stats["rates.key_rate"].calls == 1


def test_self_time_excludes_child_spans():
    run.import_program()
    tracer = Tracer()
    tracer.patch()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            sys.modules["bbm92kit.cli"].main(["tau", "--delta", "0.15", "--eps", "0.01"])
    finally:
        tracer.restore()
    main = tracer.stats["cli.main"]
    assert main.calls == 1
    assert 0.0 < main.self_s < main.total_s
    self_sum = sum(s.self_s for s in tracer.stats.values())
    assert self_sum == pytest.approx(main.total_s, rel=1e-6)


def test_full_traced_run_restores_every_binding():
    run.import_program()
    before = package_bindings()
    code, result, _ = run_tiny("operators", trace=1)
    assert code == 0 and result["correct"]
    assert package_bindings() == before


def corrupt(reference: workloads.Reference, case: str) -> workloads.Reference:
    data = copy.deepcopy(reference.data)
    tiny = workloads.SIZES["tiny"]
    if case == "rates":
        key = " ".join(workloads.rates_grid_argvs(tiny)[1][1])
        rows = workloads.parse_csv(data["cli"][key]["text"])
        row = next(r for r in rows if r["r_key"])
        row["r_key"] = repr(float(row["r_key"]) + 1e-6)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        data["cli"][key]["text"] = buf.getvalue()
    elif case == "monte_carlo":
        key = f"{tiny['events']}:{3 % workloads.REF_SEEDS}"
        data["multibranch"][key][1] += 1
    elif case == "operators-sweep":
        data["cli"][" ".join(workloads.sweep_argv(tiny))]["on_boundary"] += 1
    else:
        # An interior point of (1,4), where max |eps_m - g| is set by an endpoint.
        points = data["boundaries"][f"1,4:{tiny['points']}"]
        points[len(points) // 2][1] += 1e-6
    return workloads.Reference(data)


@pytest.mark.parametrize("case", ["rates", "monte_carlo", "operators-sweep", "operators-boundary"])
def test_corrupted_reference_raises_error_rate(case):
    workload = case.split("-")[0]
    reference = corrupt(workloads.Reference.load(), case)
    code, result, text = run_tiny(workload, trace=0, reference=reference)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] > 0
    error_rate = float(text.split(f"# {workload} error_rate ")[1].split()[0])
    assert error_rate > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "rates", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_stops_at_p95_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[1:] == (95, 50)
    assert run.tail(list(range(150)))[1:] == (90, 15)
    value, percentile, beyond = run.tail(list(range(12)))
    assert percentile == 50 and beyond == 6
