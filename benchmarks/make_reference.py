"""Generate reference.json, the data the benchmark's correctness gate compares with.

Usage, from the root of a checkout of the commit the reference should pin:

    python3 benchmarks/make_reference.py

It runs every operation whose output the gate compares exactly (the rates
grids, the rates query pool, the reference-seed Monte Carlo runs, the
operator calls and sweep) for every size preset, and stores the outputs or
their digests.  Regenerate it only on purpose: a commit that changes
results must say why, and the reference then moves with it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import run
import workloads

POOL_SEED = 92
POOL_PER_REGION = 40


def cli_output(cli, argv: list[str]) -> str:
    op = workloads.Op("reference", lambda result: [], argv=argv)
    _, result = run.execute(op, cli)
    if not isinstance(result, workloads.CliResult) or result.code != 0:
        raise RuntimeError(f"{argv} failed: {result}")
    return result.out


def commit() -> str:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def rates_pool(cli, entries: dict) -> dict[str, list[list[str]]]:
    """Feasible (delta, eps) query points, POOL_PER_REGION in each region."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[list[str]]] = {"a": [], "b": [], "c": []}
    while min(len(points) for points in pool.values()) < POOL_PER_REGION:
        point = [f"{rng.uniform(*workloads.RATES_DELTA):.6f}", f"{rng.uniform(*workloads.RATES_EPS):.6f}"]
        argv = ["tau", "--delta-grid", f"{point[0]}:{point[0]}:1", "--eps-grid", f"{point[1]}:{point[1]}:1"]
        region = workloads.parse_csv(cli_output(cli, argv))[0]["region"]
        if region == "infeasible" or len(pool[region]) >= POOL_PER_REGION:
            continue
        pool[region].append(point)
        for query in workloads.rates_query_argvs(tuple(point)):
            text = cli_output(cli, query)
            entries[" ".join(query)] = {"sha256": workloads.digest(text), "text": text}
    return pool


def main() -> int:
    package = run.import_program()
    cli, sim = package.cli, package.sim
    entries: dict[str, dict] = {}
    data = {
        "meta": {"commit": commit(), "env": run.environment(None, package)},
        "cli": entries,
        "rates_pool": rates_pool(cli, entries),
        "analytic": {},
        "multibranch": {},
        "boundaries": {},
    }
    for spec in workloads.MC_SOURCES:
        data["analytic"][spec] = list(sim.analytic_fractions(cli.parse_source(spec)))
    blocks = workloads.multibranch_blocks()
    data["analytic"]["multibranch"] = list(sim.analytic_fractions(sim.SourceModel.custom(blocks)))

    for size in workloads.SIZES.values():
        for _, argv in workloads.rates_grid_argvs(size):
            text = cli_output(cli, argv)
            entries[" ".join(argv)] = {"sha256": workloads.digest(text), "text": text}
        sweep = workloads.sweep_argv(size)
        text = cli_output(cli, sweep)
        payload = json.loads(text)
        entries[" ".join(sweep)] = {
            "sha256": workloads.digest(text),
            "rows": len(payload["rows"]),
            "on_boundary": sum(bool(row["on_boundary"]) for row in payload["rows"]),
            "coverage": payload["meta"]["summary"],
        }
        for seed in range(workloads.REF_SEEDS):
            for spec in workloads.MC_SOURCES:
                argv = workloads.simulate_argv(spec, size["events"], seed)
                text = cli_output(cli, argv)
                entries[" ".join(argv)] = {"sha256": workloads.digest(text), "text": text}
            events = size["events"]
            tally = sim.run_protocol(sim.SourceModel.custom(blocks), events, seed)
            data["multibranch"][f"{events}:{seed}"] = [tally.n, tally.n_dbl, tally.n_err, tally.n_cor]
            for _, argv, _ in workloads.operator_batch_argvs(size, seed):
                text = cli_output(cli, argv)
                payload = json.loads(text)
                entries[" ".join(argv)] = {
                    "sha256": workloads.digest(text),
                    "max_dev": payload["meta"]["summary"]["max_abs_eps_minus_bound"],
                }
                points = [[row["delta_m"], row["eps_m"]] for row in payload["rows"]]
                data["boundaries"].setdefault(workloads.boundary_key(argv), points)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} reference outputs to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
