"""Command-line front end emitting machine-readable tables for every computation.

Commands: tau, keyrate, tradeoff, attack, simulate, selftest.  Output is CSV
(default) or JSON (--format json); grids use inclusive start:stop:count
specs.  Exit codes: 0 success, 2 invalid arguments (a request too large to
allocate among them), 3 infeasible inputs, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, attack, povm, rates, selfcheck, sim
from .errors import InfeasibleError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

OUT_DIR_ENV = "BBM92KIT_OUT_DIR"


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def parse_grid(spec: str) -> np.ndarray:
    """Inclusive-endpoint grid from a start:stop:count spec."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse the command line with the --config file's values as flag defaults.

    Config values go through the same argparse types and choices as flags, by
    parsing them as flags placed before the command line's own, which then
    override them.  Flags set by neither keep their parser defaults.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        config = _read_config(args.config)
        for key in config:
            # the parser sets command and func itself, and a config file names no other
            if key in ("command", "config", "func") or not hasattr(args, key):
                raise ValueError(f"unknown config key {key!r}")
        # argv[0] is the command: the top-level parser's only options exit
        flags = [f"--{key.replace('_', '-')}={raw}" for key, raw in config.items()]
        return parser.parse_args([argv[0], *flags, *argv[1:]])
    return args


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _json_cell(value) -> str:
    """A cell as json.dumps writes it, but NaN as null and an infinity as its repr."""
    if isinstance(value, float):
        return "null" if value != value else float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_rows(columns: dict[str, list]) -> str:
    """The items of the rows array as json.dumps(..., indent=2) nests them in the payload."""
    cells = [list(map(_json_cell, values)) for values in columns.values()]
    if any("inf" in column or "-inf" in column for column in cells):
        # the error json.dumps raises at the first infinity in row order
        for row in zip(*columns.values()):
            for value in row:
                if isinstance(value, float) and math.isinf(value):
                    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    fields = ",\n".join(
        f"      {encode_basestring_ascii(name).replace('%', '%%')}: %s" for name in columns
    )
    template = "    {\n" + fields + "\n    }"
    return ",\n".join(template % row for row in zip(*cells))


def _emit(args, columns: dict[str, list], meta_extra=None, summary_lines=()) -> None:
    """Write a table of equal-length columns of Python scalars as CSV or JSON.

    CSV has a header row and each cell through _fmt_cell (NaN as nan).  JSON
    is json.dumps({"meta": ..., "rows": [...]}, indent=2, allow_nan=False)
    byte for byte, with NaN as null: meta goes through json.dumps, and every
    row fills one template with its column's cells, each encoded once.
    """
    meta = {
        "version": __version__,
        "command": args.command,
        "flags": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "func") and v is not None
        },
    }
    if meta_extra:
        meta.update(meta_extra)
    if args.format == "json":
        head = json.dumps({"meta": meta}, indent=2, allow_nan=False)[:-2]
        rows = _json_rows(columns)
        body = f"[\n{rows}\n  ]" if rows else "[]"
        text = f'{head},\n  "rows": {body}\n}}\n'
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*(map(_fmt_cell, values) for values in columns.values())))
        text = buf.getvalue()
        for line in summary_lines:
            print(f"# {line}", file=sys.stderr)
    out = _resolve_out(args.out)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_values(scalar, grid_spec, name: str) -> np.ndarray:
    if scalar is not None and grid_spec is not None:
        raise ValueError(f"give either --{name} or --{name}-grid, not both")
    if grid_spec is not None:
        return parse_grid(grid_spec)
    if scalar is None:
        raise ValueError(f"missing --{name} or --{name}-grid")
    return np.array([float(scalar)])


def _rate_table(args, f: float = 1.0) -> rates.RateTable:
    """Every row of the command's delta x eps grid from one batched rate call."""
    deltas = _grid_values(args.delta, args.delta_grid, "delta")
    epss = _grid_values(args.eps, args.eps_grid, "eps")
    table = rates.rate_table(np.repeat(deltas, epss.size), np.tile(epss, deltas.size), f)
    if args.delta_grid is None and args.eps_grid is None and not table.feasible[0]:
        raise InfeasibleError(
            f"(delta={deltas[0]}, eps={epss[0]}) lies outside regions (a)-(c)"
        )
    return table


def _cmd_tau(args) -> int:
    table = _rate_table(args)
    numeric = rates.tau_numeric_array(table.delta, table.eps)
    columns = {
        "delta": table.delta.tolist(),
        "eps": table.eps.tolist(),
        "tau_closed": table.tau.tolist(),
        "tau_numeric": numeric.tolist(),
        "tau_low": table.tau_low.tolist(),
        "region": table.region.tolist(),
    }
    _emit(args, columns)
    return EXIT_OK


def _cmd_keyrate(args) -> int:
    rates._check_f(args.f, "--f")
    table = _rate_table(args, args.f)
    has_key = np.where(table.feasible, table.has_key, None)
    columns = {
        "delta": table.delta.tolist(),
        "eps": table.eps.tolist(),
        "region": table.region.tolist(),
        "tau": table.tau.tolist(),
        "r_key": table.r_key.tolist(),
        "r_upper": table.r_upper.tolist(),
        "r_conjectured_random_assignment": table.r_conjectured_random_assignment.tolist(),
        "has_key": has_key.tolist(),
    }
    _emit(args, columns)
    return EXIT_OK


def _cells(values: np.ndarray) -> list:
    """Python floats of an array, with None for NaN (an empty cell)."""
    return [None if math.isnan(x) else x for x in values.tolist()]


def _cmd_tradeoff(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    pair = povm.PhotonPair(args.na, args.nb)
    # the messages trace_boundary and random_state_fractions give on the even path
    if args.points < 2:
        raise ValueError("num_points must be >= 2")
    if args.samples < 0:
        raise ValueError(f"count must be >= 0, got {args.samples}")
    if pair.n_a % 2 == 1 and pair.n_b % 2 == 1:
        value = povm.min_double_click(pair)
        columns = {
            "n_a": [pair.n_a],
            "n_b": [pair.n_b],
            "min_double_click": [value],
        }
        _emit(
            args,
            columns,
            meta_extra={"summary": {"min_double_click": value}},
            summary_lines=[f"odd-odd pair: min double-click fraction = {value:.12g}"],
        )
        return EXIT_OK
    delta_m, eps_m = povm.trace_boundary(pair, num_points=args.points).T
    bound = rates._g_on_domain(delta_m)
    dev = eps_m - bound
    columns = {
        "delta_m": delta_m.tolist(),
        "eps_m": eps_m.tolist(),
        "g_bound": _cells(bound),
        "eps_minus_bound": _cells(dev),
    }
    max_dev = float(np.max(np.abs(dev[~np.isnan(dev)]), initial=0.0))
    delta, eps = povm.random_state_fractions(
        pair, args.samples, np.random.default_rng(args.seed)
    )
    inside = int(np.sum(povm.region_membership(delta, eps)))
    summary = {
        "max_abs_eps_minus_bound": max_dev,
        "random_states_inside": inside,
        "random_states_total": args.samples,
    }
    _emit(
        args,
        columns,
        meta_extra={"summary": summary},
        summary_lines=[
            f"max |eps_m - g(delta_m)| over traced points with delta_m <= 1/3: {max_dev:.12g}",
            f"random-state region membership: {inside}/{args.samples} inside",
        ],
    )
    return EXIT_OK


def _attack_columns(alpha, beta, delta_m, eps_m, accuracy) -> tuple[dict[str, list], np.ndarray]:
    """Attack table columns from per-point arrays, and the mask of points on the curve g."""
    bound, on_boundary = attack._curve_bounds(delta_m, eps_m)
    columns = {
        "alpha": alpha.tolist(),
        "beta": beta.tolist(),
        "delta_m": delta_m.tolist(),
        "eps_m": eps_m.tolist(),
        "g_bound": _cells(bound),
        "on_boundary": on_boundary.tolist(),
        "eve_bit_accuracy": accuracy.tolist(),
    }
    return columns, on_boundary


def _cmd_attack(args) -> int:
    if args.sweep is not None and (args.alpha is not None or args.beta is not None):
        raise ValueError("give either --alpha and --beta or --sweep, not both")
    if args.sweep is None:
        if args.alpha is None or args.beta is None:
            raise ValueError("need --alpha and --beta, or --sweep N")
        result = attack.run_attack(attack.boundary_state(args.alpha, args.beta))
        point = [np.array([x]) for x in (args.alpha, args.beta, *result)]
        _emit(args, _attack_columns(*point)[0])
        return EXIT_OK
    sweep = attack.boundary_sweep(args.sweep)
    columns, on_boundary = _attack_columns(*sweep)
    coverage = attack._coverage(sweep.delta_m, on_boundary)
    _emit(
        args,
        columns,
        meta_extra={"summary": coverage},
        summary_lines=[
            f"boundary coverage: delta_m in [{coverage['delta_min']:.12g}, "
            f"{coverage['delta_max']:.12g}] over {coverage['boundary_points']} points, "
            f"max gap {coverage['max_gap']:.12g}"
        ],
    )
    return EXIT_OK


def parse_source(spec: str) -> sim.SourceModel:
    """Source spec: 'ideal', 'werner:V', or 'attack:ALPHA,BETA,XI'."""
    kind, _, rest = spec.partition(":")
    if kind == "ideal":
        if rest:
            raise ValueError("ideal source takes no parameters")
        return sim.SourceModel.ideal_pair()
    if kind == "werner":
        return sim.SourceModel.werner(float(rest))
    if kind == "attack":
        parts = rest.split(",")
        if len(parts) != 3:
            raise ValueError("attack source spec must be attack:ALPHA,BETA,XI")
        alpha, beta, xi = (float(p) for p in parts)
        return sim.SourceModel.eve_attack(attack.boundary_state(alpha, beta), xi)
    raise ValueError(f"unknown source kind {kind!r}")


def _cmd_simulate(args) -> int:
    source = parse_source(args.source)
    if args.events < 1:
        raise ValueError(f"--events must be >= 1, got {args.events}")
    rates._check_f(args.f, "--f")
    sim._check_seed(args.seed, "--seed")
    report = sim.end_to_end(source, args.events, f=args.f, seed=args.seed)
    row = {
        "source": args.source,
        "seed": report.seed,
        "events": report.num_events,
        "n_sifted_basis": report.tally.n,
        "n_dbl": report.tally.n_dbl,
        "n_err": report.tally.n_err,
        "n_cor": report.tally.n_cor,
        "delta_hat": report.delta_hat,
        "eps_hat": report.eps_hat,
        "delta_se": report.delta_se,
        "eps_se": report.eps_se,
        "region": report.region,
        "r_key": report.r_key,
        "delta_analytic": report.analytic_delta,
        "eps_analytic": report.analytic_eps,
        "r_key_analytic": report.r_key_analytic,
        "r_key_gap": report.r_key_gap,
        "r_conjectured_random_assignment": report.conjectured_rate_sampled,
        "f_ec": report.f_ec,
    }
    _emit(args, {name: [value] for name, value in row.items()})
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all()
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += not check.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bbm92kit",
        description=(
            "Security analysis for entanglement-based QKD with threshold "
            "detectors and discarded double clicks"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        p.add_argument("--config", help="key=value file supplying flag defaults")

    def grid(p):
        p.add_argument("--delta", type=float)
        p.add_argument("--delta-grid", dest="delta_grid")
        p.add_argument("--eps", type=float)
        p.add_argument("--eps-grid", dest="eps_grid")

    p_tau = sub.add_parser("tau", help="privacy-amplification fraction table")
    grid(p_tau)
    common(p_tau)
    p_tau.set_defaults(func=_cmd_tau)

    p_key = sub.add_parser("keyrate", help="final key fraction table")
    grid(p_key)
    p_key.add_argument("--f", type=float, default=1.0, help="error-correction inefficiency >= 1")
    common(p_key)
    p_key.set_defaults(func=_cmd_keyrate)

    p_trade = sub.add_parser("tradeoff", help="double-click/error trade-off boundary")
    p_trade.add_argument("--na", type=int, required=True)
    p_trade.add_argument("--nb", type=int, required=True)
    p_trade.add_argument("--points", type=int, default=200, help="supporting-hyperplane sweep size")
    p_trade.add_argument(
        "--samples", type=int, default=1000, help="random states for membership check"
    )
    p_trade.add_argument("--seed", type=int, default=12345)
    common(p_trade)
    p_trade.set_defaults(func=_cmd_tradeoff)

    p_att = sub.add_parser("attack", help="explicit attack points and boundary sweep")
    p_att.add_argument("--alpha", type=float)
    p_att.add_argument("--beta", type=float)
    p_att.add_argument("--sweep", type=int, help="number of sweep angles")
    common(p_att)
    p_att.set_defaults(func=_cmd_attack)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p_sim.add_argument("--source", required=True, help="ideal | werner:V | attack:ALPHA,BETA,XI")
    p_sim.add_argument("--events", type=int, default=100000)
    p_sim.add_argument("--f", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=12345)
    common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: request too large to allocate ({str(exc) or 'MemoryError'})", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
