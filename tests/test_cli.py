import ast
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bbm92kit import cli, selfcheck

# digests pinned by tests/data/make_cli_golden.py at an earlier commit, by argv
GOLDEN = {
    tuple(run["argv"]): run["sha256"]
    for run in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())["runs"]
}


def run_cli(capsys, *argv):
    """cli.main's exit code, stdout and stderr, whether it returns or argparse exits."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's own refusal: its usage, then one error line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_table(text: str) -> tuple[list[str], list[dict]]:
    """Parse a CSV table the CLI wrote back into typed rows."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for record in reader:
        row = {}
        for key, cell in zip(header, record):
            if cell == "":
                row[key] = None
            elif cell in ("true", "false"):
                row[key] = cell == "true"
            else:
                try:
                    row[key] = int(cell) if cell.lstrip("+-").isdigit() else float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return header, rows


class TestGridSpec:
    def test_inclusive_endpoints(self):
        grid = cli.parse_grid("0:0.25:6")
        assert grid[0] == 0.0 and grid[-1] == 0.25 and len(grid) == 6


def _all(rows, pred) -> bool:
    """Whether there are rows and pred holds on each."""
    return bool(rows) and all(pred(row) for row in rows)


def _pinned(name, argv, on_csv=None, on_json=None):
    """Rows `name-csv` and `name-json`: one golden command in both formats, each with its
    own conditions or none."""
    return {
        f"{name}-{fmt}": ((*argv, "--format", fmt), conditions)
        for fmt, conditions in (("csv", on_csv), ("json", on_json))
    }


# One row per command run: argv, then the conditions on (header, rows, meta, stderr)
# that must all hold; a CSV run's meta is None and a JSON run's header is None.  A run
# whose argv is in GOLDEN must also print the pinned bytes.
ACCEPTED_RUNS = {
    **_pinned(
        "tau-grid",
        ("tau", "--delta-grid", "0:0.25:9", "--eps-grid", "0:0.12:7"),
        on_csv=lambda h, rows, m, err: [
            h == ["delta", "eps", "tau_closed", "tau_numeric", "tau_low", "region"],
            (rows[0]["delta"], rows[0]["eps"], rows[0]["tau_closed"]) == (0, 0, 0),
            rows[0]["region"] == "a",
            _all(
                [r for r in rows if r["eps"] == 0],
                lambda r: r["tau_closed"] == pytest.approx(3.0 * r["delta"], abs=1e-10),
            ),
            # an infeasible cell is labeled, and the grid goes on past it
            {r["region"] for r in rows} == {"a", "b", "c", "infeasible"},
            rows[-1]["region"] == "infeasible",
            math.isnan(rows[-1]["tau_closed"]),
        ],
        on_json=lambda h, rows, m, err: [
            m["command"] == "tau",
            m["flags"] == {"delta_grid": "0:0.25:9", "eps_grid": "0:0.12:7", "format": "json"},
            "version" in m,
            rows[0]["region"] == "a",
            rows[-1]["region"] == "infeasible",
            rows[-1]["tau_closed"] is None,
        ],
    ),
    "tau-closed-and-numeric-agree": (
        ("tau", "--delta", "0.05", "--eps", "0.02"),
        lambda h, rows, m, err: [abs(rows[0]["tau_closed"] - rows[0]["tau_numeric"]) <= 1e-5],
    ),
    "tau-error-free-grid-is-three-delta": (
        ("tau", "--delta-grid", "0:0.25:50", "--eps", "0"),
        lambda h, rows, m, err: [
            len(rows) == 50,
            _all(rows, lambda r: r["tau_closed"] == pytest.approx(3.0 * r["delta"], abs=1e-10)),
        ],
    ),
    **_pinned(
        "keyrate-grid",
        ("keyrate", "--delta-grid", "0:0.2:9", "--eps-grid", "0:0.06:5", "--f", "1.1"),
        on_csv=lambda h, rows, m, err: [
            _all(
                [r for r in rows if r["region"] != "infeasible"],
                lambda r: r["r_upper"] >= r["r_key"] - 1e-9,
            )
        ],
    ),
    "keyrate-zero-error-column": (
        ("keyrate", "--delta-grid", "0:0.25:26", "--eps", "0"),
        lambda h, rows, m, err: [
            _all(rows, lambda r: r["r_key"] == pytest.approx(1.0 - 4.0 * r["delta"], abs=1e-10)),
            rows[-1]["r_key"] == pytest.approx(0.0, abs=1e-10),
        ],
    ),
    "keyrate-perfect-row-has-all-three-rates-equal-one": (
        ("keyrate", "--delta", "0", "--eps", "0"),
        lambda h, rows, m, err: [
            rows[0]["r_key"] == 1.0,
            rows[0]["r_upper"] == 1.0,
            rows[0]["r_conjectured_random_assignment"] == 1.0,
            any("conjectured" in name for name in h),
        ],
    ),
    # keyrate blanks every rate outside regions (a)-(c), the conjectured one
    # too, although eps + delta/2 = 0.455 is inside its own formula's domain
    "keyrate-conjectured-blank-outside-regions": (
        ("keyrate", "--delta-grid", "0.45:0.45:1", "--eps-grid", "0.23:0.23:1"),
        lambda h, rows, m, err: [
            rows[0]["region"] == "infeasible",
            math.isnan(rows[0]["r_key"]),
            math.isnan(rows[0]["r_conjectured_random_assignment"]),
        ],
    ),
    **_pinned(
        "tradeoff-one-two",
        ("tradeoff", "--na", "1", "--nb", "2", "--samples", "2000"),
        on_csv=lambda h, rows, m, err: [
            max(abs(r["eps_minus_bound"]) for r in rows if r["eps_minus_bound"] is not None)
            <= 1e-5,
            "membership" in err,
        ],
    ),
    **_pinned(
        "tradeoff-two-two",
        ("tradeoff", "--na", "2", "--nb", "2", "--samples", "2000", "--seed", "7"),
        on_json=lambda h, rows, m, err: [
            all(r["eps_minus_bound"] >= -1e-8 for r in rows if r["eps_minus_bound"] is not None),
            m["summary"]["random_states_inside"] == m["summary"]["random_states_total"],
        ],
    ),
    # an odd-odd pair traces no boundary: one row with the closed-form minimum
    **_pinned(
        "tradeoff-odd-odd",
        ("tradeoff", "--na", "1", "--nb", "3"),
        on_csv=lambda h, rows, m, err: [rows[0]["min_double_click"] == 0.25, "0.25" in err],
    ),
    **_pinned("attack-point", ("attack", "--alpha", "0.3", "--beta", "0.7")),
    "attack-single-point": (
        ("attack", "--alpha", "1", "--beta", "0"),
        lambda h, rows, m, err: [
            rows[0]["on_boundary"] is True, rows[0]["eve_bit_accuracy"] == 1.0
        ],
    ),
    "attack-curve-end-is-on-boundary": (
        # delta_m = 2**-52 sits one rounding error from the curve's end, where g' is infinite
        ("attack", "--alpha", "1", "--beta", "1", "--format", "json"),
        lambda h, rows, m, err: [
            rows[0]["delta_m"] == 2.0**-52,
            rows[0]["eps_m"] - rows[0]["g_bound"] > 1e-8,
            rows[0]["on_boundary"] is True,
        ],
    ),
    **_pinned(
        "attack-sweep",
        ("attack", "--sweep", "500"),
        on_json=lambda h, rows, m, err: [
            m["summary"]["delta_min"] <= 1e-12,
            m["summary"]["delta_max"] >= 1.0 / 3.0 - 1e-12,
            _all(rows, lambda r: r["eve_bit_accuracy"] == pytest.approx(1.0, abs=1e-12)),
        ],
    ),
    # simulate at 2.2e6 events, which run_protocol tallies over many chunks
    **_pinned(
        "simulate-ideal",
        ("simulate", "--source", "ideal", "--events", "2200000", "--seed", "5"),
        on_csv=lambda h, rows, m, err: [
            rows[0]["delta_hat"] == 0 and rows[0]["eps_hat"] == 0,
            rows[0]["r_key"] == 1.0,
            rows[0]["seed"] == 5,
        ],
    ),
    **_pinned(
        "simulate-werner",
        ("simulate", "--source", "werner:0.9", "--events", "2200000", "--seed", "5"),
        on_csv=lambda h, rows, m, err: [
            abs(rows[0]["eps_hat"] - 0.05) <= 5.0 * rows[0]["eps_se"]
        ],
    ),
    **_pinned(
        "simulate-attack",
        ("simulate", "--source", "attack:1,0,0.5", "--events", "2200000", "--seed", "5"),
        on_csv=lambda h, rows, m, err: [
            abs(rows[0]["delta_hat"] - 0.5 / 6.0) <= 5.0 * rows[0]["delta_se"],
            abs(rows[0]["eps_hat"] - 0.5 / 12.0) <= 5.0 * rows[0]["eps_se"],
        ],
    ),
    # simulate blanks the conjectured rate with every rate outside regions
    # (a)-(c), as keyrate does, although eps + delta/2 <= 1/2 there
    "simulate-conjectured-outside-regions": (
        ("simulate", "--source", "attack:1,-1,0.9", "--events", "20000", "--seed", "3"),
        lambda h, rows, m, err: [
            rows[0]["region"] == "infeasible",
            rows[0]["r_key"] is None,
            rows[0]["r_conjectured_random_assignment"] is None,
        ],
    ),
    # one event, which seed 1 does not sift: no estimate, so no rate
    "simulate-no-sifted-event": (
        ("simulate", "--source", "ideal", "--events", "1", "--seed", "1"),
        lambda h, rows, m, err: [
            rows[0]["n_sifted_basis"] == 0,
            all(math.isnan(rows[0][k]) for k in ("delta_hat", "eps_hat", "delta_se", "eps_se")),
            rows[0]["region"] == "infeasible",
            rows[0]["r_key"] is None and rows[0]["r_conjectured_random_assignment"] is None,
        ],
    ),
}


def test_every_golden_run_is_a_row():
    assert set(GOLDEN) <= {argv for argv, _ in ACCEPTED_RUNS.values()}


@pytest.mark.parametrize("argv, conditions", ACCEPTED_RUNS.values(), ids=ACCEPTED_RUNS)
def test_command_output(capsys, argv, conditions):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if "json" in argv:
        assert "NaN" not in out  # an infeasible cell is null
        payload = json.loads(out)
        header, rows, meta = None, payload["rows"], payload["meta"]
    else:
        (header, rows), meta = read_table(out), None
    held = conditions(header, rows, meta, err) if conditions else []
    failed = [i for i, ok in enumerate(held) if not ok]
    assert not failed, f"conditions {failed} do not hold"
    if argv in GOLDEN:
        assert hashlib.sha256((out + err).encode()).hexdigest() == GOLDEN[argv]


def _both_routes(name, argv, line, exit_code, prefix):
    """Rows `name`, a `key = value` setting given as the flag --key=value, and
    `name-config`, the same setting given as a config line."""
    key, _, value = (part.strip() for part in line.partition("="))
    return {
        name: ((*argv, f"--{key}={value}"), None, exit_code, prefix),
        f"{name}-config": (argv, line, exit_code, prefix),
    }


# One row per refused run: argv, a config line or None, the exit code, and the start of
# the last stderr line.  Argparse prints its usage before that line; every other refusal
# prints that line alone.
REFUSED_RUNS = {
    "infeasible-point": (("tau", "--delta", "0.3", "--eps", "0.1"), None, 3, "infeasible: "),
    "zero-state": (("attack", "--alpha", "0", "--beta", "0"), None, 2, "error: state vanishes"),
    "attack-no-args": (("attack",), None, 2, "error: need --alpha and --beta"),
    **_both_routes(
        "sweep-with-angles", ("attack", "--sweep", "2"),
        "alpha = 1", 2, "error: give either --alpha and --beta or --sweep, not both\n",
    ),
    "bad-source": (
        ("simulate", "--source", "nope:1", "--events", "10"), None, 2, "error: unknown source kind"
    ),
    "bad-config-key": (
        ("tau", "--delta", "0", "--eps", "0"), "bogus = 1", 2, "error: unknown config key"
    ),
    # keys the parser sets itself: a config line naming one is refused, not ignored
    **{
        f"reserved-config-key-{key}": (
            ("tau", "--delta", "0", "--eps", "0"),
            f"{key} = {value}", 2, f"error: unknown config key {key!r}\n",
        )
        for key, value in [("config", "other.cfg"), ("command", "keyrate"), ("func", "x")]
    },
    # tau_numeric's grid is fixed, so no route sets its size
    "tau-resolution": (
        ("tau", "--delta", "0", "--eps", "0", "--resolution", "2000"),
        None, 2, "bbm92kit: error: unrecognized arguments: --resolution 2000\n",
    ),
    "tau-resolution-config": (
        ("tau", "--delta", "0", "--eps", "0"),
        "resolution = 2000", 2, "error: unknown config key 'resolution'\n",
    ),
    "negative-samples": (
        ("tradeoff", "--na", "1", "--nb", "2", "--samples", "-1"),
        None, 2, "error: count must be >= 0, got -1",
    ),
    "nan-attack-angle": (
        ("attack", "--alpha", "nan", "--beta", "0"),
        None, 2, "error: alpha and beta must be finite, got alpha=nan, beta=0.0\n",
    ),
    "infinite-attack-angle": (
        ("attack", "--alpha", "inf", "--beta", "0"),
        None, 2, "error: alpha and beta must be finite, got alpha=inf, beta=0.0\n",
    ),
    "nan-source-angle": (
        ("simulate", "--source", "attack:nan,0,0.5", "--events", "10"),
        None, 2, "error: alpha and beta must be finite, got alpha=nan, beta=0.0\n",
    ),
    **_both_routes(
        "negative-simulate-seed", ("simulate", "--source", "ideal", "--events", "10"),
        "seed = -1", 2, "error: --seed must be in [0, 2**128), got -1\n",
    ),
    "too-large-simulate-seed": (
        ("simulate", "--source", "ideal", "--events", "10", "--seed", str(2**128)),
        None, 2, f"error: --seed must be in [0, 2**128), got {2**128}\n",
    ),
    **_both_routes(
        "negative-tradeoff-seed", ("tradeoff", "--na", "1", "--nb", "2"),
        "seed = -1", 2, "error: --seed must be >= 0, got -1\n",
    ),
    **_both_routes(
        "odd-odd-zero-points", ("tradeoff", "--na", "1", "--nb", "3"),
        "points = 0", 2, "error: num_points must be >= 2, got 0\n",
    ),
    **_both_routes(
        "odd-odd-negative-samples", ("tradeoff", "--na", "1", "--nb", "3"),
        "samples = -5", 2, "error: count must be >= 0, got -5\n",
    ),
    # a config value passes the same type and choice checks as the flag
    **_both_routes(
        "format-xml", ("tau", "--delta", "0", "--eps", "0"),
        "format = xml", 2, "bbm92kit tau: error: argument --format: invalid choice: 'xml'",
    ),
    **_both_routes(
        "events-abc", ("simulate", "--source", "ideal"),
        "events = abc", 2,
        "bbm92kit simulate: error: argument --events: invalid int value: 'abc'\n",
    ),
    # a grid spec is start:stop:count with count >= 1, and a grid and a scalar exclude each other
    **_both_routes(
        "grid-without-count", ("tau", "--eps", "0"),
        "delta-grid = 0:1", 2, "error: grid spec must be start:stop:count, got '0:1'\n",
    ),
    **{
        name: row
        for spec in ("0:1:2.5", "a:1:3")
        for name, row in _both_routes(
            f"grid-spec-{spec}", ("tau", "--eps", "0"), f"delta-grid = {spec}",
            2, f"error: grid spec must be start:stop:count, got {spec!r}\n",
        ).items()
    },
    # an infinite or NaN end is refused with the spec, before a grid of NaN is built
    **{
        name: row
        for spec in ("0:inf:3", "nan:0.1:2", "-inf:0:2")
        for name, row in _both_routes(
            f"grid-spec-{spec}", ("tau", "--eps", "0"), f"delta-grid = {spec}",
            2, f"error: grid start and stop must be finite, got {spec!r}\n",
        ).items()
    },
    "grid-zero-count": (
        ("tau", "--delta-grid", "0:1:0", "--eps", "0"),
        None, 2, "error: grid count must be >= 1, got 0\n",
    ),
    "scalar-and-grid": (
        ("tau", "--delta", "0", "--delta-grid", "0:1:2", "--eps", "0"),
        None, 2, "error: give either --delta or --delta-grid, not both\n",
    ),
    "keyrate-missing-eps": (
        ("keyrate", "--delta", "0"), None, 2, "error: missing --eps or --eps-grid\n"
    ),
    "ideal-source-with-parameter": (
        ("simulate", "--source", "ideal:1", "--events", "10"),
        None, 2, "error: ideal source takes no parameters\n",
    ),
    "attack-source-two-numbers": (
        ("simulate", "--source", "attack:1,0", "--events", "10"),
        None, 2, "error: attack source spec must be attack:ALPHA,BETA,XI\n",
    ),
    "werner-visibility-above-one": (
        ("simulate", "--source", "werner:1.5", "--events", "10"),
        None, 2, "error: visibility must be in [0, 1], got 1.5\n",
    ),
    **_both_routes(
        "zero-events", ("simulate", "--source", "ideal"),
        "events = 0", 2, "error: --events must be >= 1, got 0\n",
    ),
    "photon-count-above-cap": (
        ("tradeoff", "--na", "40", "--nb", "2"),
        None, 2, "error: photon count 40 exceeds supported maximum 32\n",
    ),
    "sweep-one-angle": (
        ("attack", "--sweep", "1"), None, 2, "error: num_points must be >= 2, got 1\n"
    ),
    **{
        name: row
        for command, argv in [
            ("keyrate", ("keyrate", "--delta", "0.01", "--eps", "0.01")),
            ("simulate", ("simulate", "--source", "werner:0.9", "--events", "1000")),
        ]
        for value in ("nan", "inf", "-inf", "0.5")
        for name, row in _both_routes(
            f"f-{command}-{value}", argv,
            f"f = {value}", 2, f"error: --f must be finite and >= 1, got {value}\n",
        ).items()
    },
}


class TestOutputPlumbing:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        # each call prints what it prints with a fresh parser, whatever ran before
        config = tmp_path / "run.cfg"
        config.write_text("format = json\nseed = 3\n")
        calls = [
            ("tau", "--delta", "0.05", "--eps", "0.02"),
            ("keyrate", "--delta-grid", "0:0.1:8", "--eps", "0.01"),
            ("keyrate", "--delta-grid", "0:0.2:5", "--eps", "0.01", "--format", "json"),
            ("simulate", "--source", "werner:0.9", "--events", "3000", "--config", str(config)),
            ("tradeoff", "--na", "1", "--nb", "3"),
            ("keyrate", "--delta", "0", "--eps", "0", "--f", "0.5"),
            ("tau", "--delta", "0.05", "--bogus", "1"),
        ]

        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        assert [result[0] for result in alone] == [0, 0, 0, 0, 0, 2, 2]
        assert cli.build_parser() is cli.build_parser()
        for argv, want in zip(calls + calls[::-1] + calls, alone + alone[::-1] + alone):
            assert run_cli(capsys, *argv) == want

    def test_csv_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "tau", "--delta-grid", "0:0.2:7", "--eps-grid", "0:0.05:4")
        header, rows = read_table(out)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt_cell(row[c]) for c in header])
        assert buf.getvalue() == out
        header2, rows2 = read_table(buf.getvalue())
        for r1, r2 in zip(rows, rows2):
            for c in header:
                v1, v2 = r1[c], r2[c]
                if isinstance(v1, float) and math.isnan(v1):
                    assert math.isnan(v2)
                else:
                    assert v1 == v2

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "tau", "--delta", "0", "--eps", "0", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("delta,eps")
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
        code, _, _ = run_cli(capsys, "tau", "--delta", "0", "--eps", "0", "--out", "rel.csv")
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# defaults\nevents = 5000\nseed = 77\nf = 1.0\n")
        code, out1, _ = run_cli(
            capsys, "simulate", "--source", "ideal", "--config", str(config)
        )
        assert code == 0
        _, rows = read_table(out1)
        assert rows[0]["seed"] == 77 and rows[0]["events"] == 5000
        code, out2, _ = run_cli(
            capsys, "simulate", "--source", "ideal", "--config", str(config),
            "--seed", "78",
        )
        _, rows2 = read_table(out2)
        assert rows2[0]["seed"] == 78  # flag overrides config

    @pytest.mark.parametrize(
        "argv, line, exit_code, prefix", REFUSED_RUNS.values(), ids=REFUSED_RUNS
    )
    def test_rejected_input_exits(self, capsys, tmp_path, argv, line, exit_code, prefix):
        if line is not None:
            config = tmp_path / "bad.cfg"
            config.write_text(line + "\n")
            argv = (*argv, "--config", str(config))
        code, out, err = run_cli(capsys, *argv)
        *usage, last = err.splitlines(keepends=True)
        assert (code, out) == (exit_code, "")
        assert last.startswith(prefix)
        assert usage == [] or usage[0].startswith("usage: ")

    @pytest.mark.parametrize(
        "error, detail",
        [
            (MemoryError("Unable to allocate 745. GiB"), "Unable to allocate 745. GiB"),
            (MemoryError(), "MemoryError"),
        ],
        ids=["numpy-message", "bare"],
    )
    def test_allocation_failure_exits_2(self, capsys, monkeypatch, error, detail):
        # A request too large for memory is refused like any other invalid
        # argument, with one line on stderr and no traceback.
        def too_large(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli.povm, "trace_boundary", too_large)
        code, out, err = run_cli(capsys, "tradeoff", "--na", "2", "--nb", "2", "--points", "10")
        assert (code, out) == (2, "")
        assert err == f"error: request too large to allocate ({detail})\n"


# every cell type a table may hold; strings with the characters JSON, CSV and
# the row template treat specially
MIXED_COLUMNS = {
    "x": [-0.0, 5e-324, 1e16, 0.1, math.nan, np.float64(1 / 3), 2.5],
    "n": [0, -7, 2**70, 1, 3, 12345, -1],
    "flag": [True, False, None, True, False, None, True],
    'odd "key", 100% \\ \u00e9': [
        'a "b"', "back\\slash", "\u00e9\u4e2d\U0001f600", "50%", "x, y", "", "%s"
    ],
    "mixed": [None, 1.5, math.nan, "s", 4, True, -0.0],
}


# Floats that recur within a column, as a traced boundary's repeated points do: the
# writer encodes each distinct nonzero float once per column and must still write every
# cell as json.dumps does.
REPEATED_COLUMNS = {
    "repeated": [0.1, 1 / 3, 0.1, 1 / 3, 0.1, 2.5, 0.1],
    "zeros": [0.0, -0.0, -0.0, 0.0, np.float64(-0.0), 0.0, -0.0],
    "nan": [math.nan, 0.5, float("nan"), math.nan, 0.5, np.float64(math.nan), None],
    "subnormal": [5e-324, 5e-324, -5e-324, 2.5e-310, 5e-324, 2.5e-310, 0.0],
    # an int or a bool equal to a stored float keeps its own cell
    "equal_types": [1.0, 1, True, 1.0, np.float64(1.0), 1, False],
}


class TestTableWriter:
    @staticmethod
    def _args(fmt):
        return cli.build_parser().parse_args(["attack", "--sweep", "3", "--format", fmt])

    @staticmethod
    def _reference(args, columns):
        meta = {
            "version": cli.__version__,
            "command": args.command,
            "flags": {"format": args.format, "sweep": args.sweep},
        }
        rows = [
            {
                name: None if isinstance(value, float) and math.isnan(value) else value
                for name, value in zip(columns, row)
            }
            for row in zip(*columns.values())
        ]
        return json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("size", [0, 1, 2, 7])
    @pytest.mark.parametrize("shift", range(len(MIXED_COLUMNS)))
    def test_json_equals_stdlib_encoder(self, capsys, size, shift):
        names = list(MIXED_COLUMNS)
        names = names[shift:] + names[:shift]
        columns = {name: MIXED_COLUMNS[name][:size] for name in names}
        args = self._args("json")
        cli._emit(args, columns)
        assert capsys.readouterr().out == self._reference(args, columns)

    @pytest.mark.parametrize("size", [2, 7])
    def test_json_repeated_floats_equal_stdlib_encoder(self, capsys, size):
        columns = {name: values[:size] for name, values in REPEATED_COLUMNS.items()}
        args = self._args("json")
        cli._emit(args, columns)
        assert capsys.readouterr().out == self._reference(args, columns)

    def test_csv_writes_nan_as_nan(self, capsys):
        cli._emit(self._args("csv"), MIXED_COLUMNS)
        header, *records = capsys.readouterr().out.splitlines()
        assert header == 'x,n,flag,"odd ""key"", 100% \\ \u00e9",mixed'
        assert records[4] == 'nan,3,false,"x, y",4'
        assert records[2] == '1e+16,1180591620717411303424,,\u00e9\u4e2d\U0001f600,nan'

    @pytest.mark.parametrize(
        "columns",
        [
            {"a": [1.0, math.inf]},
            {"a": [1.0, -math.inf], "b": [math.inf, 2.0]},
            {"a": [math.nan, np.float64(-math.inf)]},
            # a repeated infinity takes its stored cell and must still raise
            {"a": [math.inf, 0.5, math.inf], "b": [0.5, -math.inf, -math.inf]},
            {"a": [2.0, 2.0, 2.0], "b": [-math.inf, 1.0, -math.inf]},
        ],
    )
    def test_infinity_raises_stdlib_error(self, columns):
        args = self._args("json")
        with pytest.raises(ValueError) as want:
            self._reference(args, columns)
        with pytest.raises(ValueError) as got:
            cli._emit(args, columns)
        assert str(got.value) == str(want.value)

    def test_infinite_cell_exits_2(self, capsys, monkeypatch):
        def infinite(delta, eps, feasible):
            return np.full(delta.shape, np.inf)

        monkeypatch.setattr(cli.rates, "_tau_numeric_table", infinite)
        code, out, err = run_cli(
            capsys, "tau", "--delta", "0.05", "--eps", "0.02", "--format", "json"
        )
        with pytest.raises(ValueError) as want:
            json.dumps([math.inf], indent=2, allow_nan=False)
        assert (code, out, err) == (2, "", f"error: {want.value}\n")


class TestSelftestCommand:
    def test_output_is_pinned(self, capsys):
        # the exact text of every check's detail line, which a change must keep
        # or state why it moves
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "51893df05717636ca08a23716cba369d3712ae9ccc316231039612ac34359eba"
        )

    @pytest.mark.parametrize(
        "flags",
        [("--out", "f.json", "--format", "json"), ("--config", "run.cfg")],
        ids=["output-flags", "config"],
    )
    def test_rejects_flags_it_would_ignore(self, capsys, tmp_path, monkeypatch, flags):
        # selftest prints its checks as text to stdout, so it takes no output
        # or config flags; they are unknown arguments, and nothing is written
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "selftest", *flags)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert list(tmp_path.iterdir()) == []

    def check_eps1_star():  # the check of that name, had it raised
        raise ValueError("forced failure")

    @pytest.mark.parametrize(
        "replacement, line",
        [
            (
                lambda: selfcheck.CheckResult("tangency error rate", False, "forced failure"),
                "[FAIL] tangency error rate: forced failure",
            ),
            (check_eps1_star, "[FAIL] check_eps1_star: raised ValueError: forced failure"),
        ],
        ids=["returned", "raised"],
    )
    def test_failing_check_exits_4(self, capsys, monkeypatch, replacement, line):
        # a check that raises fails like one that returns a failure, and the rest still run
        checks = list(selfcheck.CHECKS)
        checks[checks.index(selfcheck.check_eps1_star)] = replacement
        monkeypatch.setattr(selfcheck, "CHECKS", checks)
        code, out, _ = run_cli(capsys, "selftest")
        lines = out.splitlines()
        assert (code, len(lines), lines[-1]) == (4, 11, "9/10 checks passed")
        assert line in lines


LAYER_MODULES = {"attack", "fock", "povm", "rates", "sim"}

# Per run through cli.main (None: a bare `import bbm92kit`): the package modules whose
# code runs, and modules it must not import.  The layer modules it does not run stay
# deferred, and no run but selftest imports selfcheck.
LOADED_MODULES = {
    "keyrate": (
        ("keyrate", "--delta", "0.05", "--eps", "0.02"),
        {"cli", "errors", "rates"},
        {"json", "scipy"},
    ),
    "tau": (
        ("tau", "--delta", "0.05", "--eps", "0.02"),
        {"cli", "errors", "rates"},
        {"json", "scipy"},
    ),
    "attack": (
        ("attack", "--alpha", "1", "--beta", "0"),
        {"cli", "errors", "attack", "fock", "povm", "rates"},
        {"json", "scipy"},
    ),
    "simulate": (
        ("simulate", "--source", "werner:0.9", "--events", "1000", "--seed", "1"),
        {"cli", "errors", *LAYER_MODULES},
        {"json", "scipy"},
    ),
    "import": (None, {"errors"}, {"json", "numpy", "scipy"}),
}


def run_python(*args):
    """A child Python process that imports this same package."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        timeout=120,
    )


class TestEntryPoint:
    def test_unknown_flag_exits_2(self):
        proc = run_python("-m", "bbm92kit.cli", "tau", "--bogus", "1")
        assert proc.returncode == 2

    def test_version(self):
        proc = run_python("-m", "bbm92kit.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    @pytest.mark.parametrize("argv, ran, not_imported", LOADED_MODULES.values(), ids=LOADED_MODULES)
    def test_run_loads_only_what_it_runs(self, argv, ran, not_imported):
        # a deferred module stays a _DeferredModule until its code runs, and reading
        # its type runs nothing; numpy is the package's only runtime dependency
        run = "import bbm92kit\n" if argv is None else (
            f"from bbm92kit import cli\nassert cli.main({list(argv)!r}) == 0\n"
        )
        code = (
            f"import sys, types\n{run}"
            "states = {name: type(module) is types.ModuleType"
            " for name, module in sys.modules.items() if name.startswith('bbm92kit.')}\n"
            "print((states, sorted({name.partition('.')[0] for name in sys.modules})))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        states, imported = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert states == {f"bbm92kit.{name}": name in ran for name in ran | LAYER_MODULES}
        assert not not_imported & set(imported)

    def test_first_use_from_many_threads(self):
        # threads released at once all find the names; none sees a module whose code
        # is still running
        code = (
            "import sys, threading\n"
            "sys.setswitchinterval(1e-6)\n"
            "import bbm92kit\n"
            "barrier, failures = threading.Barrier(8), []\n"
            "def first_use():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        bbm92kit.sim.run_protocol, bbm92kit.rates.rate_table\n"
            "    except Exception as exc:\n"
            "        failures.append(repr(exc))\n"
            "threads = [threading.Thread(target=first_use) for _ in range(8)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join(timeout=60)\n"
            "print(failures, sum(thread.is_alive() for thread in threads))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[] 0"

    def test_write_before_first_use_is_kept(self):
        # a write or delete runs the module's code first, so that code cannot undo it
        code = (
            "import bbm92kit\n"
            "bbm92kit.rates.g = None\n"
            "del bbm92kit.fock.basis_state\n"
            "print(bbm92kit.rates.g, hasattr(bbm92kit.fock, 'basis_state'))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "None False"


def _soak_argv(i: int) -> tuple:
    """The i-th simulate soak run: 2*10**4 events of a fresh Werner or attack source, seed i."""
    spec = ("werner:0.9", "attack:1,0,0.5")[i % 2]
    return "simulate", "--source", spec, "--events", "20000", "--seed", str(i)


def _soak_point(i: int) -> tuple:
    """The i-th soak run's (delta, eps) flags, a feasible row that moves with i."""
    return "--delta", str(0.01 + 1e-4 * i), "--eps", str(0.02 + 1e-4 * i)


# Per command: the argv of soak run i, and the runs measured after the warm-up.  Values and
# seeds vary with i, photon pairs never: `outcome_projectors` keeps one entry per pair.
SOAK_RUNS = {
    "simulate": (_soak_argv, 300),
    "tau": (lambda i: ("tau", *_soak_point(i)), 100),
    "keyrate": (lambda i: ("keyrate", *_soak_point(i), "--f", str(1 + i)), 100),
    "tradeoff": (
        lambda i: (
            "tradeoff", "--na", "1", "--nb", "2", "--points", str(50 + i % 7), "--seed", str(i)
        ),
        100,
    ),
    "attack": (
        lambda i: ("attack", "--alpha", str(0.1 + 1e-3 * i), "--beta", str(0.2 - 1e-3 * i)), 100
    ),
    "attack-sweep": (lambda i: ("attack", "--sweep", "50"), 100),
}


@pytest.mark.parametrize("argv, calls", SOAK_RUNS.values(), ids=SOAK_RUNS)
def test_soak_keeps_no_row_per_call(capsys, argv, calls):
    # Long-running use does not leak: after a warm-up, each further run may grow traced
    # memory by less than the bytes of the first CSV row it prints, so a call that kept
    # even its own row (or a source, a table or a buffer, each larger) fails the bound.
    warm = 20
    row_bytes = min(len(run_cli(capsys, *argv(i))[1].splitlines()[1]) for i in range(warm))
    tracemalloc.start()
    try:
        for i in range(warm):
            run_cli(capsys, *argv(i))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(warm, warm + calls):
            assert run_cli(capsys, *argv(i))[0] == 0
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < calls * row_bytes
