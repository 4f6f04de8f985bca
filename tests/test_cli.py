import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbm92kit import cli, selfcheck

# digests pinned by tests/data/make_cli_golden.py at an earlier commit
GOLDEN = json.loads((Path(__file__).with_name("data") / "cli_golden.json").read_text())["runs"]
SIMULATE_GOLDEN = [run for run in GOLDEN if run["argv"][0] == "simulate"]
OTHER_GOLDEN = [run for run in GOLDEN if run["argv"][0] != "simulate"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
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

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            cli.parse_grid("0:1")
        with pytest.raises(ValueError):
            cli.parse_grid("0:1:0")


def _all(rows, pred) -> bool:
    """Whether there are rows and pred holds on each."""
    return bool(rows) and all(pred(row) for row in rows)


# One row per command run: argv, then the conditions on (header, rows, meta, stderr)
# that must all hold; a CSV run's meta is None and a JSON run's header is None.
COMMAND_CASES = {
    "tau-origin-row": (
        ("tau", "--delta", "0", "--eps", "0"),
        lambda h, rows, m, err: [
            h == ["delta", "eps", "tau_closed", "tau_numeric", "tau_low", "region"],
            rows[0]["tau_closed"] == 0,
            rows[0]["region"] == "a",
        ],
    ),
    "tau-error-free-grid-is-three-delta": (
        ("tau", "--delta-grid", "0:0.25:50", "--eps", "0"),
        lambda h, rows, m, err: [
            len(rows) == 50,
            _all(rows, lambda r: r["tau_closed"] == pytest.approx(3.0 * r["delta"], abs=1e-10)),
        ],
    ),
    "tau-closed-and-numeric-agree": (
        ("tau", "--delta", "0.05", "--eps", "0.02"),
        lambda h, rows, m, err: [abs(rows[0]["tau_closed"] - rows[0]["tau_numeric"]) <= 1e-5],
    ),
    "tau-json-meta": (
        ("tau", "--delta", "0", "--eps", "0", "--format", "json"),
        lambda h, rows, m, err: [
            m["command"] == "tau",
            m["flags"]["delta"] == 0.0,
            "version" in m,
            rows[0]["region"] == "a",
        ],
    ),
    "tau-infeasible-grid-rows-are-labeled": (
        ("tau", "--delta-grid", "0.2:0.3:3", "--eps", "0.04"),
        lambda h, rows, m, err: [
            rows[0]["region"] == "b",
            rows[-1]["region"] == "infeasible",
            math.isnan(rows[-1]["tau_closed"]),
        ],
    ),
    "tau-json-infeasible-rows-are-null-not-nan": (
        ("tau", "--delta-grid", "0.2:0.3:3", "--eps", "0.04", "--format", "json"),
        lambda h, rows, m, err: [
            rows[-1]["region"] == "infeasible", rows[-1]["tau_closed"] is None
        ],
    ),
    "keyrate-zero-error-column": (
        ("keyrate", "--delta-grid", "0:0.25:26", "--eps", "0"),
        lambda h, rows, m, err: [
            _all(rows, lambda r: r["r_key"] == pytest.approx(1.0 - 4.0 * r["delta"], abs=1e-10)),
            rows[-1]["r_key"] == pytest.approx(0.0, abs=1e-10),
        ],
    ),
    "keyrate-upper-bound-dominates": (
        ("keyrate", "--delta-grid", "0:0.16:9", "--eps-grid", "0:0.08:9"),
        lambda h, rows, m, err: [
            _all(
                [r for r in rows if r["region"] != "infeasible"],
                lambda r: r["r_upper"] >= r["r_key"] - 1e-9,
            )
        ],
    ),
    "keyrate-perfect-row-has-all-three-rates-equal-one": (
        ("keyrate", "--delta", "0", "--eps", "0"),
        lambda h, rows, m, err: [
            rows[0]["r_key"] == 1.0,
            rows[0]["r_upper"] == 1.0,
            rows[0]["r_conjectured_random_assignment"] == 1.0,
        ],
    ),
    "keyrate-conjectured-column-is-labeled": (
        ("keyrate", "--delta", "0", "--eps", "0"),
        lambda h, rows, m, err: [any("conjectured" in name for name in h)],
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
    "tradeoff-odd-odd-routes-to-scalar": (
        ("tradeoff", "--na", "1", "--nb", "3"),
        lambda h, rows, m, err: [
            rows[0]["min_double_click"] == 0.25, "0.25" in err
        ],
    ),
    "tradeoff-one-two-boundary-summary": (
        ("tradeoff", "--na", "1", "--nb", "2", "--points", "300"),
        lambda h, rows, m, err: [
            max(abs(r["eps_minus_bound"]) for r in rows if r["eps_minus_bound"] is not None)
            <= 1e-5,
            "membership" in err,
        ],
    ),
    "tradeoff-two-two-respects-bound": (
        ("tradeoff", "--na", "2", "--nb", "2", "--points", "200", "--format", "json"),
        lambda h, rows, m, err: [
            all(r["eps_minus_bound"] >= -1e-8 for r in rows if r["eps_minus_bound"] is not None),
            m["summary"]["random_states_inside"] == m["summary"]["random_states_total"],
        ],
    ),
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
    "attack-sweep-reports-coverage": (
        ("attack", "--sweep", "400", "--format", "json"),
        lambda h, rows, m, err: [
            m["summary"]["delta_min"] <= 1e-12,
            m["summary"]["delta_max"] >= 1.0 / 3.0 - 1e-12,
            _all(rows, lambda r: r["eve_bit_accuracy"] == pytest.approx(1.0, abs=1e-12)),
        ],
    ),
    "simulate-ideal-source": (
        ("simulate", "--source", "ideal", "--events", "20000", "--seed", "3"),
        lambda h, rows, m, err: [
            rows[0]["delta_hat"] == 0 and rows[0]["eps_hat"] == 0,
            rows[0]["r_key"] == 1.0,
            rows[0]["seed"] == 3,
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
    "simulate-werner-source": (
        ("simulate", "--source", "werner:0.9", "--events", "100000", "--seed", "4"),
        lambda h, rows, m, err: [abs(rows[0]["eps_hat"] - 0.05) <= 5.0 * rows[0]["eps_se"]],
    ),
    "simulate-attack-source-composition": (
        ("simulate", "--source", "attack:1,0,0.5", "--events", "200000", "--seed", "5"),
        lambda h, rows, m, err: [
            abs(rows[0]["delta_hat"] - 0.5 / 6.0) <= 5.0 * rows[0]["delta_se"],
            abs(rows[0]["eps_hat"] - 0.5 / 12.0) <= 5.0 * rows[0]["eps_se"],
        ],
    ),
}


@pytest.mark.parametrize("argv, conditions", COMMAND_CASES.values(), ids=COMMAND_CASES)
def test_command_output(capsys, argv, conditions):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    if "json" in argv:
        assert "NaN" not in out  # an infeasible cell is null
        payload = json.loads(out)
        header, rows, meta = None, payload["rows"], payload["meta"]
    else:
        (header, rows), meta = read_table(out), None
    failed = [i for i, held in enumerate(conditions(header, rows, meta, err)) if not held]
    assert not failed, f"conditions {failed} do not hold"


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

        def call(argv):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for argv in calls:
            cli.build_parser.cache_clear()
            alone.append(call(argv))
        assert [result[0] for result in alone] == [0, 0, 0, 0, 0, 2, 2]
        assert cli.build_parser() is cli.build_parser()
        for argv, want in zip(calls + calls[::-1] + calls, alone + alone[::-1] + alone):
            assert call(argv) == want

    def test_simulate_deterministic(self, capsys):
        args = ("simulate", "--source", "werner:0.85", "--events", "30000", "--seed", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @staticmethod
    def _assert_golden(capsys, run):
        code, out, err = run_cli(capsys, *run["argv"])
        assert code == 0
        assert hashlib.sha256((out + err).encode()).hexdigest() == run["sha256"]

    @pytest.mark.parametrize(
        "run", SIMULATE_GOLDEN, ids=lambda run: f"{run['argv'][2]}-{run['argv'][-1]}"
    )
    def test_simulate_output_matches_golden(self, capsys, run):
        self._assert_golden(capsys, run)

    @pytest.mark.parametrize("run", OTHER_GOLDEN, ids=lambda run: " ".join(run["argv"]))
    def test_output_matches_golden(self, capsys, run):
        self._assert_golden(capsys, run)

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
        "argv, line, exit_code, prefix",
        [
            (("tau", "--delta", "0.3", "--eps", "0.1"), None, 3, "infeasible: "),
            (("attack", "--alpha", "0", "--beta", "0"), None, 2, "error: state vanishes"),
            (("attack",), None, 2, "error: need --alpha and --beta"),
            (
                ("attack", "--sweep", "2", "--alpha", "1", "--beta", "0"),
                None, 2, "error: give either --alpha and --beta or --sweep, not both\n",
            ),
            (
                ("attack", "--sweep", "2"),
                "alpha = 1", 2, "error: give either --alpha and --beta or --sweep, not both\n",
            ),
            (
                ("simulate", "--source", "nope:1", "--events", "10"),
                None, 2, "error: unknown source kind",
            ),
            (("tau", "--delta", "0", "--eps", "0"), "bogus = 1", 2, "error: unknown config key"),
            # keys the parser sets itself: a config line naming one is refused, not ignored
            *(
                (
                    ("tau", "--delta", "0", "--eps", "0"),
                    f"{key} = {value}", 2, f"error: unknown config key {key!r}\n",
                )
                for key, value in [("config", "other.cfg"), ("command", "keyrate"), ("func", "x")]
            ),
            # tau_numeric's grid is fixed, so no route sets its size
            (
                ("tau", "--delta", "0", "--eps", "0", "--resolution", "2000"),
                None, 2, "bbm92kit: error: unrecognized arguments: --resolution 2000\n",
            ),
            (
                ("tau", "--delta", "0", "--eps", "0"),
                "resolution = 2000", 2, "error: unknown config key 'resolution'\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "2", "--samples", "-1"),
                None, 2, "error: count must be >= 0, got -1",
            ),
            (
                ("attack", "--alpha", "nan", "--beta", "0"),
                None, 2, "error: alpha and beta must be finite, got alpha=nan, beta=0.0\n",
            ),
            (
                ("attack", "--alpha", "inf", "--beta", "0"),
                None, 2, "error: alpha and beta must be finite, got alpha=inf, beta=0.0\n",
            ),
            (
                ("simulate", "--source", "attack:nan,0,0.5", "--events", "10"),
                None, 2, "error: alpha and beta must be finite, got alpha=nan, beta=0.0\n",
            ),
            (
                ("simulate", "--source", "ideal", "--events", "10", "--seed", "-1"),
                None, 2, "error: --seed must be in [0, 2**128), got -1\n",
            ),
            (
                ("simulate", "--source", "ideal", "--events", "10"),
                "seed = -1", 2, "error: --seed must be in [0, 2**128), got -1\n",
            ),
            (
                ("simulate", "--source", "ideal", "--events", "10", "--seed", str(2**128)),
                None, 2, f"error: --seed must be in [0, 2**128), got {2**128}\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "2", "--seed", "-1"),
                None, 2, "error: --seed must be >= 0, got -1\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "2"),
                "seed = -1", 2, "error: --seed must be >= 0, got -1\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "3", "--points", "0"),
                None, 2, "error: num_points must be >= 2\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "3"),
                "points = 0", 2, "error: num_points must be >= 2\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "3", "--samples", "-5"),
                None, 2, "error: count must be >= 0, got -5\n",
            ),
            (
                ("tradeoff", "--na", "1", "--nb", "3"),
                "samples = -5", 2, "error: count must be >= 0, got -5\n",
            ),
        ],
        ids=[
            "infeasible-point", "zero-state", "attack-no-args", "sweep-with-angles",
            "sweep-with-angles-config", "bad-source", "bad-config-key",
            "reserved-config-key-config", "reserved-config-key-command", "reserved-config-key-func",
            "tau-resolution", "tau-resolution-config",
            "negative-samples", "nan-attack-angle", "infinite-attack-angle", "nan-source-angle",
            "negative-simulate-seed", "negative-simulate-seed-config", "too-large-simulate-seed",
            "negative-tradeoff-seed", "negative-tradeoff-seed-config",
            "odd-odd-zero-points", "odd-odd-zero-points-config",
            "odd-odd-negative-samples", "odd-odd-negative-samples-config",
        ],
    )
    def test_rejected_input_exits(self, capsys, tmp_path, argv, line, exit_code, prefix):
        if line is not None:
            config = tmp_path / "bad.cfg"
            config.write_text(line + "\n")
            argv = (*argv, "--config", str(config))
        try:
            code, out, err = run_cli(capsys, *argv)
        except SystemExit as exc:  # argparse's own refusal: its usage, then one error line
            code, (out, err) = exc.code, capsys.readouterr()
            err = err.splitlines(keepends=True)[-1]
        assert (code, out) == (exit_code, "")
        assert err.startswith(prefix)

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

    @pytest.mark.parametrize(
        "line, argv",
        [
            ("format = xml", ("tau", "--delta", "0", "--eps", "0")),
            ("events = abc", ("simulate", "--source", "ideal")),
        ],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, line, argv):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", str(config)])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("keyrate", "--delta", "0.01", "--eps", "0.01"),
            ("simulate", "--source", "werner:0.9", "--events", "1000"),
        ],
        ids=["keyrate", "simulate"],
    )
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_bad_f_exits_2(self, capsys, tmp_path, route, argv, value):
        if route == "flag":
            argv = (*argv, f"--f={value}")
        else:
            config = tmp_path / "f.cfg"
            config.write_text(f"f = {value}\n")
            argv = (*argv, "--config", str(config))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "--f must be finite and >= 1" in err


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
        def infinite(delta, eps):
            return np.full(delta.shape, np.inf)

        monkeypatch.setattr(cli.rates, "tau_numeric_array", infinite)
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
            "c95e3893e130cd7ece2c28286a58c5ad65e6f6f1b5b7c63a15e86f00579b5aa0"
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
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", *flags])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(flags)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_failing_check_exits_4(self, capsys, monkeypatch):
        failed = selfcheck.CheckResult("tangency error rate", False, "forced failure")
        monkeypatch.setattr(selfcheck, "check_eps1_star", lambda: failed)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 4
        assert "[FAIL] tangency error rate: forced failure" in out.splitlines()
        assert out.splitlines()[-1] == "9/10 checks passed"


def run_python(*args):
    """A child Python process that imports this same package."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )


class TestEntryPoint:
    def test_unknown_flag_exits_2(self):
        proc = run_python("-m", "bbm92kit.cli", "tau", "--bogus", "1")
        assert proc.returncode == 2

    def test_version(self):
        proc = run_python("-m", "bbm92kit.cli", "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_cli_call_loads_no_scipy(self):
        # numpy is the package's only runtime dependency
        code = (
            "import sys\n"
            "from bbm92kit import cli\n"
            "assert cli.main(['tau', '--delta', '0.05', '--eps', '0.02']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
