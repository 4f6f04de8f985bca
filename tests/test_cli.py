import hashlib
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


class TestGridSpec:
    def test_inclusive_endpoints(self):
        grid = cli.parse_grid("0:0.25:6")
        assert grid[0] == 0.0 and grid[-1] == 0.25 and len(grid) == 6

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            cli.parse_grid("0:1")
        with pytest.raises(ValueError):
            cli.parse_grid("0:1:0")


class TestTauCommand:
    def test_origin_row(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--delta", "0", "--eps", "0")
        assert code == 0
        header, rows = cli.read_table(out)
        assert header == ["delta", "eps", "tau_closed", "tau_numeric", "tau_low", "region"]
        assert rows[0]["tau_closed"] == 0
        assert rows[0]["region"] == "a"

    def test_error_free_grid_is_three_delta(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--delta-grid", "0:0.25:50", "--eps", "0")
        assert code == 0
        _, rows = cli.read_table(out)
        assert len(rows) == 50
        for row in rows:
            assert row["tau_closed"] == pytest.approx(3.0 * row["delta"], abs=1e-10)

    def test_closed_and_numeric_agree(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--delta", "0.05", "--eps", "0.02")
        assert code == 0
        _, rows = cli.read_table(out)
        assert abs(rows[0]["tau_closed"] - rows[0]["tau_numeric"]) <= 1e-5

    def test_infeasible_grid_rows_are_labeled(self, capsys):
        code, out, _ = run_cli(capsys, "tau", "--delta-grid", "0.2:0.3:3", "--eps", "0.04")
        assert code == 0
        _, rows = cli.read_table(out)
        regions = [row["region"] for row in rows]
        assert regions[0] == "b"
        assert regions[-1] == "infeasible"
        assert math.isnan(rows[-1]["tau_closed"])


class TestKeyrateCommand:
    def test_zero_error_column(self, capsys):
        code, out, _ = run_cli(capsys, "keyrate", "--delta-grid", "0:0.25:26", "--eps", "0")
        assert code == 0
        _, rows = cli.read_table(out)
        for row in rows:
            assert row["r_key"] == pytest.approx(1.0 - 4.0 * row["delta"], abs=1e-10)
        assert rows[-1]["r_key"] == pytest.approx(0.0, abs=1e-10)

    def test_upper_bound_dominates(self, capsys):
        code, out, _ = run_cli(
            capsys, "keyrate", "--delta-grid", "0:0.16:9", "--eps-grid", "0:0.08:9"
        )
        assert code == 0
        _, rows = cli.read_table(out)
        feasible = [r for r in rows if r["region"] != "infeasible"]
        assert feasible
        for row in feasible:
            assert row["r_upper"] >= row["r_key"] - 1e-9

    def test_perfect_row_has_all_three_rates_equal_one(self, capsys):
        code, out, _ = run_cli(capsys, "keyrate", "--delta", "0", "--eps", "0")
        assert code == 0
        _, rows = cli.read_table(out)
        row = rows[0]
        assert row["r_key"] == 1.0
        assert row["r_upper"] == 1.0
        assert row["r_conjectured_random_assignment"] == 1.0

    def test_conjectured_column_is_labeled(self, capsys):
        _, out, _ = run_cli(capsys, "keyrate", "--delta", "0", "--eps", "0")
        header, _ = cli.read_table(out)
        assert any("conjectured" in name for name in header)


class TestTradeoffCommand:
    def test_odd_odd_routes_to_scalar(self, capsys):
        code, out, err = run_cli(capsys, "tradeoff", "--na", "1", "--nb", "3")
        assert code == 0
        _, rows = cli.read_table(out)
        assert rows[0]["min_double_click"] == pytest.approx(0.25, abs=1e-9)
        assert "0.25" in err

    def test_one_two_boundary_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "tradeoff", "--na", "1", "--nb", "2", "--points", "300"
        )
        assert code == 0
        _, rows = cli.read_table(out)
        devs = [abs(r["eps_minus_bound"]) for r in rows if r["eps_minus_bound"] is not None]
        assert max(devs) <= 1e-5
        assert "membership" in err

    def test_two_two_respects_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--na", "2", "--nb", "2", "--points", "200",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            if row["eps_minus_bound"] is not None:
                assert row["eps_minus_bound"] >= -1e-8
        assert payload["meta"]["summary"]["random_states_inside"] == (
            payload["meta"]["summary"]["random_states_total"]
        )


class TestAttackCommand:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(capsys, "attack", "--alpha", "1", "--beta", "0")
        assert code == 0
        _, rows = cli.read_table(out)
        row = rows[0]
        assert row["on_boundary"] is True
        assert row["eve_bit_accuracy"] == 1.0

    def test_sweep_reports_coverage(self, capsys):
        code, out, err = run_cli(capsys, "attack", "--sweep", "400", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        summary = payload["meta"]["summary"]
        assert summary["delta_min"] <= 1e-12
        assert summary["delta_max"] >= 1.0 / 3.0 - 1e-12
        for row in payload["rows"]:
            assert row["eve_bit_accuracy"] == pytest.approx(1.0, abs=1e-12)


class TestSimulateCommand:
    def test_ideal_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--source", "ideal", "--events", "20000", "--seed", "3"
        )
        assert code == 0
        _, rows = cli.read_table(out)
        row = rows[0]
        assert row["delta_hat"] == 0 and row["eps_hat"] == 0
        assert row["r_key"] == 1.0
        assert row["seed"] == 3

    def test_werner_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--source", "werner:0.9", "--events", "100000",
            "--seed", "4",
        )
        assert code == 0
        _, rows = cli.read_table(out)
        row = rows[0]
        assert abs(row["eps_hat"] - 0.05) <= 5.0 * row["eps_se"]

    def test_attack_source_composition(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--source", "attack:1,0,0.5", "--events", "200000",
            "--seed", "5",
        )
        assert code == 0
        _, rows = cli.read_table(out)
        row = rows[0]
        assert abs(row["delta_hat"] - 0.5 / 6.0) <= 5.0 * row["delta_se"]
        assert abs(row["eps_hat"] - 0.5 / 12.0) <= 5.0 * row["eps_se"]


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
        header, rows = cli.read_table(out)
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt_cell(row[c]) for c in header])
        assert buf.getvalue() == out
        header2, rows2 = cli.read_table(buf.getvalue())
        for r1, r2 in zip(rows, rows2):
            for c in header:
                v1, v2 = r1[c], r2[c]
                if isinstance(v1, float) and math.isnan(v1):
                    assert math.isnan(v2)
                else:
                    assert v1 == v2

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(
            capsys, "tau", "--delta", "0", "--eps", "0", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["command"] == "tau"
        assert payload["meta"]["flags"]["delta"] == 0.0
        assert "version" in payload["meta"]
        assert payload["rows"][0]["region"] == "a"

    def test_json_infeasible_rows_are_null_not_nan(self, capsys):
        code, out, _ = run_cli(
            capsys, "tau", "--delta-grid", "0.2:0.3:3", "--eps", "0.04",
            "--format", "json",
        )
        assert code == 0
        assert "NaN" not in out
        payload = json.loads(out)
        assert payload["rows"][-1]["region"] == "infeasible"
        assert payload["rows"][-1]["tau_closed"] is None

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
        _, rows = cli.read_table(out1)
        assert rows[0]["seed"] == 77 and rows[0]["events"] == 5000
        code, out2, _ = run_cli(
            capsys, "simulate", "--source", "ideal", "--config", str(config),
            "--seed", "78",
        )
        _, rows2 = cli.read_table(out2)
        assert rows2[0]["seed"] == 78  # flag overrides config

    @pytest.mark.parametrize(
        "argv, line, exit_code, prefix",
        [
            (("tau", "--delta", "0.3", "--eps", "0.1"), None, 3, "infeasible: "),
            (("attack", "--alpha", "0", "--beta", "0"), None, 2, "error: state vanishes"),
            (("attack",), None, 2, "error: need --alpha and --beta"),
            (
                ("simulate", "--source", "nope:1", "--events", "10"),
                None, 2, "error: unknown source kind",
            ),
            (("tau", "--delta", "0", "--eps", "0"), "bogus = 1", 2, "error: unknown config key"),
            (
                ("tradeoff", "--na", "1", "--nb", "2", "--samples", "-1"),
                None, 2, "error: count must be >= 0, got -1",
            ),
        ],
        ids=[
            "infeasible-point", "zero-state", "attack-no-args", "bad-source", "bad-config-key",
            "negative-samples",
        ],
    )
    def test_rejected_input_exits(self, capsys, tmp_path, argv, line, exit_code, prefix):
        if line is not None:
            config = tmp_path / "bad.cfg"
            config.write_text(line + "\n")
            argv = (*argv, "--config", str(config))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (exit_code, "")
        assert err.startswith(prefix)


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
        def infinite(delta, eps, resolution):
            return np.full(delta.shape, np.inf)

        monkeypatch.setattr(cli.rates, "tau_numeric_array", infinite)
        code, out, err = run_cli(
            capsys, "tau", "--delta", "0.05", "--eps", "0.02", "--format", "json"
        )
        with pytest.raises(ValueError) as want:
            json.dumps([math.inf], indent=2, allow_nan=False)
        assert (code, out, err) == (2, "", f"error: {want.value}\n")


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert out.count("[PASS]") == 10
        assert out.splitlines()[-1] == "10/10 checks passed"

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
