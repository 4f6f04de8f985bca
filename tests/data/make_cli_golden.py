"""Write the digests of `bbm92kit` output for the golden test in test_cli.py.

The digests pin the bytes an earlier commit printed for a fixed list of
commands, so a rewrite of the code behind them can be required to print the
same bytes.  Each digest covers stdout followed by stderr, where the CSV
format prints its summary lines.  Run it from the root of a checkout of the
commit to pin, naming that commit:

    PYTHONPATH=src python tests/data/make_cli_golden.py COMMIT > cli_golden.json

Commands, each in CSV and in JSON: `simulate` for each source kind at 2.2e6
events, which `run_protocol` tallies over many chunks; `tradeoff` for the pairs
(1,2) and (2,2) with random states and for the odd-odd pair (1,3); `attack`
for one point and for a sweep; one `tau` and one `keyrate` grid.
"""

import contextlib
import hashlib
import io
import json
import sys

from bbm92kit import cli

COMMANDS = [
    *(
        ["simulate", "--source", source, "--events", "2200000", "--seed", "5"]
        for source in ("ideal", "werner:0.9", "attack:1,0,0.5")
    ),
    ["tradeoff", "--na", "1", "--nb", "2", "--samples", "2000"],
    ["tradeoff", "--na", "2", "--nb", "2", "--samples", "2000", "--seed", "7"],
    ["tradeoff", "--na", "1", "--nb", "3"],
    ["attack", "--alpha", "0.3", "--beta", "0.7"],
    ["attack", "--sweep", "500"],
    ["tau", "--delta-grid", "0:0.25:9", "--eps-grid", "0:0.12:7"],
    ["keyrate", "--delta-grid", "0:0.2:9", "--eps-grid", "0:0.06:5", "--f", "1.1"],
]


def digest(args: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"{' '.join(args)} exited {code}")
    return hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()


def main() -> None:
    runs = [
        {"argv": args, "sha256": digest(args)}
        for command in COMMANDS
        for args in ([*command, "--format", "csv"], [*command, "--format", "json"])
    ]
    body = ",\n".join(json.dumps(run) for run in runs)
    sys.stdout.write(f'{{"commit": {json.dumps(sys.argv[1])}, "runs": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
