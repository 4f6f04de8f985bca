"""Write the digests of `bbm92kit simulate` output for the golden test in test_cli.py.

The digests pin the bytes an earlier implementation of the Monte Carlo kernel
printed, so a rewrite of the kernel can be required to print the same bytes.
Run it from the root of a checkout of the commit to pin, naming that commit:

    PYTHONPATH=src python tests/data/make_simulate_golden.py COMMIT > simulate_golden.json

Runs: each CLI source kind at 2.2e6 events, which is three chunks of
`run_protocol`, in CSV and in JSON.
"""

import contextlib
import hashlib
import io
import json
import sys

from bbm92kit import cli

SOURCES = ("ideal", "werner:0.9", "attack:1,0,0.5")
EVENTS = 2_200_000
SEED = 5


def argv(source: str, fmt: str) -> list[str]:
    return [
        "simulate", "--source", source, "--events", str(EVENTS),
        "--seed", str(SEED), "--format", fmt,
    ]


def digest(args: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"{' '.join(args)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    runs = [
        {"argv": args, "sha256": digest(args)}
        for source in SOURCES
        for args in (argv(source, "csv"), argv(source, "json"))
    ]
    body = ",\n".join(json.dumps(run) for run in runs)
    sys.stdout.write(f'{{"commit": {json.dumps(sys.argv[1])}, "runs": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
