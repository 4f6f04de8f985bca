"""Time a cold import of bbm92kit plus one first call, in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR CLI_ARG...

Prints the elapsed seconds; exits non-zero if the call fails.  The clock
starts before the package (and with it numpy and scipy) is imported, so the
figure covers import and the lazy set-up the first call pays.
"""

import contextlib
import io
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from bbm92kit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"first call {argv} exited with {code}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
