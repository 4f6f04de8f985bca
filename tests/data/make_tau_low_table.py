"""Write a table of tau_low values for the regression test in test_properties.py.

The table pins the values of an earlier implementation of ``tau_low`` so a
rewrite can be compared with it.  Run it from the root of a checkout of the
commit to pin, naming that commit:

    PYTHONPATH=src python tests/data/make_tau_low_table.py COMMIT > tau_low_table.json

Points: the feasible rows of the 13x13 grid delta in [0, 0.25], eps in
[0, 0.12], then 200 seeded points spread over the feasible domain.
"""

import json
import sys

import numpy as np

from bbm92kit import ObservedStats, multiphoton_envelope, tau_low

SEED = 20080430
RANDOM_POINTS = 200


def points():
    for d in np.linspace(0.0, 0.25, 13):
        for e in np.linspace(0.0, 0.12, 13):
            yield float(d), float(e)
    rng = np.random.default_rng(SEED)
    for _ in range(RANDOM_POINTS):
        d = float(rng.uniform(0.0, 0.25))
        yield d, float(rng.uniform(0.0, 1.0) * multiphoton_envelope(d))


def main() -> None:
    rows = []
    for d, e in points():
        stats = ObservedStats(d, e)
        if stats.feasible:
            rows.append([d, e, tau_low(stats)])
    body = ",\n".join(json.dumps(row) for row in rows)
    sys.stdout.write(f'{{"commit": {json.dumps(sys.argv[1])}, "rows": [\n{body}\n]}}\n')


if __name__ == "__main__":
    main()
