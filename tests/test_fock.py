import math

import numpy as np
import pytest

from bbm92kit import (
    MAX_PHOTONS,
    Basis,
    Bit,
    ModePartition,
    basis_state,
    inner_product,
    multimode_inner_product,
)
from bbm92kit import fock
from bbm92kit.errors import NumericalError

SQ2 = math.sqrt(2.0)


def ladder_oracle(n: int, sign: int) -> np.ndarray:
    """Independent construction of the diagonal states via creation operators.

    Applies (a_H^dag + sign * a_V^dag)^n to the vacuum in the two-mode
    occupation basis and normalizes by sqrt(2^n n!); returns amplitudes
    indexed by the H-photon count.
    """
    amps = {(0, 0): 1.0}
    for _ in range(n):
        new: dict[tuple[int, int], float] = {}
        for (h, v), a in amps.items():
            new[(h + 1, v)] = new.get((h + 1, v), 0.0) + a * math.sqrt(h + 1)
            new[(h, v + 1)] = new.get((h, v + 1), 0.0) + sign * a * math.sqrt(v + 1)
        amps = new
    scale = math.sqrt(2.0**n * math.factorial(n))
    out = np.zeros(n + 1)
    for (h, v), a in amps.items():
        assert h + v == n
        out[h] = a / scale
    return out


def overlap(n, w1, b1, w2, b2) -> float:
    return inner_product(basis_state(n, w1, b1), basis_state(n, w2, b2))


Z, X, B0, B1 = Basis.Z, Basis.X, Bit.ZERO, Bit.ONE
# call, expected amplitudes, absolute tolerance
KNOWN_VALUES = {
    "single-photon-z0": (lambda: basis_state(1, Z, B0), [0, 1], 1e-15),
    "single-photon-z1": (lambda: basis_state(1, Z, B1), [1, 0], 1e-15),
    "single-photon-x0": (lambda: basis_state(1, X, B0), [1 / SQ2, 1 / SQ2], 1e-15),
    "single-photon-x1": (lambda: basis_state(1, X, B1), [-1 / SQ2, 1 / SQ2], 1e-15),
    # expansion of the two-photon diagonal state
    "two-photon-x0": (lambda: basis_state(2, X, B0), [0.5, 1 / SQ2, 0.5], 1e-15),
}


@pytest.mark.parametrize("call, want, tol", KNOWN_VALUES.values(), ids=KNOWN_VALUES)
def test_known_value(call, want, tol):
    assert np.allclose(call(), want, rtol=0.0, atol=tol)


class TestBasisState:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("b", [Bit.ZERO, Bit.ONE])
    def test_x_states_match_ladder_oracle(self, n, b):
        sign = 1 if b is Bit.ZERO else -1
        assert np.allclose(basis_state(n, Basis.X, b), ladder_oracle(n, sign), atol=1e-14)

    @pytest.mark.parametrize("n", range(1, MAX_PHOTONS + 1))
    def test_normalized(self, n):
        for w in Basis:
            for b in Bit:
                state = basis_state(n, w, b)
                assert state.shape == (n + 1,) and not state.flags.writeable
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_off_norm_amplitudes(self, monkeypatch):
        comb = math.comb
        monkeypatch.setattr(fock.math, "comb", lambda n, k: 2 * comb(n, k))
        with pytest.raises(NumericalError, match="unit norm, got 1.41421356"):
            basis_state(2, Basis.X, Bit.ZERO)


class TestMultimode:
    def test_degenerate_partition(self):
        for w1, b1, w2, b2 in [
            (Basis.X, Bit.ZERO, Basis.Z, Bit.ONE),
            (Basis.Z, Bit.ONE, Basis.Z, Bit.ONE),
            (Basis.X, Bit.ONE, Basis.X, Bit.ZERO),
        ]:
            got = multimode_inner_product(ModePartition((3,)), w1, b1, w2, b2)
            want = overlap(3, w1, b1, w2, b2)
            assert got == pytest.approx(want, abs=1e-15)
