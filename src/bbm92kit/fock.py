"""n-photon two-polarization states and their overlap rules.

A state of n photons shared between the horizontal (H) and vertical (V)
polarization modes is a plain read-only array of n+1 real amplitudes,
indexed by the number k of H photons.  All four measurement basis states
(H/V and the +/-45 degree diagonals) have real amplitudes in this basis,
so real arithmetic suffices throughout the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import NumericalError

# Amplitudes use exact integer binomials converted to float; C(32, 16) is still
# exactly representable in a double, and nothing downstream needs larger n.
MAX_PHOTONS = 32


class Basis(Enum):
    """Measurement basis: Z splits H/V, X splits the +/-45 diagonals."""

    Z = "Z"
    X = "X"


class Bit(IntEnum):
    """Key bit assigned to a detector outcome."""

    ZERO = 0
    ONE = 1


def _check_count(value: int, name: str, least: float) -> None:
    """The one gate of every count and photon number: an integer, not a bool, and >= least."""
    # a float count would fail deep inside numpy, and Philox would truncate a float key
    # or counter, so 1.5 would replay 1's stream; a bool indexes numpy arrays as a mask,
    # and is an int to isinstance, so (True, 2) would split 3 photons
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ModePartition:
    """Split of ``n`` photons into per-mode photon numbers ``parts``."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("partition must contain at least one mode")
        for p in self.parts:
            _check_count(p, "parts", 1)

    @property
    def n(self) -> int:
        return sum(self.parts)


def basis_state(n: int, w: Basis, b: Bit) -> np.ndarray:
    """State selected by detector bit ``b`` when measuring ``n`` photons in basis ``w``.

    Returns the read-only (n+1,) amplitudes, entry k the coefficient of k
    photons in H and n-k in V, checked to unit norm.  In the Z basis these
    are the pure-H (bit 0) and pure-V (bit 1) occupation states.  In the X
    basis they are the n-fold diagonal states, whose occupation amplitudes
    are signed square roots of binomial coefficients scaled by 2^(-n/2).
    """
    _check_count(n, "photon count", 1)
    if n > MAX_PHOTONS:
        raise ValueError(f"photon count {n} exceeds supported maximum {MAX_PHOTONS}")
    b = Bit(b)
    amps = np.zeros(n + 1)
    if w is Basis.Z:
        amps[n if b is Bit.ZERO else 0] = 1.0
    else:
        sign = 1.0 if b is Bit.ZERO else -1.0
        scale = 2.0 ** (-n / 2.0)
        for k in range(n + 1):
            amps[k] = sign ** (n - k) * scale * math.sqrt(math.comb(n, k))
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-12:
        raise NumericalError(f"amplitudes must have unit norm, got {norm!r}")
    amps.setflags(write=False)
    return amps


def inner_product(s1: np.ndarray, s2: np.ndarray) -> float:
    """Overlap of two amplitude vectors with the same photon number (the same length)."""
    if len(s1) != len(s2):
        raise ValueError(f"photon numbers differ: {len(s1) - 1} != {len(s2) - 1}")
    return float(np.dot(s1, s2))


def multimode_inner_product(
    partition: ModePartition, w1: Basis, b1: Bit, w2: Basis, b2: Bit
) -> float:
    """Overlap of two basis states whose photons are spread over several modes.

    With the photon number of each mode fixed, a multimode basis state is a
    product of single-mode basis states, so the overlap is the product of the
    per-mode overlaps.  The result always coincides with the single-mode value
    for the total photon number; that equality is checked here because every
    operator bound downstream relies on it.
    """
    product = 1.0
    for n_j in partition.parts:
        product *= inner_product(basis_state(n_j, w1, b1), basis_state(n_j, w2, b2))
    single = inner_product(
        basis_state(partition.n, w1, b1), basis_state(partition.n, w2, b2)
    )
    if abs(product - single) > 1e-9:
        raise NumericalError(
            f"multimode overlap {product!r} deviates from single-mode value {single!r}"
        )
    return product
