"""Explicit eavesdropping construction for odd-even photon-number pairs.

The attacker replaces the source: she keeps one half of a maximally entangled
single-photon pair, sends the other half to Alice, and sends Bob an even
photon-number state of her choice, after applying a basis-independent
bit-copying unitary V on the Alice/Bob systems.  The double-click and error
fractions then depend only on the state handed to Bob, and sweeping that
state traces the entire lower boundary of the trade-off region while the
attacker learns Alice's bit exactly on every sifted event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .fock import Basis, Bit, PolarizedFockState, basis_state
from .povm import capped_joint_dim, outcome_projectors


@dataclass(frozen=True)
class UnitaryMap:
    """Dense real orthogonal matrix."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        u = np.array(self.entries, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"entries must be square, got shape {u.shape}")
        defect = float(np.max(np.abs(u.T @ u - np.eye(u.shape[0]))))
        if defect > 1e-10:
            raise ValueError(f"matrix deviates from orthogonality by {defect:.3e}")
        u.setflags(write=False)
        object.__setattr__(self, "entries", u)


@dataclass(frozen=True)
class JointState:
    """Pure state over several subsystems, stored as a flat unit vector."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        amps = np.array(self.amplitudes, dtype=float).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(f"amplitude length {amps.size} does not match dims {dims}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state must have unit norm, got {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


class AttackResult(NamedTuple):
    delta_m: float
    eps_m: float
    eve_bit_accuracy: float


def _generator_pairs(n_a: int, n_b: int) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    for w in (Basis.Z, Basis.X):
        for a in (Bit.ZERO, Bit.ONE):
            for b in (Bit.ZERO, Bit.ONE):
                src = np.kron(
                    basis_state(n_a, w, a).amplitudes, basis_state(n_b, w, b).amplitudes
                )
                tgt = np.kron(
                    basis_state(n_a, w, a).amplitudes,
                    basis_state(n_b, w, Bit(b ^ a)).amplitudes,
                )
                pairs.append((src, tgt))
    return pairs


@lru_cache(maxsize=16)
def build_v(n_a: int, n_b: int) -> UnitaryMap:
    """Orthogonal map sending |a_W>|b_W> to |a_W>|(b+a mod 2)_W> in both bases.

    Such a map exists because source and target families have identical Gram
    matrices: same-basis overlaps are Kronecker deltas unchanged by the bit
    flip, and cross-basis overlaps on the even-photon target side are constant
    in the bit values.  The map is built by pairing orthonormalizations of the
    two spans and acts as the identity on the orthogonal complement.
    """
    if n_a < 1 or n_a % 2 == 0:
        raise ValueError(f"control photon number must be odd, got {n_a}")
    if n_b < 2 or n_b % 2 == 1:
        raise ValueError(f"target photon number must be even and >= 2, got {n_b}")
    dim = capped_joint_dim(n_a, n_b)
    pairs = _generator_pairs(n_a, n_b)
    src = np.column_stack([s for s, _ in pairs])
    tgt = np.column_stack([t for _, t in pairs])
    gram_src = src.T @ src
    gram_tgt = tgt.T @ tgt
    mismatch = float(np.max(np.abs(gram_src - gram_tgt)))
    if mismatch > 1e-10:
        raise NumericalError(f"source/target Gram matrices differ by {mismatch:.3e}")
    w, u = np.linalg.eigh(0.5 * (gram_src + gram_src.T))
    keep = w > 1e-10 * w.max()
    scale = 1.0 / np.sqrt(w[keep])
    basis_src = src @ (u[:, keep] * scale)
    basis_tgt = tgt @ (u[:, keep] * scale)
    complement = np.eye(dim) - basis_src @ basis_src.T
    v = basis_tgt @ basis_src.T + complement
    defect = float(np.max(np.abs(v @ src - tgt)))
    if defect > 1e-10:
        raise NumericalError(f"bit-copying relation violated by {defect:.3e}")
    return UnitaryMap(v)


def boundary_state(alpha: float, beta: float) -> PolarizedFockState:
    """Normalized sum over both bases of alpha |0_W> + beta |1_W> on two photons.

    These states hand the attacker every point of the lower trade-off
    boundary as (alpha, beta) sweeps the unit circle.
    """
    raw = np.zeros(3)
    for w in (Basis.Z, Basis.X):
        raw += alpha * basis_state(2, w, Bit.ZERO).amplitudes
        raw += beta * basis_state(2, w, Bit.ONE).amplitudes
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        raise ValueError(f"state vanishes for alpha={alpha!r}, beta={beta!r}")
    return PolarizedFockState(2, raw / norm)


def attack_state(chi: PolarizedFockState) -> JointState:
    """Joint Alice/Bob/Eve state after the bit-copying unitary is applied.

    Alice's half of the entangled pair is system A (one photon), Bob receives
    the two-photon system B prepared in ``chi``, and E is the attacker's
    retained qubit, correlated with A in both bases.
    """
    if chi.n != 2:
        raise ValueError(f"attack is constructed for a two-photon Bob state, got n={chi.n}")
    v = build_v(1, 2).entries
    phi_plus = np.zeros((2, 2))
    for bit in (Bit.ZERO, Bit.ONE):
        amp = basis_state(1, Basis.Z, bit).amplitudes
        phi_plus += np.outer(amp, amp)
    phi_plus /= np.sqrt(2.0)
    pre = np.einsum("ae,b->abe", phi_plus, chi.amplitudes)
    post = (v @ pre.reshape(6, 2)).reshape(2, 3, 2)
    return JointState((2, 3, 2), post.reshape(-1))


def attack_density(chi: PolarizedFockState) -> np.ndarray:
    """Reduced Alice/Bob density matrix of the attack state (6x6)."""
    mat = attack_state(chi).amplitudes.reshape(6, 2)
    return mat @ mat.T


def run_attack(chi: PolarizedFockState) -> AttackResult:
    """Double-click fraction, error fraction, and the attacker's bit accuracy.

    The fractions depend only on ``chi``: the error (correct) fraction is the
    both-bases average of the squared overlaps with the bit-1 (bit-0) states,
    and double clicks take up the rest.  Accuracy is the probability that the
    attacker's measurement of E in the announced basis matches Alice's bit,
    conditioned on Bob registering a bit; it equals 1 for every ``chi``
    because the unitary only flips Alice's qubit on the branch where Bob
    double-clicks and the event is discarded.
    """
    overlaps = {
        (w, b): float(np.dot(chi.amplitudes, basis_state(2, w, b).amplitudes))
        for w in (Basis.Z, Basis.X)
        for b in (Bit.ZERO, Bit.ONE)
    }
    eps_m = 0.5 * (overlaps[(Basis.Z, Bit.ONE)] ** 2 + overlaps[(Basis.X, Bit.ONE)] ** 2)
    cor_m = 0.5 * (overlaps[(Basis.Z, Bit.ZERO)] ** 2 + overlaps[(Basis.X, Bit.ZERO)] ** 2)
    delta_m = max(1.0 - eps_m - cor_m, 0.0)

    psi = attack_state(chi).tensor()
    matched = 0.0
    registered = 0.0
    for w in (Basis.Z, Basis.X):
        p0, p1, _ = outcome_projectors(2, w)
        for bit_a in (Bit.ZERO, Bit.ONE):
            alice = basis_state(1, w, bit_a).amplitudes
            eve = basis_state(1, w, bit_a).amplitudes
            branch = np.einsum("a,abe->be", alice, psi)
            for bob in (p0, p1):
                reg = bob.entries @ branch
                registered += float(np.sum(reg * reg))
                hit = reg @ eve
                matched += float(np.dot(hit, hit))
    if registered <= 0.0:
        raise NumericalError("attack produced no registered events")
    return AttackResult(delta_m, eps_m, matched / registered)


@dataclass(frozen=True)
class SweepPoint:
    """One attack evaluation in an (alpha, beta) sweep of boundary states."""

    alpha: float
    beta: float
    result: AttackResult


def boundary_sweep(num_points: int = 720) -> list[SweepPoint]:
    """Evaluate the attack over the real (alpha, beta) unit circle.

    Angles cover half the circle (the state only depends on the overall sign)
    and always include the two values whose states land exactly on the ends
    of the trade-off curve, delta_m = 0 and delta_m = 1/3.
    """
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    thetas = np.linspace(-np.pi / 2, np.pi / 2, num_points, endpoint=False)
    thetas = np.unique(np.concatenate([thetas, [np.pi / 4, -np.arctan(1.0 / 3.0)]]))
    points = []
    for theta in thetas:
        alpha, beta = float(np.cos(theta)), float(np.sin(theta))
        points.append(SweepPoint(alpha, beta, run_attack(boundary_state(alpha, beta))))
    return points
