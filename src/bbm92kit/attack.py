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

from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from . import rates
from .errors import NumericalError
from .fock import Basis, Bit, _check_integer, basis_state
from .povm import capped_joint_dim, outcome_projectors


class AttackResult(NamedTuple):
    delta_m: float
    eps_m: float
    eve_bit_accuracy: float


def _generator_pairs(n_a: int, n_b: int) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    for w in (Basis.Z, Basis.X):
        for a in (Bit.ZERO, Bit.ONE):
            for b in (Bit.ZERO, Bit.ONE):
                src = np.kron(basis_state(n_a, w, a), basis_state(n_b, w, b))
                tgt = np.kron(basis_state(n_a, w, a), basis_state(n_b, w, Bit(b ^ a)))
                pairs.append((src, tgt))
    return pairs


# typed, so that build_v(3.0, 2) reaches the integer check instead of build_v(3, 2)'s entry
@lru_cache(maxsize=16, typed=True)
def build_v(n_a: int, n_b: int) -> np.ndarray:
    """Read-only orthogonal matrix sending |a_W>|b_W> to |a_W>|(b+a mod 2)_W> in both bases.

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
    defect = float(np.max(np.abs(v.T @ v - np.eye(dim))))
    if defect > 1e-10:
        raise NumericalError(f"matrix deviates from orthogonality by {defect:.3e}")
    v.setflags(write=False)
    return v


# Two-photon basis states |b_W> in the order (Z,0), (Z,1), (X,0), (X,1).
_BOB_BASIS = np.array(
    [basis_state(2, w, b) for w in (Basis.Z, Basis.X) for b in (Bit.ZERO, Bit.ONE)]
)


def _first_failure(bad: np.ndarray) -> int | None:
    """Index of the first True row of a check's failure mask, or None."""
    rows = np.flatnonzero(bad)
    return int(rows[0]) if rows.size else None


def _norms(rows: np.ndarray) -> np.ndarray:
    # np.vecdot is the same ddot as np.linalg.norm's 1-D path, so the norms
    # equal the one-state checks' bit for bit.
    return np.sqrt(np.vecdot(rows, rows))


def _boundary_states(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Stacked amplitudes of `boundary_state` for each (alpha, beta) row."""
    i = _first_failure(~(np.isfinite(alpha) & np.isfinite(beta)))
    if i is not None:
        raise ValueError(
            f"alpha and beta must be finite, got alpha={float(alpha[i])!r}, beta={float(beta[i])!r}"
        )
    # (alpha, beta) only sets a direction: scaling both by the same power of
    # two is exact, and brings the larger into [1/2, 1) so no sum overflows or
    # vanishes.  (0, 0) stays zero.
    exponent = np.frexp(np.maximum(np.abs(alpha), np.abs(beta)))[1]
    alpha, beta = np.ldexp(alpha, -exponent), np.ldexp(beta, -exponent)
    raw = np.zeros((alpha.size, 3))
    for bit0, bit1 in (_BOB_BASIS[:2], _BOB_BASIS[2:]):
        raw += alpha[:, None] * bit0
        raw += beta[:, None] * bit1
    norm = _norms(raw)
    i = _first_failure(norm < 1e-12)
    if i is not None:
        raise ValueError(f"state vanishes for alpha={float(alpha[i])!r}, beta={float(beta[i])!r}")
    chis = raw / norm[:, None]
    unit = _norms(chis)
    i = _first_failure(~(np.abs(unit - 1.0) <= 1e-12))  # stated as what holds: NaN fails
    if i is not None:
        raise ValueError(f"amplitudes must have unit norm, got {float(unit[i])!r}")
    return chis


def boundary_state(alpha: float, beta: float) -> np.ndarray:
    """Normalized sum over both bases of alpha |0_W> + beta |1_W> on two photons.

    Returns the read-only (3,) amplitudes; only the direction of a nonzero
    finite (alpha, beta) counts.  These states hand the attacker
    every point of the lower trade-off boundary as (alpha, beta) sweeps the
    unit circle.
    """
    chi = _boundary_states(np.array([alpha], dtype=float), np.array([beta], dtype=float))[0]
    chi.setflags(write=False)
    return chi


@cache
def _phi_plus() -> np.ndarray:
    phi_plus = np.zeros((2, 2))
    for bit in (Bit.ZERO, Bit.ONE):
        amp = basis_state(1, Basis.Z, bit)
        phi_plus += np.outer(amp, amp)
    phi_plus /= np.sqrt(2.0)
    phi_plus.setflags(write=False)
    return phi_plus


@cache
def _eve_measurements() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(Alice's and Eve's bit state, Bob's bit-0 and bit-1 projectors) per basis and bit."""
    terms = []
    for w in (Basis.Z, Basis.X):
        p0, p1, _ = outcome_projectors(2, w)
        for bit_a in (Bit.ZERO, Bit.ONE):
            terms.append((basis_state(1, w, bit_a), p0, p1))
    return tuple(terms)


def _attack_tensors(chis: np.ndarray) -> np.ndarray:
    """(N, 2, 3, 2) Alice/Bob/Eve amplitudes of the attack on each Bob state row.

    The rows must be two-photon states, (N, 3), and each row's attack state
    is checked to have unit norm, raising for the first that does not.
    """
    if chis.shape[1:] != (3,):
        raise ValueError(
            "attack is constructed for two-photon Bob states of 3 amplitudes, "
            f"got shape {chis.shape[1:]}"
        )
    pre = np.einsum("ae,nb->nabe", _phi_plus(), chis)
    psi = (build_v(1, 2) @ pre.reshape(-1, 6, 2)).reshape(-1, 2, 3, 2)
    norm = _norms(psi.reshape(-1, 12))
    i = _first_failure(~(np.abs(norm - 1.0) <= 1e-12))  # stated as what holds: NaN fails
    if i is not None:
        raise ValueError(f"state must have unit norm, got {float(norm[i])!r}")
    return psi


def attack_state(chi: np.ndarray) -> np.ndarray:
    """Joint Alice/Bob/Eve amplitudes, shape (2, 3, 2), after the bit-copying unitary.

    Alice's half of the entangled pair is system A (one photon), Bob receives
    the two-photon system B prepared in ``chi``, and E is the attacker's
    retained qubit, correlated with A in both bases.
    """
    return _attack_tensors(np.asarray(chi, dtype=float)[None])[0]


def attack_density(chi: np.ndarray) -> np.ndarray:
    """Reduced Alice/Bob density matrix of the attack state (6x6)."""
    mat = attack_state(chi).reshape(6, 2)
    return mat @ mat.T


def _attack_kernel(chis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta_m, eps_m, eve_bit_accuracy) arrays for a stack of two-photon Bob states.

    Row i equals `run_attack` on row i bit for bit: every step below is the
    one-state arithmetic applied elementwise or per stacked matrix, and each
    one-state check runs over the whole stack, raising for its first failing
    row.
    """
    psi = _attack_tensors(chis)
    # float_power is libm pow, as Python's float ** 2 is; x * x rounds
    # differently from pow on some inputs.
    squares = np.float_power(np.vecdot(chis[:, None, :], _BOB_BASIS), 2)
    eps_m = 0.5 * (squares[:, 1] + squares[:, 3])
    cor_m = 0.5 * (squares[:, 0] + squares[:, 2])
    delta_m = np.maximum(1.0 - eps_m - cor_m, 0.0)

    matched = np.zeros(len(chis))
    registered = np.zeros(len(chis))
    for bit_state, *bob_projectors in _eve_measurements():
        branch = np.einsum("a,nabe->nbe", bit_state, psi)
        for bob in bob_projectors:
            reg = bob @ branch
            registered += np.sum(reg * reg, axis=(1, 2))
            hit = reg @ bit_state
            matched += np.vecdot(hit, hit)
    if np.any(registered <= 0.0):
        raise NumericalError("attack produced no registered events")
    return delta_m, eps_m, matched / registered


def run_attack(chi: np.ndarray) -> AttackResult:
    """Double-click fraction, error fraction, and the attacker's bit accuracy.

    The fractions depend only on ``chi``: the error (correct) fraction is the
    both-bases average of the squared overlaps with the bit-1 (bit-0) states,
    and double clicks take up the rest.  Accuracy is the probability that the
    attacker's measurement of E in the announced basis matches Alice's bit,
    conditioned on Bob registering a bit; it equals 1 for every ``chi``
    because the unitary only flips Alice's qubit on the branch where Bob
    double-clicks and the event is discarded.
    """
    delta_m, eps_m, accuracy = _attack_kernel(np.asarray(chi, dtype=float)[None])
    return AttackResult(float(delta_m[0]), float(eps_m[0]), float(accuracy[0]))


# Bound r on the rounding error of an attack's delta_m (u = 2**-53).  delta_m = 1 - eps_m
# - cor_m: two subtractions of numbers <= 1, 2u.  eps_m and cor_m are half sums of squared
# overlaps o = <b|chi> of the unit state chi with the four bit states.  Each o is a 3-term
# dot product of unit vectors, off by at most gamma_3 ~ 3u, so its square is off by at most
# 2 gamma_3 |o| + u o**2, and each sum adds u times its terms.  As |o_0| + |o_1| <= sqrt(2)
# in each basis and all squares sum to <= 2, the two fractions are off by at most
# 2 sqrt(2) gamma_3 + 2u < 11u together.  chi's norm is 1 within about 7u, which moves the
# fractions of the unit state by as much.  So |delta_m - delta| < 20u = 10 eps (measured:
# at most 1.9 eps over `attack --sweep 4096`, against a 50-digit evaluation); r = 16 eps.
_DELTA_ROUNDING = 16 * np.finfo(float).eps


def _curve_bounds(delta_m: np.ndarray, eps_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g(delta_m) of attack points, NaN off the curve's domain, and the mask of points on g.

    A point is on the curve when eps_m is within 1e-9 of g(delta) for some
    delta within the rounding r of delta_m.  g decreases, so that is
    g(delta_m + r) - 1e-9 <= eps_m <= g(delta_m - r) + 1e-9: by the mean
    value theorem, the 1e-9 widened by |g'| * r.  A fixed tolerance alone
    misses the curve's delta = 0 end, where g' is infinite: ``--alpha 1
    --beta 1`` gives delta_m = 2**-52 and eps_m 1.5e-8 above g(delta_m).
    """
    shifts = _DELTA_ROUNDING * np.array([[0.0], [1.0], [-1.0]])
    # one g evaluation for all three rows
    bound, low, high = rates._g_on_domain(np.maximum(delta_m + shifts, 0.0))
    return bound, (low - 1e-9 <= eps_m) & (eps_m <= high + 1e-9)


def _coverage(delta_m: np.ndarray, on_curve: np.ndarray) -> dict:
    """Count, delta range and widest delta gap of a sweep's on-curve points; None if undefined."""
    covered = np.sort(delta_m[on_curve])
    return {
        "boundary_points": int(covered.size),
        "delta_min": float(covered[0]) if covered.size else None,
        "delta_max": float(covered[-1]) if covered.size else None,
        "max_gap": float(np.max(np.diff(covered))) if covered.size > 1 else None,
    }


class Sweep(NamedTuple):
    """Attack evaluations over an (alpha, beta) sweep, one array entry per angle."""

    alpha: np.ndarray
    beta: np.ndarray
    delta_m: np.ndarray
    eps_m: np.ndarray
    eve_bit_accuracy: np.ndarray


def boundary_sweep(num_points: int = 720) -> Sweep:
    """Evaluate the attack over the real (alpha, beta) unit circle.

    Angles cover half the circle (the state only depends on the overall sign)
    and always include the two values whose states land exactly on the ends
    of the trade-off curve, delta_m = 0 and delta_m = 1/3.
    """
    _check_integer(num_points, "num_points")
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    thetas = np.linspace(-np.pi / 2, np.pi / 2, num_points, endpoint=False)
    thetas = np.unique(np.concatenate([thetas, [np.pi / 4, -np.arctan(1.0 / 3.0)]]))
    alpha, beta = np.cos(thetas), np.sin(thetas)
    return Sweep(alpha, beta, *_attack_kernel(_boundary_states(alpha, beta)))
