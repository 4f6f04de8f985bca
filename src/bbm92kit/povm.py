"""Joint threshold-detector measurement operators and the double-click/error trade-off.

For a fixed photon-number pair (n_A, n_B) the sifted outcome of one protocol
round is described by three positive operators on the joint space: "correct"
(same bit on both sides), "error" (opposite bits) and "double click"
(everything else).  The achievable pairs of expectation values
(<double click>, <error>) form a convex region.  Its lower boundary is the
lower edge of one 2x2 block of the error and double-click operators, which
`trace_boundary` evaluates in closed form; no eigensolver runs there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rates
from .errors import NumericalError
from .fock import MAX_PHOTONS, Basis, Bit, _check_count, basis_state

# Joint dimension (n_A+1)(n_B+1) allowed for dense operator work.  Everything
# the bounds need shows up well below this.
DIM_CAP = 64


def capped_joint_dim(n_a: int, n_b: int) -> int:
    """Joint dimension (n_A+1)(n_B+1) of a photon-number pair (n = 0 allowed), capped.

    Each photon number must also be an integer `basis_state` supports, so a
    pair is rejected where it is built, not where its states are first formed.
    """
    for n in (n_a, n_b):
        _check_count(n, "photon count", 0)
        if n > MAX_PHOTONS:
            raise ValueError(f"photon count {n} exceeds supported maximum {MAX_PHOTONS}")
    dim = (n_a + 1) * (n_b + 1)
    if dim > DIM_CAP:
        raise ValueError(f"joint dimension {dim} exceeds cap {DIM_CAP}")
    return dim


# A point counts as inside the multiphoton region up to this distance below
# its lower envelope, which absorbs rounding in traced and sampled points.
# Measured: traced points sit at most 2.0e-14 below the envelope (every pair
# with an even photon number under DIM_CAP, 400 points; the worst is (1, 2)),
# and random states sit at least 5.4e-5 above it (`selfcheck` criterion 9 at
# full size), so the cut falls far from both.
_MEMBERSHIP_TOL = 1e-9


def eigh_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize, eigendecompose, and verify the residual ||Av - lambda v||.

    Takes one matrix or a stack (..., d, d); each matrix's residual is held to
    1e-10 times its own largest |eigenvalue|.
    """
    sym = 0.5 * (a + np.swapaxes(a, -1, -2))
    w, v = np.linalg.eigh(sym)
    scale = np.maximum(np.max(np.abs(w), axis=-1), 1e-300)
    residual = np.max(np.linalg.norm(sym @ v - v * w[..., None, :], axis=-2), axis=-1)
    failing = residual > 1e-10 * scale
    if np.any(failing):
        i = np.argmax(failing)
        raise NumericalError(
            f"eigendecomposition residual {residual.flat[i]:.3e} "
            f"exceeds 1e-10 * {scale.flat[i]:.3e}"
        )
    return w, v


@dataclass(frozen=True)
class PhotonPair:
    """Photon numbers arriving at the two detection apparatuses in one event."""

    n_a: int
    n_b: int

    def __post_init__(self) -> None:
        capped_joint_dim(self.n_a, self.n_b)
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"photon numbers must be >= 1, got ({self.n_a}, {self.n_b})")

    @property
    def joint_dim(self) -> int:
        return (self.n_a + 1) * (self.n_b + 1)

    @property
    def is_multiphoton(self) -> bool:
        return self.n_a + self.n_b >= 3


# typed, so that outcome_projectors(2.0, w) reaches the integer check instead of 2's entry
@lru_cache(maxsize=None, typed=True)
def outcome_projectors(n: int, w: Basis) -> np.ndarray:
    """Read-only (3, n+1, n+1) stack of one party's projectors: bit 0, bit 1, double click.

    A threshold-detector pair fires on one side only when all n photons share
    that polarization; the remaining n-1 dimensions make both detectors click.
    Each projector is exactly symmetric: an outer product of one state with
    itself, or the identity minus two such.
    """
    p0, p1 = (np.outer(state, state) for state in (basis_state(n, w, b) for b in Bit))
    stack = np.array([p0, p1, np.eye(n + 1) - p0 - p1])
    stack.setflags(write=False)
    return stack


def _outcome_krons(n_a: int, n_b: int) -> np.ndarray:
    """Every kron of the two parties' outcome projectors: one (4, k_a k_b, d, d) stack.

    Row 2 * [A measures X] + [B measures X] is a basis pair (Basis order: Z,
    then X); cell i * k_b + j is A's outcome i with B's outcome j, each
    side's k outcomes in `outcome_projectors` order.  n = 0 is vacuum: one outcome, the 1x1
    identity.  Each entry of kron(P, Q) is the one product P[i, j] * Q[k, l],
    so one broadcast product forms them all.
    """
    proj_a, proj_b = (
        np.stack([outcome_projectors(n, w) for w in Basis]) if n else np.ones((2, 1, 1, 1))
        for n in (n_a, n_b)
    )
    (ka, da), (kb, db) = proj_a.shape[1:3], proj_b.shape[1:3]
    return (
        proj_a[:, None, :, None, :, None, :, None] * proj_b[None, :, None, :, None, :, None, :]
    ).reshape(4, ka * kb, da * db, da * db)


def joint_operators(pair: PhotonPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f_dbl, f_err, f_cor): the double-click, error and correct operators of a pair.

    f_cor and f_err average over both bases the krons of the two sides'
    same-bit and opposite-bit projectors, so their expectations are the
    same-bit and bit-error fractions; f_dbl is their complement I - f_cor - f_err.
    Each sum adds its four krons in the order Z0, Z1, X0, X1 from 0.0, as a
    loop of np.kron would, and so rounds the same.
    """
    krons = _outcome_krons(pair.n_a, pair.n_b)
    # the Z/Z (row 0) and X/X (row 3) basis pairs; A's bit i with B's bit j is cell 3 i + j
    same = 0.5 * sum((krons[w, c] for w in (0, 3) for c in (0, 4)), 0.0)
    opposite = 0.5 * sum((krons[w, c] for w in (0, 3) for c in (1, 3)), 0.0)
    return np.eye(pair.joint_dim) - same - opposite, opposite, same


def min_double_click(pair: PhotonPair) -> float:
    """Smallest achievable double-click fraction of an odd-odd multiphoton pair.

    It is 1 minus the largest eigenvalue of f_cor + f_err, returned in
    closed form: (1 - 2^-(l_A+l_B))/2 with n = 2 l + 1 photons on each side,
    hence >= 1/4.  No operator is built; `selfcheck` criterion 2 checks the
    value against the dense eigenvalue.
    """
    if pair.n_a % 2 == 0 or pair.n_b % 2 == 0:
        raise ValueError(f"({pair.n_a}, {pair.n_b}) is not an odd-odd pair")
    if not pair.is_multiphoton:
        raise ValueError("(1, 1) events admit no double clicks; need n_a + n_b >= 3")
    return 0.5 * (1.0 - 2.0 ** (-((pair.n_a - 1) // 2 + (pair.n_b - 1) // 2)))


def _block_points(t: float, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta, eps) of the lowest eigenvector of the trade-off block at each slope in `lams`.

    The block is f_dbl = diag(1/2 - 2t, 1/2), f_err = [[1/4 + t, -c], [-c, 1/4]]
    with c^2 = (1/4 + t)/4 (see `trace_boundary`).  With h = t (1 - 2 lam)/2,
    half the difference of the diagonal of f_err + lam f_dbl, and
    r = sqrt(h^2 + c^2), its lowest eigenvector x has x_1^2 = (1 - h/r)/2,
    x_2^2 = (1 + h/r)/2 and x_1 x_2 = c/(2r), so x^T f_dbl x and x^T f_err x
    are the two returned arrays.
    """
    c2 = (0.25 + t) / 4.0
    h = t * (1.0 - 2.0 * lams) / 2.0
    r = np.sqrt(h * h + c2)
    return (1.0 - 2.0 * t) / 2.0 + t * h / r, 0.25 + t / 2.0 - t * h / (2.0 * r) - c2 / r


def trace_boundary(pair: PhotonPair, num_points: int = 200) -> np.ndarray:
    """Trace the lower boundary of the achievable (delta_m, eps_m) region.

    Returns a read-only (points, 2) array of (delta_m, eps_m) rows.  The
    region is the joint numerical range of f_dbl and f_err, so it is convex,
    and for each slope lambda >= 0 the lowest eigenvectors of
    f_err + lambda f_dbl give boundary points.  The slopes are 0, `num_points`
    logarithmic ones in [1e-3, 1e3] and lambda -> infinity, in that order,
    each slope's points in increasing delta.  All come in closed form:

    1. One side.  The overlap law <x_b|z_c> = (-1)^(b c n) 2^(-n/2) makes the
       X-Z overlap matrix 2^(-n/2) [[1, 1], [1, (-1)^n]].  For even n it has
       rank 1: the bit-flip-even states (z_0 + z_1)/sqrt(2) and
       (x_0 + x_1)/sqrt(2) overlap by 2^(1 - n/2), the odd ones are
       orthogonal to the other basis.  For odd n the parity sign makes it
       2^((1 - n)/2) times a Hadamard matrix: z_c meets only
       (x_0 + (-1)^c x_1)/sqrt(2), by 2^((1 - n)/2).
    2. Both sides.  The joint overlap matrix is the Kronecker product, so the
       joint Z and X click spans meet at one angle, of cosine 4t with
       t = 2^(-ceil((n_A + n_B)/2)), m times (m = 1 for two even photon
       numbers, else 2), and are orthogonal otherwise.  Each meeting Z state
       is u = (a + b)/sqrt(2), a a unit state of correct clicks and b one of
       error clicks, its X partner u' alike; v = (a - b)/sqrt(2) and v' are
       orthogonal to the other basis.
    3. The block.  f_dbl = I - (Pi_Z + Pi_X)/2 and f_err = (E_Z + E_X)/2,
       Pi_w and E_w projecting onto basis w's click and error click states,
       leave W = span(u, v, u', v') invariant.  The Z<->X exchange
       u <-> u', v <-> v' keeps the Gram matrix and swaps Pi_Z with Pi_X and
       E_Z with E_X, so W splits into its symmetric and antisymmetric planes.
       On p = (u + u')/|u + u'|, q = (v + v')/sqrt(2) the symmetric one is
       the block of `_block_points`; the antisymmetric one is it with t -> -t.
    4. The rest.  For lambda > 0 the antisymmetric block's lowest eigenvalue
       is above the symmetric one's by 2 lambda t - t + sqrt(R) - sqrt(R - t/2),
       R = h^2 + c^2, positive by squaring twice, as h < t/2 and 3h^2 <= c^2.
       The other click states (two even photon numbers only: the
       bit-flip-odd ones, at (1/2, 0) and (1/2, 1/2)) and the states off the
       click spans, at (1, 0), have eigenvalues >= lambda/2, above
       lambda/(2 + 4t), the block's value at its eps = 0 state.  So each
       positive slope gives the block's point m times, and lambda -> infinity
       its limit (1/2 - 2t, 1/4 + t) m times, the lowest f_dbl.  At lambda = 0
       every eps = 0 state ties: f_err has rank 4, and f_dbl on its kernel
       has eigenvalues 1/(2 + 4t) (m times), 1/2 (twice, two even photon
       numbers only), 1/(2 - 4t) (m times), then 1; the joint_dim - 4 lowest
       are the slope-0 points.  Where 4t = 1 (n_A + n_B <= 4), u = u', the
       antisymmetric plane is a line at eps = 1/4, and 1/(2 - 4t) = 1 stands
       for a state off the click spans.

    At t = 1/4, the pairs (1, 2), (2, 1) and (2, 2), the block's lower edge
    is the curve g.  Rounding: t, c^2, 1/2 - 2t, 1/4 + t and (1 - 2t)/2 are
    exact, 1/(2 +- 4t) rounds once.  On the curve h carries one rounding, r
    three and h/r five (gamma_5, Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3); with t <= 1/4, |h/r| <= 1, c^2/r <= c < 0.36 and all
    partial sums below 1/2, delta is within 2u and eps within 4u of the
    block's exact point at the same float slope (u = 2^-53).

    Every coordinate must lie in [0, 1] and every row sum at most 1, each
    within 1e-10 (else NumericalError); the coordinates are then clamped to
    [0, 1], which only moves them towards their exact values.  Odd-odd pairs
    trace no curve and are rejected (their constraint is `min_double_click`).
    """
    if pair.n_a % 2 == 1 and pair.n_b % 2 == 1:
        raise ValueError(
            f"({pair.n_a}, {pair.n_b}) is odd-odd; use min_double_click instead"
        )
    _check_count(num_points, "num_points", 2)
    m = 1 if pair.n_a % 2 == 0 and pair.n_b % 2 == 0 else 2
    t = 2.0 ** -((pair.n_a + pair.n_b + 1) // 2)
    kernel = [1.0 / (2.0 + 4.0 * t)] * m + [0.5] * (4 - 2 * m) + [1.0 / (2.0 - 4.0 * t)] * m
    zero_slope = (kernel + [1.0] * pair.joint_dim)[: pair.joint_dim - 4]
    curve = np.column_stack(_block_points(t, np.logspace(-3.0, 3.0, num_points)))
    points = np.concatenate([
        np.column_stack([zero_slope, np.zeros(len(zero_slope))]),
        np.repeat(curve, m, axis=0),
        np.tile([0.5 - 2.0 * t, 0.25 + t], (m, 1)),
    ])
    bad = ~((points >= -1e-10) & (points <= 1.0 + 1e-10)).all(axis=1)
    bad |= points.sum(axis=1) > 1.0 + 1e-10
    if bad.any():
        d, e = points[np.argmax(bad)]
        raise NumericalError(
            f"traced point (delta_m={float(d)!r}, eps_m={float(e)!r}) is not a pair of "
            "fractions in [0, 1] with sum <= 1"
        )
    # min(max(x, 0), 1) as Python floats would take it, -0.0 kept
    points = np.where(points < 0.0, 0.0, np.where(points > 1.0, 1.0, points))
    points.setflags(write=False)
    return points


def random_state_fractions(
    pair: PhotonPair, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(delta_m, eps_m) arrays of `count` random real unit states of the joint space.

    The states are the normalized rows of one (count, joint_dim) standard
    normal draw from `rng`.
    """
    _check_count(count, "count", 0)
    states = rng.standard_normal((count, pair.joint_dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    dbl, err, _ = joint_operators(pair)
    # x^T F x of every row x: one gemm, then a row-wise dot
    return np.vecdot(states @ dbl, states), np.vecdot(states @ err, states)


def region_membership(delta_m, eps_m):
    """Whether (delta_m, eps_m) lies in the admissible multiphoton region, per row.

    Takes scalars (returns a bool) or arrays (returns a bool array).  The
    region is the convex hull of the trade-off curve (delta, g(delta)) for
    delta <= 1/3 and the odd-odd corner (1/4, 0); its lower envelope is g up
    to the tangent point 1/6, then the straight line to (1/4, 0), then zero.
    """
    inside = np.asarray(eps_m) >= rates.multiphoton_envelope(delta_m) - _MEMBERSHIP_TOL
    return bool(inside) if inside.ndim == 0 else inside
