"""Joint threshold-detector measurement operators and the double-click/error trade-off.

For a fixed photon-number pair (n_A, n_B) the sifted outcome of one protocol
round is described by three positive operators on the joint space: "correct"
(same bit on both sides), "error" (opposite bits) and "double click"
(everything else).  The achievable pairs of expectation values
(<double click>, <error>) form a convex region whose lower boundary this
module traces numerically by supporting hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rates
from .errors import NumericalError
from .fock import Basis, Bit, basis_state

# Joint dimension (n_A+1)(n_B+1) allowed for dense operator work.  Everything
# the bounds need shows up well below this.
DIM_CAP = 64


def capped_joint_dim(n_a: int, n_b: int) -> int:
    """Joint dimension (n_A+1)(n_B+1) of a photon-number pair (n = 0 allowed), capped."""
    dim = (n_a + 1) * (n_b + 1)
    if dim > DIM_CAP:
        raise ValueError(f"joint dimension {dim} exceeds cap {DIM_CAP}")
    return dim


# A point counts as inside the multiphoton region up to this distance below
# its lower envelope, which absorbs rounding in traced and sampled points.
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
class HermitianOperator:
    """Dense real symmetric operator on a joint measurement space."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {a.shape}")
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
        if asym > 1e-12:
            raise ValueError(f"matrix deviates from symmetry by {asym:.3e}")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


@dataclass(frozen=True)
class PhotonPair:
    """Photon numbers arriving at the two detection apparatuses in one event."""

    n_a: int
    n_b: int

    def __post_init__(self) -> None:
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"photon numbers must be >= 1, got ({self.n_a}, {self.n_b})")
        capped_joint_dim(self.n_a, self.n_b)

    @property
    def joint_dim(self) -> int:
        return capped_joint_dim(self.n_a, self.n_b)

    @property
    def is_multiphoton(self) -> bool:
        return self.n_a + self.n_b >= 3


@dataclass(frozen=True)
class TradeoffPoint:
    """A (double-click fraction, error fraction) pair for multiphoton events."""

    delta_m: float
    eps_m: float

    def __post_init__(self) -> None:
        for name, value in (("delta_m", self.delta_m), ("eps_m", self.eps_m)):
            if not -1e-10 <= value <= 1.0 + 1e-10:
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        if self.delta_m + self.eps_m > 1.0 + 1e-10:
            raise ValueError(
                f"delta_m + eps_m = {self.delta_m + self.eps_m!r} exceeds 1"
            )
        object.__setattr__(self, "delta_m", min(max(self.delta_m, 0.0), 1.0))
        object.__setattr__(self, "eps_m", min(max(self.eps_m, 0.0), 1.0))


def _projector(state) -> np.ndarray:
    return np.outer(state.amplitudes, state.amplitudes)


def outcome_projectors(
    n: int, w: Basis
) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Projectors onto bit 0, bit 1 and the double-click subspace for one party.

    A threshold-detector pair fires on one side only when all n photons share
    that polarization; the remaining n-1 dimensions make both detectors click.
    """
    p0 = _projector(basis_state(n, w, Bit.ZERO))
    p1 = _projector(basis_state(n, w, Bit.ONE))
    pdbl = np.eye(n + 1) - p0 - p1
    return (HermitianOperator(p0), HermitianOperator(p1), HermitianOperator(pdbl))


def _joint_sum(pair: PhotonPair, same_bit: bool) -> np.ndarray:
    total = np.zeros((pair.joint_dim, pair.joint_dim))
    for w in (Basis.Z, Basis.X):
        for b in (Bit.ZERO, Bit.ONE):
            b_bob = b if same_bit else Bit(1 - b)
            pa = _projector(basis_state(pair.n_a, w, b))
            pb = _projector(basis_state(pair.n_b, w, b_bob))
            total += np.kron(pa, pb)
    return 0.5 * total


def f_err(pair: PhotonPair) -> HermitianOperator:
    """Operator whose expectation is the bit-error fraction.

    Average over both bases of the projectors onto opposite bit values on the
    two sides.
    """
    return HermitianOperator(_joint_sum(pair, same_bit=False))


def f_cor(pair: PhotonPair) -> HermitianOperator:
    """Operator whose expectation is the same-bit fraction (both bases averaged)."""
    return HermitianOperator(_joint_sum(pair, same_bit=True))


def f_dbl(pair: PhotonPair) -> HermitianOperator:
    """Complement of correct + error: the double-click fraction."""
    dim = pair.joint_dim
    return HermitianOperator(np.eye(dim) - f_cor(pair).entries - f_err(pair).entries)


def min_double_click(pair: PhotonPair) -> float:
    """Smallest achievable double-click fraction for an odd-odd multiphoton pair.

    Computed as 1 minus the largest eigenvalue of correct+error; equals
    (1 - 2^-(l_A+l_B))/2 for n_A = 2 l_A + 1, n_B = 2 l_B + 1, hence >= 1/4.
    """
    if pair.n_a % 2 == 0 or pair.n_b % 2 == 0:
        raise ValueError(f"({pair.n_a}, {pair.n_b}) is not an odd-odd pair")
    if not pair.is_multiphoton:
        raise ValueError("(1, 1) events admit no double clicks; need n_a + n_b >= 3")
    combined = f_cor(pair).entries + f_err(pair).entries
    w, _ = eigh_checked(combined)
    return 1.0 - float(w[-1])


# Eigenvalues within this distance of the lowest one span the degenerate
# eigenspace.  Over every pair with an even photon number up to n = 7 and
# every slope of a 400-point trace, that cluster spreads at most 8e-13 and the
# next eigenvalue sits at least 1.5e-5 above it, so the cut falls well inside
# the gap.
_DEGENERACY_TOL = 1e-10

# Slopes per stacked eigendecomposition, which bounds a trace's working memory.
_LAMBDA_BLOCK = 32


def _quadratic_forms(vecs: np.ndarray, op: np.ndarray) -> np.ndarray:
    """vec @ op @ vec for each row vec of a (..., k, d) stack, as the same gemv then ddot."""
    return np.vecdot((vecs[..., None, :] @ op)[..., 0, :], vecs)


def _support_points(
    minimized: np.ndarray, tie_break: np.ndarray, fd: np.ndarray, fe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points from minimizing a stack of operators, degeneracy resolved by another.

    When the minimal eigenspace has dimension > 1 the supporting line touches a
    whole facet; diagonalizing the tie-break operator compressed onto that
    eigenspace yields the facet's extreme points (and some interior ones, all
    on the same supporting line).  Returns the (delta_m, eps_m) arrays of the
    points in stack order, each matrix's points in eigenvector order.

    The matrices are grouped by the dimension k of their minimal eigenspace,
    and each group's compression and quadratic forms are stacked calls whose
    per-matrix BLAS calls and operand strides are those of the one-matrix
    path: gemm for the compression, gemv and ddot on the eigenvector columns.
    """
    w, v = eigh_checked(minimized)
    dims = np.sum(w <= w[:, :1] + _DEGENERACY_TOL, axis=1)
    delta: list = [None] * len(w)
    eps: list = [None] * len(w)
    for k in np.unique(dims):
        rows = np.flatnonzero(dims == k)
        # The eigenspace is the first k columns, stored column by column as the
        # boolean column mask v[:, w <= ...] stores it.
        vecs = np.ascontiguousarray(v[rows, :, :k].mT).mT
        if k > 1:
            _, directions = eigh_checked(vecs.mT @ tie_break @ vecs)
            vecs = vecs @ directions
        group_delta = _quadratic_forms(vecs.mT, fd)
        group_eps = _quadratic_forms(vecs.mT, fe)
        for j, row in enumerate(rows):
            delta[row], eps[row] = group_delta[j], group_eps[j]
    return np.concatenate(delta), np.concatenate(eps)


def trace_boundary(pair: PhotonPair, num_points: int = 200) -> list[TradeoffPoint]:
    """Trace the lower boundary of the achievable (delta_m, eps_m) region.

    The region is convex (it is the joint numerical range of two symmetric
    operators), so its boundary is swept exactly by supporting hyperplanes:
    for each slope lambda >= 0 the minimum-eigenvalue state of
    error + lambda * double_click supplies one boundary point.  The sweep uses
    lambda = 0, a logarithmic ladder, and a final pure double-click
    minimization; results are ordered by lambda.  The slopes are
    diagonalized in stacked blocks of `_LAMBDA_BLOCK`.

    Only pairs with at least one even photon number trace a curve; odd-odd
    pairs are rejected (their constraint is the scalar `min_double_click`).
    """
    if pair.n_a % 2 == 1 and pair.n_b % 2 == 1:
        raise ValueError(
            f"({pair.n_a}, {pair.n_b}) is odd-odd; use min_double_click instead"
        )
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    fe = f_err(pair).entries
    fd = f_dbl(pair).entries
    lams = np.concatenate([[0.0], np.logspace(-3.0, 3.0, num_points)])
    blocks = [
        _support_points(fe + block[:, None, None] * fd, fd, fd, fe)
        for block in np.split(lams, range(_LAMBDA_BLOCK, lams.size, _LAMBDA_BLOCK))
    ]
    # lambda -> infinity limit: minimize double clicks outright, then errors.
    blocks.append(_support_points(fd[None], fe, fd, fe))
    delta = np.concatenate([d for d, _ in blocks])
    eps = np.concatenate([e for _, e in blocks])
    return [TradeoffPoint(d, e) for d, e in zip(delta.tolist(), eps.tolist())]


def random_state_fractions(
    pair: PhotonPair, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(delta_m, eps_m) arrays of `count` random real unit states of the joint space.

    The states are the normalized rows of one (count, joint_dim) standard
    normal draw from `rng`.
    """
    states = rng.standard_normal((count, pair.joint_dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    delta = np.einsum("ni,ij,nj->n", states, f_dbl(pair).entries, states)
    eps = np.einsum("ni,ij,nj->n", states, f_err(pair).entries, states)
    return delta, eps


def region_membership(p: TradeoffPoint) -> bool:
    """Whether a (delta_m, eps_m) pair lies in the admissible multiphoton region.

    The region is the convex hull of the trade-off curve (delta, g(delta)) for
    delta <= 1/3 and the odd-odd corner (1/4, 0); its lower envelope is g up
    to the tangent point 1/6, then the straight line to (1/4, 0), then zero.
    """
    return p.eps_m >= rates.multiphoton_envelope(p.delta_m) - _MEMBERSHIP_TOL
