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
from functools import cache

import numpy as np

from . import rates
from .errors import NumericalError
from .fock import MAX_PHOTONS, Basis, Bit, basis_state

# Joint dimension (n_A+1)(n_B+1) allowed for dense operator work.  Everything
# the bounds need shows up well below this.
DIM_CAP = 64


def capped_joint_dim(n_a: int, n_b: int) -> int:
    """Joint dimension (n_A+1)(n_B+1) of a photon-number pair (n = 0 allowed), capped.

    Each photon number must also be one `basis_state` supports, so a pair is
    rejected where it is built, not where its states are first formed.
    """
    for n in (n_a, n_b):
        if n > MAX_PHOTONS:
            raise ValueError(f"photon count {n} exceeds supported maximum {MAX_PHOTONS}")
    dim = (n_a + 1) * (n_b + 1)
    if dim > DIM_CAP:
        raise ValueError(f"joint dimension {dim} exceeds cap {DIM_CAP}")
    return dim


# A point counts as inside the multiphoton region up to this distance below
# its lower envelope, which absorbs rounding in traced and sampled points.
# Measured: traced points sit at most 6.7e-14 below the envelope (every pair
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
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"photon numbers must be >= 1, got ({self.n_a}, {self.n_b})")
        capped_joint_dim(self.n_a, self.n_b)

    @property
    def joint_dim(self) -> int:
        return capped_joint_dim(self.n_a, self.n_b)

    @property
    def is_multiphoton(self) -> bool:
        return self.n_a + self.n_b >= 3


@cache
def outcome_projectors(n: int, w: Basis) -> np.ndarray:
    """Read-only (3, n+1, n+1) stack of one party's projectors: bit 0, bit 1, double click.

    A threshold-detector pair fires on one side only when all n photons share
    that polarization; the remaining n-1 dimensions make both detectors click.
    Each projector is exactly symmetric: an outer product of one state with
    itself, or the identity minus two such.
    """
    return _projector_stack(*(basis_state(n, w, b) for b in (Bit.ZERO, Bit.ONE)))


def _projector_stack(state0: np.ndarray, state1: np.ndarray) -> np.ndarray:
    p0, p1 = np.outer(state0, state0), np.outer(state1, state1)
    stack = np.array([p0, p1, np.eye(len(state0)) - p0 - p1])
    stack.setflags(write=False)
    return stack


@cache
def _span_projectors(n: int, w: Basis) -> np.ndarray:
    """Read-only stack of one side's `outcome_projectors` on the span of its click states.

    The bit outcomes project onto the click states |H^n>, |V^n>, |D^n> and
    |A^n>.  For n <= 3 the (n+1)-dimensional Fock space is no larger than
    their span, and the stack is `outcome_projectors` itself.  For n >= 4 it
    is 4x4: the states' Gram matrix G follows from the overlap law alone
    (<H|V> = <D|A> = 0, <H|D> = <H|A> = <V|D> = 2^(-n/2) and
    <V|A> = (-1)^n 2^(-n/2)), and the columns of its Cholesky factor R,
    R^T R = G, are the states' coordinates in an orthonormal basis of the
    span (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    """
    if n <= 3:
        return outcome_projectors(n, w)
    s = 2.0 ** (-n / 2.0)
    t = (-1) ** n * s
    gram = np.array([[1.0, 0.0, s, s], [0.0, 1.0, s, t], [s, s, 1.0, 0.0], [s, t, 0.0, 1.0]])
    r = np.linalg.cholesky(gram).T
    return _projector_stack(*(r[:, :2] if w is Basis.Z else r[:, 2:]).T)


def _joint_sum(pair: PhotonPair, same_bit: bool, projectors=outcome_projectors) -> np.ndarray:
    total = 0.0
    for w in (Basis.Z, Basis.X):
        proj_a, proj_b = projectors(pair.n_a, w), projectors(pair.n_b, w)
        for b in (Bit.ZERO, Bit.ONE):
            total += np.kron(proj_a[b], proj_b[b if same_bit else 1 - b])
    return 0.5 * total


def f_err(pair: PhotonPair) -> np.ndarray:
    """Operator whose expectation is the bit-error fraction.

    Average over both bases of the projectors onto opposite bit values on the
    two sides.
    """
    return _joint_sum(pair, same_bit=False)


def f_cor(pair: PhotonPair) -> np.ndarray:
    """Operator whose expectation is the same-bit fraction (both bases averaged)."""
    return _joint_sum(pair, same_bit=True)


def f_dbl(pair: PhotonPair) -> np.ndarray:
    """Complement of correct + error: the double-click fraction."""
    return np.eye(pair.joint_dim) - f_cor(pair) - f_err(pair)


def _min_double_click_closed_form(pair: PhotonPair) -> float:
    """`min_double_click` in closed form: (1 - 2^-(l_A+l_B))/2 for n = 2 l + 1 on each side."""
    return 0.5 * (1.0 - 2.0 ** (-((pair.n_a - 1) // 2 + (pair.n_b - 1) // 2)))


def min_double_click(pair: PhotonPair) -> float:
    """Smallest achievable double-click fraction for an odd-odd multiphoton pair.

    Computed as 1 minus the largest eigenvalue of correct+error; equals
    `_min_double_click_closed_form`, hence >= 1/4.
    """
    if pair.n_a % 2 == 0 or pair.n_b % 2 == 0:
        raise ValueError(f"({pair.n_a}, {pair.n_b}) is not an odd-odd pair")
    if not pair.is_multiphoton:
        raise ValueError("(1, 1) events admit no double clicks; need n_a + n_b >= 3")
    combined = f_cor(pair) + f_err(pair)
    w, _ = eigh_checked(combined)
    return 1.0 - float(w[-1])


# Eigenvalues within this distance of the lowest one span the degenerate
# eigenspace.  Over every pair with an even photon number up to n = 7 and
# every slope of a 400-point trace, on the click states `trace_boundary`
# solves, that cluster spreads at most 6.8e-13 and the next eigenvalue sits at
# least 1.5e-5 above it, so the cut falls well inside the gap.
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


def trace_boundary(pair: PhotonPair, num_points: int = 200) -> np.ndarray:
    """Trace the lower boundary of the achievable (delta_m, eps_m) region.

    Returns a read-only (points, 2) array of (delta_m, eps_m) rows.

    The region is convex (it is the joint numerical range of two symmetric
    operators), so its boundary is swept exactly by supporting hyperplanes:
    for each slope lambda >= 0 the minimum-eigenvalue state of
    error + lambda * double_click supplies one boundary point.  The sweep uses
    lambda = 0, a logarithmic ladder, and a final pure double-click
    minimization; results are ordered by lambda.

    Every bit outcome is a projector onto a click state |H^n>, |V^n>, |D^n>
    or |A^n> of one side, so off the span Q of the joint click states error
    is exactly 0 and double_click exactly the identity.  Both operators are
    therefore built on Q alone, from the per-side stacks of
    `_span_projectors` (the click states' Cholesky coordinates for n >= 4,
    the Fock basis for n <= 3), and diagonalized there: 16 dimensions instead
    of 42 for (5, 6).  Slope 0 is one call, the positive slopes follow in
    stacked blocks of `_LAMBDA_BLOCK`.  The complement of Q has eigenvalue
    lambda on slope lambda and 1 under the pure double-click minimization.
    Q holds states that error annihilates (four linear conditions on at least
    8 dimensions), so its minimum is at most lambda: the complement ties with
    it at lambda = 0 only.  Its points, one (1, 0) per dimension, therefore
    follow the slope-0 points, where a dense solve puts them: f_dbl, the
    tie-break, is 1 there, its largest value.

    Every coordinate must lie in [0, 1] and every row sum at most 1, each
    within 1e-10 (else NumericalError); the coordinates are then clamped to
    [0, 1].

    Only pairs with at least one even photon number trace a curve; odd-odd
    pairs are rejected (their constraint is the scalar `min_double_click`).
    """
    if pair.n_a % 2 == 1 and pair.n_b % 2 == 1:
        raise ValueError(
            f"({pair.n_a}, {pair.n_b}) is odd-odd; use min_double_click instead"
        )
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    fe = _joint_sum(pair, False, _span_projectors)
    fd = np.eye(len(fe)) - _joint_sum(pair, True, _span_projectors) - fe
    outside_dim = pair.joint_dim - len(fe)
    lams = np.logspace(-3.0, 3.0, num_points)
    blocks = [_support_points(fe[None], fd, fd, fe), (np.ones(outside_dim), np.zeros(outside_dim))]
    blocks += [
        _support_points(fe + block[:, None, None] * fd, fd, fd, fe)
        for block in np.split(lams, range(_LAMBDA_BLOCK, lams.size, _LAMBDA_BLOCK))
    ]
    # lambda -> infinity limit: minimize double clicks outright, then errors.
    blocks.append(_support_points(fd[None], fe, fd, fe))
    points = np.column_stack([np.concatenate(coords) for coords in zip(*blocks)])
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
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    states = rng.standard_normal((count, pair.joint_dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    delta = np.einsum("ni,ij,nj->n", states, f_dbl(pair), states)
    eps = np.einsum("ni,ij,nj->n", states, f_err(pair), states)
    return delta, eps


def region_membership(delta_m, eps_m):
    """Whether (delta_m, eps_m) lies in the admissible multiphoton region, per row.

    Takes scalars (returns a bool) or arrays (returns a bool array).  The
    region is the convex hull of the trade-off curve (delta, g(delta)) for
    delta <= 1/3 and the odd-odd corner (1/4, 0); its lower envelope is g up
    to the tangent point 1/6, then the straight line to (1/4, 0), then zero.
    """
    inside = np.asarray(eps_m) >= rates.multiphoton_envelope(delta_m) - _MEMBERSHIP_TOL
    return bool(inside) if inside.ndim == 0 else inside
