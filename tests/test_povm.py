import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bbm92kit import (
    DIM_CAP,
    Basis,
    PhotonPair,
    g,
    joint_operators,
    multiphoton_envelope,
    outcome_projectors,
    random_state_fractions,
    region_membership,
    trace_boundary,
)
from bbm92kit import povm
from bbm92kit.errors import NumericalError
from bbm92kit.fock import Bit, basis_state
from bbm92kit.povm import _MEMBERSHIP_TOL, eigh_checked


def pair_id(value) -> str:
    """Test id that names a pair together with the dimension cap it is checked against."""
    if isinstance(value, PhotonPair):
        return f"PhotonPair(n_a={value.n_a}, n_b={value.n_b}, cap={DIM_CAP})"
    return str(value)


# Every pair under DIM_CAP.
CAPPED_PAIRS = [
    PhotonPair(a, b)
    for a in range(1, DIM_CAP)
    for b in range(1, DIM_CAP)
    if (a + 1) * (b + 1) <= DIM_CAP
]
# Every pair that traces a curve: one photon number even, joint dimension <= DIM_CAP.
CAPPED_EVEN_PAIRS = [p for p in CAPPED_PAIRS if p.n_a % 2 == 0 or p.n_b % 2 == 0]
# Every odd-odd multiphoton pair under DIM_CAP: min_double_click's domain.
CAPPED_ODD_PAIRS = [p for p in CAPPED_PAIRS if p.n_a % 2 == p.n_b % 2 == 1 and p.is_multiphoton]


# Photon-number pairs whose 400-point boundaries the benchmark's operators
# workload traces; (1, 2) and (2, 2) are also the golden CLI pairs.
BOUNDARY_PAIRS = [(1, 2), (1, 4), (2, 2), (3, 4), (5, 6)]


# The per-slope trace that the stacked one replaced, kept as its reference
# (library calls renamed to the copies below, points as array rows).


def _reference_eigh_checked(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sym = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(sym)
    scale = max(float(np.max(np.abs(w))), 1e-300)
    residual = np.linalg.norm(sym @ v - v * w, axis=0)
    if residual.size and float(residual.max()) > 1e-10 * scale:
        raise NumericalError(
            f"eigendecomposition residual {residual.max():.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return w, v


def _reference_support_points(
    minimized: np.ndarray, tie_break: np.ndarray, fd: np.ndarray, fe: np.ndarray
) -> list[tuple[float, float]]:
    w, v = _reference_eigh_checked(minimized)
    members = v[:, w <= w[0] + 1e-10]
    if members.shape[1] == 1:
        vecs = members
    else:
        compressed = members.T @ tie_break @ members
        _, directions = _reference_eigh_checked(compressed)
        vecs = members @ directions
    points = []
    for i in range(vecs.shape[1]):
        vec = vecs[:, i]
        points.append((float(vec @ fd @ vec), float(vec @ fe @ vec)))
    return points


def _reference_trace_boundary(pair: PhotonPair, num_points: int = 200) -> np.ndarray:
    if pair.n_a % 2 == 1 and pair.n_b % 2 == 1:
        raise ValueError(
            f"({pair.n_a}, {pair.n_b}) is odd-odd; use min_double_click instead"
        )
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    fd, fe, _ = joint_operators(pair)
    points: list[tuple[float, float]] = []
    for lam in [0.0, *np.logspace(-3.0, 3.0, num_points)]:
        points.extend(_reference_support_points(fe + lam * fd, fd, fd, fe))
    # lambda -> infinity limit: minimize double clicks outright, then errors.
    points.extend(_reference_support_points(fd, fe, fd, fe))
    return np.array([[min(max(x, 0.0), 1.0) for x in point] for point in points])


# The np.kron loop that the broadcast build of `povm.joint_operators` replaced, kept as its
# reference.
def _reference_joint_sum(pair: PhotonPair, same_bit: bool) -> np.ndarray:
    total = 0.0
    for w in (Basis.Z, Basis.X):
        proj_a, proj_b = outcome_projectors(pair.n_a, w), outcome_projectors(pair.n_b, w)
        for b in (Bit.ZERO, Bit.ONE):
            total += np.kron(proj_a[b], proj_b[b if same_bit else 1 - b])
    return 0.5 * total


# The three-operand einsum that `random_state_fractions` replaced, kept as its reference.
def _reference_random_state_fractions(
    pair: PhotonPair, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    states = rng.standard_normal((count, pair.joint_dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    fe = _reference_joint_sum(pair, same_bit=False)
    fd = np.eye(pair.joint_dim) - _reference_joint_sum(pair, same_bit=True) - fe
    delta = np.einsum("ni,ij,nj->n", states, fd, states)
    eps = np.einsum("ni,ij,nj->n", states, fe, states)
    return delta, eps


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53: the bound of k chained roundings."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _click_coordinates(n: int) -> np.ndarray:
    """Orthonormal basis S R^-1 of one side's click states S, or the Fock basis for n <= 3.

    R is the Cholesky factor of the states' Gram matrix S^T S.
    """
    if n <= 3:
        return np.eye(n + 1)
    states = np.column_stack([basis_state(n, w, b) for w in Basis for b in Bit])
    r = np.linalg.cholesky(states.T @ states).T
    return np.linalg.solve(r.T, states.T).T


# Eigenvalues within this distance of the lowest one are one cluster, as in
# the reference trace's tie cut.
_CLUSTER_CUT = 1e-10


def _lowest_clusters(fe: np.ndarray, fd: np.ndarray, num_points: int = 400):
    """Spectra of the operators a trace minimizes, and each lowest cluster's dimension."""
    lams = np.concatenate([[0.0], np.logspace(-3.0, 3.0, num_points)])
    w = np.linalg.eigvalsh(np.concatenate([fe + lams[:, None, None] * fd, fd[None]]))
    return lams, w, np.sum(w <= w[:, :1] + _CLUSTER_CUT, axis=1)


def _mp_trace(pair: PhotonPair, num_points: int) -> list:
    """`trace_boundary`'s rows from its closed form, evaluated at 50 digits."""
    m = 1 if pair.n_a % 2 == 0 and pair.n_b % 2 == 0 else 2
    with mpmath.workdps(50):
        t = mpmath.mpf(2) ** -math.ceil((pair.n_a + pair.n_b) / 2)
        kernel = [1 / (2 + 4 * t)] * m + [mpmath.mpf(0.5)] * (4 - 2 * m) + [1 / (2 - 4 * t)] * m
        rows = [(d, 0) for d in (kernel + [1] * pair.joint_dim)[: pair.joint_dim - 4]]
        c2 = (t + 0.25) / 4
        for lam in np.logspace(-3.0, 3.0, num_points):
            h = t * (1 - 2 * mpmath.mpf(lam)) / 2
            r = mpmath.sqrt(h * h + c2)
            rows += [((1 - 2 * t) / 2 + t * h / r, 0.25 + t / 2 - t * h / (2 * r) - c2 / r)] * m
        return rows + [(0.5 - 2 * t, 0.25 + t)] * m


Z, X, P11, P31 = Basis.Z, Basis.X, PhotonPair(1, 1), PhotonPair(3, 1)
# positions of f_dbl, f_err and f_cor in what `joint_operators` returns
DBL, ERR, COR = range(3)
# the maximally correlated and the singlet single-photon pair, amplitudes over (k_A, k_B)
PHI_PLUS, SINGLET = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]]) / math.sqrt(2.0)
# call, expected value or array, absolute tolerance
KNOWN_VALUES = {
    "single-photon-Z-no-double-click": (lambda: outcome_projectors(1, Z)[2], 0.0, 1e-15),
    "single-photon-X-no-double-click": (lambda: outcome_projectors(1, X)[2], 0.0, 1e-15),
    # one H and one V photon is the only double-click direction
    "two-photon-Z-double-click-projector": (
        lambda: outcome_projectors(2, Z)[2], np.diag([0.0, 1.0, 0.0]), 1e-14
    ),
    "three-photon-X-double-click-rank": (lambda: np.trace(outcome_projectors(3, X)[2]), 2.0, 1e-12),
    # eigen-decomposition oracle: spectrum {0, 1/2, 1/2, 1}, largest at the
    # singlet, which anticorrelates in both bases
    "one-one-error-spectrum": (
        lambda: eigh_checked(joint_operators(P11)[ERR])[0], [0, 0.5, 0.5, 1], 1e-12
    ),
    "one-one-error-top-is-singlet": (
        lambda: abs(float(eigh_checked(joint_operators(P11)[ERR])[1][:, -1] @ SINGLET)),
        1.0,
        1e-12,
    ),
    "phi-plus-error": (lambda: PHI_PLUS @ joint_operators(P11)[ERR] @ PHI_PLUS, 0.0, 1e-12),
    "phi-plus-correct": (lambda: PHI_PLUS @ joint_operators(P11)[COR] @ PHI_PLUS, 1.0, 1e-12),
    "one-one-correct-plus-error": (lambda: sum(joint_operators(P11)[ERR:]), np.eye(4), 1e-13),
    "one-one-no-double-clicks": (lambda: joint_operators(P11)[DBL], 0.0, 1e-13),
    "three-one-top-eigenvalue": (
        lambda: eigh_checked(sum(joint_operators(P31)[ERR:]))[0][-1], 0.75, 1e-12
    ),
}


@pytest.mark.parametrize("call, want, tol", KNOWN_VALUES.values(), ids=KNOWN_VALUES)
def test_known_value(call, want, tol):
    assert np.allclose(call(), want, rtol=0.0, atol=tol)


class TestOutcomeProjectors:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("w", [Basis.Z, Basis.X])
    def test_completeness_and_idempotence(self, n, w):
        p0, p1, pdbl = outcome_projectors(n, w)
        assert np.allclose(p0 + p1 + pdbl, np.eye(n + 1), atol=1e-13)
        for p in (p0, p1, pdbl):
            assert np.allclose(p @ p, p, atol=1e-12)


class TestJointOperators:
    @pytest.mark.parametrize("pair", CAPPED_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_error_operator_trace(self, pair):
        assert np.trace(joint_operators(pair)[ERR]) == pytest.approx(2.0, abs=1e-10)

    def test_broadcast_build_equals_kron_loop(self):
        # bit for bit, signs of zero included: the same products, added in the same order
        for pair in CAPPED_PAIRS:
            cor = _reference_joint_sum(pair, same_bit=True)
            err = _reference_joint_sum(pair, same_bit=False)
            want = (np.eye(pair.joint_dim) - cor - err, err, cor)
            for name, got, ref in zip(("f_dbl", "f_err", "f_cor"), joint_operators(pair), want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (name, pair)

    @pytest.mark.parametrize("pair", CAPPED_ODD_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_min_double_click_is_its_closed_form_without_an_eigensolver(self, monkeypatch, pair):
        # (1 - 2^-(l_A+l_B))/2 with n = 2 l + 1 is a float, so the value is exact;
        # the dense eigenvalue is selfcheck criterion 2's oracle, not the program's
        def no_eigensolver(a):
            raise AssertionError("min_double_click ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
        want = Fraction(1, 2) * (1 - Fraction(1, 2 ** ((pair.n_a - 1) // 2 + (pair.n_b - 1) // 2)))
        assert povm.min_double_click(pair) == want


class TestTraceBoundary:
    def test_one_two_endpoints(self):
        deltas, epss = trace_boundary(PhotonPair(1, 2), num_points=300).T
        at_zero = epss[np.argmin(deltas)]
        assert deltas.min() == pytest.approx(0.0, abs=1e-10)
        assert at_zero == pytest.approx(0.5, abs=1e-9)  # g(0) = 1/2
        zero_eps = deltas[epss <= 1e-9]
        assert zero_eps.min() == pytest.approx(1.0 / 3.0, abs=1e-9)  # g(1/3) = 0

    @pytest.mark.parametrize(
        "pair", [PhotonPair(1, 2), PhotonPair(2, 2), PhotonPair(1, 4)], ids=pair_id
    )
    def test_no_point_below_curve(self, pair):
        deltas, epss = trace_boundary(pair, num_points=300).T
        sel = deltas <= 1.0 / 3.0 + 1e-12
        assert np.all(epss[sel] >= g(np.minimum(deltas[sel], 1.0 / 3.0)) - 1e-8)

    def test_two_two_boundary_coincides_with_curve(self):
        deltas, epss = trace_boundary(PhotonPair(2, 2), num_points=500).T
        sel = deltas <= 1.0 / 3.0 + 1e-12
        dev = np.abs(epss[sel] - g(np.clip(deltas[sel], 0.0, 1.0 / 3.0)))
        assert dev.max() <= 1e-6

    def test_swap_symmetry_of_support_function(self):
        fd12, fe12, _ = joint_operators(PhotonPair(1, 2))
        fd21, fe21, _ = joint_operators(PhotonPair(2, 1))
        for lam in [0.0, *np.logspace(-3, 3, 40)]:
            a = np.linalg.eigvalsh(fe12 + lam * fd12)[0]
            b = np.linalg.eigvalsh(fe21 + lam * fd21)[0]
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("num_points", [2, 10, 200, 400])
    @pytest.mark.parametrize("pair", BOUNDARY_PAIRS, ids=str)
    def test_equals_reference(self, pair, num_points):
        """The closed-form trace gives the per-slope dense trace's points, in its order.

        The bits differ by construction, so the bound is derived.  Each
        reference point is a pair of quadratic forms, of operators with norm
        <= 1, at a unit vector from a backward-stable eigensolve: its cluster
        spans the exact lowest eigenspace of a matrix within |E| <= d u |A| of
        A (d = joint_dim, u the unit roundoff).  By Davis-Kahan that space
        turns by at most |E| / gap from the exact one, gap the distance from
        the lowest cluster to the next eigenvalue, and each quadratic form
        moves by at most twice the angle.  Inside a cluster the points are the
        tie-break's eigenpairs; where its eigenvalues tie, as on the
        mirror-image states of a facet, the points coincide, so no smaller gap
        enters.  So the reference errs by at most 2 d u max |A| / gap, and the
        closed form by 4u (`trace_boundary`), which is below that again since
        d >= 4 and max |A| >= gap / 2: |delta| <= 4 d u max |A| / gap.  The
        gap is the one `test_degeneracy_cut_sits_in_the_spectral_gap` pins;
        for (5, 6) the bound is 3.1e-10, inside the benchmark's 1e-9 point
        check.
        """
        pair = PhotonPair(*pair)
        got = trace_boundary(pair, num_points)
        want = _reference_trace_boundary(pair, num_points)
        fd, fe, _ = joint_operators(pair)
        _, w, dims = _lowest_clusters(fe, fd, num_points)
        rows = np.arange(len(w))
        assert np.max(w[rows, dims - 1] - w[:, 0]) < _CLUSTER_CUT / 10
        gap = w[rows, dims] - w[rows, dims - 1]
        bound = 4 * pair.joint_dim * np.finfo(float).eps / 2 * np.max(np.abs(w).max(axis=1) / gap)
        assert bound <= 1e-9
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("pair", BOUNDARY_PAIRS, ids=str)
    def test_degeneracy_cut_sits_in_the_spectral_gap(self, pair):
        # The lowest eigenvalue cluster of every operator the dense reference
        # minimizes in a 400-point trace is far narrower than its tie cut, and
        # the next eigenvalue is far above it, so the eigenspace dimension does
        # not hinge on the cut's value.
        pair = PhotonPair(*pair)
        fd, fe, _ = joint_operators(pair)
        _, w, dims = _lowest_clusters(fe, fd)
        rows = np.arange(len(w))
        assert np.all(dims < w.shape[1])
        assert np.max(w[rows, dims - 1] - w[:, 0]) < _CLUSTER_CUT / 10
        assert np.min(w[rows, dims] - w[rows, dims - 1]) > 1e3 * _CLUSTER_CUT

    @pytest.mark.parametrize("pair", [*BOUNDARY_PAIRS, (2, 20), (1, 30)], ids=str)
    def test_matches_50_digit_closed_form(self, pair):
        # the float rows against the same closed form at 50 digits, within the
        # 2u (delta) and 4u (eps) that the `trace_boundary` docstring derives
        got = trace_boundary(PhotonPair(*pair), 400)
        want = _mp_trace(PhotonPair(*pair), 400)
        assert got.shape == (len(want), 2)
        with mpmath.workdps(50):
            err = [[abs(x - mpmath.mpf(y)) for x, y in zip(*rows)] for rows in zip(want, got)]
        assert np.all(np.array(err, dtype=float).max(axis=0) <= np.array([2.0, 4.0]) * 2.0**-53)

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_zero_slope_rows_are_the_kernel_spectrum(self, pair):
        # f_err has rank 4, its other eigenvalues are at least 1/4, and the
        # slope-0 rows are (mu, 0) for the eigenvalues mu of f_dbl compressed
        # onto its kernel, in increasing order.  1e-12 is far above the
        # eigensolver's d u = 7.1e-15 and the kernel's turn d u / (1/4).
        k = pair.joint_dim - 4
        fd, fe, _ = joint_operators(pair)
        w, v = np.linalg.eigh(fe)
        assert np.max(np.abs(w[:k])) <= 1e-12 and w[k] >= 0.25 - 1e-12
        want = np.linalg.eigvalsh(v[:, :k].T @ fd @ v[:, :k])
        rows = trace_boundary(pair, 2)[:k]
        assert np.max(np.abs(rows[:, 0] - want)) <= 1e-12 and not rows[:, 1].any()

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_lowest_double_click_is_half_minus_2t(self, pair):
        # lambda_min(f_dbl) = 1/2 - 2t, the block's double-click end; from
        # n_A + n_B >= 5 on, t <= 1/8, so every state has delta >= 1/4, where
        # the envelope is 0 and the region claim holds outright.
        t = 2.0 ** -math.ceil((pair.n_a + pair.n_b) / 2)
        lowest = float(np.linalg.eigvalsh(joint_operators(pair)[DBL])[0])
        assert abs(lowest - (0.5 - 2.0 * t)) <= 1e-12
        assert trace_boundary(pair, 2)[-1].tolist() == [0.5 - 2.0 * t, 0.25 + t]
        assert pair.n_a + pair.n_b < 5 or lowest >= 0.25 - 1e-12

    def test_returns_read_only_rows(self):
        points = trace_boundary(PhotonPair(1, 2), num_points=50)
        assert points.ndim == 2 and points.shape[1] == 2 and len(points) >= 52
        assert not points.flags.writeable

    @pytest.mark.parametrize(
        "point",
        [(0.7, 0.5), (-0.1, 0.0), (0.5, 1.1), (np.nan, 0.0)],
        ids=["sum-above-one", "negative", "above-one", "nan"],
    )
    def test_rejects_out_of_range_point(self, monkeypatch, point):
        # A traced point outside the fractions' range is an internal failure.
        def one_bad_point(t, lams):
            return np.full(len(lams), point[0]), np.full(len(lams), point[1])

        monkeypatch.setattr(povm, "_block_points", one_bad_point)
        with pytest.raises(NumericalError, match="is not a pair of fractions"):
            trace_boundary(PhotonPair(1, 2), num_points=10)

    def test_clamps_rounding_noise(self, monkeypatch):
        noise = (np.array([1e-14, -1e-14, -0.0]), np.array([-1e-14, 1.0 + 1e-14, 0.5]))
        monkeypatch.setattr(povm, "_block_points", lambda t, lams: noise)
        points = trace_boundary(PhotonPair(2, 2), num_points=3)
        assert points[5:8].tolist() == [[1e-14, 0.0], [0.0, 1.0], [-0.0, 0.5]]
        assert math.copysign(1.0, points[7, 0]) == -1.0  # as min(max(-0.0, 0.0), 1.0)

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_complement_ties_only_at_zero_slope(self, pair):
        # The complement of the click states has eigenvalue lambda on slope
        # lambda and 1 under the pure double-click minimization.  It ties with
        # the click states' minimum at lambda = 0 and sits far above it
        # elsewhere, so its points, (1, 0) each, are slope-0 points only.
        q = np.kron(_click_coordinates(pair.n_a), _click_coordinates(pair.n_b))
        fd, fe, _ = joint_operators(pair)
        lams, w, _ = _lowest_clusters(q.T @ fe @ q, q.T @ fd @ q)
        margins = np.append(lams, 1.0) - w[:, 0]
        assert abs(margins[0]) < _CLUSTER_CUT / 10
        assert np.min(margins[1:]) >= 1e3 * _CLUSTER_CUT


class TestEighChecked:
    def test_residual_is_scaled_per_matrix(self, monkeypatch):
        # A 1e-8 error in the eigenvalues leaves a residual of about 1e-8 in
        # either matrix: far below 1e-10 * 1e6, the large matrix's scale, but
        # not below the unit matrix's.
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 5, 5))
        large, unit = 1e6 * (a + a.T), b + b.T
        exact = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda sym: (exact(sym)[0] + 1e-8, exact(sym)[1]))
        eigh_checked(large)
        with pytest.raises(NumericalError, match="exceeds 1e-10"):
            eigh_checked(unit)


MEMBERSHIP_EXAMPLES = [
    ((0.0, 0.5), True),  # boundary: curve start
    ((0.0, 0.4), False),  # below the curve at delta = 0
    ((1.0 / 3.0, 0.0), True),  # curve end
    ((0.25, 0.0), True),  # odd-odd corner
    ((1.0 / 6.0, 1.0 / 12.0), True),  # tangent point
    ((0.2, 0.04), False),  # below the tangent segment
    ((0.2, 0.06), True),  # above it
    ((0.5, 0.0), True),  # right of the corner
]


class TestRegionMembership:
    @pytest.mark.parametrize("point, want", MEMBERSHIP_EXAMPLES)
    def test_examples(self, point, want):
        assert region_membership(*point) is want
        got = region_membership(np.array([point[0]]), np.array([point[1]]))
        assert got.shape == (1,) and got[0] == want

    def test_vector_call_matches_scalars(self):
        points = [point for point, _ in MEMBERSHIP_EXAMPLES]
        got = region_membership(*np.array(points).T)
        assert got.tolist() == [region_membership(*point) for point in points]
        assert got.tolist() == [want for _, want in MEMBERSHIP_EXAMPLES]

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_traced_points_are_members(self, pair):
        # The traced boundary lies on the region's edge, so every point is a
        # member within rounding, far inside _MEMBERSHIP_TOL.
        deltas, epss = trace_boundary(pair, num_points=400).T
        assert np.all(region_membership(deltas, epss))
        assert np.max(multiphoton_envelope(deltas) - epss) < _MEMBERSHIP_TOL / 1e3

    def test_sampled_fractions_match_the_einsum_reference(self):
        # selfcheck criterion 9 at its quick size: the same pairs, count and stream.  Both
        # forms evaluate x^T F x of one unit x with 0 <= F <= I.  The gemm and the row dot are
        # d-term sums, so the gemm form is within gamma_2d |x|^T |F| |x| of the exact value;
        # the einsum sums d^2 products of three factors, within gamma_(d^2 + 2) of it.  And
        # |x|^T |F| |x| <= || |F| ||_2 <= ||F||_F <= sqrt(d) ||F||_2 <= sqrt(d), so the two
        # differ by at most (gamma_2d + gamma_(d^2 + 2)) sqrt(d) (measured: 2.0e-15, 2.4% of
        # it).  Every count of members is the same: the closest sample lies 4.9e-4 above
        # the envelope.
        count, seed = 2000, 20240817
        pairs = [
            PhotonPair(a, b)
            for a in range(1, 9)
            for b in range(1, 9)
            if a + b >= 3 and (a + 1) * (b + 1) <= 36
        ]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for pair in pairs:
            d = pair.joint_dim
            bound = (_gamma(2 * d) + _gamma(d * d + 2)) * math.sqrt(d)
            got = random_state_fractions(pair, count, rng)
            want = _reference_random_state_fractions(pair, count, ref_rng)
            for g_, w_ in zip(got, want):
                assert np.max(np.abs(g_ - w_)) <= bound, pair
            counts = [int(np.sum(region_membership(*fractions))) for fractions in (got, want)]
            assert counts[0] == counts[1], pair

    def test_random_state_count(self):
        rng = np.random.default_rng(0)
        delta, eps = random_state_fractions(PhotonPair(1, 2), 0, rng)
        assert delta.shape == eps.shape == (0,)


class TestTypes:
    @pytest.mark.parametrize("pair", CAPPED_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_operators_are_exactly_symmetric(self, pair):
        for op in joint_operators(pair):
            assert np.array_equal(op, op.T)
        for n in (pair.n_a, pair.n_b):
            for w in Basis:
                stack = outcome_projectors(n, w)
                assert stack.shape == (3, n + 1, n + 1) and not stack.flags.writeable
                assert np.array_equal(stack, stack.mT)
                assert outcome_projectors(n, w) is stack
