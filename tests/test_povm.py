import math

import numpy as np
import pytest

from bbm92kit import (
    DIM_CAP,
    Basis,
    PhotonPair,
    f_cor,
    f_dbl,
    f_err,
    g,
    multiphoton_envelope,
    outcome_projectors,
    random_state_fractions,
    region_membership,
    trace_boundary,
)
from bbm92kit import povm, selfcheck
from bbm92kit.errors import NumericalError
from bbm92kit.fock import Bit, basis_state
from bbm92kit.povm import _DEGENERACY_TOL, _MEMBERSHIP_TOL, eigh_checked


def pair_id(value) -> str:
    """Test id that names a pair together with the dimension cap it is checked against."""
    if isinstance(value, PhotonPair):
        return f"PhotonPair(n_a={value.n_a}, n_b={value.n_b}, cap={DIM_CAP})"
    return str(value)


ALL_PAIRS = [
    PhotonPair(a, b)
    for a in range(1, 8)
    for b in range(1, 8)
    if (a + 1) * (b + 1) <= 64
]
EVEN_PAIRS = [p for p in ALL_PAIRS if p.n_a % 2 == 0 or p.n_b % 2 == 0]
# Every pair that traces a curve: one photon number even, joint dimension <= DIM_CAP.
CAPPED_EVEN_PAIRS = [
    PhotonPair(a, b)
    for a in range(1, DIM_CAP)
    for b in range(1, DIM_CAP)
    if (a + 1) * (b + 1) <= DIM_CAP and (a % 2 == 0 or b % 2 == 0)
]


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
    fe = f_err(pair)
    fd = f_dbl(pair)
    points: list[tuple[float, float]] = []
    for lam in [0.0, *np.logspace(-3.0, 3.0, num_points)]:
        points.extend(_reference_support_points(fe + lam * fd, fd, fd, fe))
    # lambda -> infinity limit: minimize double clicks outright, then errors.
    points.extend(_reference_support_points(fd, fe, fd, fe))
    return np.array([[min(max(x, 0.0), 1.0) for x in point] for point in points])


def _click_coordinates(n: int) -> np.ndarray:
    """Orthonormal basis S R^-1 of one side's click states S, or the Fock basis for n <= 3.

    R is the Cholesky factor of the states' Gram matrix S^T S, so the click
    states have coordinates R in it, as `povm._span_projectors` places them.
    """
    if n <= 3:
        return np.eye(n + 1)
    states = np.column_stack([basis_state(n, w, b) for w in Basis for b in Bit])
    r = np.linalg.cholesky(states.T @ states).T
    return np.linalg.solve(r.T, states.T).T


def _span_operators(pair: PhotonPair) -> tuple[np.ndarray, np.ndarray]:
    """f_err and f_dbl on the click states, as `trace_boundary` builds them."""
    fe = povm._joint_sum(pair, False, povm._span_projectors)
    return fe, np.eye(len(fe)) - povm._joint_sum(pair, True, povm._span_projectors) - fe


# Bound on each entry of Q^T f Q - f_span, f P and P f_dbl P - P, Q the joint
# click-state basis and P = I - Q Q^T the projector off it, for f = f_err and
# f_dbl, where all vanish exactly.  Each entry is a dot product of length
# joint_dim <= 64 between rows of norm <= 1, so one product rounds by at most
# gamma_64 = 64 u / (1 - 64 u) < 7.2e-15 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., eq. 3.5), and the operators, the Cholesky
# factors, Q and P carry a few ulps more.  Measured: at most 6.7e-16 over every
# pair in CAPPED_EVEN_PAIRS.  A real leak or a wrong coordinate is O(1).
_SPAN_TOL = 1e-12


def _check_click_span(pair: PhotonPair, side_basis=_click_coordinates) -> None:
    """Assert that the dense operators live on the click states and equal the span ones there.

    Since 0 <= f_dbl <= I, P f_dbl P = P also gives f_dbl P = P, so both
    operators are block diagonal across Q and its complement.
    """
    q = np.kron(side_basis(pair.n_a), side_basis(pair.n_b))
    fe, fd = f_err(pair), f_dbl(pair)
    off = np.eye(pair.joint_dim) - q @ q.T
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-14
    leak = max(np.max(np.abs(fe @ off)), np.max(np.abs(off @ fd @ off - off)))
    assert leak <= _SPAN_TOL, f"operators leak {leak:.3e} off the click states"
    for dense, span in zip((fe, fd), _span_operators(pair)):
        assert np.max(np.abs(q.T @ dense @ q - span)) <= _SPAN_TOL


def _lowest_clusters(fe: np.ndarray, fd: np.ndarray, num_points: int = 400):
    """Spectra of the operators a trace minimizes, and each lowest cluster's dimension."""
    lams = np.concatenate([[0.0], np.logspace(-3.0, 3.0, num_points)])
    w = np.linalg.eigvalsh(np.concatenate([fe + lams[:, None, None] * fd, fd[None]]))
    return lams, w, np.sum(w <= w[:, :1] + _DEGENERACY_TOL, axis=1)


Z, X, P11, P31 = Basis.Z, Basis.X, PhotonPair(1, 1), PhotonPair(3, 1)
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
    "one-one-error-spectrum": (lambda: eigh_checked(f_err(P11))[0], [0, 0.5, 0.5, 1], 1e-12),
    "one-one-error-top-is-singlet": (
        lambda: abs(float(eigh_checked(f_err(P11))[1][:, -1] @ SINGLET)), 1.0, 1e-12
    ),
    "phi-plus-error": (lambda: PHI_PLUS @ f_err(P11) @ PHI_PLUS, 0.0, 1e-12),
    "phi-plus-correct": (lambda: PHI_PLUS @ f_cor(P11) @ PHI_PLUS, 1.0, 1e-12),
    "one-one-correct-plus-error": (lambda: f_cor(P11) + f_err(P11), np.eye(4), 1e-13),
    "one-one-no-double-clicks": (lambda: f_dbl(P11), 0.0, 1e-13),
    "three-one-top-eigenvalue": (lambda: eigh_checked(f_cor(P31) + f_err(P31))[0][-1], 0.75, 1e-12),
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
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_error_operator_trace(self, pair):
        assert np.trace(f_err(pair)) == pytest.approx(2.0, abs=1e-10)

    def test_selfcheck_catches_non_orthogonal_bit_states(self, monkeypatch):
        # f_dbl is I - f_cor - f_err, so the three sum to I whatever the bit
        # states are.  Tilting the bit-1 X state towards bit 0 keeps that sum
        # but breaks orthogonality and pushes f_dbl below 0; the POVM check
        # reads each fault on its own.
        def tilted(n, w, b):
            state = basis_state(n, w, b) + (w is Basis.X and b == 1) * 0.1 * basis_state(n, w, 0)
            return state / np.linalg.norm(state)

        assert selfcheck.check_povm_completeness().passed
        monkeypatch.setattr(selfcheck, "basis_state", tilted)
        result = selfcheck.check_povm_completeness()
        assert not result.passed and result.detail.endswith("bit overlap 9.95e-02")
        monkeypatch.setattr(selfcheck, "basis_state", basis_state)
        monkeypatch.setattr(povm, "basis_state", tilted)
        povm.outcome_projectors.cache_clear()
        try:
            pair = PhotonPair(1, 1)
            total = f_cor(pair) + f_err(pair) + f_dbl(pair)
            assert np.max(np.abs(total - np.eye(4))) <= 1e-12
            result = selfcheck.check_povm_completeness()
        finally:
            povm.outcome_projectors.cache_clear()
        assert not result.passed and "eigenvalues in [-1.04e-01," in result.detail


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
        fe12 = f_err(PhotonPair(1, 2))
        fd12 = f_dbl(PhotonPair(1, 2))
        fe21 = f_err(PhotonPair(2, 1))
        fd21 = f_dbl(PhotonPair(2, 1))
        for lam in [0.0, *np.logspace(-3, 3, 40)]:
            a = np.linalg.eigvalsh(fe12 + lam * fd12)[0]
            b = np.linalg.eigvalsh(fe21 + lam * fd21)[0]
            assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("num_points", [2, 10, 200, 400])
    @pytest.mark.parametrize("pair", BOUNDARY_PAIRS, ids=str)
    def test_equals_reference(self, pair, num_points):
        """The stacked trace gives the per-slope dense trace's points, in its order.

        Traces of 2 and 10 points are shorter than one block of slopes.

        Where both photon numbers are <= 3 the trace solves the full operators,
        and the points are equal bit for bit.  Otherwise it solves them
        compressed onto the click states, so the bits differ by construction,
        and the bound is derived.  Each point is a pair of quadratic forms, of
        operators with norm <= 1, at a unit vector from a backward-stable
        eigensolve: its cluster spans the exact lowest eigenspace of a matrix
        within |E| <= d u |A| of A (d <= joint_dim the dimension solved, u the
        unit roundoff).  By Davis-Kahan that space turns by at most |E| / gap
        from the exact one, gap the distance from the lowest cluster to the
        next eigenvalue, and each quadratic form moves by at most twice the
        angle.  Inside a cluster the points are the tie-break's eigenpairs;
        where its eigenvalues tie, as on the mirror-image states of a facet,
        the points coincide, so no smaller gap enters.  Both traces err so:
        |delta| <= 4 d u max |A| / gap over the trace's matrices.  The gap is
        the one `test_degeneracy_cut_sits_in_the_spectral_gap` pins; for
        (5, 6) the bound is 3.1e-10, inside the benchmark's 1e-9 point check.
        """
        pair = PhotonPair(*pair)
        got = trace_boundary(pair, num_points)
        want = _reference_trace_boundary(pair, num_points)
        if max(pair.n_a, pair.n_b) <= 3:
            assert np.array_equal(got, want)
            return
        _, w, dims = _lowest_clusters(f_err(pair), f_dbl(pair), num_points)
        rows = np.arange(len(w))
        gap = w[rows, dims] - w[rows, dims - 1]
        bound = 4 * pair.joint_dim * np.finfo(float).eps / 2 * np.max(np.abs(w).max(axis=1) / gap)
        assert bound <= 1e-9
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound

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
        def one_bad_point(minimized, *operators):
            return np.full(len(minimized), point[0]), np.full(len(minimized), point[1])

        monkeypatch.setattr(povm, "_support_points", one_bad_point)
        with pytest.raises(NumericalError, match="is not a pair of fractions"):
            trace_boundary(PhotonPair(1, 2), num_points=10)

    def test_clamps_rounding_noise(self, monkeypatch):
        noise = (np.array([1e-14, -1e-14, -0.0]), np.array([-1e-14, 1.0 + 1e-14, 0.5]))
        monkeypatch.setattr(povm, "_support_points", lambda *operators: noise)
        points = trace_boundary(PhotonPair(1, 2), num_points=2)
        assert points[:3].tolist() == [[1e-14, 0.0], [0.0, 1.0], [-0.0, 0.5]]
        assert math.copysign(1.0, points[2, 0]) == -1.0  # as min(max(-0.0, 0.0), 1.0)

    @pytest.mark.parametrize("pair", BOUNDARY_PAIRS, ids=str)
    def test_degeneracy_cut_sits_in_the_spectral_gap(self, pair):
        # The lowest eigenvalue cluster of every operator a 400-point trace
        # minimizes, on the full space as the reference solves it and on the
        # click states as the trace does, is far narrower than the cut, and the
        # next eigenvalue is far above it, so the eigenspace dimension does not
        # hinge on the cut's value.
        pair = PhotonPair(*pair)
        for operators in ((f_err(pair), f_dbl(pair)), _span_operators(pair)):
            _, w, dims = _lowest_clusters(*operators)
            rows = np.arange(len(w))
            assert np.all(dims < w.shape[1])
            assert np.max(w[rows, dims - 1] - w[:, 0]) < _DEGENERACY_TOL / 10
            assert np.min(w[rows, dims] - w[rows, dims - 1]) > 1e3 * _DEGENERACY_TOL

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_click_state_compression_is_exact(self, pair):
        # In the click states' basis Q = S R^-1 the dense f_err and f_dbl are
        # the operators `trace_boundary` builds from the overlap law; off Q
        # f_err vanishes and f_dbl is the identity.  The span has dimension
        # min(n+1, 4) on each side.
        assert len(_span_operators(pair)[0]) == min(pair.n_a + 1, 4) * min(pair.n_b + 1, 4)
        _check_click_span(pair)

    @pytest.mark.parametrize("pair", CAPPED_EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_complement_ties_only_at_zero_slope(self, pair):
        # The complement of the click states has eigenvalue lambda on slope
        # lambda and 1 under the pure double-click minimization.  It ties with
        # the compressed minimum at lambda = 0 and sits far above it elsewhere.
        # `trace_boundary` places the complement's points once, after the
        # slope-0 points, without a test per slope; that rests on this test.
        lams, w, _ = _lowest_clusters(*_span_operators(pair))
        margins = np.append(lams, 1.0) - w[:, 0]
        assert abs(margins[0]) < _DEGENERACY_TOL / 10
        assert np.min(margins[1:]) >= 1e3 * _DEGENERACY_TOL

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda states: np.linalg.qr(states[:, :3])[0],
            lambda states: np.eye(len(states))[:, 1:5],
        ],
        ids=["one-state-dropped", "occupation-states"],
    )
    def test_wrong_click_basis_raises(self, wrong):
        # A basis that misses the click states leaves part of f_err outside it,
        # so the check above is not vacuous.
        def side_basis(n):
            if n <= 3:
                return np.eye(n + 1)
            return wrong(np.column_stack([basis_state(n, w, b) for w in Basis for b in Bit]))

        with pytest.raises(AssertionError, match="off the click states"):
            _check_click_span(PhotonPair(5, 6), side_basis)


class TestEighChecked:
    def test_residual_is_scaled_per_matrix(self, monkeypatch):
        # A 1e-8 error in the unit matrix's eigenvectors stays far below
        # 1e-10 * 1e6, the large matrix's scale, but not below its own.
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 5, 5))
        stack = np.stack([1e6 * (a + a.T), b + b.T])
        exact = np.linalg.eigh

        def perturbed(sym):
            w, v = exact(sym)
            unit = np.max(np.abs(w), axis=-1) < 1e3
            return w, v + 1e-8 * unit[..., None, None]

        eigh_checked(stack)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match="exceeds 1e-10"):
            eigh_checked(stack)
        with pytest.raises(NumericalError, match="exceeds 1e-10"):
            eigh_checked(stack[1])
        eigh_checked(stack[0])


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

    @pytest.mark.parametrize("pair", EVEN_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_traced_points_are_members(self, pair):
        # The traced boundary lies on the region's edge, so every point is a
        # member within rounding, far inside _MEMBERSHIP_TOL.
        deltas, epss = trace_boundary(pair, num_points=400).T
        assert np.all(region_membership(deltas, epss))
        assert np.max(multiphoton_envelope(deltas) - epss) < _MEMBERSHIP_TOL / 1e3

    def test_random_state_count(self):
        rng = np.random.default_rng(0)
        delta, eps = random_state_fractions(PhotonPair(1, 2), 0, rng)
        assert delta.shape == eps.shape == (0,)


class TestTypes:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_operators_are_exactly_symmetric(self, pair):
        for op in (f_err(pair), f_cor(pair), f_dbl(pair)):
            assert np.array_equal(op, op.T)
        for n in (pair.n_a, pair.n_b):
            for w in Basis:
                stack = outcome_projectors(n, w)
                assert stack.shape == (3, n + 1, n + 1) and not stack.flags.writeable
                assert np.array_equal(stack, stack.mT)
                assert outcome_projectors(n, w) is stack
