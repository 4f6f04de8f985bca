import math

import numpy as np
import pytest

from bbm92kit import (
    DIM_CAP,
    Basis,
    PhotonPair,
    SourceBranch,
    build_v,
    f_cor,
    f_dbl,
    f_err,
    g,
    min_double_click,
    multiphoton_envelope,
    outcome_projectors,
    random_state_fractions,
    region_membership,
    trace_boundary,
)
from bbm92kit import povm
from bbm92kit.errors import NumericalError
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


def phi_plus() -> np.ndarray:
    # maximally correlated single-photon pair, amplitudes over (k_A, k_B)
    return np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def singlet() -> np.ndarray:
    return np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


class TestOutcomeProjectors:
    def test_single_photon_has_no_double_clicks(self):
        for w in Basis:
            _, _, pdbl = outcome_projectors(1, w)
            assert np.allclose(pdbl, 0.0, atol=1e-15)

    def test_two_photon_z_double_click_projector(self):
        _, _, pdbl = outcome_projectors(2, Basis.Z)
        # one H and one V photon is the only double-click direction
        assert np.allclose(pdbl, np.diag([0.0, 1.0, 0.0]), atol=1e-14)

    def test_three_photon_x_double_click_rank(self):
        _, _, pdbl = outcome_projectors(3, Basis.X)
        assert np.trace(pdbl) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("w", [Basis.Z, Basis.X])
    def test_completeness_and_idempotence(self, n, w):
        p0, p1, pdbl = outcome_projectors(n, w)
        assert np.allclose(p0 + p1 + pdbl, np.eye(n + 1), atol=1e-13)
        for p in (p0, p1, pdbl):
            assert np.allclose(p @ p, p, atol=1e-12)


class TestJointOperators:
    def test_error_operator_spectrum_one_one(self):
        # eigen-decomposition oracle: spectrum {0, 1/2, 1/2, 1}, largest at the
        # singlet which anticorrelates in both bases
        w, v = eigh_checked(f_err(PhotonPair(1, 1)))
        assert np.allclose(sorted(w), [0.0, 0.5, 0.5, 1.0], atol=1e-12)
        top = v[:, -1]
        overlap = abs(float(top @ singlet()))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_error_operator_zero_on_correlated_pair(self):
        op = f_err(PhotonPair(1, 1))
        assert phi_plus() @ op @ phi_plus() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_error_operator_trace(self, pair):
        assert np.trace(f_err(pair)) == pytest.approx(2.0, abs=1e-10)

    def test_correct_operator_on_correlated_pair(self):
        op = f_cor(PhotonPair(1, 1))
        assert phi_plus() @ op @ phi_plus() == pytest.approx(1.0, abs=1e-12)

    def test_one_one_has_no_double_clicks(self):
        pair = PhotonPair(1, 1)
        combined = f_cor(pair) + f_err(pair)
        assert np.allclose(combined, np.eye(4), atol=1e-13)
        assert np.allclose(f_dbl(pair), 0.0, atol=1e-13)

    def test_three_one_top_eigenvalue(self):
        pair = PhotonPair(3, 1)
        w, _ = eigh_checked(f_cor(pair) + f_err(pair))
        assert w[-1] == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.n_a}-{p.n_b}")
    def test_povm_completeness_and_positivity(self, pair):
        fe, fc, fd = f_err(pair), f_cor(pair), f_dbl(pair)
        assert np.allclose(fe + fc + fd, np.eye(pair.joint_dim), atol=1e-12)
        for op in (fe, fc, fd):
            w, _ = eigh_checked(op)
            assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10


class TestMinDoubleClick:
    @pytest.mark.parametrize(
        "pair, want",
        [
            (PhotonPair(1, 3), 0.25),
            (PhotonPair(3, 1), 0.25),
            (PhotonPair(3, 3), 0.375),
            (PhotonPair(1, 5), 0.375),
        ],
        ids=pair_id,
    )
    def test_known_values(self, pair, want):
        assert min_double_click(pair) == pytest.approx(want, abs=1e-9)

    def test_closed_form_all_odd_pairs_up_to_nine(self):
        for n_a in range(1, 9, 2):
            for n_b in range(1, 9, 2):
                if n_a + n_b < 3 or n_a + n_b > 9:
                    continue
                l_sum = (n_a - 1) // 2 + (n_b - 1) // 2
                want = 0.5 * (1.0 - 2.0 ** (-l_sum))
                got = min_double_click(PhotonPair(n_a, n_b))
                assert got == pytest.approx(want, abs=1e-9)
                assert got >= 0.25 - 1e-9

    def test_rejects_single_photon_pair(self):
        with pytest.raises(ValueError):
            min_double_click(PhotonPair(1, 1))

    @pytest.mark.parametrize("pair", [PhotonPair(1, 2), PhotonPair(2, 2)], ids=pair_id)
    def test_rejects_even_pairs(self, pair):
        with pytest.raises(ValueError):
            min_double_click(pair)


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

    def test_interpolated_tightness_one_two(self):
        points = trace_boundary(PhotonPair(1, 2), num_points=2000)
        xs, ys = np.array(sorted(map(tuple, points[points[:, 0] <= 1.0 / 3.0 + 1e-9]))).T
        grid = np.linspace(0.0, 1.0 / 3.0, 50)
        interp = np.interp(grid, xs, ys)
        assert np.max(np.abs(interp - g(grid))) <= 1e-5

    def test_swap_symmetry_of_support_function(self):
        fe12 = f_err(PhotonPair(1, 2))
        fd12 = f_dbl(PhotonPair(1, 2))
        fe21 = f_err(PhotonPair(2, 1))
        fd21 = f_dbl(PhotonPair(2, 1))
        for lam in [0.0, *np.logspace(-3, 3, 40)]:
            a = np.linalg.eigvalsh(fe12 + lam * fd12)[0]
            b = np.linalg.eigvalsh(fe21 + lam * fd21)[0]
            assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_odd_odd(self):
        with pytest.raises(ValueError):
            trace_boundary(PhotonPair(1, 3))

    @pytest.mark.parametrize("num_points", [200, 400])
    @pytest.mark.parametrize("pair", BOUNDARY_PAIRS, ids=str)
    def test_equals_reference(self, pair, num_points):
        got = trace_boundary(PhotonPair(*pair), num_points)
        assert np.array_equal(got, _reference_trace_boundary(PhotonPair(*pair), num_points))

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
        # minimizes is far narrower than the cut, and the next eigenvalue is far
        # above it, so the eigenspace dimension does not hinge on the cut's value.
        fe = f_err(PhotonPair(*pair))
        fd = f_dbl(PhotonPair(*pair))
        lams = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 400)])
        w, _ = eigh_checked(np.concatenate([fe + lams[:, None, None] * fd, fd[None]]))
        dims = np.sum(w <= w[:, :1] + _DEGENERACY_TOL, axis=1)
        rows = np.arange(len(w))
        assert np.all(dims < w.shape[1])
        assert np.max(w[rows, dims - 1] - w[:, 0]) < _DEGENERACY_TOL / 10
        assert np.min(w[rows, dims] - w[rows, dims - 1]) > 1e3 * _DEGENERACY_TOL


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

    @pytest.mark.parametrize(
        "pair",
        [p for p in ALL_PAIRS if p.is_multiphoton and p.joint_dim <= 36],
        ids=lambda p: f"{p.n_a}-{p.n_b}",
    )
    def test_random_states_stay_inside(self, pair):
        rng = np.random.default_rng(1000 + 64 * pair.n_a + pair.n_b)
        assert np.all(region_membership(*random_state_fractions(pair, 2000, rng)))

    def test_random_state_count(self):
        rng = np.random.default_rng(0)
        delta, eps = random_state_fractions(PhotonPair(1, 2), 0, rng)
        assert delta.shape == eps.shape == (0,)
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            random_state_fractions(PhotonPair(1, 2), -1, rng)


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

    def test_photon_pair_validation(self):
        with pytest.raises(ValueError):
            PhotonPair(0, 1)
        with pytest.raises(ValueError):
            PhotonPair(10, 10)  # joint dim 121 > cap

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PhotonPair(10, 10),
            lambda: SourceBranch(1.0, 8, 7, np.eye(72) / 72),
            lambda: build_v(7, 8),
        ],
        ids=["PhotonPair", "SourceBranch", "build_v"],
    )
    def test_joint_dimension_cap(self, build):
        with pytest.raises(ValueError, match="exceeds cap"):
            build()
