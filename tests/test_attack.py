import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbm92kit import (
    AttackResult,
    Basis,
    Bit,
    ObservedStats,
    PhotonPair,
    attack_density,
    attack_state,
    basis_state,
    binary_entropy,
    boundary_state,
    boundary_sweep,
    build_v,
    g,
    joint_operators,
    outcome_projectors,
    run_attack,
    tau_low,
)
from bbm92kit import attack, selfcheck
from bbm92kit.attack import _attack_kernel, _boundary_states
from bbm92kit.errors import NumericalError

SQ2 = math.sqrt(2.0)


# The one-state attack path that the stacked kernel replaced, kept as its
# reference (library calls renamed to the copies below, states as arrays; the
# state checks the removed state type made are kept).


def _reference_boundary_state(alpha: float, beta: float) -> np.ndarray:
    exponent = math.frexp(max(abs(alpha), abs(beta)))[1]
    alpha, beta = math.ldexp(alpha, -exponent), math.ldexp(beta, -exponent)
    raw = np.zeros(3)
    for w in (Basis.Z, Basis.X):
        raw += alpha * basis_state(2, w, Bit.ZERO)
        raw += beta * basis_state(2, w, Bit.ONE)
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        raise ValueError(f"state vanishes for alpha={alpha!r}, beta={beta!r}")
    chi = raw / norm
    unit = float(np.linalg.norm(chi))
    if abs(unit - 1.0) > 1e-12:
        raise ValueError(f"amplitudes must have unit norm, got {unit!r}")
    return chi


def _reference_attack_state(chi: np.ndarray) -> np.ndarray:
    if chi.shape != (3,):
        raise ValueError(f"attack is constructed for a two-photon Bob state, got {chi.shape}")
    v = build_v(1, 2)
    phi_plus = np.zeros((2, 2))
    for bit in (Bit.ZERO, Bit.ONE):
        amp = basis_state(1, Basis.Z, bit)
        phi_plus += np.outer(amp, amp)
    phi_plus /= np.sqrt(2.0)
    pre = np.einsum("ae,b->abe", phi_plus, chi)
    post = (v @ pre.reshape(6, 2)).reshape(2, 3, 2)
    norm = float(np.linalg.norm(post.reshape(-1)))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state must have unit norm, got {norm!r}")
    return post


def _reference_run_attack(chi: np.ndarray) -> AttackResult:
    overlaps = {
        (w, b): float(np.dot(chi, basis_state(2, w, b)))
        for w in (Basis.Z, Basis.X)
        for b in (Bit.ZERO, Bit.ONE)
    }
    eps_m = 0.5 * (overlaps[(Basis.Z, Bit.ONE)] ** 2 + overlaps[(Basis.X, Bit.ONE)] ** 2)
    cor_m = 0.5 * (overlaps[(Basis.Z, Bit.ZERO)] ** 2 + overlaps[(Basis.X, Bit.ZERO)] ** 2)
    delta_m = max(1.0 - eps_m - cor_m, 0.0)

    psi = _reference_attack_state(chi)
    matched = 0.0
    registered = 0.0
    for w in (Basis.Z, Basis.X):
        p0, p1, _ = outcome_projectors(2, w)
        for bit_a in (Bit.ZERO, Bit.ONE):
            alice = basis_state(1, w, bit_a)
            eve = basis_state(1, w, bit_a)
            branch = np.einsum("a,abe->be", alice, psi)
            for bob in (p0, p1):
                reg = bob @ branch
                registered += float(np.sum(reg * reg))
                hit = reg @ eve
                matched += float(np.dot(hit, hit))
    if registered <= 0.0:
        raise NumericalError("attack produced no registered events")
    return AttackResult(delta_m, eps_m, matched / registered)


def _reference_boundary_sweep(num_points: int = 720) -> list[tuple]:
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    thetas = np.linspace(-np.pi / 2, np.pi / 2, num_points, endpoint=False)
    thetas = np.unique(np.concatenate([thetas, [np.pi / 4, -np.arctan(1.0 / 3.0)]]))
    points = []
    for theta in thetas:
        alpha, beta = float(np.cos(theta)), float(np.sin(theta))
        points.append(
            (alpha, beta, *_reference_run_attack(_reference_boundary_state(alpha, beta)))
        )
    return points


def _reference_rows(alphas, betas) -> list[tuple] | Exception:
    """Reference (delta_m, eps_m, accuracy) per (alpha, beta), or the first error raised."""
    try:
        return [
            tuple(_reference_run_attack(_reference_boundary_state(a, b)))
            for a, b in zip(alphas, betas)
        ]
    except (ValueError, NumericalError) as exc:
        return exc


def joint(n_a, w, a, n_b, b):
    return np.kron(basis_state(n_a, w, a), basis_state(n_b, w, b))


def random_chi(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    return x / np.linalg.norm(x)


class TestBuildV:
    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4), (3, 2)])
    def test_bit_copy_relation_on_all_defining_states(self, n_a, n_b):
        v = build_v(n_a, n_b)
        for w in (Basis.Z, Basis.X):
            for a in (Bit.ZERO, Bit.ONE):
                for b in (Bit.ZERO, Bit.ONE):
                    src = joint(n_a, w, a, n_b, b)
                    tgt = joint(n_a, w, a, n_b, Bit(b ^ a))
                    assert np.max(np.abs(v @ src - tgt)) <= 1e-10

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4), (3, 2)])
    def test_orthogonality(self, n_a, n_b):
        v = build_v(n_a, n_b)
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) <= 1e-10
        assert not v.flags.writeable

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4)])
    def test_conjugated_operators_act_only_on_bob(self, n_a, n_b):
        # V^T F V must look like identity_on_Alice (x) M for a single-photon
        # Alice, i.e. commute with every Alice-side operator
        v = build_v(n_a, n_b)
        pair = PhotonPair(n_a, n_b)
        dim_b = n_b + 1
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
        _, fe, fc = joint_operators(pair)
        for op in (fe, fc):
            conj = v.T @ op @ v
            for sigma in (sigma_x, sigma_z):
                lifted = np.kron(sigma, np.eye(dim_b))
                assert np.max(np.abs(conj @ lifted - lifted @ conj)) <= 1e-9

    def test_rejects_non_orthogonal_map(self, monkeypatch):
        # Equal Gram matrices over different spans: the map meets the bit-copy
        # relation on its one pair but cannot be orthogonal.
        eye = np.eye(6)
        monkeypatch.setattr(attack, "_generator_pairs", lambda n_a, n_b: [(eye[0], eye[1])])
        build_v.cache_clear()
        with pytest.raises(NumericalError, match="deviates from orthogonality by 1"):
            build_v(1, 2)


class TestBoundaryState:
    @pytest.mark.parametrize(
        "alpha, beta, bit", [(1.0, 0.0, Bit.ZERO), (0.0, 1.0, Bit.ONE)], ids=["bit-0", "bit-1"]
    )
    def test_component(self, alpha, beta, bit):
        raw = basis_state(2, Basis.Z, bit) + basis_state(2, Basis.X, bit)
        chi = boundary_state(alpha, beta)
        assert np.allclose(chi, raw / np.linalg.norm(raw), atol=1e-14)
        assert chi.shape == (3,) and not chi.flags.writeable


class TestRunAttack:
    @pytest.mark.parametrize(
        "alpha, beta, want",
        [(1, 1, (0.0, 0.5, 1.0)), (3, -1, (1 / 3, 0.0, 1.0)), (1, 0, (1 / 6, 1 / 12, 1.0))],
        ids=["no-double-click", "no-error", "tangent"],
    )
    def test_known_point(self, alpha, beta, want):
        # want is (delta_m, eps_m, eve_bit_accuracy)
        assert run_attack(boundary_state(alpha, beta)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_states_give_perfect_eavesdropping(self, seed):
        result = run_attack(random_chi(seed))
        assert result.eve_bit_accuracy == pytest.approx(1.0, abs=1e-12)
        if result.delta_m <= 1.0 / 3.0:
            assert result.eps_m >= float(g(result.delta_m)) - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_fractions_match_operator_expectations(self, seed):
        chi = random_chi(100 + seed)
        result = run_attack(chi)
        rho = attack_density(chi)
        want = (result.delta_m, result.eps_m, 1.0 - result.delta_m - result.eps_m)
        for op, value in zip(joint_operators(PhotonPair(1, 2)), want):
            assert float(np.trace(rho @ op)) == pytest.approx(value, abs=1e-12)


class TestBoundarySweep:
    def test_selfcheck_covers_the_curve_end_one_rounding_away(self, monkeypatch):
        # The sweep's pi/4 angle rounds to delta_m = 0 exactly.  With that row
        # replaced by the alpha = beta = 1 point, delta_m = 2**-52, criterion 7
        # must still count it on the curve, whose slope is infinite there.
        point = run_attack(boundary_state(1.0, 1.0))
        assert point.delta_m == 2.0**-52
        sweep = attack.boundary_sweep

        def nudged(num_points):
            rows = sweep(num_points)
            start = rows.delta_m == 0.0
            assert start.sum() == 1
            nudge = {k: np.where(start, v, getattr(rows, k)) for k, v in point._asdict().items()}
            return rows._replace(**nudge)

        monkeypatch.setattr(attack, "boundary_sweep", nudged)
        result = selfcheck.check_attack()
        assert result.passed, result.detail
        assert "178 on-curve points" in result.detail

    def test_attack_realizes_tau_low_objective(self):
        # mixing the attack with clean single-photon rounds reproduces the
        # objective value of the tau_low maximization at the same xi
        for theta in (0.2, 0.5, 0.7):
            result = run_attack(boundary_state(math.cos(theta), math.sin(theta)))
            for xi in (0.3, 0.6, 0.9):
                for eps_1 in (0.0, 0.05):
                    delta = xi * result.delta_m
                    eps = (1.0 - xi) * eps_1 + xi * result.eps_m
                    rhs = (1.0 - xi) * binary_entropy(eps_1) + xi * (1.0 - result.delta_m)
                    objective = (
                        xi
                        - delta
                        + (1.0 - xi)
                        * binary_entropy((eps - xi * float(g(delta / xi))) / (1.0 - xi))
                    )
                    assert objective == pytest.approx(rhs, abs=1e-8)
                    assert tau_low(ObservedStats(delta, eps)) >= rhs - 1e-9


class TestStackedKernelMatchesReference:
    @pytest.mark.parametrize("num_points", [2, 37, 500, 1000, 2000, 7919])
    def test_sweep_equals_reference(self, num_points):
        want = np.array(_reference_boundary_sweep(num_points))
        got = boundary_sweep(num_points)
        assert len(got.alpha) == len(want)
        for column, field in zip(want.T, got):
            assert np.array_equal(field, column)

    @settings(max_examples=60)
    @given(
        st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=40),
        st.one_of(st.none(), st.integers(0, 40)),
    )
    def test_random_states_equal_reference(self, pairs, vanishing_at):
        if vanishing_at is not None:
            pairs.insert(vanishing_at, (0.0, 0.0))
        alphas, betas = (np.array(column) for column in zip(*pairs))
        want = _reference_rows(alphas.tolist(), betas.tolist())
        if isinstance(want, Exception):
            with pytest.raises(type(want)) as raised:
                _attack_kernel(_boundary_states(alphas, betas))
            assert str(raised.value) == str(want)
            return
        got = np.column_stack(_attack_kernel(_boundary_states(alphas, betas)))
        assert np.array_equal(got, np.array(want))
        one_row = run_attack(boundary_state(alphas[0], betas[0]))
        assert tuple(one_row) == want[0]
        assert np.array_equal(
            attack_state(boundary_state(alphas[0], betas[0])),
            _reference_attack_state(_reference_boundary_state(alphas[0], betas[0])),
        )

    def test_checks_run_over_the_stack(self):
        alphas = np.array([1.0, 0.5, 0.0, 0.0])
        betas = np.array([0.0, 0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="state vanishes for alpha=0.0, beta=0.0"):
            _boundary_states(alphas, betas)
        # Only the direction of (alpha, beta) counts, however large or small:
        # both are scaled exactly by a power of two first, so alpha = 1e200
        # gives the state of its mantissa bit for bit, and that of 1 to an ulp.
        for scale in (1e200, 1e-200, 5e-324):
            chis = _boundary_states(np.array([1.0, scale, math.frexp(scale)[0]]), np.zeros(3))
            assert np.array_equal(chis[1], chis[2])
            assert np.array_equal(chis[0], boundary_state(1.0, 0.0))
            assert np.max(np.abs(chis[1] - chis[0])) <= np.finfo(float).eps
            assert np.array_equal(_reference_boundary_state(scale, 0.0), chis[1])
        chis = _boundary_states(alphas[:2], betas[:2])
        chis[1] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match="state must have unit norm"):
            _attack_kernel(chis)


class TestJointStateTypes:
    def test_attack_density_is_a_state(self):
        rho = attack_density(random_chi(5))
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_rejects_off_norm_state(self, monkeypatch):
        monkeypatch.setattr(attack, "build_v", lambda n_a, n_b: (1.0 + 1e-9) * np.eye(6))
        with pytest.raises(ValueError, match=r"state must have unit norm, got 1\.00000000"):
            attack_state(boundary_state(1.0, 0.3))
