import math

import numpy as np
import pytest

from bbm92kit import (
    Basis,
    Bit,
    JointState,
    ObservedStats,
    PhotonPair,
    PolarizedFockState,
    UnitaryMap,
    attack_density,
    attack_state,
    basis_state,
    binary_entropy,
    boundary_state,
    boundary_sweep,
    build_v,
    f_cor,
    f_dbl,
    f_err,
    g,
    run_attack,
    tau_low,
)

SQ2 = math.sqrt(2.0)


def joint(n_a, w, a, n_b, b):
    return np.kron(basis_state(n_a, w, a).amplitudes, basis_state(n_b, w, b).amplitudes)


def random_chi(seed: int) -> PolarizedFockState:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    return PolarizedFockState(2, x / np.linalg.norm(x))


class TestBuildV:
    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4), (3, 2)])
    def test_bit_copy_relation_on_all_defining_states(self, n_a, n_b):
        v = build_v(n_a, n_b).entries
        for w in (Basis.Z, Basis.X):
            for a in (Bit.ZERO, Bit.ONE):
                for b in (Bit.ZERO, Bit.ONE):
                    src = joint(n_a, w, a, n_b, b)
                    tgt = joint(n_a, w, a, n_b, Bit(b ^ a))
                    assert np.max(np.abs(v @ src - tgt)) <= 1e-10

    def test_specific_one_two_mappings(self):
        v = build_v(1, 2).entries
        # control bit 0 acts trivially
        s = joint(1, Basis.Z, Bit.ZERO, 2, Bit.ZERO)
        assert np.max(np.abs(v @ s - s)) <= 1e-10
        # control bit 1 flips Bob's bit, in either basis
        assert np.max(
            np.abs(v @ joint(1, Basis.Z, Bit.ONE, 2, Bit.ZERO) - joint(1, Basis.Z, Bit.ONE, 2, Bit.ONE))
        ) <= 1e-10
        assert np.max(
            np.abs(v @ joint(1, Basis.X, Bit.ONE, 2, Bit.ZERO) - joint(1, Basis.X, Bit.ONE, 2, Bit.ONE))
        ) <= 1e-10

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4), (3, 2)])
    def test_orthogonality(self, n_a, n_b):
        v = build_v(n_a, n_b).entries
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) <= 1e-10

    @pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 4)])
    def test_conjugated_operators_act_only_on_bob(self, n_a, n_b):
        # V^T F V must look like identity_on_Alice (x) M for a single-photon
        # Alice, i.e. commute with every Alice-side operator
        v = build_v(n_a, n_b).entries
        pair = PhotonPair(n_a, n_b)
        dim_b = n_b + 1
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]])
        for op in (f_err(pair).entries, f_cor(pair).entries):
            conj = v.T @ op @ v
            for sigma in (sigma_x, sigma_z):
                lifted = np.kron(sigma, np.eye(dim_b))
                assert np.max(np.abs(conj @ lifted - lifted @ conj)) <= 1e-9

    def test_rejects_bad_parities(self):
        with pytest.raises(ValueError):
            build_v(2, 2)
        with pytest.raises(ValueError):
            build_v(1, 3)


class TestBoundaryState:
    def test_bit_zero_component(self):
        raw = basis_state(2, Basis.Z, Bit.ZERO).amplitudes + basis_state(2, Basis.X, Bit.ZERO).amplitudes
        want = raw / np.linalg.norm(raw)
        assert np.allclose(boundary_state(1.0, 0.0).amplitudes, want, atol=1e-14)

    def test_bit_one_component(self):
        raw = basis_state(2, Basis.Z, Bit.ONE).amplitudes + basis_state(2, Basis.X, Bit.ONE).amplitudes
        want = raw / np.linalg.norm(raw)
        assert np.allclose(boundary_state(0.0, 1.0).amplitudes, want, atol=1e-14)

    def test_rejects_zero_state(self):
        with pytest.raises(ValueError):
            boundary_state(0.0, 0.0)


class TestRunAttack:
    def test_no_double_click_point(self):
        result = run_attack(boundary_state(1.0, 1.0))
        assert result.delta_m == pytest.approx(0.0, abs=1e-12)
        assert result.eps_m == pytest.approx(0.5, abs=1e-12)
        assert result.eve_bit_accuracy == pytest.approx(1.0, abs=1e-12)

    def test_no_error_point(self):
        result = run_attack(boundary_state(3.0, -1.0))
        assert result.delta_m == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert result.eps_m == pytest.approx(0.0, abs=1e-12)
        assert result.eve_bit_accuracy == pytest.approx(1.0, abs=1e-12)

    def test_tangent_point(self):
        result = run_attack(boundary_state(1.0, 0.0))
        assert result.delta_m == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert result.eps_m == pytest.approx(1.0 / 12.0, abs=1e-12)

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
        pair = PhotonPair(1, 2)
        assert float(np.trace(rho @ f_err(pair).entries)) == pytest.approx(
            result.eps_m, abs=1e-12
        )
        assert float(np.trace(rho @ f_dbl(pair).entries)) == pytest.approx(
            result.delta_m, abs=1e-12
        )
        assert float(np.trace(rho @ f_cor(pair).entries)) == pytest.approx(
            1.0 - result.delta_m - result.eps_m, abs=1e-12
        )


class TestBoundarySweep:
    def test_sweep_traces_curve_and_covers_it(self):
        points = boundary_sweep(1024)
        accs = [p.result.eve_bit_accuracy for p in points]
        assert max(abs(a - 1.0) for a in accs) <= 1e-12
        on_curve = []
        for p in points:
            if p.result.delta_m <= 1.0 / 3.0 + 1e-12:
                bound = float(g(min(p.result.delta_m, 1.0 / 3.0)))
                assert p.result.eps_m >= bound - 1e-9
                if abs(p.result.eps_m - bound) <= 1e-9:
                    on_curve.append(p.result.delta_m)
        on_curve.sort()
        assert on_curve[0] <= 1e-12
        assert on_curve[-1] >= 1.0 / 3.0 - 1e-12
        gaps = np.diff(on_curve)
        assert gaps.max() <= 3e-3

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


class TestJointStateTypes:
    def test_attack_state_is_normalized(self):
        state = attack_state(boundary_state(1.0, 0.3))
        assert state.dims == (2, 3, 2)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_attack_density_is_a_state(self):
        rho = attack_density(random_chi(5))
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_joint_state_validation(self):
        with pytest.raises(ValueError):
            JointState((2, 2), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            JointState((2,), np.array([1.0, 1.0]))

    def test_unitary_map_validation(self):
        with pytest.raises(ValueError):
            UnitaryMap(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_run_attack_rejects_wrong_photon_number(self):
        with pytest.raises(ValueError):
            run_attack(basis_state(3, Basis.Z, Bit.ZERO))
