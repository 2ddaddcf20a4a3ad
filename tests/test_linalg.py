"""Core vector/matrix operations and the dense eigendecomposition oracle."""

import numpy as np
import pytest

from cyclonet import (
    apply,
    basis_state,
    compile_cycle,
    control_down_matrix,
    dense_eigendecomposition,
    haar_unitary,
    matrix_power_direct,
    alternating_pair_network,
    unitarity_defect,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestApply:
    def test_identity(self):
        v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        np.testing.assert_allclose(apply(np.eye(4), v), v, atol=1e-15)

    def test_bit_flip_on_top_qubit(self):
        u = np.kron(SX, np.eye(2))
        np.testing.assert_allclose(apply(u, basis_state(4, 0)), basis_state(4, 2), atol=1e-15)

    def test_control_down_quarter_block(self):
        # Block [[0,1],[-1,0]] on |10>,|11>: maps |10> to -|11>.
        g = control_down_matrix(0.0, np.pi / 2, 0.0, 0.0)
        np.testing.assert_allclose(apply(g, basis_state(4, 2)), -basis_state(4, 3), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply(np.eye(4), basis_state(2, 0))

    def test_norm_preserved_many_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            dim = int(rng.choice([2, 4, 8]))
            u = haar_unitary(dim, rng)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(apply(u, v)) - 1.0) < 1e-10


class TestMatrixPowerDirect:
    def test_zeroth_power(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_direct(u, 0), np.eye(4), atol=1e-15)

    def test_first_power(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_direct(u, 1), u, atol=1e-15)

    def test_eighth_of_a_turn_has_order_eight(self):
        g = control_down_matrix(0.0, np.pi / 4, 0.0, 0.0)
        np.testing.assert_allclose(matrix_power_direct(g, 8), np.eye(4), atol=1e-12)

    def test_large_power_stays_unitary(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(4, rng)
        assert unitarity_defect(matrix_power_direct(u, 10**6)) < 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            matrix_power_direct(np.eye(2), -1)


class TestDenseEigendecomposition:
    def test_identity(self):
        spec = dense_eigendecomposition(np.eye(4))
        np.testing.assert_allclose(spec.phases, np.zeros(4), atol=1e-12)

    def test_diagonal_signs(self):
        spec = dense_eigendecomposition(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(np.sort(spec.phases), [0.0, 0.0, np.pi, np.pi], atol=1e-12)

    def test_half_turn_pair_gives_third_turn_phases(self):
        # Zero block trace: nontrivial eigenphases are +-2pi/3 alongside two zeros.
        g = compile_cycle(alternating_pair_network(np.pi / 2))
        spec = dense_eigendecomposition(g)
        expected = np.sort([-2 * np.pi / 3, 0.0, 0.0, 2 * np.pi / 3])
        np.testing.assert_allclose(np.sort(spec.phases), expected, atol=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            dense_eigendecomposition(np.ones((3, 3)))

    def test_phases_sorted_and_unimodular(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4, 8):
            u = haar_unitary(dim, rng)
            spec = dense_eigendecomposition(u)
            assert np.all(np.diff(spec.phases) >= -1e-15)
            assert np.all(spec.phases > -np.pi - 1e-12) and np.all(spec.phases <= np.pi + 1e-12)
            assert np.max(np.abs(np.abs(spec.eigenvalues()) - 1.0)) < 1e-9

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 8, 64):
            u = haar_unitary(dim, rng)
            spec = dense_eigendecomposition(u)
            v = spec.vectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)
            rebuilt = (v * spec.eigenvalues()) @ v.conj().T
            assert np.max(np.abs(rebuilt - u)) < 1e-9

    def test_reconstruction_large_dimension(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(256, rng)
        spec = dense_eigendecomposition(u)
        rebuilt = (spec.vectors * spec.eigenvalues()) @ spec.vectors.conj().T
        assert np.max(np.abs(rebuilt - u)) < 1e-9

    def test_degenerate_subspace_still_orthonormal(self):
        # Block form with a doubly degenerate unit eigenvalue.
        g = compile_cycle(alternating_pair_network(1.2))
        spec = dense_eigendecomposition(g)
        v = spec.vectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_one_qubit_unit_determinant_phases_are_conjugate(self):
        # det-1 single-qubit cycles carry eigenphases +-nu.
        rng = np.random.default_rng(11)
        from cyclonet import CyclicNetwork, SingleQubit

        for _ in range(25):
            a, p, b = rng.uniform(-np.pi, np.pi, 3)
            net = CyclicNetwork(1, (SingleQubit(1, a, p, b, 0.0),))
            spec = dense_eigendecomposition(compile_cycle(net))
            assert abs(spec.phases[0] + spec.phases[1]) < 1e-10

    def test_power_matches_spectral_reconstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            dim = int(rng.choice([2, 4, 8]))
            u = haar_unitary(dim, rng)
            n = int(rng.integers(0, 10_001))
            spec = dense_eigendecomposition(u)
            rebuilt = (spec.vectors * np.exp(1j * n * spec.phases)) @ spec.vectors.conj().T
            assert np.max(np.abs(rebuilt - matrix_power_direct(u, n))) < 1e-8


class TestInputChecks:
    def test_dense_eigendecomposition_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dense_eigendecomposition(np.full((4, 4), np.nan))

    def test_compile_cycle_rejects_non_finite_product(self, monkeypatch):
        # A NaN defect compares false with any tolerance; the check must still fail.
        import cyclonet.gates

        monkeypatch.setattr(cyclonet.gates, "gate_matrix", lambda gate, qubits: np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            compile_cycle(alternating_pair_network(0.5))
