"""Group classification and the constructive decompositions."""

import numpy as np
import pytest

from cyclonet import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    SingleQubit,
    U4Parameters,
    U4_PAIR_ORDER,
    build_u4,
    classify,
    compile_cycle,
    compress_network,
    decompose_u3,
    diagonal_matrix,
    extract_so3_angles,
    extract_u4_parameters,
    haar_unitary,
    synthesize_so3,
    two_level_matrix,
)

from helpers import random_alternating_network, random_control_gate


def random_block_form_target(rng):
    """Forward product D(1,g1,g2,g3) U34 U23 U24 with random parameters."""
    g1, g2, g3 = rng.uniform(-np.pi, np.pi, 3)
    p1, b1, p2, b2, p3, b3 = rng.uniform(-np.pi, np.pi, 6)
    d = np.diag(np.exp(1j * np.array([0.0, g1, g2, g3])))
    return (
        d
        @ two_level_matrix(3, 4, p1, b1)
        @ two_level_matrix(2, 3, p2, b2)
        @ two_level_matrix(2, 4, p3, b3)
    )


class TestClassify:
    def test_one_qubit_classes(self):
        assert classify(CyclicNetwork(1, (SingleQubit(1, phi=0.7),))).tag == "SO2"
        assert classify(CyclicNetwork(1, (SingleQubit(1, 0.3, 0.7, 0.1, 0.0),))).tag == "SU2"
        assert classify(CyclicNetwork(1, (SingleQubit(1, 0.3, 0.7, 0.1, 0.5),))).tag == "U2"

    def test_single_orientation_rotations_report_single_axis(self):
        net = CyclicNetwork(2, (ControlDown(phi=0.5), ControlDown(phi=0.8), ControlDown(phi=0.3)))
        group = classify(net)
        assert group.tag == "SO3"
        assert group.note == "single-axis"
        assert str(group) == "SO3 (single-axis)"

    def test_alternating_rotations_report_so3_plain(self):
        net = synthesize_so3(0.4, 1.1, -0.7)
        group = classify(net)
        assert group.tag == "SO3" and group.note is None

    def test_su3_for_zero_sum_deltas(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            net = random_alternating_network(rng, kind="su3")
            assert classify(net).tag in ("SU3", "SO3")

    def test_u3_for_generic_deltas(self):
        net = CyclicNetwork(2, (ControlDown(0.3, 0.7, 0.1, 0.4), ControlUp(0.2, 1.1, -0.5, 0.3)))
        assert classify(net).tag == "U3"

    def test_single_qubit_gate_breaks_block_form(self):
        net = CyclicNetwork(2, (ControlDown(phi=0.7), SingleQubit(1, phi=0.4)))
        assert classify(net).tag == "U4"

    def test_improper_diagonal_is_u3_not_so3(self):
        net = CyclicNetwork(2, (DiagonalLayer((0.0, 0.0, 0.0, np.pi)),))
        assert classify(net).tag == "U3"

    def test_class_stable_under_compression(self):
        rng = np.random.default_rng(41)
        for kind in ("so3", "su3", "u3"):
            for _ in range(10):
                m = int(rng.integers(2, 6))
                orientation = "down" if rng.integers(0, 2) == 0 else "up"
                gates = tuple(random_control_gate(rng, orientation, kind) for _ in range(m))
                if kind == "su3":
                    deltas = rng.uniform(-np.pi, np.pi, m)
                    deltas[-1] = -np.sum(deltas[:-1])
                    gates = tuple(
                        type(g)(g.alpha, g.phi, g.beta, float(d)) for g, d in zip(gates, deltas)
                    )
                net = CyclicNetwork(2, gates)
                assert classify(net).tag == classify(compress_network(net)).tag

    def test_su3_membership_matches_delta_sum_predicate(self):
        rng = np.random.default_rng(42)
        agreements = 0
        for _ in range(1000):
            gates = (
                ControlDown(*rng.uniform(-np.pi, np.pi, 4)),
                ControlUp(*rng.uniform(-np.pi, np.pi, 4)),
                ControlDown(*rng.uniform(-np.pi, np.pi, 4)),
            )
            net = CyclicNetwork(2, gates)
            delta_sum_zero = abs(sum(g.delta for g in gates)) < 1e-10
            in_su3 = classify(net).tag in ("SU3", "SO3")
            agreements += delta_sum_zero == in_su3
        assert agreements == 1000
        # Constructed zero-sum case: both predicates true.
        d1, d2 = 0.4, -0.9
        net = CyclicNetwork(
            2,
            (
                ControlDown(0.1, 0.5, 0.2, d1),
                ControlUp(0.3, 0.9, -0.4, d2),
                ControlDown(0.2, 1.3, 0.1, -(d1 + d2)),
            ),
        )
        assert classify(net).tag == "SU3"


class TestDecomposeU3:
    def test_identity_roundtrip(self):
        gates = decompose_u3(np.eye(4))
        assert len(gates) == 4
        rebuilt = compile_cycle(CyclicNetwork(2, tuple(gates)))
        assert np.max(np.abs(rebuilt - np.eye(4))) < 1e-12

    def test_random_forward_targets_roundtrip(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            target = random_block_form_target(rng)
            gates = decompose_u3(target)
            rebuilt = compile_cycle(CyclicNetwork(2, tuple(gates)))
            assert np.max(np.abs(rebuilt - target)) < 1e-9

    def test_compiled_network_targets_roundtrip(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            target = compile_cycle(random_alternating_network(rng, kind="u3"))
            gates = decompose_u3(target)
            rebuilt = compile_cycle(CyclicNetwork(2, tuple(gates)))
            assert np.max(np.abs(rebuilt - target)) < 1e-9

    def test_never_more_than_four_gates(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            gates = decompose_u3(random_block_form_target(rng))
            assert len(gates) == 4

    def test_result_classifies_in_u3_family(self):
        rng = np.random.default_rng(46)
        for _ in range(1000):
            gates = decompose_u3(random_block_form_target(rng))
            tag = classify(CyclicNetwork(2, tuple(gates))).tag
            assert tag in ("U3", "SU3", "SO3")

    def test_rejects_non_block_form(self):
        rng = np.random.default_rng(47)
        with pytest.raises(ValueError, match="block form"):
            decompose_u3(haar_unitary(4, rng))


class TestSo3:
    def test_identity_angles(self):
        assert extract_so3_angles(np.eye(3)) == (0.0, 0.0, 0.0)

    def test_coaxial_rotations_compose(self):
        a = compile_cycle(synthesize_so3(0.7, 0.0, 0.4))
        b = compile_cycle(synthesize_so3(1.1, 0.0, 0.0))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_products_of_many_gates_roundtrip(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            n_gates = int(rng.integers(1, 11))
            start = int(rng.integers(0, 2))
            gates = tuple(
                random_control_gate(rng, "down" if (i + start) % 2 == 0 else "up", "so3")
                for i in range(n_gates)
            )
            g = compile_cycle(CyclicNetwork(2, gates))
            m = g[1:, 1:].real
            for leading in ("up", "down"):
                angles = extract_so3_angles(m, leading=leading)
                rebuilt = compile_cycle(synthesize_so3(*angles, leading=leading))
                assert np.max(np.abs(rebuilt - g)) < 1e-9

    def test_gimbal_cases_resolved_with_zero_third_angle(self):
        for middle in (0.0, np.pi):
            for leading in ("up", "down"):
                target = compile_cycle(synthesize_so3(0.9, middle, 0.4, leading=leading))
                angles = extract_so3_angles(target[1:, 1:].real, leading=leading)
                assert angles[2] == 0.0
                rebuilt = compile_cycle(synthesize_so3(*angles, leading=leading))
                assert np.max(np.abs(rebuilt - target)) < 1e-9

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            extract_so3_angles(np.ones((3, 3)))
        with pytest.raises(ValueError, match="^m must be a finite orthogonal"):  # refused before det sees a NaN
            extract_so3_angles(np.full((3, 3), np.nan))

    def test_rejects_improper_rotation(self):
        with pytest.raises(ValueError, match="det"):
            extract_so3_angles(np.diag([1.0, 1.0, -1.0]))


class TestU4:
    def test_trivial_parameters_build_identity(self):
        params = U4Parameters((0.0, 0.0, 0.0, 0.0), tuple((0.0, 0.0) for _ in U4_PAIR_ORDER))
        assert np.max(np.abs(build_u4(params) - np.eye(4))) < 1e-15

    def test_roundtrip_on_haar_unitaries(self):
        rng = np.random.default_rng(49)
        for _ in range(200):
            u = haar_unitary(4, rng)
            params = extract_u4_parameters(u)
            assert np.max(np.abs(build_u4(params) - u)) < 1e-9

    def test_roundtrip_on_gate_networks_with_single_qubit_gates(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            gates = (
                SingleQubit(1, *rng.uniform(-np.pi, np.pi, 4)),
                ControlDown(*rng.uniform(-np.pi, np.pi, 4)),
                SingleQubit(2, *rng.uniform(-np.pi, np.pi, 4)),
                ControlUp(*rng.uniform(-np.pi, np.pi, 4)),
            )
            u = compile_cycle(CyclicNetwork(2, gates))
            params = extract_u4_parameters(u)
            assert np.max(np.abs(build_u4(params) - u)) < 1e-9

    def test_control_down_extracts_to_single_factor(self):
        phi, beta = 0.8, -0.5
        u = compile_cycle(CyclicNetwork(2, (ControlDown(0.0, phi, beta, 0.0),)))
        params = extract_u4_parameters(u)
        rotations = dict(zip(U4_PAIR_ORDER, params.rotations))
        assert abs(rotations[(3, 4)][0] - phi) < 1e-12
        assert abs(rotations[(3, 4)][1] - beta) < 1e-12
        for pair in U4_PAIR_ORDER:
            if pair != (3, 4):
                assert abs(rotations[pair][0]) < 1e-12
        assert np.max(np.abs(np.asarray(params.gammas))) < 1e-12

    def test_diagonal_extracts_to_phases_only(self):
        gammas = (0.3, -0.7, 1.2, 2.1)
        params = extract_u4_parameters(diagonal_matrix(gammas))
        for pair, (phi, _) in zip(U4_PAIR_ORDER, params.rotations):
            assert abs(phi) < 1e-12, pair
        np.testing.assert_allclose(params.gammas, gammas, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            extract_u4_parameters(np.ones((4, 4)))

    def test_parameter_count_validated(self):
        with pytest.raises(ValueError):
            U4Parameters((0.0, 0.0, 0.0, 0.0), ((0.0, 0.0),))
