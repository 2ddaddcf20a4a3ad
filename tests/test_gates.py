"""Gate constructors, network compilation, compression, and the JSON format."""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclonet import (
    ControlDown,
    ControlNot,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    NotGate,
    SingleQubit,
    TwoLevel,
    U4Parameters,
    alternating_pair_network,
    basis_state,
    build_u4,
    classify,
    compile_cycle,
    compress_network,
    compress_same_orientation,
    control_down_matrix,
    control_up_matrix,
    cycle_spectrum,
    dense_eigendecomposition,
    diagonal_matrix,
    dumps_network,
    gate_matrix,
    load_network,
    loads_network,
    network_from_json,
    network_to_json,
    real_trace_eigenvalues,
    save_network,
    so3_example_closed_form,
    two_level_matrix,
    u2_matrix,
    u2_parameters,
    unitarity_defect,
)
from cyclonet import gates
from cyclonet.dynamics import closed_form_amplitude
from cyclonet.linalg import ZERO_TOL
from cyclonet.spectral import alternating_pair_trace, alternating_su3_analysis

from helpers import EDGE_ANGLES, random_alternating_network

# One gate of each of the seven kinds, all valid on two loop qubits.
EVERY_GATE_KIND = (
    SingleQubit(1, 0.3, 0.7, -1.1, 0.2),
    ControlDown(0.1, 0.9, 0.4, -0.6),
    NotGate(2),
    ControlUp(-0.5, 1.3, 2.2, 0.8),
    TwoLevel(2, 4, 0.6, -0.3, 0.25, -1.5),
    ControlNot(2, 1),
    DiagonalLayer((0.0, 1.2, -2.4, 3.0)),
)


class TestU2Matrix:
    def test_identity_at_zero_angles(self):
        np.testing.assert_allclose(u2_matrix(0, 0, 0, 0), np.eye(2), atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            u2_matrix(0, np.pi / 2, 0, 0), np.array([[0, 1], [-1, 0]]), atol=1e-15
        )

    def test_determinant_is_double_phase(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            alpha, phi, beta, delta = rng.uniform(-np.pi, np.pi, 4)
            det = np.linalg.det(u2_matrix(alpha, phi, beta, delta))
            assert abs(det - np.exp(2j * delta)) < 1e-12


class TestControlGates:
    def test_control_down_identity(self):
        np.testing.assert_allclose(control_down_matrix(0, 0, 0, 0), np.eye(4), atol=1e-15)

    def test_control_down_half_turn(self):
        np.testing.assert_allclose(
            control_down_matrix(0, np.pi, 0, 0), np.diag([1, 1, -1, -1]), atol=1e-12
        )

    def test_control_up_block_action(self):
        g = control_up_matrix(0, np.pi / 2, 0, 0)
        np.testing.assert_allclose(g @ basis_state(4, 1), -basis_state(4, 3), atol=1e-12)

    def test_blocks_sit_on_the_right_states(self):
        alpha, phi, beta, delta = 0.3, 0.9, -0.4, 0.2
        block = u2_matrix(alpha, phi, beta, delta)
        gdn = control_down_matrix(alpha, phi, beta, delta)
        gup = control_up_matrix(alpha, phi, beta, delta)
        np.testing.assert_allclose(gdn[2:, 2:], block, atol=1e-15)
        np.testing.assert_allclose(gup[np.ix_((1, 3), (1, 3))], block, atol=1e-15)
        np.testing.assert_allclose(gdn[:2, :2], np.eye(2), atol=1e-15)


class TestTwoLevel:
    def test_pair_34_is_control_down(self):
        np.testing.assert_allclose(
            two_level_matrix(3, 4, 0.7, 0.3), control_down_matrix(0, 0.7, 0.3, 0), atol=1e-15
        )

    def test_pair_24_is_control_up(self):
        np.testing.assert_allclose(
            two_level_matrix(2, 4, 0.7, 0.3), control_up_matrix(0, 0.7, 0.3, 0), atol=1e-15
        )

    def test_pair_24_quarter_turn_maps_e2_to_minus_e4(self):
        u = two_level_matrix(2, 4, np.pi / 2, 0)
        np.testing.assert_allclose(u @ basis_state(4, 1), -basis_state(4, 3), atol=1e-15)

    def test_pair_23_converts_to_gate_form(self):
        phi, beta = 0.7, 0.3
        direct = two_level_matrix(2, 3, phi, beta)
        converted = (
            two_level_matrix(2, 4, -np.pi / 2, 0)
            @ two_level_matrix(3, 4, phi, -beta)
            @ two_level_matrix(2, 4, np.pi / 2, 0)
        )
        np.testing.assert_allclose(direct, converted, atol=1e-12)

    def test_diagonal_extension_phases_active_rows(self):
        u = two_level_matrix(2, 4, 0.4, 0.1, gamma_p=0.5, gamma_r=-0.2)
        plain = two_level_matrix(2, 4, 0.4, 0.1)
        d = np.diag(np.exp(1j * np.array([0.0, 0.5, 0.0, -0.2])))
        np.testing.assert_allclose(u, d @ plain, atol=1e-15)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError, match="pair"):
            two_level_matrix(4, 3, 0.1, 0.0)
        with pytest.raises(ValueError):
            TwoLevel(2, 2, 0.1)

    def test_extension_limited_to_control_shaped_pairs(self):
        with pytest.raises(ValueError, match="extension"):
            two_level_matrix(2, 3, 0.1, 0.0, gamma_p=0.3)
        with pytest.raises(ValueError, match="extension"):
            TwoLevel(1, 2, 0.1, 0.0, gamma_p=0.3)


class TestCompile:
    def test_empty_network_is_identity(self):
        np.testing.assert_allclose(compile_cycle(CyclicNetwork(2, ())), np.eye(4), atol=1e-15)
        np.testing.assert_allclose(compile_cycle(CyclicNetwork(1, ())), np.eye(2), atol=1e-15)

    def test_two_gate_ordering(self):
        # The gate encountered first sits rightmost in the product.
        net = CyclicNetwork(2, (ControlDown(phi=0.4), ControlUp(phi=1.1)))
        expected = control_up_matrix(0, 1.1, 0, 0) @ control_down_matrix(0, 0.4, 0, 0)
        np.testing.assert_allclose(compile_cycle(net), expected, atol=1e-14)

    def test_alternating_pair_trace(self):
        # Shared-angle pair: block trace e^{-2ia}cos^2 + 2e^{ia}cos.
        alpha, phi = 0.6, 1.1
        g = compile_cycle(alternating_pair_network(phi, alpha=alpha, beta=-0.2))
        c = np.cos(phi)
        expected = np.exp(-2j * alpha) * c * c + 2 * np.exp(1j * alpha) * c
        assert abs(np.trace(g[1:, 1:]) - expected) < 1e-12

    def test_single_qubit_embedding(self):
        u = u2_matrix(0.1, 0.7, -0.3, 0.2)
        top = gate_matrix(SingleQubit(1, 0.1, 0.7, -0.3, 0.2), 2)
        bottom = gate_matrix(SingleQubit(2, 0.1, 0.7, -0.3, 0.2), 2)
        np.testing.assert_allclose(top, np.kron(u, np.eye(2)), atol=1e-15)
        np.testing.assert_allclose(bottom, np.kron(np.eye(2), u), atol=1e-15)
        np.testing.assert_allclose(gate_matrix(SingleQubit(1, 0.1, 0.7, -0.3, 0.2), 1), u, atol=1e-15)

    def test_not_and_cnot(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(gate_matrix(NotGate(1), 2), np.kron(sx, np.eye(2)), atol=1e-15)
        cnot = gate_matrix(ControlNot(1, 2), 2)
        np.testing.assert_allclose(cnot @ basis_state(4, 2), basis_state(4, 3), atol=1e-15)
        np.testing.assert_allclose(cnot @ basis_state(4, 0), basis_state(4, 0), atol=1e-15)
        flipped = gate_matrix(ControlNot(2, 1), 2)
        np.testing.assert_allclose(flipped @ basis_state(4, 1), basis_state(4, 3), atol=1e-15)

    def test_line_out_of_range(self):
        with pytest.raises(ValueError, match="line"):
            compile_cycle(CyclicNetwork(1, (SingleQubit(2, phi=0.1),)))

    def test_control_gate_needs_two_qubits(self):
        with pytest.raises(ValueError, match="two-qubit"):
            compile_cycle(CyclicNetwork(1, (ControlDown(phi=0.1),)))

    @pytest.mark.parametrize("gate", [SingleQubit(1), NotGate(2), ControlDown(phi=0.1)])
    @pytest.mark.parametrize("qubits", [0, 3])
    def test_gate_matrix_refuses_other_widths(self, gate, qubits):
        with pytest.raises(ValueError, match="^qubits must be 1 or 2"):
            gate_matrix(gate, qubits)

    @pytest.mark.parametrize("gate", [5, None, "u2", (SingleQubit(1),)])
    def test_network_refuses_a_gate_that_is_not_a_gate_spec(self, gate):
        with pytest.raises(ValueError, match=r"'gates\[1\]' must be a gate spec"):
            CyclicNetwork(2, (ControlDown(phi=0.1), gate))

    def test_three_qubits_rejected(self):
        with pytest.raises(ValueError):
            CyclicNetwork(3, ())

    def test_constructed_matrices_unitary_many_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            kind = rng.integers(0, 5)
            a, p, b, d = rng.uniform(-2 * np.pi, 2 * np.pi, 4)
            if kind == 0:
                m = u2_matrix(a, p, b, d)
            elif kind == 1:
                m = control_down_matrix(a, p, b, d)
            elif kind == 2:
                m = control_up_matrix(a, p, b, d)
            elif kind == 3:
                m = two_level_matrix(2, 4, p, b, a, d)
            else:
                m = two_level_matrix(2, 3, p, b)
            assert unitarity_defect(m) < 1e-10

    def test_split_compilation_consistent(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            net = random_alternating_network(rng, kind="u3", min_gates=3, max_gates=6)
            whole = compile_cycle(net)
            for cut in range(len(net.gates) + 1):
                left = compile_cycle(CyclicNetwork(2, net.gates[:cut]))
                right = compile_cycle(CyclicNetwork(2, net.gates[cut:]))
                assert np.max(np.abs(right @ left - whole)) < 1e-12

    def test_compiled_once_per_network_and_read_only(self):
        net = random_alternating_network(np.random.default_rng(14), kind="u3")
        u = compile_cycle(net)
        assert compile_cycle(net) is u
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 2.0
        # An equal but distinct network compiles on its own, to the same bytes.
        twin = CyclicNetwork(2, net.gates)
        assert twin == net and compile_cycle(twin) is not u
        assert compile_cycle(twin).tobytes() == u.tobytes()
        for clone in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert not compile_cycle(clone).flags.writeable
            assert compile_cycle(clone).tobytes() == u.tobytes()

    def test_spectrum_once_per_network_and_read_only(self):
        net = random_alternating_network(np.random.default_rng(16), kind="u3")
        spectrum = cycle_spectrum(net)
        assert cycle_spectrum(net) is spectrum
        oracle = dense_eigendecomposition(compile_cycle(net))
        assert spectrum.phases.tobytes() == oracle.phases.tobytes()
        assert spectrum.vectors.tobytes() == oracle.vectors.tobytes()
        # An equal but distinct network computes its own, to the same bytes.
        twin = CyclicNetwork(2, net.gates)
        assert twin == net and cycle_spectrum(twin) is not spectrum
        for clone in (twin, copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            got = cycle_spectrum(clone)
            for ours, stored in ((got.phases, spectrum.phases), (got.vectors, spectrum.vectors)):
                assert ours.tobytes() == stored.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    ours[0] = 0.0

    def test_classify_reuses_the_compiled_cycle(self, monkeypatch):
        built = []
        build = gates.gate_matrix

        def counted(gate, qubits):
            built.append(gate)
            return build(gate, qubits)

        monkeypatch.setattr(gates, "gate_matrix", counted)
        net = random_alternating_network(np.random.default_rng(15), kind="su3")
        compile_cycle(net)
        classify(net)
        assert built == list(net.gates)

    def test_not_gate_matrix_is_no_writable_shared_constant(self, monkeypatch):
        # A stand-in with the constant's flags, so a write that lands harms no other test.
        stand_in = gates.SIGMA_X.copy()
        stand_in.flags.writeable = gates.SIGMA_X.flags.writeable
        monkeypatch.setattr(gates, "SIGMA_X", stand_in)
        m = gate_matrix(NotGate(1), 1)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 1] = 2.0
        assert np.array_equal(gate_matrix(NotGate(1), 1), [[0, 1], [1, 0]])
        assert np.array_equal(gate_matrix(NotGate(2), 2), np.kron(np.eye(2), [[0, 1], [1, 0]]))

    def test_control_products_keep_block_form_exactly(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            g = compile_cycle(random_alternating_network(rng, kind="u3"))
            assert np.array_equal(g[0, :], [1, 0, 0, 0])
            assert np.array_equal(g[:, 0], [1, 0, 0, 0])


class TestCompress:
    def test_planar_rotations_add(self):
        merged = compress_same_orientation([ControlDown(phi=np.pi / 6), ControlDown(phi=np.pi / 3)])
        assert isinstance(merged, ControlDown)
        assert abs(merged.phi - np.pi / 2) < 1e-12
        assert abs(merged.alpha) < 1e-12 and abs(merged.beta) < 1e-12 and abs(merged.delta) < 1e-12

    def test_single_gate_unchanged(self):
        g = ControlUp(0.2, 0.7, -0.1, 0.4)
        assert compress_same_orientation([g]) is g

    def test_five_random_gates_compile_equal(self):
        rng = np.random.default_rng(14)
        gates = tuple(ControlUp(*rng.uniform(-np.pi, np.pi, 4)) for _ in range(5))
        merged = compress_same_orientation(gates)
        full = compile_cycle(CyclicNetwork(2, gates))
        single = compile_cycle(CyclicNetwork(2, (merged,)))
        assert np.max(np.abs(full - single)) < 1e-12

    def test_mixed_orientations_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            compress_same_orientation([ControlDown(phi=0.1), ControlUp(phi=0.2)])

    @pytest.mark.parametrize(
        "w, message",
        [(np.eye(3), "^w must be a 2x2 matrix"), (np.full((2, 2), np.nan), "^w must be finite"), (np.ones((2, 2)), "^w must be unitary")],
    )
    def test_u2_parameters_refuses_a_matrix_that_is_not_a_2x2_unitary(self, w, message):
        with pytest.raises(ValueError, match=message):
            u2_parameters(w)

    def test_compress_network_merges_runs(self):
        net = CyclicNetwork(
            2,
            (
                ControlDown(phi=0.1),
                ControlDown(phi=0.2),
                ControlUp(phi=0.3),
                NotGate(1),
                ControlUp(phi=0.4),
                ControlUp(phi=0.5),
            ),
        )
        compressed = compress_network(net)
        assert len(compressed.gates) == 4
        assert np.max(np.abs(compile_cycle(compressed) - compile_cycle(net))) < 1e-12


ANGLE = st.sampled_from(EDGE_ANGLES) | st.floats(-np.pi, np.pi)


def gates_of_width(qubits):
    """Any gate of a kind that fits the width; on two lines, control gates come three times as often as each other kind, so runs form."""
    line = st.integers(1, qubits)
    single = [st.builds(SingleQubit, line, ANGLE, ANGLE, ANGLE, ANGLE), st.builds(NotGate, line)]
    if qubits == 1:
        return st.one_of(single)
    control = [st.builds(kind, ANGLE, ANGLE, ANGLE, ANGLE) for kind in (ControlDown, ControlUp)]
    two_level = st.sampled_from(gates.TWO_LEVEL_PAIRS).flatmap(
        lambda pr: st.builds(
            TwoLevel, st.just(pr[0]), st.just(pr[1]), ANGLE, ANGLE, *[ANGLE if pr in gates.EXTENDED_PAIRS else st.just(0.0)] * 2
        )
    )
    diagonal = st.builds(DiagonalLayer, st.tuples(ANGLE, ANGLE, ANGLE, ANGLE))
    return st.one_of(*control * 3, *single, two_level, diagonal, st.sampled_from([ControlNot(1, 2), ControlNot(2, 1)]))


NETWORKS = st.sampled_from([1, 2]).flatmap(
    lambda q: st.lists(gates_of_width(q), max_size=8).map(lambda gs: CyclicNetwork(q, tuple(gs)))
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(NETWORKS)
def test_compression_keeps_the_cycle_and_leaves_no_run_to_merge(net):
    compressed = compress_network(net)
    # u2_parameters reads an angle as 0 below ZERO_TOL, which moves a merged run of k >= 2 gates by up to
    # 2·ZERO_TOL <= k·ZERO_TOL; each gate's rounding adds a few eps.
    bound = len(net.gates) * (ZERO_TOL + 16 * np.finfo(float).eps)
    assert np.max(np.abs(compile_cycle(compressed) - compile_cycle(net))) <= bound
    assert compress_network(compressed) == compressed
    assert len(compressed.gates) <= len(net.gates)
    kinds = [type(g) for g in compressed.gates]
    assert not any(a is b and a in (ControlDown, ControlUp) for a, b in zip(kinds, kinds[1:]))


class TestJson:
    def test_roundtrip_all_kinds(self):
        net = CyclicNetwork(
            2,
            (
                ControlDown(0.1, 0.2, 0.3, 0.4),
                ControlUp(-0.1, 1.2, 0.0, 0.0),
                SingleQubit(1, 0.5, 0.6, 0.7, 0.8),
                TwoLevel(2, 4, 0.9, -0.9, 0.25, -0.25),
                DiagonalLayer((0.1, 0.2, 0.3, 0.4)),
                NotGate(2),
                ControlNot(1, 2),
            ),
        )
        assert loads_network(dumps_network(net)) == net

    def test_document_shape(self):
        doc = network_to_json(CyclicNetwork(2, (ControlDown(0.1, 0.2, 0.3, 0.4),)))
        assert doc["qubits"] == 2
        assert doc["gates"][0] == {
            "kind": "control_down",
            "alpha": 0.1,
            "phi": 0.2,
            "beta": 0.3,
            "delta": 0.4,
        }

    def test_saved_file_loads_to_an_equal_network_with_identical_bytes(self, tmp_path):
        net = CyclicNetwork(2, EVERY_GATE_KIND)
        path = tmp_path / "net.json"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded == net
        assert compile_cycle(loaded).tobytes() == compile_cycle(net).tobytes()

    def test_unknown_kind_named_in_error(self):
        with pytest.raises(ValueError, match="frobnicate"):
            network_from_json({"qubits": 2, "gates": [{"kind": "frobnicate"}]})

    def test_missing_field_named_in_error(self):
        with pytest.raises(ValueError, match="line"):
            network_from_json({"qubits": 2, "gates": [{"kind": "not"}]})

    def test_missing_qubits_named_in_error(self):
        with pytest.raises(ValueError, match="qubits"):
            network_from_json({"gates": []})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_json_angle_named_in_error(self, bad):
        doc = {"qubits": 2, "gates": [{"kind": "control_down", "phi": bad}]}
        with pytest.raises(ValueError, match="'phi' must be finite"):
            network_from_json(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"qubits": 2, "gates": [dict(kind="diagonal", gamma1=0, gamma2=0, gamma3=np.nan, gamma4=0)]},
                "'gamma3' must be finite",
            ),
            ({"qubits": 2, "gates": [{"kind": "control_up", "beta": 10**400}]}, "'beta' must be finite"),
            ({"qubits": 2, "gates": 5}, "'gates' must be a list"),
            ({"qubits": 2, "gates": [{"kind": "not", "line": 1.7}]}, "'line' must be an integer"),
            ({"qubits": 1.5, "gates": []}, "'qubits' must be an integer"),
            ({"qubits": True, "gates": []}, "'qubits' must be an integer"),
            ({"qubits": 2, "gates": [5]}, "entry of 'gates' must be an object"),
            ({"qubits": 2, "gates": [{"kind": "control_up", "alpha": "0.1"}]}, "'alpha' must be a number"),
            ([{"qubits": 2}], "must be an object"),
            # A field the gate kind or the document does not have is refused, not dropped.
            ({"qubits": 2, "gates": [{"kind": "control_down", "phi": 0.5, "aplha": 0.3}]}, "'aplha'"),
            ({"qubits": 2, "gates": [dict(kind="diagonal", gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma5=0)]}, "'gamma5'"),
            ({"qubits": 2, "gates": [{"kind": "diagonal", "gammas": [0, 0, 0, 0]}]}, "'gammas'"),
            ({"qubits": 2, "gates": [], "gate": []}, "'gate'"),
        ],
    )
    def test_mistyped_field_named_in_error(self, doc, message):
        with pytest.raises(ValueError, match=message):
            network_from_json(doc)


class TestGateSpecValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda x: ControlDown(phi=x), "phi"),
            (lambda x: ControlUp(alpha=x), "alpha"),
            (lambda x: SingleQubit(1, delta=x), "delta"),
            (lambda x: TwoLevel(3, 4, 0.1, 0.2, gamma_r=x), "gamma_r"),
            (lambda x: DiagonalLayer((0.0, x, 0.0, 0.0)), "gamma2"),
            # Library helpers name their argument the same way.
            (so3_example_closed_form, "phi"),
            (real_trace_eigenvalues, "trace"),
            pytest.param(lambda x: u2_matrix(x, 0.0, 0.0), "alpha", id="u2_matrix"),
            pytest.param(lambda x: two_level_matrix(3, 4, 0.1, 0.2, x, 0.0), "gamma_p", id="two_level_matrix"),
            pytest.param(lambda x: diagonal_matrix([x] * 4), "gammas", id="diagonal_matrix"),
            # build_u4 is refused by the constructor it calls.
            pytest.param(lambda x: build_u4(U4Parameters((x,) * 4, ((0.0, 0.0),) * 6)), "gammas", id="build_u4"),
        ],
    )
    def test_non_finite_angle_rejected(self, make, field, bad):
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            make(bad)

    def test_finite_angles_accepted(self):
        assert ControlDown(0.1, 0.2, 0.3, 0.4).phi == 0.2
        assert TwoLevel(2, 4, 0.9, -0.9, 0.25, -0.25).gamma_r == -0.25

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: u2_matrix(None, 0, 0), "^argument 'alpha' must be a number", id="u2_matrix-None"),
            pytest.param(lambda: u2_matrix("a", 0, 0), "^argument 'alpha' must be a number", id="u2_matrix-str"),
            pytest.param(lambda: diagonal_matrix([1j, 0, 0, 0]), "^argument 'gammas' must hold four real", id="diagonal_matrix-complex"),
            pytest.param(lambda: diagonal_matrix(["a", 0, 0, 0]), "^argument 'gammas' must hold four real", id="diagonal_matrix-str"),
            pytest.param(lambda: two_level_matrix(True, 4, 0.1, 0.0), "^argument 'p' must be an integer", id="two_level_matrix-bool"),
            pytest.param(lambda: two_level_matrix(3, 4, 0.1, 0.0, None, 0.0), "^argument 'gamma_p' must be a number", id="two_level_matrix-None-phase"),
            pytest.param(lambda: gate_matrix(NotGate(1), True), "^qubits must be 1 or 2", id="gate_matrix-bool"),
            pytest.param(lambda: U4Parameters((0, 0, 0), ((0, 0),) * 6), "^U4Parameters field 'gammas' must", id="U4Parameters-gammas"),
            pytest.param(lambda: U4Parameters((0,) * 4, ((0, 0),) * 5 + ((0,),)), r"^U4Parameters field 'rotations\[5\]' must", id="U4Parameters-pair"),
            pytest.param(lambda: alternating_pair_trace(np.nan, 0.3), "^argument 'alpha' must be finite", id="alternating_pair_trace-nan"),
            pytest.param(lambda: alternating_su3_analysis(None, 0.3), "^argument 'alpha' must be a number", id="alternating_su3_analysis-None"),
            pytest.param(lambda: closed_form_amplitude(1.0, 0, "110", np.nan), "^n_prime must", id="closed_form_amplitude-nan"),
        ],
    )
    def test_helper_names_an_argument_that_is_no_number_of_its_kind(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_matrix_constructors_take_finite_angles_whose_sum_overflows(self):
        # The constructors test the sum of their angles first; an overflowed sum is not a refusal.
        assert np.isfinite(u2_matrix(1e308, 1e308, 0.0)).all()
        assert np.isfinite(two_level_matrix(3, 4, 0.1, 0.2, 1e308, 1e308)).all()
        assert np.isfinite(diagonal_matrix([1e308, 1e308, 0.0, 0.0])).all()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
GATE_FIELDS = ("line", "alpha", "phi", "beta", "delta", "p", "r", "gamma_p", "gamma_r", "control", "target")
GATE_DOCS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["u2", "control_down", "control_up", "two_level", "diagonal", "not", "control_not"])},
    optional={
        **{name: st.integers(-1, 5) | st.floats() | JSON_VALUES for name in GATE_FIELDS},
        **{f"gamma{i}": st.floats() | JSON_VALUES for i in range(1, 5)},
    },
)
NETWORK_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "qubits": st.integers(0, 3) | JSON_VALUES,
        "gates": st.lists(GATE_DOCS | JSON_VALUES, max_size=3) | JSON_VALUES,
    },
)


@settings(max_examples=100, deadline=None)
@given(NETWORK_DOCS)
def test_any_document_parses_exactly_or_raises_value_error(doc):
    try:
        net = network_from_json(doc)
    except ValueError:
        return
    assert network_from_json(network_to_json(net)) == net


# Any Python value a caller might pass as a gate or network field.
ANY_VALUE = st.one_of(
    st.integers(-1, 5),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.complex_numbers(),
    st.just(10**400),
    st.sampled_from(
        [np.int64(2), np.float64(-0.5), np.float32(1.5), np.float64(np.nan), np.float32(-np.inf), np.bool_(True), np.complex128(1j)]
    ),
)


@st.composite
def python_builds(draw):
    """(gate class, its field values, the network's qubits) as a caller might write them.

    Each value is one of the field's declared type and range, or, one time in four, ANY_VALUE.
    An angle is 0 half the time, as a TwoLevel gate off pairs (2, 4) and (3, 4) needs its gammas to be.
    """

    def value(valid):
        return draw(ANY_VALUE) if draw(st.sampled_from([False, False, False, True])) else draw(valid)

    angle = st.just(0.0) | st.floats(-10, 10)

    cls = draw(st.sampled_from([type(g) for g in EVERY_GATE_KIND]))
    if cls is DiagonalLayer:
        kwargs = {"gammas": value(st.just(tuple(value(angle) for _ in range(4))))}
    else:
        kwargs = {f.name: value(st.integers(1, 4) if f.type == "int" else angle) for f in fields(cls)}
    return cls, kwargs, value(st.integers(1, 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(python_builds())
@example((SingleQubit, {"line": 1.5}, 2))
@example((NotGate, {"line": True}, 2))
@example((ControlDown, {"phi": None}, 2))
@example((ControlUp, {"beta": 10**400}, 2))
@example((NotGate, {"line": 1}, True))
@example((ControlNot, {"control": np.int64(2), "target": 1}, np.int64(2)))
def test_any_python_build_compiles_and_round_trips_or_raises_value_error(build):
    cls, kwargs, qubits = build
    try:
        net = CyclicNetwork(qubits, (cls(**kwargs),))
        u = compile_cycle(net)
    except ValueError:
        return
    loaded = loads_network(dumps_network(net))
    assert loaded == net
    assert compile_cycle(loaded).tobytes() == u.tobytes()
