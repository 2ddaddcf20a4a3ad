"""Byte-level digests of the per-network 4x4 path: gates, cycle, group, spectra, powers.

A refactor of these layers must keep every returned array bit-identical,
because the CLI's golden CSV digests and the closed-form amplitude
expressions rest on them.  Each layer hashes dtype, shape and raw bytes of
its outputs over the seeded battery of helpers.byte_battery.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from cyclonet import (
    ControlDown,
    ControlNot,
    ControlUp,
    SingleQubit,
    TwoLevel,
    classify,
    compile_cycle,
    dense_eigendecomposition,
    gate_matrix,
    matrix_power_spectral,
    spectrum_closed_form,
    u2_matrix,
    unitarity_defect,
)
from cyclonet.linalg import MEMBERSHIP_TOL, PHASE_FLOOR, ZERO_TOL, is_block_form

from helpers import EDGE_ANGLES, byte_battery

BATTERY_SEED = 20200218
POWERS = (1, 12345, 10**6)

# Recorded before the gate, unitarity and Schur bodies were rewritten for
# speed, on x86-64 Linux with Python 3.11, numpy 2.4.6, scipy 1.17.1 and
# OpenBLAS 0.3.31.  They hash raw BLAS and LAPACK output, and OpenBLAS picks
# its kernels by CPU, so another build, CPU or Python may differ in the last
# bit; the reference-form test at the end of this file is the portable guard.
LAYER_SHA256 = {
    "gate_matrix": "e60e4b76fe4fd65308f51078b0ffe00218d97385a1a4252e975f55a0eed912f3",
    "compile_cycle": "638fcc3721423799d9364dfdb6809530f0bd57eafeaa6078cd03529fafa16516",
    "unitarity_defect": "a484189d8bc15d97f83a1947e4a5404db98dbc0f15d22453a88d850d3a9f7ed7",
    "classify": "b1ef4dee34e3e7ef816eef445f6a8b06b3a70cd79ad586391fe497122cc3300d",
    "dense_eigendecomposition": "73de820ba11f4531cea7934fbd2b8a20a51f8fc004d38fd4b7e466056a56335f",
    "spectrum_closed_form": "3eca1c80d3a14713ad7d34b0947b3eb90a1708af5927aba6905f2bb1a7ec2fff",
    "matrix_power_spectral n=1": "0d77b896bda5b84b3a95bc7179e49e9d3410d3539704b1d19984bd36dfd507f3",
    "matrix_power_spectral n=12345": "7e3a0f9d336207cb6e86fb040fe07f002bcb14315af69f9eee1ce09df5f88103",
    "matrix_power_spectral n=1000000": "6ec92766d6c86291e291116d14f2b86ce6e7b5f37fe5eacf12367b5632c0960c",
}


@pytest.fixture(scope="module")
def layer_digests():
    hashes = {layer: hashlib.sha256() for layer in LAYER_SHA256}

    def put(layer, *arrays):
        for a in arrays:
            a = np.asarray(a)
            hashes[layer].update(f"{a.dtype}{a.shape}".encode())
            hashes[layer].update(a.tobytes())

    for net in byte_battery(BATTERY_SEED):
        for gate in net.gates:
            put("gate_matrix", gate_matrix(gate, net.qubits))
        u = compile_cycle(net)
        put("compile_cycle", u)
        put("unitarity_defect", unitarity_defect(u))
        group = classify(net)
        hashes["classify"].update(f"{group.tag}/{group.note};".encode())
        oracle = dense_eigendecomposition(u)
        put("dense_eigendecomposition", oracle.phases, oracle.vectors)
        if net.qubits == 2 and is_block_form(u):
            closed = spectrum_closed_form(u)
            put("spectrum_closed_form", closed.phases, closed.vectors)
            if closed.normalizations is not None:
                put("spectrum_closed_form", closed.normalizations)
        for n in POWERS:
            put(f"matrix_power_spectral n={n}", matrix_power_spectral(u, n))
    return {layer: h.hexdigest() for layer, h in hashes.items()}


def test_battery_covers_gate_kinds_sizes_and_edge_angles():
    nets = byte_battery(BATTERY_SEED)
    assert len({type(g) for net in nets for g in net.gates}) == 7
    assert {(net.qubits, len(net.gates)) for net in nets} >= {(q, m) for q in (1, 2) for m in range(6)}
    angles = [a for net in nets for g in net.gates for a in vars(g).values() if type(a) is float]
    signed = {(a, math.copysign(1.0, a)) for a in angles}
    assert {(a, math.copysign(1.0, a)) for a in EDGE_ANGLES} <= signed


@pytest.mark.parametrize("layer", list(LAYER_SHA256))
def test_layer_bytes_match_golden_digest(layer_digests, layer):
    assert layer_digests[layer] == LAYER_SHA256[layer]


# The per-entry forms these layers had before they were rewritten for speed.
# Unlike the digests, they pin the bytes on any numpy, scipy or BLAS build
# and any CPU: both sides run on the same build.


def reference_u2_matrix(alpha, phi, beta, delta):
    c, s = np.cos(phi), np.sin(phi)
    return np.exp(1j * delta) * np.array(
        [
            [np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
            [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
        ]
    )


def reference_gate_block(gate):
    """ControlDown, ControlUp or TwoLevel as eye(4) with an np.ix_ block, ControlNot as krons, or None."""
    if isinstance(gate, ControlNot):
        p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        eye, sx = np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        if gate.control == 1:
            return np.kron(p0, eye) + np.kron(p1, sx)
        return np.kron(eye, p0) + np.kron(sx, p1)
    g = np.eye(4, dtype=complex)
    if isinstance(gate, ControlDown):
        g[2:, 2:] = reference_u2_matrix(gate.alpha, gate.phi, gate.beta, gate.delta)
    elif isinstance(gate, ControlUp):
        g[np.ix_((1, 3), (1, 3))] = reference_u2_matrix(gate.alpha, gate.phi, gate.beta, gate.delta)
    elif isinstance(gate, TwoLevel):
        p, r = gate.p - 1, gate.r - 1
        g[np.ix_((p, r), (p, r))] = reference_u2_matrix(0.0, gate.phi, gate.beta, 0.0)
        if gate.gamma_p != 0.0 or gate.gamma_r != 0.0:
            d = np.ones(4, dtype=complex)
            d[p] = np.exp(1j * gate.gamma_p)
            d[r] = np.exp(1j * gate.gamma_r)
            g = d[:, None] * g
    else:
        return None
    return g


def reference_compile_cycle(net):
    u = np.eye(2**net.qubits, dtype=complex)
    for gate in net.gates:
        u = gate_matrix(gate, net.qubits) @ u
    return u


def reference_is_block_form(g):
    e1 = np.eye(g.shape[0])[0]
    return bool(np.abs(g[0, :] - e1).max() <= MEMBERSHIP_TOL and np.abs(g[:, 0] - e1).max() <= MEMBERSHIP_TOL)


def reference_dense_eigendecomposition(u):
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    columns = []
    for k in range(u.shape[0]):
        v = z[:, k]
        j = int(np.argmax(np.abs(v)))
        mag = abs(v[j])
        columns.append(v if mag < PHASE_FLOOR else v * (v[j].conjugate() / mag))
    vectors = np.array(columns).T

    def leading_phase(k):
        nonzero = np.flatnonzero(np.abs(vectors[:, k]) > ZERO_TOL)
        return float(np.angle(vectors[nonzero[0], k])) if nonzero.size else 0.0

    order = sorted(range(u.shape[0]), key=lambda k: (phases[k], leading_phase(k)))
    return phases[order], vectors[:, order]


def test_rewritten_layers_match_their_reference_forms_bit_for_bit():
    for net in byte_battery(BATTERY_SEED + 1, rounds=10):
        for g in net.gates:
            if isinstance(g, (SingleQubit, ControlDown, ControlUp)):
                angles = (g.alpha, g.phi, g.beta, g.delta)
                assert u2_matrix(*angles).tobytes() == reference_u2_matrix(*angles).tobytes()
            block = reference_gate_block(g)
            if block is not None:
                assert gate_matrix(g, net.qubits).tobytes() == block.tobytes()
        u = compile_cycle(net)
        assert u.tobytes() == reference_compile_cycle(net).tobytes()
        assert is_block_form(u) == reference_is_block_form(u)
        gram = u.conj().T @ u - np.eye(u.shape[0])
        assert unitarity_defect(u) == float(np.max(np.abs(gram)))
        phases, vectors = reference_dense_eigendecomposition(u)
        spectrum = dense_eigendecomposition(u)
        assert spectrum.phases.tobytes() == phases.tobytes()
        assert spectrum.vectors.tobytes() == vectors.tobytes()
