"""Byte-level digests of the per-network 4x4 path: gates, cycle, group, spectra, powers.

A refactor of these layers must keep every returned array bit-identical,
because the CLI's golden CSV digests and the closed-form amplitude
expressions rest on them.  Each layer hashes dtype, shape and raw bytes of
its outputs over the seeded battery of helpers.byte_battery.
"""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from cyclonet import (
    ControlDown,
    ControlNot,
    ControlUp,
    CubicCoefficients,
    DegenerateSpectrumError,
    NotGate,
    SingleQubit,
    Spectrum,
    TwoLevel,
    alternating_pair_network,
    alternating_pair_root,
    alternating_pair_trace,
    block_form_eigenstates,
    classify,
    compile_cycle,
    cubic_coefficients,
    dense_eigendecomposition,
    gate_matrix,
    matrix_power_spectral,
    solve_cubic,
    spectrum_closed_form,
    u2_matrix,
    unitarity_defect,
)
from cyclonet.cli import DEFAULT_ALPHA_FAMILY
from cyclonet.linalg import CANCEL_RATIO, MEMBERSHIP_TOL, PHASE_FLOOR, ROOT_TOL, ZERO_TOL, is_block_form

from helpers import EDGE_ANGLES, byte_battery

BATTERY_SEED = 20200218
POWERS = (1, 12345, 10**6)

# Recorded before the gate, unitarity and Schur bodies were rewritten for
# speed, on x86-64 Linux with Python 3.11, numpy 2.4.6, scipy 1.17.1 and
# OpenBLAS 0.3.31.  They hash raw BLAS and LAPACK output, and OpenBLAS picks
# its kernels by CPU, so another build, CPU or Python may differ in the last
# bit; the reference-form test at the end of this file is the portable guard.
# spectrum_closed_form was re-recorded when solve_cubic began trying the
# conjugate branch first on a cancelled w (CANCEL_RATIO).
LAYER_SHA256 = {
    "gate_matrix": "e60e4b76fe4fd65308f51078b0ffe00218d97385a1a4252e975f55a0eed912f3",
    "compile_cycle": "638fcc3721423799d9364dfdb6809530f0bd57eafeaa6078cd03529fafa16516",
    "unitarity_defect": "a484189d8bc15d97f83a1947e4a5404db98dbc0f15d22453a88d850d3a9f7ed7",
    "classify": "b1ef4dee34e3e7ef816eef445f6a8b06b3a70cd79ad586391fe497122cc3300d",
    "dense_eigendecomposition": "73de820ba11f4531cea7934fbd2b8a20a51f8fc004d38fd4b7e466056a56335f",
    "spectrum_closed_form": "80111a38d9ef14d0fd826bd73731ad787e085b8ac6daecb963b18b973ef7a2c7",
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


def reference_gate_block(gate, qubits):
    """Any gate but DiagonalLayer in its old form: single-qubit gates as krons with eye(2),
    ControlDown, ControlUp and TwoLevel as eye(4) with an np.ix_ block, ControlNot as krons."""
    eye, sx = np.eye(2, dtype=complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if isinstance(gate, (SingleQubit, NotGate)):
        u2 = sx if isinstance(gate, NotGate) else reference_u2_matrix(gate.alpha, gate.phi, gate.beta, gate.delta)
        if qubits == 1:
            return u2
        return np.kron(u2, eye) if gate.line == 1 else np.kron(eye, u2)
    if isinstance(gate, ControlNot):
        p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
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
            block = reference_gate_block(g, net.qubits)
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


# The closed-form spectral bodies as they were before they became scalar
# Python code, with their mix of numpy and Python complex arithmetic.


def reference_cardano(a1, a2, a3):
    q = (9.0 * a1 * a2 - 27.0 * a3 - 2.0 * a1**3) / 27.0
    p = (3.0 * a2 - a1**2) / 3.0
    w = q / 2.0 + np.sqrt(complex(q * q / 4.0 + p**3 / 27.0))
    return CubicCoefficients(complex(a1), complex(a2), complex(a3), complex(q), complex(p), complex(w))


def reference_block_cubic(m):
    a1 = -np.trace(m)
    a2 = (
        (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        + (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0])
        + (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    )
    return reference_cardano(a1, a2, -np.linalg.det(m))


def reference_cardano_roots(w, p, a1):
    u0 = complex(w) ** (1.0 / 3.0)
    u = u0 * np.exp(2j * np.pi * np.arange(3) / 3.0)
    return u - p / (3.0 * u) - a1 / 3.0


def reference_solve_cubic(coeffs):
    if abs(coeffs.w) < ZERO_TOL:
        if abs(coeffs.p) < ZERO_TOL:
            return np.full(3, -coeffs.a1 / 3.0, dtype=complex)
        raise DegenerateSpectrumError("vanishing w")
    w_alt = coeffs.q / 2.0 - np.sqrt(complex(coeffs.q**2 / 4.0 + coeffs.p**3 / 27.0))
    branches = (coeffs.w, w_alt)
    if abs(coeffs.w) < CANCEL_RATIO * abs(coeffs.q / 2.0):
        branches = (w_alt, coeffs.w)  # w cancelled
    for w in branches:
        if abs(w) >= ZERO_TOL:
            roots = reference_cardano_roots(w, coeffs.p, coeffs.a1)
            if np.max(np.abs(np.abs(roots) - 1.0)) < ROOT_TOL:
                return roots
    raise DegenerateSpectrumError("both branches")


def reference_cofactor_eigenstates(g, eigenvalues):
    lams = np.asarray(eigenvalues, dtype=complex)
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(lams[i] - lams[j]) <= ROOT_TOL:
                raise DegenerateSpectrumError("close roots")
    m = g[1:, 1:]
    vectors = np.zeros((4, 4), dtype=complex)
    norms = np.ones(4)
    for k, lam in enumerate(lams):
        raw = np.array(
            [
                0.0,
                -m[0, 2] * (m[1, 1] - lam) + m[0, 1] * m[1, 2],
                -m[1, 2] * (m[0, 0] - lam) + m[1, 0] * m[0, 2],
                (m[1, 1] - lam) * (m[0, 0] - lam) - m[1, 0] * m[0, 1],
            ],
            dtype=complex,
        )
        norm = np.linalg.norm(raw)
        if norm < ZERO_TOL:
            raise DegenerateSpectrumError("vanished cofactor vector")
        norms[k] = 1.0 / norm
        vectors[:, k] = raw / norm
    vectors[0, 3] = 1.0
    phases = np.concatenate([np.angle(lams), [0.0]])
    return Spectrum(phases=phases, vectors=vectors, normalizations=norms)


def reference_alternating_pair_root(alpha, phi):
    """The k = 0 root and whether it was snapped to the dense oracle."""
    a = alternating_pair_trace(alpha, phi)
    coeffs = reference_cardano(-a, np.conj(a), -1.0 + 0.0j)
    try:
        return complex(reference_solve_cubic(coeffs)[0]), False
    except DegenerateSpectrumError:
        estimate = reference_cardano_roots(coeffs.w, coeffs.p, coeffs.a1)[0]
        g = compile_cycle(alternating_pair_network(phi, alpha=alpha))
        oracle = dense_eigendecomposition(g[1:, 1:]).eigenvalues()
        return complex(oracle[int(np.argmin(np.abs(oracle - estimate)))]), True


def coefficient_bytes(coeffs):
    return np.array(dataclasses.astuple(coeffs), dtype=complex).tobytes()


def spectrum_bytes(spectrum):
    parts = (spectrum.phases, spectrum.vectors, spectrum.normalizations)
    return b"".join(np.asarray(a).tobytes() for a in parts if a is not None)


def closed_form_route(u):
    """Which step of the reference closed form gives way on block-form u, or the reference spectrum."""
    coeffs = reference_block_cubic(u[1:, 1:])
    try:
        roots = reference_solve_cubic(coeffs)
    except DegenerateSpectrumError:
        return coeffs, None, "solve_cubic"
    try:
        return coeffs, roots, reference_cofactor_eigenstates(u, roots)
    except DegenerateSpectrumError:
        return coeffs, roots, "block_form_eigenstates"


def real_orthogonal_blocks(count):
    """Block-form cycles with a real orthogonal block, its imaginary parts all +0.0 or all -0.0."""
    rng = np.random.default_rng(BATTERY_SEED)
    for _ in range(count):
        g = np.eye(4, dtype=complex)
        g[1:, 1:] = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        yield g
        yield g.conj()


def test_closed_form_matches_its_reference_form_bit_for_bit():
    routes = Counter()
    nets = byte_battery(BATTERY_SEED + 2, rounds=60)
    cycles = [compile_cycle(net) for net in nets if net.qubits == 2] + list(real_orthogonal_blocks(20))
    for u in cycles:
        if not is_block_form(u):
            continue
        coeffs, roots, spectrum = closed_form_route(u)
        assert coefficient_bytes(cubic_coefficients(u[1:, 1:])) == coefficient_bytes(coeffs)
        if roots is None:
            with pytest.raises(DegenerateSpectrumError):
                solve_cubic(coeffs)
        else:
            assert solve_cubic(coeffs).tobytes() == roots.tobytes()
        if spectrum == "block_form_eigenstates":
            with pytest.raises(DegenerateSpectrumError):
                block_form_eigenstates(u, roots)
        elif roots is not None:
            assert spectrum_bytes(block_form_eigenstates(u, roots)) == spectrum_bytes(spectrum)
        if isinstance(spectrum, str):
            routes[spectrum] += 1
            spectrum = dense_eigendecomposition(u)  # the fallback
        else:
            routes["closed form"] += 1
        assert spectrum_bytes(spectrum_closed_form(u)) == spectrum_bytes(spectrum)
    # The inputs reach every route.
    assert routes["closed form"] > 200 and routes["solve_cubic"] > 0 and routes["block_form_eigenstates"] > 0


# Near-collision points where the alternating pair's closed form gives way to the oracle.
SNAPPED_POINTS = ((0.0, 1e-4), (1e-6, 1e-8), (2.0 * np.pi / 3.0, 1e-5), (-2.827433388230814, np.pi))


def test_alternating_pair_root_matches_its_reference_form_on_the_nu0_grid():
    grid = [(alpha, phi) for alpha in DEFAULT_ALPHA_FAMILY for phi in np.arange(0.0, 2.0 * np.pi, 0.01)]
    snapped = 0
    for alpha, phi in grid + list(SNAPPED_POINTS):
        root, was_snapped = reference_alternating_pair_root(alpha, phi)
        assert np.complex128(alternating_pair_root(alpha, phi)).tobytes() == np.complex128(root).tobytes()
        snapped += was_snapped
    assert snapped == len(SNAPPED_POINTS)
