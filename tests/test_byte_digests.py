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
    amplitude_series,
    block_form_eigenstates,
    classify,
    closed_form_amplitude,
    compile_cycle,
    cubic_coefficients,
    dense_eigendecomposition,
    dynamics,
    gate_matrix,
    matrix_power_spectral,
    nu1_to_phi,
    perturbed_amplitude_series,
    real_trace_eigenvalues,
    rotation_pair_spectrum,
    so3_example_closed_form,
    solve_cubic,
    spectrum_closed_form,
    u2_matrix,
    unitarity_defect,
)
from cyclonet.cli import DEFAULT_ALPHA_FAMILY
from cyclonet.linalg import (
    CANCEL_RATIO,
    MEMBERSHIP_TOL,
    ROOT_TOL,
    TABLE_SINGULAR_TOL,
    ZERO_TOL,
    is_block_form,
)

from helpers import EDGE_ANGLES, byte_battery, haar_unitary

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
        columns.append(v if mag < 1e-15 else v * (v[j].conjugate() / mag))
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


def reference_so3_example_closed_form(phi):
    """The rotation-pair power table with all nine entries written out, as (a, b, c) triples."""
    c, s = float(np.cos(phi)), float(np.sin(phi))
    trace = c * c + 2.0 * c
    nu1 = float(np.arccos((trace - 1.0) / 2.0))
    cn, sn = np.cos(nu1), np.sin(nu1)
    c2n, s2n = np.cos(2.0 * nu1), np.sin(2.0 * nu1)
    d1 = c + 3.0
    d2 = (c + 1.0) * d1
    d3 = s * s * d2
    d4 = s**3 * d2
    return (
        (
            ((c + 1.0) / d1, 2.0 / d1, 0.0),
            (-(c + 1.0) / d1, (4.0 * c - 2.0 * c * c * cn - 2.0 * cn) / d3, -2.0 * sn / d2),
            (
                -s / d1,
                (2.0 * c**3 * cn - 6.0 * c * c + 6.0 * c * cn - 2.0 * c2n) / d4,
                (-2.0 * c**3 * sn + 6.0 * c * sn - 2.0 * s2n) / d4,
            ),
        ),
        (
            (-(c + 1.0) / d1, (4.0 * c - 2.0 * c * c * cn - 2.0 * cn) / d3, 2.0 * sn / d2),
            ((c + 1.0) / d1, 2.0 / d1, 0.0),
            (
                s / d1,
                2.0 * (-(c**3) + 3.0 * c * c * cn - c * (c2n + 2.0) + cn) / d4,
                2.0 * (c * c * sn - c * s2n + sn) / d4,
            ),
        ),
        (
            (
                -s / d1,
                (2.0 * c**3 * cn - 6.0 * c * c + 6.0 * c * cn - 2.0 * c2n) / d4,
                (2.0 * c**3 * sn - 6.0 * c * sn + 2.0 * s2n) / d4,
            ),
            (
                s / d1,
                2.0 * (-(c**3) + 3.0 * c * c * cn - c * (c2n + 2.0) + cn) / d4,
                2.0 * (-(c * c) * sn + c * s2n - sn) / d4,
            ),
            ((1.0 - c) / d1, 2.0 * (c + 1.0) / d1, 0.0),
        ),
    )


# Just outside the table's singular set: |sin phi| and |1 + cos phi| a little above TABLE_SINGULAR_TOL.
_OFF_SINE = 1.01 * TABLE_SINGULAR_TOL
_OFF_COS = math.sqrt(2.02 * TABLE_SINGULAR_TOL)  # 1 + cos(pi + x) is about x^2 / 2
TABLE_EDGE_ANGLES = (
    [centre + off for centre in (0.0, 2.0 * np.pi, -2.0 * np.pi) for off in (_OFF_SINE, -_OFF_SINE)]
    + [centre + off for centre in (np.pi, -np.pi) for off in (_OFF_COS, -_OFF_COS)]
    + [np.pi / 2, -np.pi / 2]
)


def test_power_table_matches_its_reference_form_on_every_entry():
    grid = [phi for phi in np.linspace(-10.0, 10.0, 4001) if min(abs(np.sin(phi)), 1.0 + np.cos(phi)) > 1e-3]
    for phi in grid + TABLE_EDGE_ANGLES:
        table = so3_example_closed_form(phi)
        entries = [[(e.a, e.b, e.c) for e in row] for row in table.elements]
        assert np.array(entries).tobytes() == np.array(reference_so3_example_closed_form(phi)).tobytes(), phi
    # The edge angles really sit next to the singular set.
    for phi in TABLE_EDGE_ANGLES[:-2]:
        assert min(abs(np.sin(phi)), abs(1.0 + np.cos(phi))) < 1.1 * TABLE_SINGULAR_TOL


# The rotation-pair helpers as they were when each wrote the pair's trace cos^2 phi + 2 cos phi by hand.


def reference_rotation_pair_spectrum(phi):
    c = np.cos(phi)
    return block_form_eigenstates(compile_cycle(alternating_pair_network(phi)), real_trace_eigenvalues(c * c + 2.0 * c))


def reference_nu1_to_phi(nu1):
    target = 2.0 * np.cos(nu1) + 1.0

    def residual(phi):
        c = np.cos(phi)
        return c * c + 2.0 * c - target

    lo, hi = 0.0, float(np.pi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# phi near 0 and pi, where the pair's trace nears 3 and -1 and its nontrivial eigenphase nears 0 and pi.
PAIR_EDGE_OFFSETS = (1e-15, 1e-12, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2)


def test_rotation_pair_helpers_match_their_reference_forms_bit_for_bit():
    phis = [*np.linspace(-np.pi, np.pi, 501), *(x for d in PAIR_EDGE_OFFSETS for x in (d, -d, np.pi - d, d - np.pi))]
    refused = 0
    for phi in phis:
        try:
            expected = reference_rotation_pair_spectrum(phi)
        except DegenerateSpectrumError:
            with pytest.raises(DegenerateSpectrumError):
                rotation_pair_spectrum(phi)
            refused += 1
            continue
        assert spectrum_bytes(rotation_pair_spectrum(phi)) == spectrum_bytes(expected), phi
    assert 0 < refused < len(phis) // 2  # the grid reaches the root collisions at 0 and pi, and mostly passes them
    nu1s = [*np.linspace(0.0, np.pi, 2002)[1:-1], *(x for d in PAIR_EDGE_OFFSETS for x in (d, np.pi - d))]
    for nu1 in nu1s:
        assert nu1_to_phi(nu1) == reference_nu1_to_phi(nu1), nu1
    assert nu1_to_phi(1e-15) < 1e-50 and nu1_to_phi(np.pi - 1e-15) > np.pi - 1e-3  # so phi comes near 0 and pi


# The series bodies as they were before they were evaluated in blocks, each
# building its whole (n + 1) x 4 phase grid or n'-long temporaries at once.


def reference_amplitude_series(spectrum, row, start, n_max):
    coeffs = spectrum.vectors.conj().T @ np.asarray(start, dtype=complex)
    phase_grid = np.exp(1j * np.outer(np.arange(n_max + 1), spectrum.phases))
    return phase_grid @ (spectrum.vectors[row, :] * coeffs)


def reference_closed_form_amplitude(phi, k, basis, n_prime):
    idx = int(basis, 2)
    table = so3_example_closed_form(phi)
    spectrum = rotation_pair_spectrum(phi)
    lam = np.exp(1j * spectrum.phases[k])
    norm_k = spectrum.normalizations[k]
    c, s = np.cos(phi), np.sin(phi)
    n_prime = np.asarray(n_prime, dtype=float)
    if idx == 4:
        return np.full(n_prime.shape, -norm_k * s * (1.0 - c * lam), dtype=complex)
    j = idx - 5
    m_j2 = table.elements[j][1].value(n_prime, table.nu1)
    m_j3 = table.elements[j][2].value(n_prime, table.nu1)
    return norm_k * (m_j2 * (c - lam) ** 2 - s * m_j3 * (c - lam))


# Series lengths on both sides of one and of several blocks, a lone entry past a block included.
BLOCK = dynamics._BLOCK
SERIES_LENGTHS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 7)


def same_bytes(got, expected):
    return type(got) is type(expected) and np.shape(got) == np.shape(expected) and got.tobytes() == expected.tobytes()


def test_blocked_series_match_their_whole_array_forms_bit_for_bit():
    rng = np.random.default_rng(BATTERY_SEED)
    generic = dense_eigendecomposition(haar_unitary(4, rng))
    start = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = nu1_to_phi(0.7)
    pair = rotation_pair_spectrum(phi)
    flip = np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
    for length in SERIES_LENGTHS:
        for row in range(4):
            expected = reference_amplitude_series(generic, row, start, length - 1)
            assert same_bytes(amplitude_series(generic, row, start, length - 1), expected), (length, row)
        n_prime = np.arange(length)
        for k in range(3):
            for basis in dynamics.PERTURBED_BASIS_LABELS:
                expected = reference_amplitude_series(pair, int(basis, 2) - 4, flip @ pair.vectors[:, k], length - 1)
                assert same_bytes(perturbed_amplitude_series(phi, k, basis, length - 1), expected), (length, k, basis)
                expected = reference_closed_form_amplitude(phi, k, basis, n_prime)
                assert same_bytes(closed_form_amplitude(phi, k, basis, n_prime), expected), (length, k, basis)


def test_blocked_closed_form_keeps_the_shape_and_type_of_any_n_prime():
    phi = nu1_to_phi(1.3)
    grid = np.linspace(-3.0, 4000.0, 3 * (BLOCK + 1)).reshape(3, BLOCK + 1)
    for k in range(3):
        for basis in dynamics.PERTURBED_BASIS_LABELS:
            # 2-D, C-ordered or not, and scalars, whose result type (a 0-d array for basis 100) is kept.
            for n_prime in (grid, grid.T, grid[:, ::2], 7, 2.5, np.float64(1e5), np.int64(12)):
                expected = reference_closed_form_amplitude(phi, k, basis, n_prime)
                assert same_bytes(closed_form_amplitude(phi, k, basis, n_prime), expected), (k, basis, n_prime)
