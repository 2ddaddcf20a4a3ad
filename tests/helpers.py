"""Shared test utilities: independent brute-force oracles and random generators.

The oracles here deliberately avoid the library's spectral shortcuts: the
perturbation and chain oracles step through explicit dense operators one
time step at a time, so any closed-form result they confirm is confirmed by
a genuinely different route.
"""

import itertools
import tracemalloc

import numpy as np

from cyclonet import (
    ControlDown,
    ControlNot,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    NotGate,
    SingleQubit,
    TwoLevel,
    compile_cycle,
)
from cyclonet.gates import EXTENDED_PAIRS, TWO_LEVEL_PAIRS

EYE2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_control_gate(rng, orientation, kind="u3"):
    """One control gate; kind selects the parameter class (u3 / su3ish / so3)."""
    cls = ControlDown if orientation == "down" else ControlUp
    if kind == "so3":
        return cls(phi=float(rng.uniform(-np.pi, np.pi)))
    alpha, phi, beta, delta = rng.uniform(-np.pi, np.pi, 4)
    if kind == "su3":
        delta = 0.0
    return cls(float(alpha), float(phi), float(beta), float(delta))


def random_alternating_network(rng, kind="u3", min_gates=2, max_gates=6):
    """Alternating-orientation control network of the requested class.

    kind='su3' zeroes all but the last delta and sets the last to minus the
    running sum, so the active block has determinant exactly one.
    """
    m = int(rng.integers(min_gates, max_gates + 1))
    start = int(rng.integers(0, 2))
    gates = []
    for i in range(m):
        orientation = "down" if (i + start) % 2 == 0 else "up"
        gates.append(random_control_gate(rng, orientation, kind="so3" if kind == "so3" else "u3"))
    if kind == "su3":
        deltas = rng.uniform(-np.pi, np.pi, m)
        deltas[-1] = -np.sum(deltas[:-1])
        gates = [type(g)(g.alpha, g.phi, g.beta, float(d)) for g, d in zip(gates, deltas)]
    return CyclicNetwork(2, tuple(gates))


# Angles where a last-bit change in gate building shows first: signed zeros,
# multiples of pi/2 and magnitudes below half an ulp of 1.
EDGE_ANGLES = (0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 1e-17, -1e-17)
# Two-level pairs that leave level 1 (|00>) untouched.
INERT_PAIRS = ((3, 4), (2, 3), (2, 4))


def _battery_angle(rng):
    if rng.random() < 0.5:
        return float(EDGE_ANGLES[rng.integers(len(EDGE_ANGLES))])
    return float(rng.uniform(-np.pi, np.pi))


def random_gate(rng, qubits, inert_00=False):
    """One gate of any kind that fits a network of this width.

    inert_00 keeps |00> untouched (control gates, two-level gates off level 1
    and diagonal layers with gamma1 = 0), so the network is in block form.
    """
    def angles(k):
        return [_battery_angle(rng) for _ in range(k)]

    if qubits == 1:
        return SingleQubit(1, *angles(4)) if rng.integers(2) == 0 else NotGate(1)
    kind = int(rng.integers(4 if inert_00 else 7))
    if kind == 0:
        return ControlDown(*angles(4))
    if kind == 1:
        return ControlUp(*angles(4))
    if kind == 2:
        pairs = INERT_PAIRS if inert_00 else TWO_LEVEL_PAIRS
        p, r = pairs[rng.integers(len(pairs))]
        gammas = angles(2) if (p, r) in EXTENDED_PAIRS else [0.0, 0.0]
        return TwoLevel(p, r, *angles(2), *gammas)
    if kind == 3:
        return DiagonalLayer((0.0 if inert_00 else _battery_angle(rng), *angles(3)))
    line = int(rng.integers(1, 3))
    if kind == 4:
        return SingleQubit(line, *angles(4))
    if kind == 5:
        return NotGate(line)
    return ControlNot(line, 3 - line)


def byte_battery(seed, rounds=40):
    """Seeded networks for byte-level digests of the gate, cycle and spectrum layers.

    Each round holds 1-qubit, unrestricted 2-qubit and block-form 2-qubit
    networks of 0..5 gates each, covering all seven gate kinds and the
    EDGE_ANGLES; alternating U3/SU3/SO3 networks and the degenerate
    ControlDown(phi=pi) cycle follow.
    """
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(rounds):
        for size in range(6):
            for qubits, inert_00 in ((1, False), (2, False), (2, True)):
                gates = tuple(random_gate(rng, qubits, inert_00) for _ in range(size))
                nets.append(CyclicNetwork(qubits, gates))
        for kind in ("u3", "su3", "so3"):
            nets.append(random_alternating_network(rng, kind))
    nets.append(CyclicNetwork(2, (ControlDown(phi=np.pi),)))
    return nets


def eigenvalue_multiset_deviation(a, b):
    """Smallest max-entry deviation between two small eigenvalue multisets."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape and a.ndim == 1 and a.size <= 4
    best = np.inf
    for perm in itertools.permutations(range(a.size)):
        best = min(best, float(np.max(np.abs(a - b[list(perm)]))))
    return best


def stepwise_perturb_oracle(scenario):
    """Time-stepped 8-dim circuit simulation of a probe-coupling scenario."""
    u = compile_cycle(scenario.net)
    full = np.kron(np.asarray(scenario.acyclic_state, complex), np.asarray(scenario.initial_state, complex))
    step = np.kron(EYE2, u)
    w = scenario.operator()
    if scenario.coupling == "control_on_acyclic":
        gate = np.kron(P0, np.eye(4, dtype=complex)) + np.kron(P1, np.kron(EYE2, w))
    else:
        gate = np.kron(EYE2, np.kron(EYE2, P0)) + np.kron(w, np.kron(EYE2, P1))
    for _ in range(scenario.cycles_before):
        full = step @ full
    full = gate @ full
    for _ in range(scenario.cycles_after):
        full = step @ full
    return full


def stepwise_sensor_oracle(net, bit, n_prime_max):
    """Time-stepped 8-dim sensor run: P(cycle in |00>) after each of n' = 0..n_prime_max cycles.

    The cycle starts in |00>, the probe (in |bit>) controls a flip of the
    bottom loop qubit, and the joint state is then stepped one cycle at a time.
    """
    full = np.kron(np.eye(2, dtype=complex)[bit], np.eye(4, dtype=complex)[0])
    full = (np.kron(P0, np.eye(4, dtype=complex)) + np.kron(P1, np.kron(EYE2, SX))) @ full
    step = np.kron(EYE2, compile_cycle(net))
    probabilities = np.empty(n_prime_max + 1)
    for n in range(n_prime_max + 1):
        probabilities[n] = abs(full[0]) ** 2 + abs(full[4]) ** 2
        full = step @ full
    return probabilities


def stepwise_chain_oracle(nets, probe, states, n_prime):
    """Time-stepped chain simulation with explicit 2*4^q operators.

    Each global step advances every cycle once; during step tau (tau = 1..q)
    the probe then couples to cycle tau through a controlled-Not; n' plain
    steps follow.
    """
    q = len(nets)
    us = [compile_cycle(net) for net in nets]
    full = np.asarray(probe, complex)
    for s in reversed(states):  # probe (x) cycle_q (x) ... (x) cycle_1
        full = np.kron(full, np.asarray(s, complex))
    step = EYE2
    for u in reversed(us):
        step = np.kron(step, u)

    def cnot_at(j):
        n_bits = 1 + 2 * q
        target_bit = 2 + 2 * (q - j)  # bottom qubit of cycle j, 0-based from the left
        op0, op1 = P0, P1
        for b in range(1, n_bits):
            op0 = np.kron(op0, EYE2)
            op1 = np.kron(op1, SX if b == target_bit else EYE2)
        return op0 + op1

    for tau in range(1, q + 1):
        full = step @ full
        full = cnot_at(tau) @ full
    for _ in range(n_prime):
        full = step @ full
    return full


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees during call(), above what was traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
