"""Shared test utilities: independent brute-force oracles and random generators.

The oracles here deliberately avoid the library's spectral shortcuts: the
perturbation and chain oracles step through explicit dense operators one
time step at a time, so any closed-form result they confirm is confirmed by
a genuinely different route.
"""

import itertools

import numpy as np

from cyclonet import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    compile_cycle,
)

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
