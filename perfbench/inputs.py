"""Seeded input generator for the benchmark workloads.

Every draw comes from a numpy Generator seeded by (workload seed, round
index), so the same seed always yields the same networks and arguments.
The program under test only ever sees the generated networks and argv;
the intended class tag travels alongside so the checks can compare it with
what `classify` reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclonet import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    SingleQubit,
    TwoLevel,
)

# Sweep mix: about 90 % alternating control networks in equal U3/SU3/SO3
# thirds, 5 % degenerate block-form networks (the closed form's fallback
# tail) and 5 % U4 networks that have no closed form at all.
SWEEP_KINDS = ("U3", "SU3", "SO3", "degenerate", "U4")
SWEEP_SHARES = (0.30, 0.30, 0.30, 0.05, 0.05)

PERTURBED_BASES = ("100", "101", "110", "111")
MAX_CYCLES = 1_000_000

_TWO_LEVEL_PAIRS = ((3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4))
_MIXES_INERT_LEVEL = ((1, 2), (1, 3), (1, 4))


@dataclass(frozen=True)
class SweepItem:
    """One sweep network, the class the generator intended, and its power exponent."""

    kind: str  # U3, SU3, SO3, or a degenerate / U4 sub-kind
    intended: str  # the classify tag the network must receive
    net: CyclicNetwork
    n: int


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


def _angle(rng: np.random.Generator) -> float:
    return float(rng.uniform(-np.pi, np.pi))


def _wrapped(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def alternating_network(rng: np.random.Generator, tag: str) -> CyclicNetwork:
    """Alternating ControlDown/ControlUp network with 2-6 gates in the given class.

    SO3 uses single-angle gates (real active block, det 1); SU3 draws full
    angles with deltas summing to zero (det 1, complex); U3 draws deltas
    whose sum stays away from 0 mod pi (det != 1).
    """
    m = int(rng.integers(2, 7))
    start = int(rng.integers(0, 2))
    kinds = [ControlDown if (i + start) % 2 == 0 else ControlUp for i in range(m)]
    if tag == "SO3":
        return CyclicNetwork(2, tuple(k(phi=_angle(rng)) for k in kinds))
    angles = rng.uniform(-np.pi, np.pi, (m, 4))
    if tag == "SU3":
        angles[-1, 3] = -np.sum(angles[:-1, 3])
    else:
        # det of the active block is exp(2i * sum(delta)); keep it off 1.
        while abs(_wrapped(2.0 * np.sum(angles[:, 3]))) < 0.1:
            angles[:, 3] = rng.uniform(-np.pi, np.pi, m)
    return CyclicNetwork(2, tuple(k(*map(float, row)) for k, row in zip(kinds, angles)))


def degenerate_network(rng: np.random.Generator) -> tuple[str, str, CyclicNetwork]:
    """Block-form network whose active block has a repeated eigenvalue."""
    sub = ("diag_repeat", "diag_repeat_det1", "axis_phi0", "axis_phi_pi")[int(rng.integers(0, 4))]
    if sub == "diag_repeat":
        a = _angle(rng)
        b = _angle(rng)
        while abs(_wrapped(2.0 * a + b)) < 0.1:
            b = _angle(rng)
        return sub, "U3", CyclicNetwork(2, (DiagonalLayer((0.0, a, a, b)),))
    if sub == "diag_repeat_det1":
        a = float(rng.uniform(0.2, np.pi - 0.2)) * (1.0 if rng.random() < 0.5 else -1.0)
        return sub, "SU3", CyclicNetwork(2, (DiagonalLayer((0.0, a, a, -2.0 * a)),))
    kind = ControlDown if rng.random() < 0.5 else ControlUp
    m = int(rng.integers(1, 5))
    phi = 0.0 if sub == "axis_phi0" else float(np.pi)
    return sub, "SO3", CyclicNetwork(2, tuple(kind(phi=phi) for _ in range(m)))


def u4_network(rng: np.random.Generator) -> tuple[str, CyclicNetwork]:
    """Network of single-qubit or two-level gates that mixes the inert |00> level."""
    m = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        gates = [
            SingleQubit(int(rng.integers(1, 3)), _angle(rng), float(rng.uniform(0.3, 1.2)), _angle(rng), _angle(rng))
            for _ in range(m)
        ]
        return "u4_single", CyclicNetwork(2, tuple(gates))
    gates = []
    for i in range(m):
        pairs = _MIXES_INERT_LEVEL if i == 0 else _TWO_LEVEL_PAIRS
        p, r = pairs[int(rng.integers(0, len(pairs)))]
        gates.append(TwoLevel(p, r, float(rng.uniform(0.3, 1.2)), _angle(rng)))
    order = rng.permutation(m)
    return "u4_two_level", CyclicNetwork(2, tuple(gates[i] for i in order))


def sweep_items(seed: int, round_index: int, count: int) -> list[SweepItem]:
    rng = round_rng(seed, round_index)
    draws = rng.choice(len(SWEEP_KINDS), size=count, p=SWEEP_SHARES)
    items = []
    for d in draws:
        kind = SWEEP_KINDS[d]
        if kind == "degenerate":
            sub, intended, net = degenerate_network(rng)
        elif kind == "U4":
            (sub, net), intended = u4_network(rng), "U4"
        else:
            sub, intended, net = kind, kind, alternating_network(rng, kind)
        items.append(SweepItem(sub, intended, net, int(rng.integers(0, MAX_CYCLES + 1))))
    return items


@dataclass(frozen=True)
class SeriesArgs:
    nu1: float
    basis: str
    eigenstate: int


def series_args(seed: int, round_index: int) -> SeriesArgs:
    rng = round_rng(seed, round_index)
    # nu1 stays clear of 0 and pi, where the closed-form table is singular.
    nu1 = float(rng.uniform(0.3, np.pi - 0.3))
    basis = PERTURBED_BASES[int(rng.integers(0, len(PERTURBED_BASES)))]
    return SeriesArgs(nu1, basis, int(rng.integers(0, 3)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_alternating(rng: np.random.Generator) -> CyclicNetwork:
    return alternating_network(rng, ("U3", "SU3", "SO3")[int(rng.integers(0, 3))])


@dataclass(frozen=True, eq=False)
class MemoryRound:
    """K stored networks, R reads each in shuffled order, and one q-link chain."""

    nets: list
    states: list
    reads: list  # (record index, cycle count)
    chain_nets: list
    chain_states: list
    chain_probe: np.ndarray
    chain_n: int


def memory_round(seed: int, round_index: int, stores: int, reads_per_store: int, links: int) -> MemoryRound:
    rng = round_rng(seed, round_index)
    nets = [random_alternating(rng) for _ in range(stores)]
    states = [random_state(rng, 4) for _ in range(stores)]
    record = np.repeat(np.arange(stores), reads_per_store)
    cycles = rng.integers(0, MAX_CYCLES + 1, record.size)
    order = rng.permutation(record.size)
    reads = [(int(record[i]), int(cycles[i])) for i in order]
    chain_nets = [random_alternating(rng) for _ in range(links)]
    chain_states = [random_state(rng, 4) for _ in range(links)]
    return MemoryRound(
        nets, states, reads, chain_nets, chain_states, random_state(rng, 2), int(rng.integers(0, MAX_CYCLES + 1))
    )
