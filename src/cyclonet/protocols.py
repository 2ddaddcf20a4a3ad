"""Cycle-based quantum memory, probe sensor, and phase-estimation demos.

A cycle stores a state by letting it circulate; after n cycles the state is
recovered by one application of the assembled inverse power of the cycle
unitary, not by n inverse iterations.  A cycle started in the inert |00>
eigenstate acts as a sensor: a probe qubit in |1> kicks it into the
orthogonal active subspace, where it stays for every later cycle.  Phase
estimation runs conditional cycle powers against one eigenstate, collecting
the eigenphase on a register of control qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import amplitude_series, matrix_power_spectral
from .gates import CyclicNetwork, compile_cycle
from .linalg import Spectrum, basis_state, check_state, dense_eigendecomposition

# Counter of dense applications of a cycle matrix (or an assembled power of
# it) to a state or operator.  Retrieval must stay O(1) in the cycle count n;
# tests reset this and assert it stays bounded.
_cycle_applications = 0


def reset_cycle_applications() -> None:
    global _cycle_applications
    _cycle_applications = 0


def cycle_applications() -> int:
    return _cycle_applications


def _apply_counted(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    global _cycle_applications
    _cycle_applications += 1
    return matrix @ target


@dataclass(frozen=True, eq=False)
class MemoryRecord:
    """A cycle holding a stored state, with its spectrum precomputed."""

    net: CyclicNetwork
    state: np.ndarray
    cycle_matrix: np.ndarray
    spectrum: Spectrum


def memory_store(net: CyclicNetwork, psi) -> MemoryRecord:
    """Swap a state into a cycle and remember everything retrieval needs."""
    psi = check_state(psi)
    u = compile_cycle(net)
    if psi.shape[0] != u.shape[0]:
        raise ValueError("state dimension does not match the cycle")
    return MemoryRecord(net=net, state=psi, cycle_matrix=u, spectrum=dense_eigendecomposition(u))


def inverse_cycle_operator(record: MemoryRecord, n: int) -> np.ndarray:
    """The single retrieval operator (U^dagger)^n, assembled from the spectrum."""
    if n < 0:
        raise ValueError("cycle count must be non-negative")
    return matrix_power_spectral(record.cycle_matrix, -n, record.spectrum)


def memory_retrieve(record: MemoryRecord, n: int) -> np.ndarray:
    """State recovered after the cycle has run n iterations since storage.

    Uses two assembled powers (the cycle's own evolution and the inverse
    operator) and two counted matrix applications, independent of n.
    """
    if n < 0:
        raise ValueError("cycle count must be non-negative")
    evolved = _apply_counted(
        matrix_power_spectral(record.cycle_matrix, n, record.spectrum), record.state
    )
    return _apply_counted(inverse_cycle_operator(record, n), evolved)


@dataclass(frozen=True)
class SensorReading:
    """Probability of finding the cycle back in its reference state, and the verdict."""

    p_psi3: float

    @property
    def detected(self) -> bool:
        """A reading counts as a detection when the probability is below 1/2."""
        return self.p_psi3 < 0.5


def _check_sensor(net: CyclicNetwork, acyclic_bit: int, n_prime: int, count_name: str) -> None:
    if acyclic_bit not in (0, 1):
        raise ValueError(f"acyclic_bit must be 0 or 1, got {acyclic_bit}")
    if net.qubits != 2:
        raise ValueError(f"the sensor needs a two-qubit cycle, got {net.qubits} qubits")
    if n_prime < 0:
        raise ValueError(f"{count_name} must be non-negative, got {n_prime}")


def sensor_run(net: CyclicNetwork, acyclic_bit: int, n_prime: int) -> SensorReading:
    """Detect whether a probe qubit in |1> crossed the cycle's control gate.

    The cycle starts in the inert |00> reference state, and a probe bit b
    leaves it as |0b>, so the probability after n' cycles is
    |<00| U^n' |0b>|^2.  A probe bit 0 leaves the cycle in |00>
    (probability 1 at every n'); a probe bit 1 flips it into the active
    subspace, which never returns to |00>.
    """
    _check_sensor(net, acyclic_bit, n_prime, "n_prime")
    amplitude = matrix_power_spectral(compile_cycle(net), n_prime)[0, acyclic_bit]
    return SensorReading(p_psi3=float(abs(amplitude) ** 2))


def sensor_series(net: CyclicNetwork, acyclic_bit: int, n_prime_max: int) -> np.ndarray:
    """sensor_run's probability for every n' = 0 .. n_prime_max, from one spectrum."""
    _check_sensor(net, acyclic_bit, n_prime_max, "n_prime_max")
    spectrum = dense_eigendecomposition(compile_cycle(net))
    return np.abs(amplitude_series(spectrum, 0, basis_state(4, acyclic_bit), n_prime_max)) ** 2


@dataclass(frozen=True, eq=False)
class PhaseEstimate:
    """Kickback register, its readout distribution, and the t-bit estimate."""

    kickback_state: np.ndarray
    eigenphase: float
    phase_fraction: float
    distribution: np.ndarray
    estimate: float


def _inverse_fourier(dim: int) -> np.ndarray:
    k = np.arange(dim)
    return np.exp(-2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def phase_estimation_demo(net: CyclicNetwork, eigenstate_index: int, t: int) -> PhaseEstimate:
    """Estimate a cycle eigenphase to t bits via conditional cycle powers.

    Control qubit j (j = t-1 leftmost) conditions 2^j cycles on the
    eigenstate, picking up relative phase e^{i 2^j nu}; each power is
    assembled spectrally rather than iterated.  The register is then read
    out through the inverse Fourier transform; the estimate is the most
    probable t-bit fraction of nu / 2 pi.
    """
    if not 1 <= t <= 8:
        raise ValueError("bit count t must be between 1 and 8")
    u = compile_cycle(net)
    spectrum = dense_eigendecomposition(u)
    if not 0 <= eigenstate_index < spectrum.dim:
        raise ValueError("eigenstate index out of range")
    psi_u = spectrum.vectors[:, eigenstate_index]
    nu = float(spectrum.phases[eigenstate_index])
    kickback = np.array([1.0], dtype=complex)
    for j in reversed(range(t)):  # leftmost control qubit carries 2^{t-1} cycles
        power = matrix_power_spectral(u, 2**j, spectrum)
        phase = complex(np.vdot(psi_u, power @ psi_u))
        qubit = np.array([1.0, phase], dtype=complex) / np.sqrt(2.0)
        kickback = np.kron(kickback, qubit)
    distribution = np.abs(_inverse_fourier(2**t) @ kickback) ** 2
    best = int(np.argmax(distribution))
    return PhaseEstimate(
        kickback_state=kickback,
        eigenphase=nu,
        phase_fraction=(nu / (2.0 * np.pi)) % 1.0,
        distribution=distribution,
        estimate=best / 2**t,
    )
