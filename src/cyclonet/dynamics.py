"""Iterated cycle evolution, spectral matrix powers, and acyclic perturbations.

State evolution over n cycles expands in the cycle unitary's eigenbasis, so
U^n costs the same for any n.  For the single-angle rotation-pair network
(ControlUp(phi)·ControlDown(phi)) every active-block entry of U^n has the
closed form a + b cos(n nu1) + c sin(n nu1), tabulated here.  A probe qubit
on an acyclic line couples to a cycle once through a control gate; the
entangled result splits into an unperturbed branch and a perturbed branch,
and chains of cycles linked by one probe qubit evolve branch-by-branch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .gates import SIGMA_X, CyclicNetwork, alternating_pair_network, compile_cycle, cycle_spectrum
from .linalg import TABLE_SINGULAR_TOL, Spectrum, check_integer, check_real, check_state, check_unitary
from .linalg import dense_eigendecomposition
from .spectral import (
    DegenerateSpectrumError,
    alternating_pair_trace,
    block_form_eigenstates,
    real_trace_eigenvalues,
)

_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_EYE2 = np.eye(2, dtype=complex)
_BLOCK = 1 << 14  # series entries evaluated at once; a multiple of 4, so zgemv keeps a whole-array call's row kernels

#: Probe-space basis labels (acyclic bit 1, then top and bottom loop bits).
PERTURBED_BASIS_LABELS = ("100", "101", "110", "111")


def matrix_power_spectral(u, n: int, spectrum: Spectrum | None = None) -> np.ndarray:
    """U^n assembled from the eigenbasis; cost independent of n, negative n allowed.

    Library callers pass cycle_spectrum(net).  spectrum=None serves bare arrays (tests, the layer
    digests); perfbench passes (u, n, spectrum) by position, and without the default u is unused.
    """
    u = np.asarray(u, dtype=complex)
    if spectrum is None:
        spectrum = dense_eigendecomposition(u)
    v = spectrum.vectors
    return (v * np.exp(1j * n * spectrum.phases)) @ v.conj().T


def evolve(net: CyclicNetwork, psi0, n: int) -> np.ndarray:
    """State after n cycles (n < 0 runs them backwards), from the network's stored spectrum."""
    u = compile_cycle(net)
    psi0 = check_state(psi0, "psi0", u.shape[0])
    check_integer(n, "n", low=-np.inf)
    return matrix_power_spectral(u, n, cycle_spectrum(net)) @ psi0


def amplitude_series(spectrum: Spectrum, row: int, start, n_max: int) -> np.ndarray:
    """Amplitudes <row| U^n |start> for n = 0 .. n_max, all from one spectrum of U."""
    check_integer(row, "row", 0, spectrum.dim - 1)
    check_integer(n_max, "n_max")
    start = np.asarray(start, dtype=complex)
    if start.shape != (spectrum.dim,):  # any norm: the amplitudes are linear in start
        raise ValueError(f"start must have {spectrum.dim} entries, got shape {start.shape}")
    weights = spectrum.vectors[row, :] * (spectrum.vectors.conj().T @ start)
    return _blockwise(lambda lo, hi: np.exp(1j * np.outer(np.arange(lo, hi), spectrum.phases)) @ weights, n_max + 1)


def _blockwise(evaluate, size: int) -> np.ndarray:
    """Entries 0 .. size - 1 as evaluate(lo, hi) gives them, _BLOCK at a time: no temporary grows with size."""
    out = np.empty(size, dtype=complex)
    bounds = [*range(0, max(size - 1, 1), _BLOCK), size]  # a lone last entry joins the last block: numpy dots one row
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = evaluate(lo, hi)
    return out


# ----------------------------------------------------------------------------
# Closed-form powers of the single-angle rotation pair


@dataclass(frozen=True)
class ClosedFormElement:
    """One matrix entry of U^n as a + b cos(n nu1) + c sin(n nu1)."""

    a: float
    b: float
    c: float

    def value(self, n, nu1: float):
        n = np.asarray(n, dtype=float)
        return self.a + self.b * np.cos(n * nu1) + self.c * np.sin(n * nu1)


@dataclass(frozen=True)
class CyclePowerTable:
    """Closed-form coefficient grid for the active 3x3 block of U^n."""

    phi: float
    nu1: float
    elements: tuple  # 3x3 nested tuple of ClosedFormElement

    def block_power(self, n: int) -> np.ndarray:
        """The active 3x3 block of U^n."""
        return np.array(
            [[self.elements[j][jp].value(n, self.nu1) for jp in range(3)] for j in range(3)]
        )

    def cycle_power(self, n: int) -> np.ndarray:
        """Full 4x4 U^n (inert |00> entry restored)."""
        g = np.eye(4, dtype=complex)
        g[1:, 1:] = self.block_power(n)
        return g


def so3_example_closed_form(phi: float) -> CyclePowerTable:
    """Coefficient table for the rotation-pair network's cycle powers.

    Valid away from the singular angles (sin phi and 1 + cos phi must not
    vanish); near those points the table's denominators blow up and a
    DegenerateSpectrumError directs callers to the spectral route instead.
    """
    phi = check_real(phi, "argument 'phi'")
    c, s = float(np.cos(phi)), float(np.sin(phi))
    if abs(s) < TABLE_SINGULAR_TOL or abs(c + 1.0) < TABLE_SINGULAR_TOL:
        raise DegenerateSpectrumError(f"closed-form table singular at phi = {phi}")
    nu1 = float(np.arccos((alternating_pair_trace(0.0, phi).real - 1.0) / 2.0))
    cn, sn = np.cos(nu1), np.sin(nu1)
    c2n, s2n = np.cos(2.0 * nu1), np.sin(2.0 * nu1)
    d1 = c + 3.0
    d2 = (c + 1.0) * d1
    d3 = s * s * d2
    d4 = s**3 * d2
    e = ClosedFormElement
    m00 = e((c + 1.0) / d1, 2.0 / d1, 0.0)
    m01 = e(-(c + 1.0) / d1, (4.0 * c - 2.0 * c * c * cn - 2.0 * cn) / d3, -2.0 * sn / d2)
    m02 = e(
        -s / d1,
        (2.0 * c**3 * cn - 6.0 * c * c + 6.0 * c * cn - 2.0 * c2n) / d4,
        (-2.0 * c**3 * sn + 6.0 * c * sn - 2.0 * s2n) / d4,
    )
    m12 = e(
        s / d1,
        2.0 * (-(c**3) + 3.0 * c * c * cn - c * (c2n + 2.0) + cn) / d4,
        2.0 * (c * c * sn - c * s2n + sn) / d4,
    )
    m22 = e((1.0 - c) / d1, 2.0 * (c + 1.0) / d1, 0.0)
    # The active block is real orthogonal, so U^-n is the transpose of U^n: a and b are
    # symmetric in the two indices and c, the odd part in n, is antisymmetric.
    m10, m20, m21 = (replace(m, c=-m.c) for m in (m01, m02, m12))
    elements = ((m00, m01, m02), (m10, m00, m12), (m20, m21, m22))
    return CyclePowerTable(phi=phi, nu1=nu1, elements=elements)


# ----------------------------------------------------------------------------
# Acyclic-qubit perturbation


@dataclass(frozen=True, eq=False)
class PerturbationScenario:
    """A two-qubit cycle probed once by an acyclic qubit through a control gate.

    The probe qubit is the leftmost bit of the 8-dim joint space.  With
    coupling='control_on_acyclic' the probe controls the operator applied to
    the bottom loop qubit; 'target_on_acyclic' flips the gate around.  The
    coupling operator defaults to a bit flip and may be any 2x2 unitary.
    """

    net: CyclicNetwork
    acyclic_state: tuple[complex, complex]
    cycles_before: int
    cycles_after: int
    initial_state: np.ndarray
    coupling: str = "control_on_acyclic"
    coupling_operator: np.ndarray | None = None

    def probe_vector(self) -> np.ndarray:
        return check_state(self.acyclic_state, "acyclic_state", 2)

    def operator(self) -> np.ndarray:
        w = SIGMA_X if self.coupling_operator is None else self.coupling_operator
        return check_unitary(w, "coupling_operator", 2)


def perturb(scenario: PerturbationScenario) -> np.ndarray:
    """Joint probe+cycle state after n cycles, one coupling event, and n' more cycles."""
    if scenario.net.qubits != 2:
        raise ValueError("perturbation scenarios require a two-qubit cycle")
    check_integer(scenario.cycles_before, "cycles_before")
    check_integer(scenario.cycles_after, "cycles_after")
    if scenario.coupling not in ("control_on_acyclic", "target_on_acyclic"):
        raise ValueError(f"coupling must be 'control_on_acyclic' or 'target_on_acyclic', got {scenario.coupling!r}")
    psi = check_state(scenario.initial_state, "initial_state", 4)
    phi_vec = scenario.probe_vector()
    w = scenario.operator()
    net, before, after = scenario.net, scenario.cycles_before, scenario.cycles_after
    if scenario.coupling == "control_on_acyclic":
        return _probe_controlled(phi_vec, w, [(net, psi, before, after)])
    evolved = evolve(net, psi, before)  # target_on_acyclic: the bottom qubit picks the probe's operator
    u_after = matrix_power_spectral(compile_cycle(net), after, cycle_spectrum(net))
    branch0, branch1 = (u_after @ np.kron(_EYE2, p) @ evolved for p in (_P0, _P1))
    return np.kron(phi_vec, branch0) + np.kron(w @ phi_vec, branch1)


def _probe_controlled(probe, w, links) -> np.ndarray:
    """Probe (x) last link (x) ... (x) first link, the probe controlling w on each link's bottom loop
    qubit between its before and after cycles; a link is (net, psi, before, after)."""
    w_bottom = np.kron(_EYE2, w)
    branch0 = [evolve(net, psi, before + after) for net, psi, before, after in links]
    branch1 = [evolve(net, w_bottom @ evolve(net, psi, before), after) for net, psi, before, after in links]
    out0 = np.kron(_P0 @ probe, functools.reduce(np.kron, reversed(branch0)))
    out1 = np.kron(_P1 @ probe, functools.reduce(np.kron, reversed(branch1)))
    return out0 + out1


def rotation_pair_spectrum(phi: float) -> Spectrum:
    """Closed-form spectrum of the single-angle rotation pair, in root order.

    Eigenvalue order is (1, e^{i nu1}, e^{-i nu1}, inert |00>), matching the
    closed-form amplitude expressions.
    """
    net = alternating_pair_network(phi)
    g = compile_cycle(net)
    roots = real_trace_eigenvalues(alternating_pair_trace(0.0, phi).real)
    return block_form_eigenstates(g, roots)


def _basis_index(basis: str) -> int:
    if basis not in PERTURBED_BASIS_LABELS:
        raise ValueError(f"basis must be one of {PERTURBED_BASIS_LABELS}, got {basis!r}")
    return int(basis, 2)


def perturbed_amplitude_series(
    phi: float, k: int, basis: str, n_prime_max: int
) -> np.ndarray:
    """Amplitude of one joint basis state versus n' for the canonical probe scenario.

    The cycle is the single-angle rotation pair started in its eigenstate k
    (k = 0, 1, 2), the probe qubit is |1>, and the coupling is a
    controlled-Not with control on the probe.  Returns the amplitudes of
    |basis> for n' = 0 .. n_prime_max; the |100> series is constant.
    """
    check_integer(k, "k", 0, 2)
    check_integer(n_prime_max, "n_prime_max")
    idx = _basis_index(basis)
    spectrum = rotation_pair_spectrum(phi)
    flipped = np.kron(_EYE2, SIGMA_X) @ spectrum.vectors[:, k]
    # Amplitude of cyclic basis state (idx - 4) in U^{n'} · flipped.
    return amplitude_series(spectrum, idx - 4, flipped, n_prime_max)


def closed_form_amplitude(phi: float, k: int, basis: str, n_prime) -> np.ndarray:
    """The same series as perturbed_amplitude_series, from the coefficient table.

    Evaluates the tabulated a + b cos(n' nu1) + c sin(n' nu1) forms combined
    with the flipped-eigenstate components; n' may be a scalar or array and
    need not be an integer (the continuous background curve).
    """
    check_integer(k, "k", 0, 2)
    idx = _basis_index(basis)
    table = so3_example_closed_form(phi)
    spectrum = rotation_pair_spectrum(phi)
    lam = np.exp(1j * spectrum.phases[k])
    norm_k = spectrum.normalizations[k]
    c, s = np.cos(phi), np.sin(phi)

    def evaluate(n):
        n = np.asarray(n, dtype=float)
        if idx == 4:  # probe |1>, cycle |00>: inert under further cycles
            return np.full(n.shape, -norm_k * s * (1.0 - c * lam), dtype=complex)
        m_j2, m_j3 = (m.value(n, table.nu1) for m in table.elements[idx - 5][1:])  # row of |01>, |10> or |11>
        return norm_k * (m_j2 * (c - lam) ** 2 - s * m_j3 * (c - lam))
    n_prime = np.asarray(n_prime)
    if n_prime.ndim == 0:  # a scalar n' gives a scalar
        return evaluate(n_prime)
    flat = n_prime.reshape(-1)  # a view when n' is contiguous
    return _blockwise(lambda lo, hi: evaluate(flat[lo:hi]), flat.size).reshape(n_prime.shape)


# ----------------------------------------------------------------------------
# Chains of cycles linked by one probe qubit


def chain_evolve(nets, acyclic_state, initial_states, n_prime: int) -> np.ndarray:
    """Joint state of q linked cycles after the probe passes all of them plus n' cycles.

    The probe qubit couples to cycle j (j = 1..q) through a controlled-Not
    after that cycle has completed j iterations; every cycle runs n' + q
    iterations in total.  The joint state orders factors as
    probe (x) cycle_q (x) ... (x) cycle_1, and the returned vector has
    dimension 2·4^q.
    """
    nets, initial_states = list(nets), list(initial_states)
    q = len(nets)
    if not 1 <= q <= 4:
        raise ValueError(f"nets must hold 1 to 4 linked cycles, got {q}")
    for j, net in enumerate(nets):
        if net.qubits != 2:
            raise ValueError(f"nets[{j}] must be a two-qubit cycle, got {net.qubits} qubit(s)")
    if len(initial_states) != q:
        raise ValueError(f"initial_states must hold one state per cycle, got {len(initial_states)} for {q} cycles")
    initial_states = [check_state(s, f"initial_states[{j}]", 4) for j, s in enumerate(initial_states)]
    probe = check_state(acyclic_state, "acyclic_state", 2)
    check_integer(n_prime, "n_prime")
    links = [(net, psi, j, n_prime + q - j) for j, (net, psi) in enumerate(zip(nets, initial_states), start=1)]
    return _probe_controlled(probe, SIGMA_X, links)


def nu1_to_phi(nu1: float) -> float:
    """Angle phi of the rotation pair whose nontrivial eigenphase equals nu1.

    Solves cos nu1 = (tr - 1)/2 with tr = cos^2 phi + 2 cos phi by bisection
    on (0, pi), where the trace is monotone decreasing.
    """
    if not 0.0 < check_real(nu1, "nu1") < np.pi:
        raise ValueError(f"nu1 must lie strictly inside (0, pi), got {nu1}")
    target = 2.0 * np.cos(nu1) + 1.0  # required trace value

    def residual(phi: float) -> float:
        return alternating_pair_trace(0.0, phi).real - target

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
