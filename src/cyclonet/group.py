"""Group classification and constructive decompositions of cycle unitaries.

Classification reports the smallest matrix group containing a network's
compiled cycle: U(2)/SU(2)/SO(2) for one loop qubit; for two qubits either
U(3)/SU(3)/SO(3) when the cycle has the inert-|00> block form, else U(4).
The decompositions run the other way: a block-form unitary factors into
four alternating control gates, a real-orthogonal active block into three,
and a general 4x4 unitary into six two-level factors plus a diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    TwoLevel,
    compile_cycle,
    diagonal_matrix,
    two_level_matrix,
)
from .linalg import GIMBAL_TOL, MEMBERSHIP_TOL, check_block_form, check_unitary, is_block_form

# Factor order of the two-level product for a general 4x4 unitary:
# D(g1..g4) . U_{3,4} . U_{2,3} . U_{2,4} . U_{1,2} . U_{1,3} . U_{1,4}
U4_PAIR_ORDER = ((3, 4), (2, 3), (2, 4), (1, 2), (1, 3), (1, 4))


@dataclass(frozen=True)
class GroupClass:
    """Smallest containing group, with an optional structural note."""

    tag: str  # one of SO2, SU2, U2, SO3, SU3, U3, U4
    note: str | None = None

    def __str__(self) -> str:
        return f"{self.tag} ({self.note})" if self.note else self.tag


def _is_real(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m.imag)) <= MEMBERSHIP_TOL)


def _is_unimodular(m: np.ndarray) -> bool:
    return bool(abs(np.linalg.det(m) - 1.0) <= MEMBERSHIP_TOL)


def classify(net: CyclicNetwork) -> GroupClass:
    """Classify a network by the structure of its compiled cycle unitary."""
    u = compile_cycle(net)
    if net.qubits == 1:
        if _is_unimodular(u):
            return GroupClass("SO2") if _is_real(u) else GroupClass("SU2")
        return GroupClass("U2")
    if not is_block_form(u):
        return GroupClass("U4")
    m = u[1:, 1:]
    if not _is_unimodular(m):
        return GroupClass("U3")
    if _is_real(m):
        kinds = {type(g) for g in net.gates}
        single_axis = kinds == {ControlDown} or kinds == {ControlUp}
        return GroupClass("SO3", "single-axis" if single_axis else None)
    return GroupClass("SU3")


# ----------------------------------------------------------------------------
# Two-level elimination helpers


def _givens_parameters(w: np.ndarray, p: int, r: int) -> tuple[float, float]:
    """(phi, beta) such that w @ two_level(p, r, phi, beta)^dagger zeros entry (p, r)."""
    a, b = w[p - 1, p - 1], w[p - 1, r - 1]
    return float(np.arctan2(abs(b), abs(a))), float(np.angle(b) - np.angle(a))


def _eliminate(w: np.ndarray, pairs) -> tuple[list[float], dict[tuple[int, int], tuple[float, float]]]:
    """Zero entry (p, r) of w per pair in turn; return the residual diagonal phases and each (phi, beta)."""
    params = {}
    for p, r in pairs:
        params[(p, r)] = _givens_parameters(w, p, r)
        w = w @ two_level_matrix(p, r, *params[(p, r)]).conj().T
    return [float(np.angle(w[i, i])) for i in range(w.shape[0])], params


def decompose_u3(u) -> list[TwoLevel]:
    """Factor a block-form 4x4 unitary into four alternating extended control gates.

    Returns the gate list in network (encounter) order, so compiling it with
    compile_cycle reproduces the input.  In matrix order the factors are
    U_{3,4}(phi1, beta1, g2, g3) . U_{2,4}(-pi/2, 0, g1, 0)
    . U_{3,4}(phi2, -beta2) . U_{2,4}(phi3 + pi/2, beta3, -beta3, beta3).
    """
    # Eliminate in reverse factor order of D . U_{3,4} . U_{2,3} . U_{2,4}.
    phases, params = _eliminate(check_block_form(u), ((2, 4), (2, 3), (3, 4)))
    g1, g2, g3 = phases[1:]
    phi1, beta1 = params[(3, 4)]
    phi2, beta2 = params[(2, 3)]
    phi3, beta3 = params[(2, 4)]
    matrix_order = [
        TwoLevel(3, 4, phi1, beta1, g2, g3),
        TwoLevel(2, 4, -np.pi / 2.0, 0.0, g1, 0.0),
        TwoLevel(3, 4, phi2, -beta2),
        TwoLevel(2, 4, phi3 + np.pi / 2.0, beta3, -beta3, beta3),
    ]
    return list(reversed(matrix_order))


# ----------------------------------------------------------------------------
# Rotation (SO(3) active block) synthesis and extraction


def synthesize_so3(
    phi1: float, phi2: float, phi3: float, leading: str = "up"
) -> CyclicNetwork:
    """Three alternating single-angle control gates realizing a general rotation.

    For leading='up' the compiled active block is Ry(phi1) Rx(phi2) Ry(phi3)
    over the (|01>, |10>, |11>) axes; 'down' swaps the roles of x and y.
    """
    if leading == "up":
        matrix_order = [ControlUp(phi=phi1), ControlDown(phi=phi2), ControlUp(phi=phi3)]
    elif leading == "down":
        matrix_order = [ControlDown(phi=phi1), ControlUp(phi=phi2), ControlDown(phi=phi3)]
    else:
        raise ValueError(f"leading must be 'up' or 'down', got {leading!r}")
    return CyclicNetwork(2, tuple(reversed(matrix_order)))


def extract_so3_angles(m, leading: str = "up") -> tuple[float, float, float]:
    """Euler-style angles such that synthesize_so3(*angles, leading) compiles to m.

    m is the real orthogonal 3x3 active block (det +1).  The gimbal case
    (middle angle 0 or pi) is resolved by setting the third angle to 0.
    """
    if leading not in ("up", "down"):
        raise ValueError(f"leading must be 'up' or 'down', got {leading!r}")
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 rotation, got {m.shape}")
    if not np.max(np.abs(m.T @ m - np.eye(3))) <= MEMBERSHIP_TOL:  # a non-finite entry fails here, before det
        raise ValueError("m must be a finite orthogonal matrix")
    if not _is_unimodular(m):
        raise ValueError("matrix is not a proper rotation (det != 1)")
    if leading == "down":
        # Rx(phi1) Ry(phi2) Rx(phi3) is the 'up' product with the first two axes swapped.
        m = m[np.ix_((1, 0, 2), (1, 0, 2))]
    # m = Ry(phi1) Rx(phi2) Ry(phi3): middle column/row carry phi2.
    c2 = float(np.clip(m[1, 1], -1.0, 1.0))
    s2 = float(np.hypot(m[1, 0], m[1, 2]))
    phi2 = float(np.arctan2(s2, c2))
    if s2 > GIMBAL_TOL:
        return float(np.arctan2(-m[0, 1], -m[2, 1])), phi2, float(np.arctan2(-m[1, 0], m[1, 2]))
    # Gimbal: rotations about one axis only; the half-turn case flips the
    # third column's sign.
    return float(np.arctan2(np.sign(c2) * m[0, 2], m[0, 0])), phi2, 0.0


# ----------------------------------------------------------------------------
# General 4x4 factorization into two-level rotations


@dataclass(frozen=True)
class U4Parameters:
    """Diagonal phases plus one (phi, theta) rotation per pair in U4_PAIR_ORDER."""

    gammas: tuple[float, float, float, float]
    rotations: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not isinstance(self.gammas, (tuple, list)) or len(self.gammas) != 4:
            raise ValueError(f"U4Parameters field 'gammas' must hold four angles, got {self.gammas!r}")
        if not isinstance(self.rotations, (tuple, list)) or len(self.rotations) != len(U4_PAIR_ORDER):
            raise ValueError(f"U4Parameters field 'rotations' must hold {len(U4_PAIR_ORDER)} pairs, got {self.rotations!r}")
        for i, pair in enumerate(self.rotations):
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise ValueError(f"U4Parameters field 'rotations[{i}]' must be a (phi, theta) pair, got {pair!r}")


def build_u4(params: U4Parameters) -> np.ndarray:
    """Multiply out D(gammas) and the six two-level factors in written order."""
    u = diagonal_matrix(params.gammas)
    for (p, r), (phi, theta) in zip(U4_PAIR_ORDER, params.rotations):
        u = u @ two_level_matrix(p, r, phi, theta)
    return u


def extract_u4_parameters(u) -> U4Parameters:
    """Recover factorization parameters reproducing a 4x4 unitary via build_u4.

    Successive two-level eliminations zero one upper off-diagonal entry per
    factor (in reverse factor order); the residual diagonal gives the phases.
    """
    u = check_unitary(u, "u", 4)
    gammas, rotations = _eliminate(u, reversed(U4_PAIR_ORDER))
    return U4Parameters(tuple(gammas), tuple(rotations[pair] for pair in U4_PAIR_ORDER))
