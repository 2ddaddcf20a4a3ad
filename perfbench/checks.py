"""Independent oracles the benchmark checks the program's outputs against.

Nothing here calls the library's numerics: gate matrices are rebuilt from
their textbook definitions, powers come from `np.linalg.matrix_power` and
eigenvalues from `np.linalg.eigvals`.
"""

from __future__ import annotations

import hashlib
import itertools
import re

import numpy as np

from cyclonet import ControlDown, ControlUp, DiagonalLayer, SingleQubit, TwoLevel

EIGEN_TOL = 1e-8  # eigenvalue multisets, closed form vs oracle
# nu0-sweep rows: near a root collision the alternating-pair closed form
# keeps about half the digits (its docstring); the default grid's worst row
# is 1.5e-8 off at the seed commit.
FIGURE_TOL = 1e-7
SERIES_TOL = 1e-9  # pert-series rows against the 8-dim operator power
FIDELITY_TOL = 1e-9
NORM_TOL = 1e-10
COMPILE_TOL = 1e-12
MAX_APPLICATIONS_PER_READ = 4
EPS = float(np.finfo(float).eps)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

# The nu0-sweep figure's default grid, as the CLI documents it.
NU0_ALPHAS = np.sort(np.pi * np.array([0.0, 1 / 6, -1 / 6, 1 / 4, -1 / 4, 1 / 3, -1 / 3, 1 / 2, -1 / 2]))
NU0_GRID_STEP = 0.01

NUMBER = r"-?\d\.\d{12}e[+-]\d{2,3}"
NU0_ROW = re.compile(rf"{NUMBER},{NUMBER},{NUMBER}")
SERIES_ROW = re.compile(rf"(\d+),({NUMBER}),({NUMBER}),({NUMBER}),({NUMBER}),({NUMBER})")


def power_tol(n: int) -> float:
    """Allowed max-entry error of U^n from a Schur spectrum against repeated squaring.

    An eigenphase error d becomes an error of about n * d in U^n; the Schur
    oracle's powers stay within 4 n eps at the seed commit.
    """
    return 1e-10 + 64.0 * EPS * n


def u2(alpha: float, phi: float, beta: float, delta: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.exp(1j * delta) * np.array(
        [[np.exp(1j * alpha) * c, np.exp(1j * beta) * s], [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c]]
    )


def _embed(block: np.ndarray, levels: tuple[int, int]) -> np.ndarray:
    g = np.eye(4, dtype=complex)
    g[np.ix_(levels, levels)] = block
    return g


def reference_gate(gate) -> np.ndarray:
    """4x4 matrix of one two-qubit-network gate, from its definition."""
    if isinstance(gate, ControlDown):
        return _embed(u2(gate.alpha, gate.phi, gate.beta, gate.delta), (2, 3))
    if isinstance(gate, ControlUp):
        return _embed(u2(gate.alpha, gate.phi, gate.beta, gate.delta), (1, 3))
    if isinstance(gate, DiagonalLayer):
        return np.diag(np.exp(1j * np.asarray(gate.gammas, dtype=float)))
    if isinstance(gate, SingleQubit):
        w = u2(gate.alpha, gate.phi, gate.beta, gate.delta)
        return np.kron(w, EYE2) if gate.line == 1 else np.kron(EYE2, w)
    if isinstance(gate, TwoLevel):
        g = _embed(u2(0.0, gate.phi, gate.beta, 0.0), (gate.p - 1, gate.r - 1))
        d = np.ones(4, dtype=complex)
        d[gate.p - 1] = np.exp(1j * gate.gamma_p)
        d[gate.r - 1] = np.exp(1j * gate.gamma_r)
        return d[:, None] * g
    raise TypeError(f"no reference matrix for {gate!r}")


def reference_cycle(net) -> np.ndarray:
    """Per-cycle unitary: the first gate encountered acts first."""
    u = np.eye(4, dtype=complex)
    for gate in net.gates:
        u = reference_gate(gate) @ u
    return u


def pair_cycle(alpha: float, phi: float) -> np.ndarray:
    """ControlUp(alpha, phi, 0) . ControlDown(alpha, phi, 0), the shared-angle alternating pair."""
    gate = u2(alpha, phi, 0.0, 0.0)
    return _embed(gate, (1, 3)) @ _embed(gate, (2, 3))


_PERMS = {n: np.array(list(itertools.permutations(range(n)))) for n in (3, 4)}


def multiset_deviation(a, b) -> float:
    """Smallest max deviation between two eigenvalue multisets of equal size."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.min(np.max(np.abs(a[None, :] - b[_PERMS[a.size]]), axis=1)))


def nu1_phi(nu1: float) -> float:
    """phi with cos^2 phi + 2 cos phi = 1 + 2 cos nu1, phi in (0, pi)."""
    return float(np.arccos(-1.0 + np.sqrt(2.0 + 2.0 * np.cos(nu1))))


def scan_csv(path, sample_rows) -> tuple[list[str], dict[int, str], int, int, str]:
    """Stream a CSV once: leading lines up to the header, sampled data rows, counts and sha256.

    Returns (preamble lines including the header, {row index: line},
    data row count, byte count, sha256 hex digest).
    """
    wanted = set(sample_rows)
    digest = hashlib.sha256()
    preamble: list[str] = []
    sampled: dict[int, str] = {}
    rows = 0
    size = 0
    with open(path, "rb") as fh:
        in_preamble = True
        for raw in fh:
            digest.update(raw)
            size += len(raw)
            if in_preamble:
                line = raw.decode("utf-8").rstrip("\n")
                preamble.append(line)
                in_preamble = line.startswith("#")
                continue
            if rows in wanted:
                sampled[rows] = raw.decode("utf-8").rstrip("\n")
            rows += 1
    return preamble, sampled, rows, size, digest.hexdigest()
