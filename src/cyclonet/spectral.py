"""Closed-form eigenvalues and eigenstates for control-gate cycle unitaries.

A cycle built purely from control gates has the block form

    G = [[1, 0], [0, M]]

with a 3x3 unitary M acting on |01>,|10>,|11> while |00> is inert.  The
nontrivial eigenvalues solve the characteristic cubic of M; this module
carries the general Cardano solution, the shortcuts for unit-determinant
and real-trace blocks, the cofactor eigenvector formula, and the shifted
root structure of the shared-angle alternating-pair network.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .gates import alternating_pair_network, compile_cycle
from .linalg import ROOT_TOL, TRACE_SLACK, ZERO_TOL
from .linalg import Spectrum, check_block_form, check_unitary, dense_eigendecomposition

log = logging.getLogger(__name__)

THIRD_TURN = 2.0 * np.pi / 3.0


class DegenerateSpectrumError(RuntimeError):
    """Closed-form spectral path cannot proceed; callers may fall back to the dense oracle."""


@dataclass(frozen=True)
class CubicCoefficients:
    """Coefficients of lambda^3 + a1 lambda^2 + a2 lambda + a3 = 0 plus Cardano intermediates."""

    a1: complex
    a2: complex
    a3: complex
    q: complex
    p: complex
    w: complex


def _cardano(a1, a2, a3) -> CubicCoefficients:
    """Depressed-cubic intermediates q, p and the Cardano radicand root w."""
    q = (9.0 * a1 * a2 - 27.0 * a3 - 2.0 * a1**3) / 27.0
    p = (3.0 * a2 - a1**2) / 3.0
    w = q / 2.0 + np.sqrt(complex(q * q / 4.0 + p**3 / 27.0))
    return CubicCoefficients(complex(a1), complex(a2), complex(a3), complex(q), complex(p), complex(w))


def _block_cubic(m: np.ndarray) -> CubicCoefficients:
    a1 = -np.trace(m)
    a2 = (
        (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        + (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0])
        + (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    )
    return _cardano(a1, a2, -np.linalg.det(m))


def cubic_coefficients(m) -> CubicCoefficients:
    """Characteristic-cubic coefficients of a 3x3 unitary block.

    a1 = -tr M, a2 = sum of principal 2x2 minors, a3 = -det M, with the
    depressed-cubic intermediates q, p and the Cardano radicand root w.
    """
    m = check_unitary(m)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 block, got {m.shape}")
    return _block_cubic(m)


def _cardano_roots(w: complex, p: complex, a1: complex) -> np.ndarray:
    """The three roots lambda_k = u_k - p/(3 u_k) - a1/3 with u_k = w^{1/3} e^{2 pi i k/3}."""
    u0 = complex(w) ** (1.0 / 3.0)  # principal branch, argument in (-pi/3, pi/3]
    u = u0 * np.exp(2j * np.pi * np.arange(3) / 3.0)
    return u - p / (3.0 * u) - a1 / 3.0


def solve_cubic(coeffs: CubicCoefficients) -> np.ndarray:
    """Roots of the characteristic cubic, in Cardano branch order (k = 0, 1, 2).

    For coefficients of a unitary block every root must be unimodular; if
    the principal square-root branch spoils that, the conjugate branch is
    tried, and a still-failing or vanishing-w case raises
    DegenerateSpectrumError so callers can fall back to the dense oracle.
    """
    if abs(coeffs.w) < ZERO_TOL:
        if abs(coeffs.p) < ZERO_TOL:
            # Triple root.
            return np.full(3, -coeffs.a1 / 3.0, dtype=complex)
        raise DegenerateSpectrumError("vanishing Cardano radicand with nonzero depressed coefficient")
    roots = _cardano_roots(coeffs.w, coeffs.p, coeffs.a1)
    if np.max(np.abs(np.abs(roots) - 1.0)) < ROOT_TOL:
        return roots
    w_alt = coeffs.q / 2.0 - np.sqrt(complex(coeffs.q**2 / 4.0 + coeffs.p**3 / 27.0))
    if abs(w_alt) >= ZERO_TOL:
        roots = _cardano_roots(w_alt, coeffs.p, coeffs.a1)
        if np.max(np.abs(np.abs(roots) - 1.0)) < ROOT_TOL:
            return roots
    raise DegenerateSpectrumError("both Cardano branches produced non-unimodular roots")


def real_trace_eigenvalues(trace: float) -> np.ndarray:
    """Roots {1, e^{i nu}, e^{-i nu}} with cos nu = (tr - 1)/2, for real trace in [-1, 3]."""
    trace = float(trace)
    if trace < -1.0 - TRACE_SLACK or trace > 3.0 + TRACE_SLACK:
        raise ValueError(f"real trace {trace} outside [-1, 3]")
    radicand = max((3.0 - trace) * (trace + 1.0), 0.0)
    re = (trace - 1.0) / 2.0
    im = np.sqrt(radicand) / 2.0
    return np.array([1.0, re + 1j * im, re - 1j * im], dtype=complex)


def block_form_eigenstates(g, eigenvalues) -> Spectrum:
    """Eigenstates of a block-form 4x4 cycle unitary from the cofactor formula.

    eigenvalues are the three roots of the active block's cubic; the result
    orders the eigenpairs k = 0, 1, 2 followed by the inert |00> state
    (eigenphase exactly 0).  Eigenvector phases follow the cofactor formula
    rather than any canonicalization, so closed-form amplitude expressions
    keep their printed signs.  Raises DegenerateSpectrumError when the roots
    are too close for the cofactor vectors to be reliable.
    """
    return _cofactor_eigenstates(check_block_form(g), eigenvalues)


def _cofactor_eigenstates(g: np.ndarray, eigenvalues) -> Spectrum:
    lams = np.asarray(eigenvalues, dtype=complex)
    if lams.shape != (3,):
        raise ValueError("expected exactly three block eigenvalues")
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(lams[i] - lams[j]) <= ROOT_TOL:
                raise DegenerateSpectrumError(
                    f"eigenvalues {i} and {j} within {ROOT_TOL:.1e}; cofactor vectors degenerate"
                )
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
            raise DegenerateSpectrumError(f"cofactor vector vanished for eigenvalue index {k}")
        norms[k] = 1.0 / norm
        vectors[:, k] = raw / norm
    vectors[0, 3] = 1.0  # inert |00> eigenstate, eigenvalue exactly 1
    phases = np.concatenate([np.angle(lams), [0.0]])
    return Spectrum(phases=phases, vectors=vectors, normalizations=norms)


def spectrum_closed_form(g) -> Spectrum:
    """Spectrum of a block-form cycle via the cubic + cofactor route.

    On a degenerate spectrum it falls back to the dense eigendecomposition
    (the reason is logged at DEBUG); solve_cubic and block_form_eigenstates
    raise instead.
    """
    g = check_block_form(g)
    try:
        return _cofactor_eigenstates(g, solve_cubic(_block_cubic(g[1:, 1:])))
    except DegenerateSpectrumError as exc:
        log.debug("closed-form spectrum degenerate (%s); falling back to dense oracle", exc)
        return dense_eigendecomposition(g)


# ----------------------------------------------------------------------------
# Shared-angle alternating pair: ControlUp(alpha,phi,beta) . ControlDown(alpha,phi,beta)


def alternating_pair_trace(alpha: float, phi: float) -> complex:
    """Active-block trace e^{-2i alpha} cos^2 phi + 2 e^{i alpha} cos phi."""
    c = np.cos(phi)
    return complex(np.exp(-2j * alpha) * c * c + 2.0 * np.exp(1j * alpha) * c)


def alternating_pair_root(alpha: float, phi: float) -> complex:
    """The k = 0 Cardano branch root of the alternating pair's cubic.

    Near a root collision the closed form keeps only about half the digits;
    the branch-0 estimate is then snapped to the closest dense-oracle
    eigenvalue of the compiled pair network.
    """
    # Unit-determinant block: a1 = -tr, a2 = conj(tr), a3 = -1.
    a = alternating_pair_trace(alpha, phi)
    coeffs = _cardano(-a, np.conj(a), -1.0 + 0.0j)
    try:
        return complex(solve_cubic(coeffs)[0])
    except DegenerateSpectrumError:
        estimate = _cardano_roots(coeffs.w, coeffs.p, coeffs.a1)[0]
        g = compile_cycle(alternating_pair_network(phi, alpha=alpha))
        oracle = dense_eigendecomposition(g[1:, 1:]).eigenvalues()
        log.debug(
            "alternating-pair root near-degenerate at alpha=%s phi=%s; snapped to dense oracle",
            alpha,
            phi,
        )
        return complex(oracle[int(np.argmin(np.abs(oracle - estimate)))])


@dataclass(frozen=True, eq=False)
class AlternatingPairAnalysis:
    """Trace and shift-formula eigenvalues of a shared-angle alternating pair."""

    trace: complex
    eigenvalues: np.ndarray  # lambda_k = root0(alpha - 2 pi k/3, phi) e^{2 pi i k/3}


def alternating_su3_analysis(alpha: float, phi: float) -> AlternatingPairAnalysis:
    """Eigenvalues of the alternating pair via the third-turn shift of the k=0 root.

    Each lambda_k is the k = 0 branch evaluated at alpha - 2 pi k/3 and
    rotated by e^{2 pi i k/3}; the multiset agrees with solve_cubic applied
    to the pair's characteristic cubic.
    """
    lams = np.array(
        [
            alternating_pair_root(alpha - k * THIRD_TURN, phi) * np.exp(1j * k * THIRD_TURN)
            for k in range(3)
        ],
        dtype=complex,
    )
    return AlternatingPairAnalysis(alternating_pair_trace(alpha, phi), lams)
