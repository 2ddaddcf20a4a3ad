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
import math
from dataclasses import dataclass

import numpy as np

from .gates import alternating_pair_network, compile_cycle
from .linalg import CANCEL_RATIO, ROOT_TOL, TRACE_SLACK, ZERO_TOL, check_real
from .linalg import Spectrum, check_block_form, check_unitary, dense_eigendecomposition

log = logging.getLogger(__name__)

THIRD_TURN = 2.0 * np.pi / 3.0
# e^{2 pi i k/3} for the Cardano branches k = 0, 1, 2.  u0 * _THIRD_TURNS stays one
# array product: numpy's vectorized complex multiply rounds unlike a scalar one.
_THIRD_TURNS = np.exp(2j * np.pi * np.arange(3) / 3.0)


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


def _npy_quot(a: complex, b: complex) -> complex:
    """a / b rounded as numpy's complex division rounds it, for b != 0.

    numpy uses Smith's method with a reciprocal: a / 27.0 is
    (re + im·0)·(1/27).  Python's own complex division divides by the
    denominator instead, so its last bit differs.
    """
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _npy_powers(z: complex) -> tuple[complex, complex]:
    """z**2 and z**3 as numpy's complex power computes them: z·z and z·(z·z), or 0 for z = 0.

    Python's z**n multiplies by 1 + 0j first, which can flip the sign of a zero part.
    """
    if not z:
        return 0j, 0j
    square = z * z
    return square, z * square


def _cardano(a1: complex, a2: complex, a3: complex) -> CubicCoefficients:
    """Depressed-cubic intermediates q, p and the Cardano radicand root w.

    Every operation rounds as numpy's scalar arithmetic does: real constants
    enter as complex numbers (9 + 0j), and powers and divisions go through
    _npy_powers and _npy_quot.
    """
    a1_squared, a1_cubed = _npy_powers(a1)
    q = _npy_quot((9 + 0j) * a1 * a2 - (27 + 0j) * a3 - (2 + 0j) * a1_cubed, 27.0)
    p = _npy_quot((3 + 0j) * a2 - a1_squared, 3.0)
    radicand = _npy_quot(q * q, 4.0) + _npy_quot(_npy_powers(p)[1], 27.0)
    w = _npy_quot(q, 2.0) + complex(np.sqrt(radicand))
    return CubicCoefficients(a1, a2, a3, q, p, w)


def _block_cubic(m: np.ndarray, rows: list) -> CubicCoefficients:
    """The cubic of the 3x3 block m, whose entries rows holds as Python complex numbers."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    a1 = -(0j + m00 + m11 + m22)  # np.trace's sum, which starts from +0
    a2 = (m11 * m22 - m12 * m21) + (m00 * m22 - m02 * m20) + (m00 * m11 - m01 * m10)
    return _cardano(a1, a2, -complex(np.linalg.det(m)))


def cubic_coefficients(m) -> CubicCoefficients:
    """Characteristic-cubic coefficients of a 3x3 unitary block.

    a1 = -tr M, a2 = sum of principal 2x2 minors, a3 = -det M, with the
    depressed-cubic intermediates q, p and the Cardano radicand root w.
    """
    m = check_unitary(m, "m", 3)
    return _block_cubic(m, m.tolist())


def _cardano_roots(w: complex, p: complex, a1: complex) -> list[complex]:
    """The three roots lambda_k = u_k - p/(3 u_k) - a1/3 with u_k = w^{1/3} e^{2 pi i k/3}."""
    u0 = complex(w) ** (1.0 / 3.0)  # principal branch, argument in (-pi/3, pi/3]
    shift = a1 / 3.0  # Python's division, not _npy_quot: the pinned digests carry its rounding
    return [u - _npy_quot(p, (3 + 0j) * u) - shift for u in (u0 * _THIRD_TURNS).tolist()]


def _unimodular(roots: list[complex]) -> bool:
    return all(abs(abs(r) - 1.0) < ROOT_TOL for r in roots)


def solve_cubic(coeffs: CubicCoefficients) -> np.ndarray:
    """Roots of the characteristic cubic, in Cardano branch order (k = 0, 1, 2).

    For coefficients of a unitary block every root must be unimodular; if
    the principal square-root branch spoils that, the conjugate branch is
    tried, and a still-failing or vanishing-w case raises
    DegenerateSpectrumError so callers can fall back to the dense oracle.
    A w whose two terms cancelled (|w| < CANCEL_RATIO·|q/2|) keeps few
    correct digits, so the conjugate branch is then tried first.
    """
    if abs(coeffs.w) < ZERO_TOL:
        if abs(coeffs.p) < ZERO_TOL:
            # Triple root.
            return np.full(3, -coeffs.a1 / 3.0, dtype=complex)
        raise DegenerateSpectrumError("vanishing Cardano radicand with nonzero depressed coefficient")
    cancelled = abs(coeffs.w) < CANCEL_RATIO * abs(coeffs.q / 2.0)
    for conjugate in (cancelled, not cancelled):
        w = coeffs.w
        if conjugate:  # Python's divisions and powers, as for a1 / 3 in _cardano_roots
            w = coeffs.q / 2.0 - complex(np.sqrt(complex(coeffs.q**2 / 4.0 + coeffs.p**3 / 27.0)))
        if abs(w) >= ZERO_TOL:
            roots = _cardano_roots(w, coeffs.p, coeffs.a1)
            if _unimodular(roots):
                return np.array(roots)
    raise DegenerateSpectrumError("both Cardano branches produced non-unimodular roots")


def real_trace_eigenvalues(trace: float) -> np.ndarray:
    """Roots {1, e^{i nu}, e^{-i nu}} with cos nu = (tr - 1)/2, for real trace in [-1, 3]."""
    trace = check_real(trace, "argument 'trace'", -1.0 - TRACE_SLACK, 3.0 + TRACE_SLACK)
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
    rows = check_block_form(g)[1:, 1:].tolist()
    lams = np.asarray(eigenvalues, dtype=complex)
    if not np.isfinite(lams).all():
        raise ValueError(f"eigenvalues must be finite, got {eigenvalues!r}")
    return _cofactor_eigenstates(rows, lams)


def _cofactor_eigenstates(rows: list, eigenvalues) -> Spectrum:
    """Cofactor eigenstates of the 3x3 block whose entries rows holds as Python complex numbers."""
    lams = np.asarray(eigenvalues, dtype=complex)
    if lams.shape != (3,):
        raise ValueError("expected exactly three block eigenvalues")
    values = lams.tolist()
    for i in range(3):
        for j in range(i + 1, 3):
            if abs(values[i] - values[j]) <= ROOT_TOL:
                raise DegenerateSpectrumError(
                    f"eigenvalues {i} and {j} within {ROOT_TOL:.1e}; cofactor vectors degenerate"
                )
    (m00, m01, m02), (m10, m11, m12), _ = rows
    raw = np.array(
        [
            [
                0j,
                -m02 * (m11 - lam) + m01 * m12,
                -m12 * (m00 - lam) + m10 * m02,
                (m11 - lam) * (m00 - lam) - m10 * m01,
            ]
            for lam in values
        ]
    )
    # One ddot per part of each vector, as np.linalg.norm takes it; a sum over an axis rounds differently.
    norm = [math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) for v in raw]
    for k in range(3):
        if norm[k] < ZERO_TOL:
            raise DegenerateSpectrumError(f"cofactor vector vanished for eigenvalue index {k}")
    vectors = np.zeros((4, 4), dtype=complex)
    np.divide(raw.T, norm, out=vectors[:, :3])
    vectors[0, 3] = 1.0  # inert |00> eigenstate, eigenvalue exactly 1
    norms = np.array([1.0 / norm[0], 1.0 / norm[1], 1.0 / norm[2], 1.0])
    phases = np.zeros(4)
    phases[:3] = np.angle(lams)
    return Spectrum(phases=phases, vectors=vectors, normalizations=norms)


def spectrum_closed_form(g) -> Spectrum:
    """Spectrum of a block-form cycle via the cubic + cofactor route.

    On a degenerate spectrum it falls back to the dense eigendecomposition
    (the reason is logged at DEBUG); solve_cubic and block_form_eigenstates
    raise instead.
    """
    g = check_block_form(g)
    m = g[1:, 1:]
    rows = m.tolist()
    try:
        return _cofactor_eigenstates(rows, solve_cubic(_block_cubic(m, rows)))
    except DegenerateSpectrumError as exc:
        log.debug("closed-form spectrum degenerate (%s); falling back to dense oracle", exc)
        return dense_eigendecomposition(g)


# ----------------------------------------------------------------------------
# Shared-angle alternating pair: ControlUp(alpha,phi,beta) . ControlDown(alpha,phi,beta)


def alternating_pair_trace(alpha: float, phi: float) -> complex:
    """Active-block trace e^{-2i alpha} cos^2 phi + 2 e^{i alpha} cos phi."""
    try:
        finite = math.isfinite(alpha + phi)  # one test for both; an overflowed finite sum passes below
    except TypeError:  # an angle that is no number
        finite = False
    if not finite:
        check_real(alpha, "argument 'alpha'")
        check_real(phi, "argument 'phi'")
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
    coeffs = _cardano(-a, a.conjugate(), -1.0 + 0.0j)
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
    trace = alternating_pair_trace(alpha, phi)  # first: it names a bad angle
    lams = np.array(
        [
            alternating_pair_root(alpha - k * THIRD_TURN, phi) * np.exp(1j * k * THIRD_TURN)
            for k in range(3)
        ],
        dtype=complex,
    )
    return AlternatingPairAnalysis(trace, lams)
