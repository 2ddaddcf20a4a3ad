"""Dense complex linear algebra for small unitary systems.

Everything operates on plain numpy arrays: unitaries are (d, d) complex
matrices over the lexicographic binary basis (leftmost digit = topmost
qubit line), states are (d,) complex vectors.  The dense eigendecomposition
here is the brute-force oracle that all closed-form spectral results are
validated against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Numerical tolerances: every threshold the package compares a magnitude with.
UNITARY_TOL = 1e-10  # largest entry of U†U − I accepted as unitary
STATE_TOL = 1e-10  # largest |‖v‖ − 1| accepted as a normalized state
MEMBERSHIP_TOL = 1e-10  # group tests: inert-|00> row/column, real block, det 1, orthogonality
ROOT_TOL = 1e-8  # closed-form roots: largest |‖λ‖ − 1|, smallest separation for cofactor vectors
CANCEL_RATIO = 1e-3  # Cardano w cancelled: |w| below this share of |q/2| tries the conjugate branch first
ZERO_TOL = 1e-12  # a Cardano intermediate, cofactor norm or eigenvector entry (Schur tie-break) counts as 0
TRACE_SLACK = 1e-9  # slack on the real-trace range [-1, 3] of a rotation block
GIMBAL_TOL = 1e-9  # sine of the middle Euler angle below which extraction takes the gimbal case
TABLE_SINGULAR_TOL = 1e-6  # distance from sin phi = 0 or cos phi = -1 where the power table is singular
DEMO_FIDELITY_TOL = 1e-9  # CLI memory demo: largest fidelity shortfall from 1
DEMO_RESIDUAL_TOL = 1e-10  # CLI sensor, chain and memory demos: probability, norm, branch or spectral-power residual
POWER_ERROR_PER_CYCLE = 2.0**-48  # 16·eps: growth per cycle of a cycle power's error, so a U^n bound is tol + n·this
DEMO_ESTIMATE_TOL = 1e-12  # CLI phase-estimation demo: largest error of the t-bit estimate


def as_matrix(u) -> np.ndarray:
    """Coerce to a square complex matrix."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    return u


def unitarity_defect(u) -> float:
    """Largest absolute entry of U†U − I."""
    u = as_matrix(u)
    gram = u.conj().T @ u
    gram.ravel()[:: u.shape[0] + 1] -= 1.0  # the diagonal of the fresh C-ordered product
    return float(np.abs(gram).max())


def check_unitary(u, name: str, dim: int | None = None) -> np.ndarray:
    """Return u as a complex ndarray, raising ValueError naming the field unless it is a finite (dim x dim) unitary."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or dim not in (None, u.shape[0]):
        raise ValueError(f"{name} must be a {'square' if dim is None else f'{dim}x{dim}'} matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:  # a non-finite entry makes the defect NaN or inf
        if not np.isfinite(u).all():
            raise ValueError(f"{name} must be finite, got non-finite entries")
        raise ValueError(f"{name} must be unitary, got defect {defect:.3e} > {UNITARY_TOL:.1e}")
    return u


def is_block_form(g: np.ndarray) -> bool:
    """Whether |00> is inert: the first row and column equal e1 within MEMBERSHIP_TOL."""
    edge = np.concatenate((g[0, :], g[1:, 0]))
    edge[0] -= 1.0
    return bool(np.abs(edge).max() <= MEMBERSHIP_TOL)


def check_block_form(g) -> np.ndarray:
    """Return g as an ndarray, raising ValueError unless it is a block-form 4x4 unitary."""
    g = check_unitary(g, "g", 4)
    if not is_block_form(g):
        raise ValueError("g must have the inert-|00> block form")
    return g


def check_state(v, name: str, dim: int) -> np.ndarray:
    """Return v as a complex ndarray, raising ValueError naming the field unless it is a dim-entry unit vector."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (dim,):
        raise ValueError(f"{name} must have {dim} entries, got shape {v.shape} (dimension mismatch)")
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= STATE_TOL:  # a non-finite amplitude makes the norm NaN or inf
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got non-finite amplitudes")
        raise ValueError(f"{name} must be a unit vector, got |norm - 1| = {abs(norm - 1):.3e}")
    return v


def check_integer(value, name: str, low=0, high=np.inf) -> None:
    """Raise ValueError naming the field unless value is an int or np.integer (not bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= int(value) <= high:  # int(): a numpy integer compares with inf about 15x slower
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


def check_real(value, name: str, low=-np.inf, high=np.inf) -> float:
    """Return value as a float, raising ValueError naming the field unless it is a finite int or float in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number (int or float), got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not low <= x <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return x


def check_angles(names: tuple[str, ...], *angles) -> None:
    """Raise ValueError naming the first of the angles that is not a finite int or float; a bool is neither."""
    try:  # one test for all; an overflowed finite sum passes below
        if math.isfinite(sum(angles)) and bool not in map(type, angles):
            return
    except TypeError:  # an angle that is no number
        pass
    for name, angle in zip(names, angles):
        check_real(angle, f"argument {name!r}")


def basis_state(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> of the given dimension."""
    check_integer(index, "index", 0, dim - 1)  # a bool index would set every entry
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def matrix_power_direct(u, n: int) -> np.ndarray:
    """U^n by repeated multiplication (binary exponentiation), n >= 0.

    Serves as the order-n oracle for the spectral power route.
    """
    u = as_matrix(u)
    check_integer(n, "n")
    return np.linalg.matrix_power(u, n)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenphases and eigenvectors of a unitary.

    phases[k] in (-pi, pi] and vectors[:, k] satisfy U·v = exp(i·phase)·v.
    normalizations carries the 1/norm factors of formula-built eigenvectors
    when the spectrum came from a closed-form construction, else None.
    """

    phases: np.ndarray
    vectors: np.ndarray
    normalizations: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.phases)


# The complex Schur factorization scipy.linalg.schur runs, called without its Python wrapper.
_ZGEES = scipy.linalg.get_lapack_funcs("gees", dtype=complex)


def _no_sort(x):
    """zgees's eigenvalue-selection callback, never called when sort_t is 0."""


@functools.cache
def _schur_lwork(dim: int) -> int:
    """Optimal zgees workspace for a dim x dim matrix, which scipy would otherwise query on every call."""
    return int(_ZGEES(_no_sort, np.eye(dim, dtype=complex), lwork=-1)[-2][0].real)


def dense_eigendecomposition(u) -> Spectrum:
    """Full eigendecomposition of a unitary via the complex Schur form.

    Eigenphases are returned ascending in (-pi, pi]; ties are broken by the
    phase of each (canonicalized) eigenvector's leading nonzero entry.  The
    Schur route keeps eigenvectors orthonormal even for degenerate spectra.
    """
    u = check_unitary(u, "u")  # finite from here on, so zgees need not check again
    t, _, _, z, _, info = _ZGEES(_no_sort, u, lwork=_schur_lwork(u.shape[0]))
    # scipy.linalg.schur's checks; with no sorting, info > 0 means the QR iteration failed.
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    phases = np.angle(np.diag(t))
    # Rotate each column's global phase so its largest-magnitude entry is real positive.
    cols = np.arange(u.shape[0])
    lead = z[np.abs(z).argmax(axis=0), cols]
    vectors = z * (lead.conj() / np.hypot(lead.real, lead.imag))  # |lead| >= 1/sqrt(dim) in a unit column
    # Order by phase, ties broken by the phase of each vector's leading nonzero entry.
    nonzero = np.abs(vectors) > ZERO_TOL
    leading = np.where(nonzero.any(axis=0), np.angle(vectors[nonzero.argmax(axis=0), cols]), 0.0)
    order = np.lexsort((leading, phases))
    return Spectrum(phases=phases[order], vectors=vectors[:, order])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix."""
    x = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(x)
    d = np.diag(r)
    return q * (d / np.abs(d))
