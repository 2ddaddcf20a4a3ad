"""Core vector/matrix operations, the dense eigendecomposition oracle and the tolerance table."""

import pathlib
import re

import numpy as np
import pytest

from cyclonet import linalg
from cyclonet import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DegenerateSpectrumError,
    classify,
    compile_cycle,
    extract_so3_angles,
    real_trace_eigenvalues,
    so3_example_closed_form,
    control_down_matrix,
    dense_eigendecomposition,
    matrix_power_direct,
    alternating_pair_network,
    basis_state,
    unitarity_defect,
)

from helpers import haar_unitary


class TestMatrixPowerDirect:
    def test_zeroth_power(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_direct(u, 0), np.eye(4), atol=1e-15)

    def test_first_power(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_direct(u, 1), u, atol=1e-15)

    def test_eighth_of_a_turn_has_order_eight(self):
        g = control_down_matrix(0.0, np.pi / 4, 0.0, 0.0)
        np.testing.assert_allclose(matrix_power_direct(g, 8), np.eye(4), atol=1e-12)

    def test_large_power_stays_unitary(self):
        rng = np.random.default_rng(2)
        u = haar_unitary(4, rng)
        assert unitarity_defect(matrix_power_direct(u, 10**6)) < 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            matrix_power_direct(np.eye(2), -1)


class TestDenseEigendecomposition:
    def test_identity(self):
        spec = dense_eigendecomposition(np.eye(4))
        np.testing.assert_allclose(spec.phases, np.zeros(4), atol=1e-12)

    def test_diagonal_signs(self):
        spec = dense_eigendecomposition(np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(np.sort(spec.phases), [0.0, 0.0, np.pi, np.pi], atol=1e-12)

    def test_half_turn_pair_gives_third_turn_phases(self):
        # Zero block trace: nontrivial eigenphases are +-2pi/3 alongside two zeros.
        g = compile_cycle(alternating_pair_network(np.pi / 2))
        spec = dense_eigendecomposition(g)
        expected = np.sort([-2 * np.pi / 3, 0.0, 0.0, 2 * np.pi / 3])
        np.testing.assert_allclose(np.sort(spec.phases), expected, atol=1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            dense_eigendecomposition(np.ones((3, 3)))

    @pytest.mark.parametrize(
        "info, error, message",
        [
            (1, np.linalg.LinAlgError, "Schur form not found"),
            (4, np.linalg.LinAlgError, "Schur form not found"),
            (-2, ValueError, "illegal value in 2-th argument"),
        ],
    )
    def test_failed_schur_raises_like_scipy(self, monkeypatch, info, error, message):
        # zgees reports a QR iteration that did not converge with 0 < info <= n
        # and a bad argument with info < 0; scipy.linalg.schur raises these.
        zgees = linalg._ZGEES

        def failing_zgees(*args, **kwargs):
            return (*zgees(*args, **kwargs)[:-1], info)

        monkeypatch.setattr(linalg, "_ZGEES", failing_zgees)
        with pytest.raises(error, match=message):
            dense_eigendecomposition(np.eye(4))

    def test_phases_sorted_and_unimodular(self):
        rng = np.random.default_rng(7)
        for dim in (2, 3, 4, 8):
            u = haar_unitary(dim, rng)
            spec = dense_eigendecomposition(u)
            assert np.all(np.diff(spec.phases) >= -1e-15)
            assert np.all(spec.phases > -np.pi - 1e-12) and np.all(spec.phases <= np.pi + 1e-12)
            assert np.max(np.abs(np.abs(spec.eigenvalues()) - 1.0)) < 1e-9

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 8, 64):
            u = haar_unitary(dim, rng)
            spec = dense_eigendecomposition(u)
            v = spec.vectors
            np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)
            rebuilt = (v * spec.eigenvalues()) @ v.conj().T
            assert np.max(np.abs(rebuilt - u)) < 1e-9

    def test_reconstruction_large_dimension(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(256, rng)
        spec = dense_eigendecomposition(u)
        rebuilt = (spec.vectors * spec.eigenvalues()) @ spec.vectors.conj().T
        assert np.max(np.abs(rebuilt - u)) < 1e-9

    def test_degenerate_subspace_still_orthonormal(self):
        # Block form with a doubly degenerate unit eigenvalue.
        g = compile_cycle(alternating_pair_network(1.2))
        spec = dense_eigendecomposition(g)
        v = spec.vectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)

    def test_one_qubit_unit_determinant_phases_are_conjugate(self):
        # det-1 single-qubit cycles carry eigenphases +-nu.
        rng = np.random.default_rng(11)
        from cyclonet import CyclicNetwork, SingleQubit

        for _ in range(25):
            a, p, b = rng.uniform(-np.pi, np.pi, 3)
            net = CyclicNetwork(1, (SingleQubit(1, a, p, b, 0.0),))
            spec = dense_eigendecomposition(compile_cycle(net))
            assert abs(spec.phases[0] + spec.phases[1]) < 1e-10

    def test_power_matches_spectral_reconstruction(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            dim = int(rng.choice([2, 4, 8]))
            u = haar_unitary(dim, rng)
            n = int(rng.integers(0, 10_001))
            spec = dense_eigendecomposition(u)
            rebuilt = (spec.vectors * np.exp(1j * n * spec.phases)) @ spec.vectors.conj().T
            assert np.max(np.abs(rebuilt - matrix_power_direct(u, n))) < 1e-8


class TestInputChecks:
    @pytest.mark.parametrize("index", [True, 1.5, -1, 4])
    def test_basis_index_must_be_an_integer_in_range(self, index):
        with pytest.raises(ValueError, match="^index must"):
            basis_state(4, index)

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "a number"),
            (np.bool_(False), "a number"),
            (None, "a number"),
            ("0.5", "a number"),
            (0.5j, "a number"),
            (float("nan"), "finite"),
            (np.float32("-inf"), "finite"),
            (10**400, "finite"),
            (3.5, r"lie in \[-1, 3\]"),
        ],
        ids=["True", "numpy bool", "None", "str", "complex", "nan", "float32 -inf", "10**400", "out of range"],
    )
    def test_check_real_refuses_by_name(self, value, message):
        with pytest.raises(ValueError, match=f"^x must (be )?{message}"):
            linalg.check_real(value, "x", -1, 3)

    @pytest.mark.parametrize("value", [0, -1, 3, np.int64(2), 0.25, np.float32(-0.5)])
    def test_check_real_returns_a_float(self, value):
        result = linalg.check_real(value, "x", -1, 3)
        assert type(result) is float and result == value

    def test_dense_eigendecomposition_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dense_eigendecomposition(np.full((4, 4), np.nan))

    def test_compile_cycle_rejects_non_finite_product(self, monkeypatch):
        # A NaN defect compares false with any tolerance; the check must still fail.
        import cyclonet.gates

        monkeypatch.setattr(cyclonet.gates, "gate_matrix", lambda gate, qubits: np.full((4, 4), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            compile_cycle(alternating_pair_network(0.5))


def _inside(call, *args, error=ValueError) -> bool:
    """Whether call(*args) returns instead of raising error."""
    try:
        call(*args)
    except error:
        return False
    return True


def _rotation(i: int, j: int, t: float) -> np.ndarray:
    """3x3 rotation by t in the plane of axes i and j."""
    r = np.eye(3)
    r[i, i] = r[j, j] = np.cos(t)
    r[i, j], r[j, i] = -np.sin(t), np.sin(t)
    return r


# Each tolerance, a probe telling whether an input of size x lies inside it, and a size written as a literal, a few
# hundred times today's value, that must lie outside: the probes at 0.5x and 2x pin where the constant is used, and
# the literal pins its size.
TOLERANCE_PROBES = [
    # The unitarity defect of diag(sqrt(1 + x), 1) is x.
    ("UNITARY_TOL", lambda x: _inside(linalg.check_unitary, np.diag([np.sqrt(1.0 + x), 1.0]), "u"), 3e-8),
    # |norm - 1| of (1 + x, 0) is x.
    ("STATE_TOL", lambda x: _inside(linalg.check_state, [1.0 + x, 0.0], "v", 2), 3e-8),
    # ControlDown(alpha=x) leaves an active block whose imaginary part is sin x; read as real it is SO3, not SU3.
    ("MEMBERSHIP_TOL", lambda x: classify(CyclicNetwork(2, (ControlDown(alpha=x),))).tag == "SO3", 3e-8),
    ("TRACE_SLACK", lambda x: _inside(real_trace_eigenvalues, 3.0 + x), 3e-7),
    # A middle Euler angle of x: inside, extraction takes the gimbal case and sets the third angle to 0.
    ("GIMBAL_TOL", lambda x: extract_so3_angles(_rotation(0, 2, 0.4) @ _rotation(1, 2, x) @ _rotation(0, 2, 0.3))[2] == 0.0, 3e-7),
    # sin phi = x: inside, the power table is singular.
    ("TABLE_SINGULAR_TOL", lambda x: not _inside(so3_example_closed_form, x, error=DegenerateSpectrumError), 3e-4),
]


@pytest.mark.parametrize("name, inside, far", TOLERANCE_PROBES, ids=[row[0] for row in TOLERANCE_PROBES])
def test_tolerance_admits_half_refuses_twice(name, inside, far):
    tol = getattr(linalg, name)
    assert inside(0.5 * tol)
    assert not inside(2.0 * tol)
    assert not inside(far)


def test_trace_slack_admits_a_compiled_trace_rounded_past_three():
    # Two cancelling pairs compile to the identity block, whose trace rounds to 3.0000000000000004.
    net = CyclicNetwork(2, (ControlDown(phi=-1.47), ControlUp(phi=-0.33), ControlUp(phi=0.33), ControlDown(phi=1.47)))
    trace = np.trace(compile_cycle(net)[1:, 1:]).real
    assert trace > 3.0
    assert np.allclose(real_trace_eigenvalues(trace), 1.0)
    with pytest.raises(ValueError, match="^argument 'trace' must lie in"):
        real_trace_eigenvalues(3.0 + 2.0 * linalg.TRACE_SLACK)


def _readme_tolerances() -> dict[str, float]:
    """README's "Numerical tolerances" table: each constant's written value, from its third column."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    values = {}
    for line in text.split("## Numerical tolerances", 1)[1].split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            name, _, value = (cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:4])  # "\|" is no cell border
            base, _, exponent = value.split(" = ")[0].partition("^")  # "2^-48 = 16·eps" is written 2^-48
            values[name.strip("`")] = float(base) ** float(exponent) if exponent else float(base)
    return values


def test_readme_tolerance_table_matches_linalg():
    names = re.findall(r"^([A-Z][A-Z_]*) = ", pathlib.Path(linalg.__file__).read_text(encoding="utf-8"), re.M)
    written = _readme_tolerances()
    assert sorted(written) == sorted(names)
    assert {name: getattr(linalg, name) for name in names} == written
