"""Cubic eigenvalue solver, shortcuts, cofactor eigenstates, alternating-pair shifts."""

import logging

import numpy as np
import pytest

from cyclonet import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DegenerateSpectrumError,
    alternating_pair_network,
    alternating_pair_root,
    alternating_pair_trace,
    alternating_su3_analysis,
    block_form_eigenstates,
    compile_cycle,
    cubic_coefficients,
    dense_eigendecomposition,
    real_trace_eigenvalues,
    solve_cubic,
    spectrum_closed_form,
    synthesize_so3,
)

from helpers import eigenvalue_multiset_deviation, random_alternating_network

THIRD_TURN = 2 * np.pi / 3


def block_of(net):
    return compile_cycle(net)[1:, 1:]


class TestCubicCoefficients:
    def test_identity_block(self):
        c = cubic_coefficients(np.eye(3))
        assert abs(c.a1 + 3) < 1e-14 and abs(c.a2 - 3) < 1e-14 and abs(c.a3 + 1) < 1e-14

    def test_unit_determinant_gives_a3_minus_one(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            m = block_of(random_alternating_network(rng, kind="su3"))
            assert abs(cubic_coefficients(m).a3 + 1.0) < 1e-12

    def test_unit_determinant_gives_a2_conjugate_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = block_of(random_alternating_network(rng, kind="su3"))
            c = cubic_coefficients(m)
            assert abs(c.a2 - np.conj(np.trace(m))) < 1e-12


class TestSolveCubic:
    def test_triple_unit_root(self):
        roots = solve_cubic(cubic_coefficients(np.eye(3)))
        np.testing.assert_allclose(roots, np.ones(3), atol=1e-12)

    def test_zero_trace_rotation_pair(self):
        # Vanishing block trace: roots are 1 and the two primitive third roots.
        m = block_of(alternating_pair_network(np.pi / 2))
        roots = solve_cubic(cubic_coefficients(m))
        expected = np.array([1.0, np.exp(1j * THIRD_TURN), np.exp(-1j * THIRD_TURN)])
        assert eigenvalue_multiset_deviation(roots, expected) < 1e-12

    def test_matches_dense_oracle_random_blocks(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = block_of(random_alternating_network(rng, kind="u3"))
            roots = solve_cubic(cubic_coefficients(m))
            oracle = dense_eigendecomposition(m).eigenvalues()
            assert eigenvalue_multiset_deviation(roots, oracle) < 1e-8

    def test_cancelled_radicand_root_takes_the_conjugate_branch(self):
        # w = q/2 + sqrt(q^2/4 + p^3/27) cancels to |w| = 4.4e-10 with |q| = 1 on
        # this U3 cycle; its roots still pass the unimodularity test, but on that
        # branch the closed-form eigenvalues missed the oracle by 1.5e-8.
        net = CyclicNetwork(
            2,
            (
                ControlUp(1.5487658018543238, 1.3264723477149483, 1.5623965331686227, 1.42875392257762),
                ControlDown(1.5588574454163675, -2.808187617128669, 3.1182265697327187, 0.3572258984978127),
                ControlUp(-3.072123994676343, -2.7415393658344356, -1.851601794382706, 1.5814861728642962),
                ControlDown(-0.5308187979728891, 1.88670521327336, 1.033328753258517, -0.6230565144379403),
                ControlUp(-1.2535714462225687, 2.6026488092708284, 0.41100112583828974, -1.6596546465505513),
                ControlDown(1.9238256311027815, -2.6450902247213377, -2.501533299134455, 0.3527177258702934),
            ),
        )
        g = compile_cycle(net)
        coeffs = cubic_coefficients(g[1:, 1:])
        assert abs(coeffs.w) < 1e-9 * abs(coeffs.q / 2)
        spectrum = spectrum_closed_form(g)
        assert spectrum.normalizations is not None  # the closed form, not the oracle fallback
        oracle = dense_eigendecomposition(g).eigenvalues()
        assert eigenvalue_multiset_deviation(spectrum.eigenvalues(), oracle) < 1e-8

    def test_roots_unimodular(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            roots = solve_cubic(cubic_coefficients(block_of(random_alternating_network(rng))))
            assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-8

    def test_root_product_is_determinant(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            c = cubic_coefficients(block_of(random_alternating_network(rng)))
            roots = solve_cubic(c)
            assert abs(np.prod(roots) + c.a3) < 1e-9


class TestRealTrace:
    def test_trace_three(self):
        np.testing.assert_allclose(real_trace_eigenvalues(3.0), np.ones(3), atol=1e-14)

    def test_trace_minus_one(self):
        np.testing.assert_allclose(
            real_trace_eigenvalues(-1.0), np.array([1.0, -1.0, -1.0]), atol=1e-14
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            real_trace_eigenvalues(3.5)
        with pytest.raises(ValueError):
            real_trace_eigenvalues(-1.5)

    def test_three_gate_rotation_network_trace_formula(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            p1, p2, p3 = rng.uniform(-np.pi, np.pi, 3)
            net = synthesize_so3(p1, p2, p3, leading="up")
            m = block_of(net)
            expected_trace = np.cos(p2) + np.cos(p1 + p3) * (1 + np.cos(p2))
            assert abs(np.trace(m).real - expected_trace) < 1e-12
            roots = real_trace_eigenvalues(np.trace(m).real)
            oracle = dense_eigendecomposition(m).eigenvalues()
            assert eigenvalue_multiset_deviation(roots, oracle) < 1e-8

    def test_phase_equations(self):
        # cos nu = (tr-1)/2 and sin nu = sqrt((3-tr)(tr+1))/2 on a trace grid.
        for trace in np.linspace(-1.0, 3.0, 41):
            roots = real_trace_eigenvalues(trace)
            nu = np.angle(roots[1])
            assert abs(np.cos(nu) - (trace - 1) / 2) < 1e-10
            assert abs(np.sin(nu) - np.sqrt(max((3 - trace) * (trace + 1), 0.0)) / 2) < 1e-10


class TestBlockFormEigenstates:
    def test_inert_state_is_e1(self):
        g = compile_cycle(alternating_pair_network(1.1))
        roots = real_trace_eigenvalues(np.trace(g[1:, 1:]).real)
        spec = block_form_eigenstates(g, roots)
        np.testing.assert_allclose(spec.vectors[:, 3], [1, 0, 0, 0], atol=1e-15)
        assert spec.phases[3] == 0.0

    def test_rotation_pair_components_and_normalizations(self):
        phi = 1.1
        c, s = np.cos(phi), np.sin(phi)
        g = compile_cycle(alternating_pair_network(phi))
        roots = real_trace_eigenvalues(c * c + 2 * c)
        spec = block_form_eigenstates(g, roots)
        n0_expected = 1.0 / ((1 - c) * np.sqrt((1 - c) * (c + 3)))
        n12_expected = 1.0 / (s * s * np.sqrt((c + 1) * (c + 3)))
        assert abs(spec.normalizations[0] - n0_expected) < 1e-12
        assert abs(spec.normalizations[1] - n12_expected) < 1e-12
        assert abs(spec.normalizations[2] - n12_expected) < 1e-12
        for k in range(3):
            lam = roots[k]
            raw = np.array([0.0, -s * (1 - lam * c), -s * (c - lam), (c - lam) ** 2])
            np.testing.assert_allclose(spec.vectors[:, k], spec.normalizations[k] * raw, atol=1e-12)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            g = compile_cycle(random_alternating_network(rng, kind="u3"))
            roots = solve_cubic(cubic_coefficients(g[1:, 1:]))
            spec = block_form_eigenstates(g, roots)
            for k in range(4):
                lam = np.exp(1j * spec.phases[k])
                assert np.max(np.abs(g @ spec.vectors[:, k] - lam * spec.vectors[:, k])) < 1e-9
            overlap = spec.vectors.conj().T @ spec.vectors
            np.testing.assert_allclose(overlap, np.eye(4), atol=1e-9)

    def test_matches_oracle_up_to_phase(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            g = compile_cycle(random_alternating_network(rng, kind="u3"))
            roots = solve_cubic(cubic_coefficients(g[1:, 1:]))
            spec = block_form_eigenstates(g, roots)
            oracle = dense_eigendecomposition(g)
            for k in range(3):
                j = int(np.argmin(np.abs(oracle.eigenvalues() - np.exp(1j * spec.phases[k]))))
                overlap = abs(np.vdot(oracle.vectors[:, j], spec.vectors[:, k]))
                assert overlap > 1 - 1e-9

    def test_degenerate_roots_signal_fallback(self):
        g = compile_cycle(alternating_pair_network(1.1))
        with pytest.raises(DegenerateSpectrumError):
            block_form_eigenstates(g, np.array([1.0, 1.0, -1.0]))

    def test_spectrum_closed_form_fallback_policy(self):
        # Identity cycle is fully degenerate: the closed-form route must defer.
        g = np.eye(4, dtype=complex)
        spec = spectrum_closed_form(g)
        np.testing.assert_allclose(spec.phases, np.zeros(4), atol=1e-12)
        # The strict closed form still raises where spectrum_closed_form falls back.
        degenerate = compile_cycle(CyclicNetwork(2, (ControlDown(phi=np.pi),)))
        with pytest.raises(DegenerateSpectrumError):
            block_form_eigenstates(degenerate, solve_cubic(cubic_coefficients(degenerate[1:, 1:])))

    def test_fallback_reason_logged_at_debug_only(self, caplog):
        # A loop over degenerate networks must not print one stderr line per network.
        degenerate = compile_cycle(CyclicNetwork(2, (ControlDown(phi=np.pi),)))
        with caplog.at_level(logging.DEBUG, logger="cyclonet.spectral"):
            spectrum_closed_form(degenerate)
        fallbacks = [r for r in caplog.records if "falling back to dense oracle" in r.getMessage()]
        assert [r.levelno for r in fallbacks] == [logging.DEBUG]
        assert "degenerate" in fallbacks[0].getMessage()
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


class TestAlternatingPair:
    def test_trace_formula_matches_compiled_network(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            alpha, phi, beta = rng.uniform(-np.pi, np.pi, 3)
            g = compile_cycle(alternating_pair_network(phi, alpha=alpha, beta=beta))
            assert abs(np.trace(g[1:, 1:]) - alternating_pair_trace(alpha, phi)) < 1e-12

    def test_special_constant_eigenvalues(self):
        # alpha in {0, +-2pi/3}: e^{i alpha} is an eigenvalue for every phi.
        for alpha in (0.0, THIRD_TURN, -THIRD_TURN):
            target = np.exp(1j * alpha)
            for phi in np.linspace(0.0, 2 * np.pi, 60, endpoint=False):
                lams = alternating_su3_analysis(alpha, phi).eigenvalues
                assert np.min(np.abs(lams - target)) < 1e-9

    def test_special_solution_identity_rederived(self):
        # Substituting lambda = e^{i alpha} into the characteristic cubic leaves
        # residual (e^{3 i alpha} - 1)(cos phi - 1)^2; at the three special
        # alphas the first factor vanishes identically in phi.
        rng = np.random.default_rng(29)
        for _ in range(200):
            alpha = float(rng.uniform(-np.pi, np.pi))
            phi = float(rng.uniform(0, 2 * np.pi))
            a = alternating_pair_trace(alpha, phi)
            lam = np.exp(1j * alpha)
            residual = lam**3 - a * lam**2 + np.conj(a) * lam - 1.0
            factor = (np.exp(3j * alpha) - 1.0) * (np.cos(phi) - 1.0) ** 2
            assert abs(residual - factor) < 1e-10

    def test_nodes_at_quarter_turns(self):
        # cos phi = 0 zeroes the trace, forcing the k = 0 root to 1 for all alpha.
        for phi in (np.pi / 2, 3 * np.pi / 2):
            for alpha in np.linspace(-np.pi, np.pi, 25):
                assert abs(alternating_pair_trace(alpha, phi)) < 1e-12
                assert abs(alternating_pair_root(alpha, phi) - 1.0) < 1e-9

    def test_shift_formula_matches_direct_cubic(self):
        alpha, phi = np.pi / 4, 1.0
        analysis = alternating_su3_analysis(alpha, phi)
        lam1_direct = alternating_pair_root(alpha - THIRD_TURN, phi) * np.exp(1j * THIRD_TURN)
        assert abs(analysis.eigenvalues[1] - lam1_direct) < 1e-12
        g = compile_cycle(alternating_pair_network(phi, alpha=alpha))
        direct = solve_cubic(cubic_coefficients(g[1:, 1:]))
        assert eigenvalue_multiset_deviation(analysis.eigenvalues, direct) < 1e-9

    def test_trace_third_turn_property(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            alpha, phi = rng.uniform(-np.pi, np.pi, 2)
            a = alternating_pair_trace(alpha, phi)
            for sign in (+1, -1):
                shifted = alternating_pair_trace(alpha + sign * THIRD_TURN, phi)
                assert abs(shifted - a * np.exp(sign * 1j * THIRD_TURN)) < 1e-12

    def test_cardano_intermediates_third_turn_relations(self):
        # Shifting alpha by a third turn leaves q and w unchanged and rotates
        # p the opposite way.
        rng = np.random.default_rng(33)
        for _ in range(100):
            alpha, phi = rng.uniform(-np.pi, np.pi, 2)
            base = cubic_coefficients(block_of(alternating_pair_network(phi, alpha=alpha)))
            for sign in (+1, -1):
                shifted = cubic_coefficients(
                    block_of(alternating_pair_network(phi, alpha=alpha + sign * THIRD_TURN))
                )
                assert abs(shifted.q - base.q) < 1e-12
                assert abs(shifted.w - base.w) < 1e-12
                assert abs(shifted.p - base.p * np.exp(-sign * 1j * THIRD_TURN)) < 1e-12

    def test_root_fallback_policy_near_collision(self):
        # Exactly at phi = 2 pi the active block has a double eigenvalue and
        # both Cardano branches lose the unimodularity gate.
        alpha, phi = 0.2243994752564138, 2 * np.pi
        g = compile_cycle(alternating_pair_network(phi, alpha=alpha))
        with pytest.raises(DegenerateSpectrumError):
            solve_cubic(cubic_coefficients(g[1:, 1:]))
        snapped = alternating_pair_root(alpha, phi)
        oracle = dense_eigendecomposition(g[1:, 1:]).eigenvalues()
        assert np.min(np.abs(oracle - snapped)) < 1e-12

    def test_conjugation_symmetry(self):
        for alpha in np.linspace(0, np.pi, 15):
            for phi in np.linspace(0.1, 2 * np.pi, 20):
                lam_plus = alternating_pair_root(alpha, phi)
                lam_minus = alternating_pair_root(-alpha, phi)
                assert abs(lam_minus - np.conj(lam_plus)) < 1e-10

    def test_translational_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            alpha, phi = rng.uniform(-np.pi, np.pi, 2)
            lams_a = alternating_su3_analysis(alpha + np.pi, phi).eigenvalues
            lams_b = alternating_su3_analysis(alpha, phi + np.pi).eigenvalues
            assert eigenvalue_multiset_deviation(lams_a, lams_b) < 1e-10

    def test_sign_flipped_variant_has_real_trace(self):
        # ControlUp(-a, p, b) . ControlDown(a, p, b): trace 2 cos a cos p + cos^2 p.
        rng = np.random.default_rng(32)
        for _ in range(50):
            alpha, phi, beta = rng.uniform(-np.pi, np.pi, 3)
            net = CyclicNetwork(
                2, (ControlDown(alpha, phi, beta, 0.0), ControlUp(-alpha, phi, beta, 0.0))
            )
            m = block_of(net)
            trace = np.trace(m)
            expected = 2 * np.cos(alpha) * np.cos(phi) + np.cos(phi) ** 2
            assert abs(trace - expected) < 1e-12
            coeffs = cubic_coefficients(m)
            assert abs(coeffs.a2 + coeffs.a1) < 1e-12
            roots = real_trace_eigenvalues(trace.real)
            oracle = dense_eigendecomposition(m).eigenvalues()
            assert eigenvalue_multiset_deviation(roots, oracle) < 1e-8


class TestInputChecks:
    NON_UNITARY_3 = np.diag([1.0, 1.0, 2.0]).astype(complex)

    def test_cubic_coefficients_rejects_non_unitary_and_non_finite(self):
        with pytest.raises(ValueError, match="unitary"):
            cubic_coefficients(self.NON_UNITARY_3)
        with pytest.raises(ValueError, match="non-finite"):
            cubic_coefficients(np.full((3, 3), np.nan))

    def test_block_form_eigenstates_rejects_bad_input(self):
        roots = np.array([1.0, 1j, -1j])
        with pytest.raises(ValueError, match="unitary"):
            block_form_eigenstates(np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex), roots)
        with pytest.raises(ValueError, match="non-finite"):
            block_form_eigenstates(np.full((4, 4), np.nan), roots)
        with pytest.raises(ValueError, match="block form"):
            block_form_eigenstates(np.eye(4)[[1, 0, 2, 3]], roots)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_block_form_eigenstates_rejects_non_finite_eigenvalues(self, bad):
        g = compile_cycle(alternating_pair_network(1.1))
        with pytest.raises(ValueError, match="^eigenvalues must be finite"):
            block_form_eigenstates(g, np.array([1.0, bad, -1j]))

    def test_spectrum_closed_form_rejects_non_block_form(self):
        with pytest.raises(ValueError, match="block form"):
            spectrum_closed_form(np.eye(4)[[1, 0, 2, 3]])

    def test_spectrum_closed_form_checks_unitarity_once(self, monkeypatch):
        import cyclonet.linalg

        g = compile_cycle(alternating_pair_network(0.9, alpha=0.4))
        calls = []
        original = cyclonet.linalg.unitarity_defect
        monkeypatch.setattr(cyclonet.linalg, "unitarity_defect", lambda u: calls.append(1) or original(u))
        spectrum_closed_form(g)
        assert len(calls) == 1

    def test_alternating_root_triple_root_comes_from_solve_cubic(self):
        # alpha = 0, phi = 0 gives the identity block: a triple root at 1.
        assert alternating_pair_root(0.0, 0.0) == 1.0
