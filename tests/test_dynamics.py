"""Cycle evolution, closed-form powers, probe perturbation, and chains."""

import numpy as np
import pytest

from cyclonet import (
    CyclicNetwork,
    DegenerateSpectrumError,
    PerturbationScenario,
    alternating_pair_network,
    amplitude_series,
    basis_state,
    chain_evolve,
    closed_form_amplitude,
    compile_cycle,
    dense_eigendecomposition,
    dynamics,
    evolve,
    matrix_power_direct,
    matrix_power_spectral,
    nu1_to_phi,
    perturb,
    perturbed_amplitude_series,
    rotation_pair_spectrum,
    so3_example_closed_form,
)

from helpers import (
    haar_unitary,
    random_alternating_network,
    random_state,
    stepwise_chain_oracle,
    stepwise_perturb_oracle,
    traced_peak,
)


class TestEvolve:
    def test_zero_cycles(self):
        rng = np.random.default_rng(60)
        net = random_alternating_network(rng)
        psi = random_state(4, rng)
        np.testing.assert_allclose(evolve(net, psi, 0), psi, atol=1e-12)

    def test_eigenstate_collects_phase_only(self):
        net = alternating_pair_network(1.1)
        spec = rotation_pair_spectrum(1.1)
        for k in range(3):
            psi = spec.vectors[:, k]
            out = evolve(net, psi, 7)
            expected = np.exp(7j * spec.phases[k]) * psi
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_matches_direct_power(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            net = random_alternating_network(rng)
            psi = random_state(4, rng)
            u = compile_cycle(net)
            direct = matrix_power_direct(u, 999) @ psi
            assert np.max(np.abs(evolve(net, psi, 999) - direct)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            evolve(alternating_pair_network(0.5), basis_state(2, 0), 1)

    @pytest.mark.parametrize(
        "psi0", [[1.0, 0.0], basis_state(8, 0), 2 * basis_state(4, 1), [np.inf, 0.0, 0.0, 0.0]], ids=["2", "8", "norm 2", "inf"]
    )
    def test_bad_state_error_names_the_field(self, psi0):
        with pytest.raises(ValueError, match="^psi0 must"):
            evolve(alternating_pair_network(0.5), psi0, 1)

    def test_negative_and_numpy_counts(self):
        rng = np.random.default_rng(63)
        net = random_alternating_network(rng)
        psi = random_state(4, rng)
        np.testing.assert_allclose(evolve(net, evolve(net, psi, np.int64(5)), -5), psi, atol=1e-12)

    @pytest.mark.parametrize(
        "function, args, field",
        [
            (evolve, (alternating_pair_network(0.5), basis_state(4, 1), float("nan")), "n"),
            (evolve, (alternating_pair_network(0.5), basis_state(4, 1), 0.5), "n"),
            (evolve, (alternating_pair_network(0.5), basis_state(4, 1), True), "n"),
            (perturbed_amplitude_series, (1.0, 0, "110", 2.5), "n_prime_max"),
            (perturbed_amplitude_series, (1.0, 0, "110", -1), "n_prime_max"),
            (perturbed_amplitude_series, (1.0, 1.0, "110", 10), "k"),
            (closed_form_amplitude, (1.0, 1.0, "110", 10), "k"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [basis_state(4, 1)], 1.5), "n_prime"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [basis_state(4, 1)], -1), "n_prime"),
            (perturb, (PerturbationScenario(alternating_pair_network(0.5), (1, 0), 2.5, 1, basis_state(4, 1)),), "cycles_before"),
            (perturb, (PerturbationScenario(alternating_pair_network(0.5), (1, 0), 1, -1, basis_state(4, 1)),), "cycles_after"),
            (matrix_power_direct, (compile_cycle(alternating_pair_network(0.5)), True), "n"),
            (matrix_power_direct, (compile_cycle(alternating_pair_network(0.5)), 2.5), "n"),
            (matrix_power_direct, (compile_cycle(alternating_pair_network(0.5)), -1), "n"),
        ],
    )
    def test_bad_count_error_names_the_field(self, function, args, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            function(*args)

    def test_norm_preserved(self):
        rng = np.random.default_rng(62)
        for _ in range(50):
            net = random_alternating_network(rng)
            out = evolve(net, random_state(4, rng), int(rng.integers(0, 10_000)))
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestMatrixPowerSpectral:
    def test_zeroth_power(self):
        rng = np.random.default_rng(63)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_spectral(u, 0), np.eye(4), atol=1e-10)

    def test_inverse_power(self):
        rng = np.random.default_rng(64)
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(matrix_power_spectral(u, -1), u.conj().T, atol=1e-10)

    def test_millionth_power_matches_binary_exponentiation(self):
        g = compile_cycle(alternating_pair_network(1.2))
        spectral = matrix_power_spectral(g, 10**6)
        direct = matrix_power_direct(g, 10**6)
        assert np.max(np.abs(spectral - direct)) < 1e-7

    def test_random_powers_match_direct(self):
        rng = np.random.default_rng(65)
        for _ in range(25):
            u = haar_unitary(4, rng)
            n = int(rng.integers(0, 10_001))
            assert np.max(np.abs(matrix_power_spectral(u, n) - matrix_power_direct(u, n))) < 1e-8

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**8])
    def test_power_error_grows_like_n_eps(self, n):
        # Eigenphase errors of order eps become phase errors of order n*eps in U^n.
        rng = np.random.default_rng(7)
        bound = 1e-12 + 16 * n * np.finfo(float).eps
        for _ in range(20):
            u = compile_cycle(random_alternating_network(rng))
            assert np.max(np.abs(matrix_power_spectral(u, n) - matrix_power_direct(u, n))) < bound


class TestClosedFormTable:
    def test_corner_entries_literal(self):
        phi = 0.9
        c = np.cos(phi)
        table = so3_example_closed_form(phi)
        e33 = table.elements[2][2]
        assert abs(e33.a - (1 - c) / (c + 3)) < 1e-14
        assert abs(e33.b - 2 * (c + 1) / (c + 3)) < 1e-14
        assert e33.c == 0.0
        e11 = table.elements[0][0]
        assert abs(e11.a - (c + 1) / (c + 3)) < 1e-14
        assert abs(e11.b - 2 / (c + 3)) < 1e-14

    def test_zeroth_power_is_identity(self):
        for phi in (0.4, 1.0, 2.2, 2.9):
            table = so3_example_closed_form(phi)
            np.testing.assert_allclose(table.block_power(0), np.eye(3), atol=1e-12)

    def test_fixed_case_matches_direct_power(self):
        table = so3_example_closed_form(1.2)
        g = compile_cycle(alternating_pair_network(1.2))
        direct = matrix_power_direct(g, 57)
        assert np.max(np.abs(table.cycle_power(57) - direct)) < 1e-9

    def test_random_cases_match_direct_power(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            phi = float(rng.uniform(0.1, np.pi - 0.1))
            n = int(rng.integers(0, 10_001))
            table = so3_example_closed_form(phi)
            g = compile_cycle(alternating_pair_network(phi))
            assert np.max(np.abs(table.cycle_power(n) - matrix_power_direct(g, n))) < 1e-9

    def test_assembled_power_unitary(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            phi = float(rng.uniform(0.1, np.pi - 0.1))
            n = int(rng.integers(0, 10_001))
            block = so3_example_closed_form(phi).block_power(n)
            assert np.max(np.abs(block @ block.T.conj() - np.eye(3))) < 1e-9

    def test_singular_angles_signal_spectral_path(self):
        with pytest.raises(DegenerateSpectrumError):
            so3_example_closed_form(0.0)
        with pytest.raises(DegenerateSpectrumError):
            so3_example_closed_form(np.pi)


class TestPerturb:
    def test_probe_zero_leaves_cycle_unperturbed(self):
        rng = np.random.default_rng(68)
        net = random_alternating_network(rng)
        psi = random_state(4, rng)
        out = perturb(
            PerturbationScenario(
                net=net,
                acyclic_state=(1.0, 0.0),
                cycles_before=3,
                cycles_after=5,
                initial_state=psi,
            )
        )
        u = compile_cycle(net)
        expected = np.kron([1.0, 0.0], matrix_power_direct(u, 8) @ psi)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_eigenstate_start_shifts_only_global_phase(self):
        phi = 1.1
        net = alternating_pair_network(phi)
        spec = rotation_pair_spectrum(phi)
        for k in range(3):
            base = PerturbationScenario(
                net=net,
                acyclic_state=(0.6, 0.8),
                cycles_before=0,
                cycles_after=9,
                initial_state=spec.vectors[:, k],
            )
            shifted = PerturbationScenario(
                net=net,
                acyclic_state=(0.6, 0.8),
                cycles_before=11,
                cycles_after=9,
                initial_state=spec.vectors[:, k],
            )
            out0, out_n = perturb(base), perturb(shifted)
            expected = np.exp(11j * spec.phases[k]) * out0
            np.testing.assert_allclose(out_n, expected, atol=1e-9)

    def test_matches_stepwise_circuit_oracle(self):
        rng = np.random.default_rng(69)
        for _ in range(30):
            scenario = PerturbationScenario(
                net=random_alternating_network(rng),
                acyclic_state=tuple(random_state(2, rng)),
                cycles_before=int(rng.integers(0, 40)),
                cycles_after=int(rng.integers(0, 40)),
                initial_state=random_state(4, rng),
                coupling="control_on_acyclic" if rng.random() < 0.5 else "target_on_acyclic",
                coupling_operator=haar_unitary(2, rng) if rng.random() < 0.5 else None,
            )
            got = perturb(scenario)
            want = stepwise_perturb_oracle(scenario)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_output_normalized(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            scenario = PerturbationScenario(
                net=random_alternating_network(rng),
                acyclic_state=tuple(random_state(2, rng)),
                cycles_before=int(rng.integers(0, 100)),
                cycles_after=int(rng.integers(0, 100)),
                initial_state=random_state(4, rng),
            )
            assert abs(np.linalg.norm(perturb(scenario)) - 1.0) < 1e-10

    def test_probe_zero_projection_is_unperturbed_branch(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            net = random_alternating_network(rng)
            psi = random_state(4, rng)
            a = random_state(2, rng)
            n, n_prime = int(rng.integers(0, 20)), int(rng.integers(0, 20))
            out = perturb(
                PerturbationScenario(
                    net=net,
                    acyclic_state=tuple(a),
                    cycles_before=n,
                    cycles_after=n_prime,
                    initial_state=psi,
                )
            )
            u = compile_cycle(net)
            expected = a[0] * (matrix_power_direct(u, n + n_prime) @ psi)
            assert np.max(np.abs(out[:4] - expected)) < 1e-10

    def test_inert_start_stays_orthogonal_to_reference(self):
        # Cycle starts in |00>; the flipped branch never regains any |00> overlap.
        net = alternating_pair_network(1.2)
        g = compile_cycle(net)
        state = np.kron([0.0, 1.0], basis_state(4, 0))
        flip_bottom = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        cyclic = flip_bottom @ state[4:]
        for _ in range(1000):
            assert abs(cyclic[0]) < 1e-10
            cyclic = g @ cyclic

    def test_invalid_coupling_name(self):
        with pytest.raises(ValueError, match="coupling"):
            perturb(
                PerturbationScenario(
                    net=alternating_pair_network(0.7),
                    acyclic_state=(1.0, 0.0),
                    cycles_before=0,
                    cycles_after=0,
                    initial_state=basis_state(4, 0),
                    coupling="sideways",
                )
            )

    @staticmethod
    def scenario(**changes):
        fields = dict(
            net=alternating_pair_network(0.5),
            acyclic_state=(1.0, 0.0),
            cycles_before=1,
            cycles_after=1,
            initial_state=basis_state(4, 1),
        )
        return PerturbationScenario(**(fields | changes))

    @pytest.mark.parametrize(
        "function, args, field",
        [
            (perturb, (scenario(coupling_operator=np.eye(4)),), "coupling_operator"),
            (perturb, (scenario(coupling_operator=np.eye(1)),), "coupling_operator"),
            (perturb, (scenario(acyclic_state=(1.0, 0.0, 0.0)),), "acyclic_state"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0, 0.0), [basis_state(4, 1)], 1), "acyclic_state"),
            (perturb, (scenario(initial_state=basis_state(2, 1)),), "initial_state"),
            (perturb, (scenario(coupling="bogus"),), "coupling"),
            (perturb, (scenario(acyclic_state=(1.0, 1.0)),), "acyclic_state"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 1.0), [basis_state(4, 1)], 1), "acyclic_state"),
            (perturb, (scenario(initial_state=2 * basis_state(4, 1)),), "initial_state"),
            (perturb, (scenario(coupling_operator=np.array([[1.0, 1.0], [0.0, 1.0]])),), "coupling_operator"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [basis_state(2, 1)], 1), r"initial_states\[0\]"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [2 * basis_state(4, 1)], 1), r"initial_states\[0\]"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [], 1), "initial_states"),
            (chain_evolve, ([alternating_pair_network(0.5)], (1.0, 0.0), [basis_state(4, 1)] * 2, 1), "initial_states"),
            (
                chain_evolve,
                ([alternating_pair_network(0.5), CyclicNetwork(1, ())], (1.0, 0.0), [basis_state(4, 1)] * 2, 1),
                r"nets\[1\]",
            ),
            (chain_evolve, ([alternating_pair_network(0.5)] * 5, (1.0, 0.0), [basis_state(4, 1)] * 5, 1), "nets"),
        ],
    )
    def test_bad_input_is_refused_by_name_before_any_power(self, monkeypatch, function, args, field):
        def no_work(*_):
            raise AssertionError("cycle work started before the inputs were checked")

        for name in ("cycle_spectrum", "matrix_power_spectral", "evolve"):
            monkeypatch.setattr(dynamics, name, no_work)
        with pytest.raises(ValueError, match=f"^{field} must"):
            function(*args)

    @pytest.mark.parametrize("coupling", ["control_on_acyclic", "target_on_acyclic"])
    def test_million_cycle_counts_hold_the_n_eps_bound_to_a_direct_power_route(self, coupling):
        # The operator string of each coupling, written out with binary-exponentiation powers.
        p0, p1, eye2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
        rng = np.random.default_rng(95)
        counts = [(10**6, 0), (0, 10**6), (10**6, 10**6), *(rng.integers(0, 10**6, 2, endpoint=True) for _ in range(21))]
        for before, after in counts:
            before, after = int(before), int(after)
            net = random_alternating_network(rng)
            psi, probe, w = random_state(4, rng), random_state(2, rng), haar_unitary(2, rng)
            scenario = PerturbationScenario(net, tuple(probe), before, after, psi, coupling, w)
            u = compile_cycle(net)
            u_before, u_after = matrix_power_direct(u, before), matrix_power_direct(u, after)
            if coupling == "control_on_acyclic":
                branch1 = u_after @ np.kron(eye2, w) @ u_before @ psi
                want = np.kron(p0 @ probe, matrix_power_direct(u, before + after) @ psi) + np.kron(p1 @ probe, branch1)
            else:
                branch0, branch1 = (u_after @ np.kron(eye2, p) @ u_before @ psi for p in (p0, p1))
                want = np.kron(probe, branch0) + np.kron(w @ probe, branch1)
            bound = 1e-12 + 16 * (before + after) * np.finfo(float).eps
            assert np.max(np.abs(perturb(scenario) - want)) <= bound, (before, after)


class TestAmplitudeSeries:
    def test_generic_series_matches_stepped_powers(self):
        rng = np.random.default_rng(17)
        u = haar_unitary(4, rng)
        spectrum = dense_eigendecomposition(u)
        start = random_state(4, rng)
        stepped = [start]
        for _ in range(300):
            stepped.append(u @ stepped[-1])
        stepped = np.array(stepped)
        for row in range(4):
            series = amplitude_series(spectrum, row, start, 300)
            assert np.max(np.abs(series - stepped[:, row])) < 1e-10

    def test_reference_component_constant(self):
        phi = nu1_to_phi(np.pi / 4)
        spec = rotation_pair_spectrum(phi)
        c, s = np.cos(phi), np.sin(phi)
        for k in range(3):
            series = perturbed_amplitude_series(phi, k, "100", 100)
            lam = np.exp(1j * spec.phases[k])
            expected = -spec.normalizations[k] * s * (1 - c * lam)
            assert np.max(np.abs(series - expected)) < 1e-12

    def test_closed_form_matches_simulation(self):
        phi = nu1_to_phi(np.pi / 4)
        grid = np.arange(61)
        for k in (0, 1, 2):
            for basis in ("100", "101", "110", "111"):
                sim = perturbed_amplitude_series(phi, k, basis, 60)
                closed = closed_form_amplitude(phi, k, basis, grid)
                assert np.max(np.abs(sim - closed)) < 1e-10

    def test_series_against_full_perturb(self):
        phi = 1.3
        spec = rotation_pair_spectrum(phi)
        k = 0
        for n_prime in (0, 1, 7, 23):
            out = perturb(
                PerturbationScenario(
                    net=alternating_pair_network(phi),
                    acyclic_state=(0.0, 1.0),
                    cycles_before=0,
                    cycles_after=n_prime,
                    initial_state=spec.vectors[:, k],
                )
            )
            for basis in ("100", "101", "110", "111"):
                series = perturbed_amplitude_series(phi, k, basis, n_prime)
                assert abs(series[n_prime] - out[int(basis, 2)]) < 1e-10

    def test_slow_beat_periods(self):
        for nu1, period in (((np.pi + 0.01 * np.pi) / 4, 800), (0.99 * np.pi, 200)):
            phi = nu1_to_phi(nu1)
            series = perturbed_amplitude_series(phi, 0, "110", period + 50)
            for n in range(50):
                assert abs(series[n + period] - series[n]) < 1e-9

    @pytest.mark.parametrize(
        "row, start, n_max, field",
        [
            (7, basis_state(4, 1), 3, "row"),
            (-1, basis_state(4, 1), 3, "row"),
            (1.0, basis_state(4, 1), 3, "row"),
            (0, basis_state(4, 1), 2.5, "n_max"),
            (0, basis_state(4, 1), -1, "n_max"),
            (0, [1.0, 0.0], 3, "start"),
            (4, basis_state(4, 1), 3, "row"),  # one past the last row
        ],
    )
    def test_bad_input_error_names_the_field(self, row, start, n_max, field):
        spectrum = rotation_pair_spectrum(1.0)
        with pytest.raises(ValueError, match=f"^{field} must"):
            amplitude_series(spectrum, row, start, n_max)

    def test_peak_memory_is_the_output_plus_one_block(self):
        # Blocks of cycle counts keep the temporaries to a fixed size: 5.3 MB (amplitude_series) and
        # 4.4 MB (closed_form_amplitude) are traced for a 3.2 MB series of 2x10^5 + 1 entries.  A whole
        # (n + 1) x 4 phase grid peaks at 25.6 MB, and whole n'-long temporaries at 12.9 MB.
        n = 200_000
        phi = nu1_to_phi(0.7)
        spectrum = rotation_pair_spectrum(phi)
        calls = {
            "amplitude_series": lambda: amplitude_series(spectrum, 2, spectrum.vectors[:, 1], n),
            "closed_form_amplitude": lambda: closed_form_amplitude(phi, 1, "110", np.arange(n + 1)),
        }
        output_bytes = (n + 1) * np.dtype(complex).itemsize
        for name, call in calls.items():
            peak = traced_peak(call)
            assert peak < 2 * output_bytes, f"{name} peaked at {peak / 1e6:.1f} MB"

    def test_start_of_any_norm_is_accepted(self):
        # The amplitudes are linear in the start vector, so only its size is checked.
        spectrum = rotation_pair_spectrum(1.0)
        start = spectrum.vectors[:, 0]
        np.testing.assert_allclose(amplitude_series(spectrum, 1, 3 * start, 5), 3 * amplitude_series(spectrum, 1, start, 5))

    def test_bad_basis_label(self):
        with pytest.raises(ValueError, match="basis"):
            perturbed_amplitude_series(1.0, 0, "000", 10)

    def test_bad_eigenstate_index(self):
        with pytest.raises(ValueError, match="k"):
            perturbed_amplitude_series(1.0, 3, "110", 10)


class TestNu1Inversion:
    def test_roundtrip_across_range(self):
        for nu1 in np.linspace(0.05, np.pi - 0.05, 40):
            phi = nu1_to_phi(nu1)
            c = np.cos(phi)
            assert abs(np.cos(nu1) - (c * c + 2 * c - 1) / 2) < 1e-12

    def test_realized_eigenphase_matches_target(self):
        for nu1 in (np.pi / 4, (np.pi + 0.01 * np.pi) / 4, 0.99 * np.pi, 0.999 * np.pi):
            phi = nu1_to_phi(nu1)
            assert abs(so3_example_closed_form(phi).nu1 - nu1) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            nu1_to_phi(0.0)
        with pytest.raises(ValueError):
            nu1_to_phi(np.pi)
        with pytest.raises(ValueError, match="^nu1 must be a number"):
            nu1_to_phi(None)


class TestChain:
    def test_single_link_reduces_to_perturb_after_one_cycle(self):
        rng = np.random.default_rng(72)
        net = random_alternating_network(rng)
        psi = random_state(4, rng)
        probe = random_state(2, rng)
        got = chain_evolve([net], probe, [psi], 6)
        want = perturb(
            PerturbationScenario(
                net=net,
                acyclic_state=tuple(probe),
                cycles_before=1,
                cycles_after=6,
                initial_state=psi,
            )
        )
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n_prime", [0, 6, 999_999])
    def test_single_link_is_perturb_bit_for_bit(self, n_prime):
        # Both run one body: the probe controls a flip after one cycle, then n' more.
        rng = np.random.default_rng(80)
        for _ in range(10):
            net, psi, probe = random_alternating_network(rng), random_state(4, rng), random_state(2, rng)
            got = chain_evolve([net], probe, [psi], n_prime)
            want = perturb(PerturbationScenario(net, tuple(probe), 1, n_prime, psi))
            assert got.tobytes() == want.tobytes()

    def test_probe_zero_gives_product_of_free_evolutions(self):
        rng = np.random.default_rng(73)
        nets = [random_alternating_network(rng) for _ in range(2)]
        states = [random_state(4, rng) for _ in range(2)]
        n_prime = 5
        out = chain_evolve(nets, (1.0, 0.0), states, n_prime)
        free = np.kron(
            matrix_power_direct(compile_cycle(nets[1]), n_prime + 2) @ states[1],
            matrix_power_direct(compile_cycle(nets[0]), n_prime + 2) @ states[0],
        )
        np.testing.assert_allclose(out[:16], free, atol=1e-10)
        np.testing.assert_allclose(out[16:], np.zeros(16), atol=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_stepwise_oracle(self, q):
        rng = np.random.default_rng(74 + q)
        for _ in range(8):
            nets = [random_alternating_network(rng, max_gates=3) for _ in range(q)]
            states = [random_state(4, rng) for _ in range(q)]
            probe = random_state(2, rng)
            n_prime = int(rng.integers(0, 7))
            got = chain_evolve(nets, probe, states, n_prime)
            want = stepwise_chain_oracle(nets, probe, states, n_prime)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(78)
        nets = [random_alternating_network(rng) for _ in range(3)]
        states = [random_state(4, rng) for _ in range(3)]
        out = chain_evolve(nets, random_state(2, rng), states, 11)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_too_many_links_rejected(self):
        rng = np.random.default_rng(79)
        nets = [random_alternating_network(rng) for _ in range(5)]
        with pytest.raises(ValueError, match="1 to 4"):
            chain_evolve(nets, (1.0, 0.0), [basis_state(4, 0)] * 5, 1)
