"""Memory, sensor, and phase-estimation protocols."""

from dataclasses import replace

import numpy as np
import pytest

from cyclonet import (
    CyclicNetwork,
    DiagonalLayer,
    PerturbationScenario,
    SingleQubit,
    Spectrum,
    alternating_pair_network,
    basis_state,
    compile_cycle,
    cycle_applications,
    dense_eigendecomposition,
    inverse_cycle_operator,
    matrix_power_direct,
    matrix_power_spectral,
    memory_retrieve,
    memory_store,
    perturb,
    phase_estimation_demo,
    reset_cycle_applications,
    rotation_pair_spectrum,
    sensor_run,
    sensor_series,
)

from helpers import random_alternating_network, random_state, stepwise_sensor_oracle


def diagonal_phase_network(fraction: float) -> tuple[CyclicNetwork, int]:
    """Cycle with one diagonal gate carrying eigenphase 2*pi*fraction, plus its index."""
    net = CyclicNetwork(2, (DiagonalLayer((0.0, 2.0 * np.pi * fraction, 0.0, 0.0)),))
    spectrum = dense_eigendecomposition(compile_cycle(net))
    target = np.exp(2j * np.pi * fraction)
    index = int(np.argmin(np.abs(spectrum.eigenvalues() - target)))
    return net, index


class TestMemory:
    def test_zero_cycles_returns_stored_state(self):
        rng = np.random.default_rng(80)
        psi = random_state(4, rng)
        record = memory_store(alternating_pair_network(0.9), psi)
        np.testing.assert_allclose(memory_retrieve(record, 0), psi, atol=1e-10)

    def test_eigenstate_recovers_up_to_global_phase(self):
        spec = rotation_pair_spectrum(1.1)
        record = memory_store(alternating_pair_network(1.1), spec.vectors[:, 1])
        out = memory_retrieve(record, 777)
        assert abs(abs(np.vdot(spec.vectors[:, 1], out)) - 1.0) < 1e-10

    def test_fixed_case_against_direct_inverse_power(self):
        rng = np.random.default_rng(81)
        psi = random_state(4, rng)
        net = alternating_pair_network(1.2)
        record = memory_store(net, psi)
        n = 12345
        out = memory_retrieve(record, n)
        assert abs(np.vdot(psi, out)) > 1 - 1e-9
        # Independent route: binary-exponentiated inverse applied to the
        # binary-exponentiated evolution.
        g = compile_cycle(net)
        evolved = matrix_power_direct(g, n) @ psi
        recovered = matrix_power_direct(g.conj().T, n) @ evolved
        assert np.max(np.abs(recovered - psi)) < 1e-9
        assert np.max(np.abs(out - recovered)) < 1e-8

    def test_inverse_operator_cancels_evolution(self):
        rng = np.random.default_rng(82)
        for _ in range(20):
            net = random_alternating_network(rng)
            record = memory_store(net, random_state(4, rng))
            n = int(rng.integers(0, 10_001))
            ident = inverse_cycle_operator(record, n) @ matrix_power_direct(record.cycle_matrix, n)
            assert np.max(np.abs(ident - np.eye(4))) < 1e-9

    def test_random_states_and_large_cycle_counts(self):
        rng = np.random.default_rng(83)
        for _ in range(1000):
            net = random_alternating_network(rng)
            psi = random_state(4, rng)
            record = memory_store(net, psi)
            n = int(rng.integers(0, 10**6 + 1))
            out = memory_retrieve(record, n)
            assert abs(np.vdot(psi, out)) > 1 - 1e-9

    def test_retrieval_uses_constant_cycle_applications(self):
        rng = np.random.default_rng(84)
        record = memory_store(alternating_pair_network(1.3), random_state(4, rng))
        counts = []
        for n in (1, 1000, 10**6):
            reset_cycle_applications()
            memory_retrieve(record, n)
            counts.append(cycle_applications())
        assert counts[0] == counts[1] == counts[2]
        assert counts[0] <= 4

    def test_stored_spectrum_powers_match_binary_exponentiation(self):
        # memory_retrieve builds U^n and U^-n from one spectrum, so its fidelity
        # is 1 even for a wrong spectrum; this check compares against another route.
        def power_error(record, n):
            spectral = matrix_power_spectral(record.cycle_matrix, n, record.spectrum) @ record.state
            return np.max(np.abs(spectral - matrix_power_direct(record.cycle_matrix, n) @ record.state))

        rng = np.random.default_rng(86)
        nets = [alternating_pair_network(1.2)] + [random_alternating_network(rng) for _ in range(5)]
        for net in nets:
            record = memory_store(net, random_state(4, rng))
            spectrum = record.spectrum
            skewed = replace(record, spectrum=Spectrum(spectrum.phases * (1 + 1e-6), spectrum.vectors))
            for n in (1, 10**3, 10**5):
                bound = 1e-12 + 16 * n * np.finfo(float).eps
                assert power_error(record, n) <= bound
                assert power_error(skewed, n) > bound
                assert abs(np.vdot(skewed.state, memory_retrieve(skewed, n))) > 1 - 1e-9

    def test_negative_cycle_count_rejected(self):
        rng = np.random.default_rng(85)
        record = memory_store(alternating_pair_network(1.0), random_state(4, rng))
        with pytest.raises(ValueError):
            memory_retrieve(record, -1)

    @pytest.mark.parametrize("n", [-1, 2.5, float("nan"), True])
    @pytest.mark.parametrize("retrieval", [memory_retrieve, inverse_cycle_operator])
    def test_bad_cycle_count_error_names_the_field(self, retrieval, n):
        record = memory_store(alternating_pair_network(1.0), basis_state(4, 1))
        with pytest.raises(ValueError, match="^n must"):
            retrieval(record, n)

    @pytest.mark.parametrize(
        "psi", [[1.0, 0.0], basis_state(8, 0), 2 * basis_state(4, 1), [np.nan, 0.0, 0.0, 0.0]], ids=["2", "8", "norm 2", "nan"]
    )
    def test_bad_state_error_names_the_field(self, psi):
        with pytest.raises(ValueError, match="^psi must"):
            memory_store(alternating_pair_network(1.0), psi)


class TestSensor:
    def test_probe_zero_never_detects(self):
        reading = sensor_run(alternating_pair_network(1.2), 0, 100)
        assert abs(reading.p_psi3 - 1.0) < 1e-12
        assert not reading.detected

    def test_probe_one_immediately_orthogonal(self):
        # Right after the coupling the cycle sits in |01>, orthogonal to |00>.
        reading = sensor_run(alternating_pair_network(1.2), 1, 0)
        assert reading.p_psi3 < 1e-12
        assert reading.detected

    def test_probe_one_detected_for_all_later_cycles(self):
        net = alternating_pair_network(0.8)
        for n_prime in range(1, 501):
            reading = sensor_run(net, 1, n_prime)
            assert reading.p_psi3 < 1e-10

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            sensor_run(alternating_pair_network(1.0), 2, 10)

    @pytest.mark.parametrize(
        "net, bit, n_prime, field",
        [
            (alternating_pair_network(1.0), 2, 10, "acyclic_bit"),
            (CyclicNetwork(1, (SingleQubit(1, 0.0, 0.7, 0.0, 0.0),)), 1, 10, "qubit"),
            (alternating_pair_network(1.0), 1, -1, "n_prime"),
            (alternating_pair_network(1.0), 1, 2.5, "n_prime"),
            (alternating_pair_network(1.0), 1, float("nan"), "n_prime"),
            (alternating_pair_network(1.0), True, 3, "acyclic_bit"),
            (alternating_pair_network(1.0), 1.0, 3, "acyclic_bit"),
        ],
    )
    @pytest.mark.parametrize("sensor", [sensor_run, sensor_series])
    def test_bad_input_error_names_the_field(self, sensor, net, bit, n_prime, field):
        with pytest.raises(ValueError, match=field):
            sensor(net, bit, n_prime)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("phi", [-7.0, -2.5, 0.3, 1.2, 3.0, 6.9])
    def test_series_matches_stepwise_oracle(self, bit, phi):
        net = alternating_pair_network(phi)
        series = sensor_series(net, bit, 1000)
        assert series.shape == (1001,)
        assert np.max(np.abs(series - stepwise_sensor_oracle(net, bit, 1000))) < 1e-10
        # The CSV prints these with %.12e: exactly 0 for probe 1, 1 to 12 digits for probe 0.
        if bit == 1:
            assert not np.any(series)
        else:
            assert np.max(np.abs(series - 1.0)) < 1e-13

    @pytest.mark.parametrize("bit", [0, 1])
    def test_series_matches_stepwise_oracle_off_block_form(self, bit):
        # A single-qubit gate mixes |00> into the active block, so the
        # probability moves with n' and the series is checked entry by entry.
        net = CyclicNetwork(2, (*alternating_pair_network(0.9).gates, SingleQubit(2, 0.3, 0.7, -0.2, 0.1)))
        series = sensor_series(net, bit, 1000)
        oracle = stepwise_sensor_oracle(net, bit, 1000)
        assert np.ptp(oracle) > 0.1
        assert np.max(np.abs(series - oracle)) < 1e-10

    def test_series_agrees_with_sensor_run(self):
        net = alternating_pair_network(0.8)
        for bit in (0, 1):
            series = sensor_series(net, bit, 40)
            for n_prime in (0, 1, 17, 40):
                assert abs(series[n_prime] - sensor_run(net, bit, n_prime).p_psi3) < 1e-12

    @pytest.mark.parametrize(
        "net, bit, n_prime_max",
        [
            (alternating_pair_network(1.0), 2, 10),
            (alternating_pair_network(1.0), 1, -1),
            (CyclicNetwork(1, (SingleQubit(1, 0.0, 0.7, 0.0, 0.0),)), 1, 10),
            (alternating_pair_network(1.0), 1, 2.5),
        ],
    )
    def test_series_rejects_bad_input(self, net, bit, n_prime_max):
        with pytest.raises(ValueError):
            sensor_series(net, bit, n_prime_max)

    def test_superposed_probe_gives_partial_weight(self):
        # The sensor uses only the basis probes; a superposition (a0, a1) leaves
        # the cycle in |00> with weight |a0|^2 exactly, since the flipped branch
        # never regains |00> overlap.
        net = alternating_pair_network(1.1)
        for a0 in (0.6, 1 / np.sqrt(2), 0.3):
            a1 = np.sqrt(1 - a0**2)
            for n_prime in (0, 3, 57):
                scenario = PerturbationScenario(
                    net=net,
                    acyclic_state=(a0, a1),
                    cycles_before=0,
                    cycles_after=n_prime,
                    initial_state=basis_state(4, 0),
                )
                out = perturb(scenario)
                p = abs(out[0]) ** 2 + abs(out[4]) ** 2  # |a,00> for probe a = 0, 1
                assert abs(p - a0**2) < 1e-12


class TestPhaseEstimation:
    def test_zero_phase_gives_uniform_plus_register(self):
        net, index = diagonal_phase_network(0.0)
        result = phase_estimation_demo(net, index, 3)
        np.testing.assert_allclose(result.kickback_state, np.ones(8) / np.sqrt(8), atol=1e-12)
        assert result.estimate == 0.0
        assert result.distribution[0] > 1 - 1e-9

    def test_exact_eighth_three_bits(self):
        net, index = diagonal_phase_network(1.0 / 8.0)
        result = phase_estimation_demo(net, index, 3)
        assert abs(result.estimate - 0.125) < 1e-15
        assert result.distribution[1] > 1 - 1e-9

    def test_one_third_four_bits_rounds_to_nearest(self):
        net, index = diagonal_phase_network(1.0 / 3.0)
        result = phase_estimation_demo(net, index, 4)
        assert abs(result.estimate - 5.0 / 16.0) < 1e-15
        assert result.distribution[5] > 0.4

    @pytest.mark.parametrize("fraction", [0.125, 0.3173828125, 0.625, 0.9])
    def test_phase_fraction_is_the_eigenphase_over_two_pi_mod_one(self, fraction):
        # 0.625 and 0.9 have eigenphases in (-pi, 0), so the mod 1 matters.
        net, index = diagonal_phase_network(fraction)
        result = phase_estimation_demo(net, index, 3)
        assert abs(result.phase_fraction - fraction) < 1e-12
        assert result.phase_fraction == (result.eigenphase / (2.0 * np.pi)) % 1.0

    def test_kickback_phases_double_per_qubit(self):
        fraction = 0.3173828125  # 325/1024, generic but exactly representable
        net, index = diagonal_phase_network(fraction)
        t = 6
        result = phase_estimation_demo(net, index, t)
        kick = result.kickback_state
        for j in range(t):
            ratio = kick[2**j] / kick[0]
            expected = np.exp(2j * np.pi * (2**j) * fraction)
            assert abs(ratio - expected) < 1e-9

    def test_matches_brute_force_register_simulation(self):
        fraction = 5.0 / 32.0
        net, index = diagonal_phase_network(fraction)
        t = 5
        result = phase_estimation_demo(net, index, t)
        # Brute force: iterate the compiled cycle on the full register+cycle
        # state with explicit controlled products.
        u = compile_cycle(net)
        spectrum = dense_eigendecomposition(u)
        psi_u = spectrum.vectors[:, index]
        dim_reg = 2**t
        full = np.kron(np.full(dim_reg, 1.0 / np.sqrt(dim_reg), dtype=complex), psi_u)
        full = full.reshape(dim_reg, 4)
        for j in range(t):
            powered = np.linalg.matrix_power(u, 2**j)
            for k in range(dim_reg):
                if (k >> j) & 1:
                    full[k] = powered @ full[k]
        register = full @ psi_u.conj()
        np.testing.assert_allclose(register, result.kickback_state, atol=1e-9)
        iqft = np.exp(-2j * np.pi * np.outer(np.arange(dim_reg), np.arange(dim_reg)) / dim_reg)
        distribution = np.abs(iqft @ register / np.sqrt(dim_reg)) ** 2
        np.testing.assert_allclose(distribution, result.distribution, atol=1e-9)

    def test_bit_count_validated(self):
        net, index = diagonal_phase_network(0.25)
        with pytest.raises(ValueError):
            phase_estimation_demo(net, index, 0)
        with pytest.raises(ValueError):
            phase_estimation_demo(net, index, 9)

    @pytest.mark.parametrize(
        "index, t, field",
        [(0, 2.0, "t"), (0, True, "t"), (1.0, 2, "eigenstate_index"), (4, 2, "eigenstate_index"), (-1, 2, "eigenstate_index")],
    )
    def test_bad_input_error_names_the_field(self, index, t, field):
        net, _ = diagonal_phase_network(0.25)
        with pytest.raises(ValueError, match=f"^{field} must"):
            phase_estimation_demo(net, index, t)
