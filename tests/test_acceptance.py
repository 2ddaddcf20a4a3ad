"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Expected values come from independent routes: dense
eigendecomposition, binary-exponentiation matrix powers, and explicit
time-stepped circuit simulations defined in helpers.py.
"""

import time

import numpy as np

from cyclonet import (
    ControlDown,
    CyclicNetwork,
    DiagonalLayer,
    PerturbationScenario,
    alternating_pair_network,
    alternating_su3_analysis,
    build_u4,
    chain_evolve,
    classify,
    compile_cycle,
    cubic_coefficients,
    cycle_applications,
    decompose_u3,
    dense_eigendecomposition,
    extract_so3_angles,
    extract_u4_parameters,
    matrix_power_direct,
    memory_retrieve,
    memory_store,
    nu1_to_phi,
    perturb,
    perturbed_amplitude_series,
    phase_estimation_demo,
    reset_cycle_applications,
    sensor_run,
    so3_example_closed_form,
    solve_cubic,
    synthesize_so3,
    two_level_matrix,
)

from helpers import (
    eigenvalue_multiset_deviation,
    haar_unitary,
    random_alternating_network,
    random_control_gate,
    random_state,
    stepwise_chain_oracle,
    stepwise_perturb_oracle,
)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def test_c01_cubic_solver_matches_dense_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    kinds = ("u3", "su3", "so3")
    for i in range(1000):
        net = random_alternating_network(rng, kind=kinds[i % 3])
        m = compile_cycle(net)[1:, 1:]
        roots = solve_cubic(cubic_coefficients(m))
        oracle = dense_eigendecomposition(m).eigenvalues()
        worst = max(worst, eigenvalue_multiset_deviation(roots, oracle))
    elapsed = time.perf_counter() - start
    _criterion(
        "C01 cubic-solver oracle equivalence",
        worst < 1e-8 and elapsed < 5.0,
        f"worst={worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_unit_determinant_coefficient_identities():
    rng = np.random.default_rng(1002)
    worst_a3 = worst_a2 = 0.0
    for _ in range(1000):
        m = compile_cycle(random_alternating_network(rng, kind="su3"))[1:, 1:]
        coeffs = cubic_coefficients(m)
        worst_a3 = max(worst_a3, abs(coeffs.a3 + 1.0))
        worst_a2 = max(worst_a2, abs(coeffs.a2 - np.conj(np.trace(m))))
    _criterion(
        "C02 unit-determinant coefficient identities",
        worst_a3 < 1e-12 and worst_a2 < 1e-12,
        f"|a3+1|={worst_a3:.2e}, |a2-tr*|={worst_a2:.2e}",
    )


def test_c03_special_solution_sweep():
    worst = 0.0
    for alpha in (0.0, 2 * np.pi / 3, -2 * np.pi / 3):
        target = np.exp(1j * alpha)
        for phi in np.linspace(0.0, 2 * np.pi, 200, endpoint=False):
            lams = alternating_su3_analysis(alpha, phi).eigenvalues
            worst = max(worst, float(np.min(np.abs(lams - target))))
    _criterion("C03 special-solution sweep", worst < 1e-9, f"worst={worst:.2e}")


def test_c04_closed_form_power_table():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        phi = float(rng.uniform(0.1, np.pi - 0.1))
        n = int(rng.integers(0, 10_001))
        table = so3_example_closed_form(phi)
        direct = matrix_power_direct(compile_cycle(alternating_pair_network(phi)), n)
        worst = max(worst, float(np.max(np.abs(table.cycle_power(n) - direct))))
    _criterion("C04 closed-form power table", worst < 1e-9, f"worst={worst:.2e}")


def test_c05_beat_periodicities():
    cases = (((np.pi + 0.01 * np.pi) / 4, 800), (0.99 * np.pi, 200), (0.999 * np.pi, 2000))
    ok = True
    details = []
    for nu1, period in cases:
        start = time.perf_counter()
        phi = nu1_to_phi(nu1)
        window = 800 if period == 800 else period
        series = perturbed_amplitude_series(phi, 0, "110", period + window)
        dev = float(np.max(np.abs(series[period : period + window + 1] - series[: window + 1])))
        elapsed = time.perf_counter() - start
        ok = ok and dev < 1e-9 and elapsed < 1.0
        details.append(f"period {period}: dev={dev:.2e} in {elapsed:.2f}s")
    _criterion("C05 beat periodicities", ok, "; ".join(details))


def test_c06_u3_decomposition_and_rotation_extraction():
    rng = np.random.default_rng(1006)
    worst_u3 = 0.0
    for _ in range(500):
        g1, g2, g3 = rng.uniform(-np.pi, np.pi, 3)
        p1, b1, p2, b2, p3, b3 = rng.uniform(-np.pi, np.pi, 6)
        target = (
            np.diag(np.exp(1j * np.array([0.0, g1, g2, g3])))
            @ two_level_matrix(3, 4, p1, b1)
            @ two_level_matrix(2, 3, p2, b2)
            @ two_level_matrix(2, 4, p3, b3)
        )
        rebuilt = compile_cycle(CyclicNetwork(2, tuple(decompose_u3(target))))
        worst_u3 = max(worst_u3, float(np.max(np.abs(rebuilt - target))))
    worst_so3 = 0.0
    for _ in range(200):
        n_gates = int(rng.integers(1, 11))
        start = int(rng.integers(0, 2))
        gates = tuple(
            random_control_gate(rng, "down" if (i + start) % 2 == 0 else "up", "so3")
            for i in range(n_gates)
        )
        g = compile_cycle(CyclicNetwork(2, gates))
        angles = extract_so3_angles(g[1:, 1:].real)
        rebuilt = compile_cycle(synthesize_so3(*angles))
        worst_so3 = max(worst_so3, float(np.max(np.abs(rebuilt - g))))
    _criterion(
        "C06 block-form decomposition roundtrips",
        worst_u3 < 1e-9 and worst_so3 < 1e-9,
        f"u3={worst_u3:.2e}, so3={worst_so3:.2e}",
    )


def test_c07_full_factorization_roundtrip():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(500):
        u = haar_unitary(4, rng)
        worst = max(worst, float(np.max(np.abs(build_u4(extract_u4_parameters(u)) - u))))
    _criterion("C07 full 4x4 factorization roundtrip", worst < 1e-9, f"worst={worst:.2e}")


def test_c08_perturbation_vs_circuit_oracle():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(200):
        scenario = PerturbationScenario(
            net=random_alternating_network(rng),
            acyclic_state=tuple(random_state(2, rng)),
            cycles_before=int(rng.integers(0, 30)),
            cycles_after=int(rng.integers(0, 30)),
            initial_state=random_state(4, rng),
            coupling="control_on_acyclic" if rng.random() < 0.5 else "target_on_acyclic",
            coupling_operator=haar_unitary(2, rng) if rng.random() < 0.5 else None,
        )
        dev = float(np.max(np.abs(perturb(scenario) - stepwise_perturb_oracle(scenario))))
        worst = max(worst, dev)
    _criterion("C08 perturbation vs circuit oracle", worst < 1e-10, f"worst={worst:.2e}")


def test_c09_memory_fidelity_with_constant_work():
    rng = np.random.default_rng(1009)
    worst_fidelity = 1.0
    max_applications = 0
    for _ in range(100):
        net = random_alternating_network(rng)
        psi = random_state(4, rng)
        record = memory_store(net, psi)
        n = int(rng.integers(0, 10**6 + 1))
        reset_cycle_applications()
        out = memory_retrieve(record, n)
        max_applications = max(max_applications, cycle_applications())
        worst_fidelity = min(worst_fidelity, float(abs(np.vdot(psi, out))))
    _criterion(
        "C09 memory fidelity with O(1) retrieval",
        worst_fidelity > 1 - 1e-9 and max_applications <= 4,
        f"fidelity={worst_fidelity:.12f}, applications<={max_applications}",
    )


def test_c10_sensor_detects_probe_bit():
    net = alternating_pair_network(1.2)
    worst_quiet = 0.0
    worst_hit = 0.0
    for n_prime in range(0, 1001):
        quiet = sensor_run(net, 0, n_prime)
        hit = sensor_run(net, 1, n_prime)
        worst_quiet = max(worst_quiet, abs(quiet.p_psi3 - 1.0))
        worst_hit = max(worst_hit, hit.p_psi3)
    _criterion(
        "C10 sensor probe-bit detection",
        worst_quiet < 1e-10 and worst_hit < 1e-10,
        f"|p-1|={worst_quiet:.2e} (bit 0), p={worst_hit:.2e} (bit 1)",
    )


def test_c11_phase_estimation_exact_fractions():
    worst_prob_defect = 0.0
    worst_kick = 0.0
    ok_estimates = True
    for t in range(1, 7):
        for k in range(2**t):
            fraction = k / 2**t
            net = CyclicNetwork(2, (DiagonalLayer((0.0, 2 * np.pi * fraction, 0.0, 0.0)),))
            spectrum = dense_eigendecomposition(compile_cycle(net))
            index = int(np.argmin(np.abs(spectrum.eigenvalues() - np.exp(2j * np.pi * fraction))))
            result = phase_estimation_demo(net, index, t)
            ok_estimates = ok_estimates and abs(result.estimate - fraction) < 1e-12
            worst_prob_defect = max(worst_prob_defect, 1.0 - float(result.distribution[k]))
            for j in range(t):
                ratio = result.kickback_state[2**j] / result.kickback_state[0]
                expected = np.exp(2j * np.pi * (2**j) * fraction)
                worst_kick = max(worst_kick, abs(ratio - expected))
    _criterion(
        "C11 phase estimation exact fractions",
        ok_estimates and worst_prob_defect < 1e-9 and worst_kick < 1e-9,
        f"prob defect={worst_prob_defect:.2e}, kickback dev={worst_kick:.2e}",
    )


def test_c12_chain_vs_time_stepped_oracle():
    rng = np.random.default_rng(1012)
    worst = 0.0
    for q in (2, 3):
        for _ in range(15):
            nets = [random_alternating_network(rng, max_gates=3) for _ in range(q)]
            states = [random_state(4, rng) for _ in range(q)]
            probe = random_state(2, rng)
            n_prime = int(rng.integers(0, 6))
            got = chain_evolve(nets, probe, states, n_prime)
            want = stepwise_chain_oracle(nets, probe, states, n_prime)
            worst = max(worst, float(np.max(np.abs(got - want))))
    _criterion("C12 chain vs time-stepped oracle", worst < 1e-10, f"worst={worst:.2e}")


def test_classification_sanity_for_docs():
    # Companion check used by the README: the canonical example networks land
    # in their documented classes.
    single_axis = CyclicNetwork(2, tuple(ControlDown(phi=p) for p in (0.5, 0.8, 0.3)))
    assert classify(single_axis).note == "single-axis"
    assert classify(alternating_pair_network(0.9, alpha=0.4)).tag == "SU3"
