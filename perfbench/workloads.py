"""The three benchmark workloads: sweep, series and memory.

Each workload splits into rounds.  A round's inputs are generated from
(seed, round index) before its timed window; `run` times the round and
each op inside it; `check` compares the outputs with independent oracles
after the timed window and counts the ops whose checks fail.  The library
is reached only through attribute lookups on `cyclonet` and `cyclonet.cli`
at call time, so the span recorder's wrappers see every call.
"""

from __future__ import annotations

import io
import os
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks
import cyclonet
import cyclonet.cli
import inputs
from spans import SpanRecorder

# Round sizes.  The warm-ups use smaller ones of their own.
NETWORKS = 3000  # sweep: networks per round
NPRIME_MAX = 1_000_000  # series: --nprime-max of both commands
STORES = 8  # memory: networks stored per round
READS_PER_STORE = 128  # memory: retrievals of each stored network
LINKS = 4  # memory: q of the chain


@dataclass
class RoundResult:
    """What one timed round did; `outputs` is whatever its check needs."""

    start_ns: int  # on the workload's clock
    wall_ns: int
    ops: int  # the unit of ops_per_s
    latencies_ns: list[int]
    outputs: object
    csv_bytes: int = 0
    csv_ops: tuple[int, ...] = ()  # op ids of the CLI commands that wrote the CSV


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def record_all(self, ok: np.ndarray, describe) -> None:
        """Record one op per entry of a boolean array; describe(k) explains failure k."""
        self.attempted += ok.size
        bad = np.flatnonzero(~ok)
        self.failed += bad.size
        self.messages.extend(describe(k) for k in bad[: max(0, 20 - len(self.messages))])


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cyclonet.cli.main(argv)
    return code, out.getvalue()


class Sweep:
    """Per-network classification and spectra over a seeded mix, then the nu0 figure."""

    name = "sweep"
    op_unit = "networks"
    latency_op = "one network: compile, classify, closed form, oracle, one power"

    def __init__(self, out_dir: str, clock=time.perf_counter_ns):
        self.clock = clock
        self.csv = os.path.join(out_dir, "nu0-sweep.csv")
        self.checked_figures: set[tuple[str, ...]] = set()  # (grid args, sha256) of figures that passed

    def prepare(self, seed: int, round_index: int):
        return inputs.sweep_items(seed, round_index, NETWORKS)

    def warmup(self, seed: int) -> None:
        self.run(inputs.sweep_items(seed, 10**6, 100), SpanRecorder(self.clock), grid=["--grid-step", "0.5"])

    def run(self, items, recorder: SpanRecorder, grid=()) -> RoundResult:
        latencies = []
        outputs = []
        clock = self.clock
        start = clock()
        for item in items:
            recorder.op_id += 1
            t0 = clock()
            u = cyclonet.compile_cycle(item.net)
            tag = cyclonet.classify(item.net).tag
            closed = cyclonet.spectrum_closed_form(u) if tag != "U4" else None
            oracle = cyclonet.dense_eigendecomposition(u)
            # Powers use the Schur spectrum, as the library's own protocols do.
            power = cyclonet.matrix_power_spectral(u, item.n, oracle)
            latencies.append(clock() - t0)
            outputs.append((u, tag, closed, oracle, power))
        recorder.op_id += 1
        code, _ = _cli(["figure", "nu0-sweep", "--output", self.csv, *grid])
        wall = clock() - start
        outputs = (items, outputs, code, list(grid))
        return RoundResult(start, wall, len(items), latencies, outputs, os.path.getsize(self.csv), (recorder.op_id,))

    def check(self, result: RoundResult) -> CheckResult:
        items, outputs, code, grid = result.outputs
        res = CheckResult()
        res.facts["classes"] = Counter(item.kind for item in items)
        closed_worst = 0.0
        for i, (item, (u, tag, closed, oracle, power)) in enumerate(zip(items, outputs)):
            ref = checks.reference_cycle(item.net)
            problems = []
            if np.max(np.abs(u - ref)) > checks.COMPILE_TOL:
                problems.append("compiled cycle differs from the reference product")
            if tag != item.intended:
                problems.append(f"classified {tag}, generated as {item.intended}")
            oracle_eigs = oracle.eigenvalues()
            if checks.multiset_deviation(oracle_eigs, np.linalg.eigvals(ref)) > checks.EIGEN_TOL:
                problems.append("oracle eigenvalues differ from np.linalg.eigvals")
            if closed is not None:
                deviation = checks.multiset_deviation(closed.eigenvalues(), oracle_eigs)
                closed_worst = max(closed_worst, deviation)
                if deviation > checks.EIGEN_TOL:
                    problems.append("closed-form eigenvalues differ from the oracle")
            if np.max(np.abs(power - np.linalg.matrix_power(ref, item.n))) > checks.power_tol(item.n):
                problems.append(f"U^{item.n} from the oracle spectrum differs from np.linalg.matrix_power")
            res.record(not problems, f"network {i} ({item.kind}): {'; '.join(problems)}")
        res.facts["maxima"] = {"closed-form eigenvalues off the oracle by": closed_worst}
        res.record(*self._check_figure(code, grid, res))
        return res

    def _check_figure(self, code: int, grid: list[str], res: CheckResult) -> tuple[bool, str]:
        if code != 0:
            return False, f"nu0-sweep exited {code}"
        # The figure's arguments repeat every round, so its bytes must too;
        # only a CSV not seen before gets the full check.
        key = (*grid, checks.scan_csv(self.csv, ())[4])
        if key in self.checked_figures:
            return True, ""
        step = float(grid[1]) if grid else checks.NU0_GRID_STEP
        phis = np.arange(0.0, 2.0 * np.pi, step)
        alphas = checks.NU0_ALPHAS
        preamble, rows, count, _, _ = checks.scan_csv(self.csv, range(alphas.size * phis.size))
        if preamble != ["alpha,phi,nu0"]:
            return False, f"nu0-sweep header {preamble!r}"
        if count != alphas.size * phis.size:
            return False, f"nu0-sweep wrote {count} rows, expected {alphas.size * phis.size}"
        if not all(checks.NU0_ROW.fullmatch(line) for line in rows.values()):
            return False, "nu0-sweep row not in %.12e format"
        table = np.array([[float(x) for x in rows[i].split(",")] for i in range(count)])
        grid_a, grid_p = np.meshgrid(alphas, phis, indexing="ij")
        if np.max(np.abs(table[:, 0] - grid_a.ravel())) > 1e-12 or np.max(np.abs(table[:, 1] - grid_p.ravel())) > 1e-12:
            return False, "nu0-sweep grid differs from the default grid"
        eigs = np.linalg.eigvals(np.array([checks.pair_cycle(a, p)[1:, 1:] for a, p in table[:, :2]]))
        deviation = float(np.max(np.min(np.abs(eigs - np.exp(1j * table[:, 2])[:, None]), axis=1)))
        res.facts["maxima"]["nu0-sweep rows off the pair's eigenvalues by"] = deviation
        if deviation > checks.FIGURE_TOL:
            return False, f"nu0 off the pair's eigenvalues by {deviation:.2e}"
        self.checked_figures.add(key)
        return True, ""


class Series:
    """The write-heavy use: a 10^6-row pert-series CSV and a 10^6-step sensor demo."""

    name = "series"
    op_unit = "rows + sensor steps"
    latency_op = "one CLI command (pert-series or sensor)"
    samples = 256

    def __init__(self, out_dir: str, clock=time.perf_counter_ns):
        self.clock = clock
        self.csv = os.path.join(out_dir, "pert-series.csv")

    def prepare(self, seed: int, round_index: int):
        return inputs.series_args(seed, round_index)

    def warmup(self, seed: int) -> None:
        self.run(inputs.series_args(seed, 10**6), SpanRecorder(self.clock), nprime_max=1000)

    def run(self, args, recorder: SpanRecorder, nprime_max=None) -> RoundResult:
        nmax = str(nprime_max or NPRIME_MAX)
        commands = [
            [
                "figure", "pert-series", "--output", self.csv, "--nu1", repr(args.nu1),
                "--basis", args.basis, "--eigenstate", str(args.eigenstate), "--nprime-max", nmax,
            ],
            ["demo", "sensor", "--bit", "1", "--nprime-max", nmax],
        ]
        latencies = []
        results = []
        clock = self.clock
        start = clock()
        for argv in commands:
            recorder.op_id += 1
            t0 = clock()
            results.append(_cli(argv))
            latencies.append(clock() - t0)
        wall = clock() - start
        n = int(nmax)
        csv_op = recorder.op_id - 1
        return RoundResult(start, wall, 2 * (n + 1), latencies, (args, n, results), os.path.getsize(self.csv), (csv_op,))

    def check(self, result: RoundResult) -> CheckResult:
        args, n, ((code, _), (sensor_code, sensor_out)) = result.outputs
        res = CheckResult()
        ok, message = (False, f"pert-series exited {code}") if code != 0 else self._check_series(args, n, res)
        res.record(ok, message)
        expected = "P(psi3)=0.000000000 detected=true\n"
        res.record(
            sensor_code == 0 and sensor_out == expected,
            f"sensor exited {sensor_code} with {sensor_out!r}",
        )
        return res

    def _check_series(self, args, n: int, res: CheckResult) -> tuple[bool, str]:
        rng = np.random.default_rng(n)
        sample = sorted({0, 1, n} | set(int(i) for i in rng.integers(0, n + 1, self.samples)))
        preamble, rows, count, _, digest = checks.scan_csv(self.csv, sample)
        res.facts["csv_sha256"] = digest
        phi = checks.nu1_phi(args.nu1)
        expected_preamble = [
            f"# nu1={args.nu1:.12e}",
            None,  # phi, compared numerically below
            f"# basis={args.basis}",
            f"# k={args.eigenstate}",
            "n_prime,re,im,abs,background_re,background_im",
        ]
        if len(preamble) != 5 or any(e is not None and p != e for p, e in zip(preamble, expected_preamble)):
            return False, f"pert-series preamble {preamble!r}"
        if not preamble[1].startswith("# phi=") or abs(float(preamble[1][6:]) - phi) > 1e-9:
            return False, f"pert-series phi line {preamble[1]!r}, expected phi={phi!r}"
        if count != n + 1:
            return False, f"pert-series wrote {count} rows, expected {n + 1}"
        u = checks.pair_cycle(0.0, phi)
        lam = (1.0, np.exp(1j * args.nu1), np.exp(-1j * args.nu1))[args.eigenstate]
        psi_k = cyclonet.rotation_pair_spectrum(phi).vectors[:, args.eigenstate]
        # The eigenvector's phase is the library's convention, so only its
        # eigen-relation is checked here; the dynamics are checked in full.
        if abs(np.linalg.norm(psi_k) - 1.0) > checks.NORM_TOL or np.max(np.abs(u @ psi_k - lam * psi_k)) > checks.NORM_TOL:
            return False, "initial state is not the unit eigenvector the arguments name"
        # Probe |1> controls a flip of the bottom loop qubit, then n' cycles.
        coupled = np.kron(np.array([0.0, 1.0]), np.kron(checks.EYE2, checks.SX) @ psi_k)
        step = np.kron(checks.EYE2, u)
        target = int(args.basis, 2)
        for i in sample:
            match = checks.SERIES_ROW.fullmatch(rows[i])
            if match is None or int(match.group(1)) != i:
                return False, f"pert-series row {i} malformed: {rows[i]!r}"
            amp = (np.linalg.matrix_power(step, i) @ coupled)[target]
            re, im, mag, bg_re, bg_im = (float(match.group(g)) for g in range(2, 7))
            worst = max(abs(re - amp.real), abs(im - amp.imag), abs(mag - abs(amp)), abs(bg_re - amp.real), abs(bg_im - amp.imag))
            if worst > checks.SERIES_TOL:
                return False, f"pert-series row {i} off the operator power by {worst:.2e}"
        return True, ""


class Memory:
    """Many O(1) retrievals per stored network, plus one q-link chain per round."""

    name = "memory"
    op_unit = "retrievals"
    latency_op = "one memory_retrieve"

    def __init__(self, out_dir: str, clock=time.perf_counter_ns):
        self.clock = clock

    def prepare(self, seed: int, round_index: int):
        return inputs.memory_round(seed, round_index, STORES, READS_PER_STORE, LINKS)

    def warmup(self, seed: int) -> None:
        self.run(inputs.memory_round(seed, 10**6, 2, 4, LINKS), SpanRecorder(self.clock))

    def run(self, rnd, recorder: SpanRecorder) -> RoundResult:
        applications = getattr(cyclonet, "cycle_applications", None)
        latencies = []
        reads = []
        clock = self.clock
        start = clock()
        records = [cyclonet.memory_store(net, psi) for net, psi in zip(rnd.nets, rnd.states)]
        for index, n in rnd.reads:
            recorder.op_id += 1
            before = applications() if applications else 0
            t0 = clock()
            out = cyclonet.memory_retrieve(records[index], n)
            latencies.append(clock() - t0)
            reads.append((out, applications() - before if applications else None))
        recorder.op_id += 1
        chain = cyclonet.chain_evolve(rnd.chain_nets, rnd.chain_probe, rnd.chain_states, rnd.chain_n)
        wall = clock() - start
        return RoundResult(start, wall, len(rnd.reads), latencies, (rnd, records, reads, chain))

    def check(self, result: RoundResult) -> CheckResult:
        rnd, records, reads, chain = result.outputs
        res = CheckResult()
        index = np.array([i for i, _ in rnd.reads])
        outs = np.array([out for out, _ in reads])
        fidelity = np.abs(np.einsum("ij,ij->i", np.array(rnd.states)[index].conj(), outs))
        apps = np.array([-1 if a is None else a for _, a in reads])
        if (apps < 0).any():
            res.facts["unchecked"] = "cycle_applications counter absent"
        ok = (fidelity > 1.0 - checks.FIDELITY_TOL) & (apps <= checks.MAX_APPLICATIONS_PER_READ)
        res.record_all(
            ok,
            lambda k: f"retrieval of record {index[k]} at n={rnd.reads[k][1]}: "
            f"fidelity {fidelity[k]:.12f}, {apps[k]} applications",
        )
        first_read = {}
        for i, n in rnd.reads:
            first_read.setdefault(i, n)
        for i, (record, net, psi) in enumerate(zip(records, rnd.nets, rnd.states)):
            n = first_read[i]
            ref = checks.reference_cycle(net)
            evolved = cyclonet.matrix_power_spectral(record.cycle_matrix, n, record.spectrum) @ psi
            expected = np.linalg.matrix_power(ref, n) @ psi
            ok = np.max(np.abs(record.cycle_matrix - ref)) <= checks.COMPILE_TOL
            ok = ok and np.max(np.abs(evolved - expected)) <= checks.power_tol(n)
            res.record(ok, f"stored record {i}: evolution at n={n} differs from np.linalg.matrix_power")
        res.record(*self._check_chain(rnd, chain))
        return res

    def _check_chain(self, rnd, chain) -> tuple[bool, str]:
        norm = float(np.linalg.norm(chain))
        if abs(norm - 1.0) > checks.NORM_TOL:
            return False, f"chain norm {norm!r}"
        q, n = len(rnd.chain_nets), rnd.chain_n
        branch0 = np.array([1.0], dtype=complex)
        branch1 = np.array([1.0], dtype=complex)
        flip = np.kron(checks.EYE2, checks.SX)
        for j in reversed(range(1, q + 1)):  # cycle q is the leftmost factor
            u = checks.reference_cycle(rnd.chain_nets[j - 1])
            psi = rnd.chain_states[j - 1]
            branch0 = np.kron(branch0, np.linalg.matrix_power(u, n + q) @ psi)
            kicked = np.linalg.matrix_power(u, n + q - j) @ flip @ np.linalg.matrix_power(u, j) @ psi
            branch1 = np.kron(branch1, kicked)
        expected = np.concatenate([rnd.chain_probe[0] * branch0, rnd.chain_probe[1] * branch1])
        deviation = float(np.max(np.abs(chain - expected)))
        if deviation > checks.power_tol(n + q):
            return False, f"chain state off the operator powers by {deviation:.2e}"
        return True, ""


WORKLOADS = {cls.name: cls for cls in (Sweep, Series, Memory)}
