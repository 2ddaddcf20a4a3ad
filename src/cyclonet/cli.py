"""Command-line front end: classify networks, emit sweep CSVs, run protocol demos.

Subcommands:

    cyclonet classify --input net.json
    cyclonet figure nu0-sweep --output sweep.csv [--grid-step S] [--alpha-family A,B,...]
    cyclonet figure pert-series --output series.csv --nu1 NU [--basis 110]
                                [--nprime-max N] [--eigenstate K]
    cyclonet demo memory [--phi PHI] [--cycles N] [--seed S]
    cyclonet demo sensor --bit {0,1} [--phi PHI] [--nprime-max N] [--output csv]
    cyclonet demo phase-est [--phase FRACTION] [--bits T] [--output csv]
    cyclonet demo chain [--links Q] [--nprime-max N] [--seed S]

Each command takes only the options in its synopsis; any other is a usage
error (exit 2).  Numbers come as arrays from the library and are written
with one %-format per row (%d counts, %.12e values), so a CSV is
byte-identical for identical arguments.  Invalid input files or arguments
and unwritable output paths print one "error:" line on stderr and exit 2;
an output path is tried before any work, and every size is capped at 10^6.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

import numpy as np

from . import protocols
from .dynamics import PERTURBED_BASIS_LABELS, chain_evolve, closed_form_amplitude, matrix_power_spectral
from .dynamics import nu1_to_phi, perturbed_amplitude_series
from .gates import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    alternating_pair_network,
    compile_cycle,
    compress_network,
    cycle_spectrum,
    load_network,
)
from .group import classify
from .linalg import DEMO_ESTIMATE_TOL, DEMO_FIDELITY_TOL, DEMO_RESIDUAL_TOL
from .linalg import check_integer, matrix_power_direct, unitarity_defect
from .spectral import DegenerateSpectrumError, alternating_pair_root

DEFAULT_ALPHA_FAMILY = tuple(
    sorted([0.0, np.pi / 6, -np.pi / 6, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3, np.pi / 2, -np.pi / 2])
)
_CHUNK_ROWS = 1 << 14  # table rows formatted per write
_MAX_SIZE = 1_000_000  # cap on every size the CLI takes: CSV rows, n' and cycle counts


def _check_output(path: str | None) -> None:
    """Fail on an unusable output path before any work is done."""
    if path:
        open(path, "a", encoding="utf-8").close()


def _write_csv(path: str, header: str, columns, row_format: str, comments=()) -> None:
    """Write equal-length 1-D columns as rows, one %-format string per row, stacking one fixed-size chunk at a time."""
    row_format += "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = np.column_stack([column[start : start + _CHUNK_ROWS] for column in columns])
            fh.write("".join([row_format % tuple(row) for row in chunk.tolist()]))


# ----------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
    try:
        net = load_network(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read network: {exc}", file=sys.stderr)
        return 2
    try:
        u = compile_cycle(net)
        group = classify(net)
    except ValueError as exc:
        print(f"error: invalid network: {exc}", file=sys.stderr)
        return 2
    compressed = compress_network(net)
    print(f"class: {group}")
    print(f"gates: {len(net.gates)} -> {len(compressed.gates)} after compression")
    print(f"unitarity defect: {unitarity_defect(u):.3e}")
    return 0


# ----------------------------------------------------------------------------
# figures


def _parse_alpha_family(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_ALPHA_FAMILY
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --alpha-family entry: {exc}") from None


def _figure_nu0_sweep(args) -> int:
    alphas = _parse_alpha_family(args.alpha_family)
    if not np.isfinite(alphas).all():
        raise ValueError("--alpha-family entries must be finite")
    if not (args.grid_step > 0 and len(alphas) * np.ceil(2.0 * np.pi / args.grid_step) <= _MAX_SIZE):
        raise ValueError("--grid-step must be positive and, with --alpha-family, give at most 10^6 rows")
    _check_output(args.output)
    phis = np.arange(0.0, 2.0 * np.pi, args.grid_step)
    nu0 = [np.angle(alternating_pair_root(alpha, phi)) for alpha in alphas for phi in phis]
    columns = [np.repeat(alphas, len(phis)), np.tile(phis, len(alphas)), nu0]
    _write_csv(args.output, "alpha,phi,nu0", columns, "%.12e,%.12e,%.12e")
    print(f"wrote {len(nu0)} rows to {args.output}")
    return 0


def _figure_pert_series(args) -> int:
    if args.nu1 is None:
        raise ValueError("pert-series requires --nu1")
    check_integer(args.nprime_max, "--nprime-max", 1, _MAX_SIZE)
    _check_output(args.output)
    try:
        phi = nu1_to_phi(args.nu1)
        series = perturbed_amplitude_series(phi, args.eigenstate, args.basis, args.nprime_max)
        n_prime = np.arange(args.nprime_max + 1)
        background = closed_form_amplitude(phi, args.eigenstate, args.basis, n_prime)
    except DegenerateSpectrumError as exc:
        # The closed-form coefficients are this figure's content; with a
        # degenerate spectrum there is nothing to fall back to.
        print(f"error: degenerate spectrum: {exc}", file=sys.stderr)
        return 1
    # hypot, not np.abs: it matches the scalar abs() of each entry bit for bit.
    magnitude = np.hypot(series.real, series.imag)
    _write_csv(
        args.output,
        "n_prime,re,im,abs,background_re,background_im",
        [n_prime, series.real, series.imag, magnitude, background.real, background.imag],
        "%d" + ",%.12e" * 5,
        comments=[f"nu1={args.nu1:.12e}", f"phi={phi:.12e}", f"basis={args.basis}", f"k={args.eigenstate}"],
    )
    print(f"wrote {len(series)} rows to {args.output}")
    return 0


# ----------------------------------------------------------------------------
# demos


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _demo_memory(args) -> int:
    check_integer(args.seed, "--seed")
    check_integer(args.cycles, "--cycles", 0, _MAX_SIZE)
    net = alternating_pair_network(args.phi)
    rng = np.random.default_rng(args.seed)
    print(f"# seed={args.seed}")
    psi = _random_state(4, rng)
    record = protocols.memory_store(net, psi)
    protocols.reset_cycle_applications()
    out = protocols.memory_retrieve(record, args.cycles)
    applications = protocols.cycle_applications()
    fidelity = float(abs(np.vdot(psi, out)))
    # Retrieval takes U^n and U^-n from the one stored spectrum, so a wrong spectrum
    # keeps full fidelity; its power is checked against binary exponentiation.
    n = args.cycles
    spectral = matrix_power_spectral(record.cycle_matrix, n, record.spectrum) @ psi
    residual = float(np.max(np.abs(spectral - matrix_power_direct(record.cycle_matrix, n) @ psi)))
    print(f"fidelity {fidelity:.9f}")
    print(f"cycle applications: {applications}")
    print(f"spectral-power residual={residual:.3e}")
    residual_tol = DEMO_RESIDUAL_TOL + 16 * n * np.finfo(float).eps
    ok = fidelity > 1.0 - DEMO_FIDELITY_TOL and applications <= 4 and residual < residual_tol
    return 0 if ok else 1


def _demo_sensor(args) -> int:
    check_integer(args.nprime_max, "--nprime-max", 0, _MAX_SIZE)
    _check_output(args.output)
    probabilities = protocols.sensor_series(alternating_pair_network(args.phi), args.bit, args.nprime_max)
    final = protocols.SensorReading(p_psi3=float(probabilities[-1]))
    print(f"P(psi3)={final.p_psi3:.9f} detected={'true' if final.detected else 'false'}")
    if args.output:
        _write_csv(args.output, "n_prime,p_psi3", [np.arange(len(probabilities)), probabilities], "%d,%.12e")
    # The self-check covers every cycle count, the printed last one included.
    target = 1.0 if args.bit == 0 else 0.0
    ok = bool(np.max(np.abs(probabilities - target)) < DEMO_RESIDUAL_TOL) and final.detected == (args.bit == 1)
    return 0 if ok else 1


def _demo_phase_est(args) -> int:
    check_integer(args.bits, "--bits", 1, 8)
    try:
        fraction = float(Fraction(args.phase))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"--phase must be a fraction such as 1/8, got {args.phase!r}") from None
    _check_output(args.output)
    net = CyclicNetwork(2, (DiagonalLayer((0.0, 2.0 * np.pi * fraction, 0.0, 0.0)),))
    spectrum = cycle_spectrum(net)
    target = np.angle(np.exp(2j * np.pi * fraction))
    index = int(np.argmin(np.abs(np.exp(1j * spectrum.phases) - np.exp(1j * target))))
    result = protocols.phase_estimation_demo(net, index, args.bits)
    print(f"eigenphase fraction={result.phase_fraction:.9f}")
    print(f"estimate={result.estimate}")
    print(f"peak probability={result.distribution.max():.9f}")
    if args.output:
        columns = [np.arange(len(result.distribution)), result.distribution]
        _write_csv(args.output, "outcome,probability", columns, "%d,%.12e")
    best = round(fraction * 2**args.bits) % 2**args.bits
    ok = abs(result.estimate - best / 2**args.bits) < DEMO_ESTIMATE_TOL
    return 0 if ok else 1


def _demo_chain(args) -> int:
    q = args.links
    check_integer(q, "--links", 1, 4)
    check_integer(args.seed, "--seed")
    check_integer(args.nprime_max, "--nprime-max", 0, _MAX_SIZE)
    rng = np.random.default_rng(args.seed)
    print(f"# seed={args.seed}")
    nets, states = [], []
    for _ in range(q):
        m = int(rng.integers(1, 4))
        gates = tuple(
            (ControlDown if i % 2 == 0 else ControlUp)(*rng.uniform(-np.pi, np.pi, 4))
            for i in range(m)
        )
        nets.append(CyclicNetwork(2, gates))
        states.append(_random_state(4, rng))
    probe = _random_state(2, rng)
    out = chain_evolve(nets, probe, states, args.nprime_max)
    norm = float(np.linalg.norm(out))
    # Probe-|0> branch must be the unperturbed tensor evolution (cycle q leftmost),
    # here from binary-exponentiation powers, not the spectral route chain_evolve takes.
    n = args.nprime_max + q
    links = zip(reversed(nets), reversed(states))
    unperturbed = functools.reduce(np.kron, [matrix_power_direct(compile_cycle(net), n) @ psi for net, psi in links])
    branch0 = out[: 4**q]
    residual = float(np.max(np.abs(branch0 - probe[0] * unperturbed)))
    print(f"links={q} n_prime={args.nprime_max} dim={out.shape[0]}")
    print(f"norm={norm:.12f}")
    print(f"unperturbed-branch residual={residual:.3e}")
    # Spectral powers drift from repeated squaring like n·eps (README, "Numerical tolerances").
    residual_tol = DEMO_RESIDUAL_TOL + 16 * n * np.finfo(float).eps
    ok = abs(norm - 1.0) < DEMO_RESIDUAL_TOL and residual < residual_tol
    return 0 if ok else 1


# ----------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Refuses arguments it does not take under its own usage line, not the root parser's (subparsers share the class)."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cyclonet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a network JSON file")
    p.add_argument("--input", required=True, help="network JSON path")
    p.set_defaults(func=cmd_classify)

    figure = sub.add_parser("figure", help="emit a figure-reproduction CSV").add_subparsers(dest="name", required=True)
    p = figure.add_parser("nu0-sweep", help="alternating-pair eigenphase nu0 over a phi grid")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--grid-step", type=float, default=0.01, help="phi grid step (radians)")
    p.add_argument("--alpha-family", default=None, help="comma-separated alpha values")
    p.set_defaults(func=_figure_nu0_sweep)
    p = figure.add_parser("pert-series", help="probe-perturbed amplitude versus n'")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--nu1", type=float, default=None, help="target eigenphase")
    p.add_argument("--basis", choices=PERTURBED_BASIS_LABELS, default="110", help="joint basis state label")
    p.add_argument("--nprime-max", type=int, default=1600, help="last n' row")
    p.add_argument("--eigenstate", type=int, choices=range(3), default=0, help="initial eigenstate index k")
    p.set_defaults(func=_figure_pert_series)

    demo = sub.add_parser("demo", help="run a protocol demo").add_subparsers(dest="name", required=True)
    p = demo.add_parser("memory", help="store a state and retrieve it after many cycles")
    p.add_argument("--phi", type=float, default=1.2, help="rotation-pair angle")
    p.add_argument("--cycles", type=int, default=12345, help="cycles before retrieval")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for random draws")
    p.set_defaults(func=_demo_memory)
    p = demo.add_parser("sensor", help="detect a probe bit from the cycle's evolution")
    p.add_argument("--bit", type=int, choices=[0, 1], default=1, help="probe bit")
    p.add_argument("--phi", type=float, default=1.2, help="rotation-pair angle")
    p.add_argument("--nprime-max", type=int, default=300, help="cycles after the coupling")
    p.add_argument("--output", default=None, help="optional CSV output path")
    p.set_defaults(func=_demo_sensor)
    p = demo.add_parser("phase-est", help="estimate an eigenphase with a t-bit register")
    p.add_argument("--phase", default="1/8", help="eigenphase fraction")
    p.add_argument("--bits", type=int, default=3, help="estimate bit count")
    p.add_argument("--output", default=None, help="optional CSV output path")
    p.set_defaults(func=_demo_phase_est)
    p = demo.add_parser("chain", help="probe a chain of linked cycles")
    p.add_argument("--links", type=int, default=2, help="number of linked cycles")
    p.add_argument("--nprime-max", type=int, default=300, help="cycles after the coupling")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for random draws")
    p.set_defaults(func=_demo_chain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Invalid input or an unusable output path: one line on stderr, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
