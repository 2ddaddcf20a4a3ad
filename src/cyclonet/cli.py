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

CSV output uses %.12e formatting and is byte-identical for identical
arguments (and seed).  The environment variable CYCLONET_FALLBACK
(oracle|error) selects whether degenerate closed-form spectra silently fall
back to the dense eigendecomposition or abort.  Invalid input files or
arguments and unwritable output paths print one "error:" line on stderr
and exit with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import protocols
from .dynamics import (
    closed_form_amplitude,
    chain_evolve,
    matrix_power_spectral,
    nu1_to_phi,
    perturbed_amplitude_series,
)
from .gates import (
    ControlDown,
    ControlUp,
    CyclicNetwork,
    DiagonalLayer,
    alternating_pair_network,
    compile_cycle,
    compress_network,
    load_network,
)
from .group import classify
from .linalg import DEMO_ESTIMATE_TOL, DEMO_FIDELITY_TOL, DEMO_RESIDUAL_TOL
from .linalg import dense_eigendecomposition, unitarity_defect
from .spectral import DegenerateSpectrumError, alternating_pair_root, check_fallback

DEFAULT_ALPHA_FAMILY = tuple(
    sorted([0.0, np.pi / 6, -np.pi / 6, np.pi / 4, -np.pi / 4, np.pi / 3, -np.pi / 3, np.pi / 2, -np.pi / 2])
)


def _fallback_policy() -> str:
    try:
        return check_fallback(os.environ.get("CYCLONET_FALLBACK", "oracle"))
    except ValueError as exc:
        raise SystemExit(f"CYCLONET_FALLBACK: {exc}")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path: str, header: list[str], rows, comments: list[str] = ()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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
        raise SystemExit(f"error: bad --alpha-family entry: {exc}")


def cmd_figure(args) -> int:
    if args.name == "nu0-sweep":
        if args.grid_step <= 0:
            print("error: --grid-step must be positive", file=sys.stderr)
            return 2
        policy = _fallback_policy()
        alphas = _parse_alpha_family(args.alpha_family)
        phis = np.arange(0.0, 2.0 * np.pi, args.grid_step)
        rows = []
        try:
            for alpha in alphas:
                for phi in phis:
                    nu0 = float(np.angle(alternating_pair_root(alpha, phi, policy)))
                    rows.append([_fmt(alpha), _fmt(phi), _fmt(nu0)])
        except DegenerateSpectrumError as exc:
            print(f"error: degenerate spectrum: {exc}", file=sys.stderr)
            return 1
        _write_csv(args.output, ["alpha", "phi", "nu0"], rows)
        print(f"wrote {len(rows)} rows to {args.output}")
        return 0
    if args.name == "pert-series":
        if args.nu1 is None:
            print("error: pert-series requires --nu1", file=sys.stderr)
            return 2
        if not 0 < args.nprime_max <= 1_000_000:
            print("error: --nprime-max must be in 1..10^6", file=sys.stderr)
            return 2
        _fallback_policy()  # validate the env var even though this figure has no oracle route
        try:
            phi = nu1_to_phi(args.nu1)
            series = perturbed_amplitude_series(phi, args.eigenstate, args.basis, args.nprime_max)
            background = closed_form_amplitude(
                phi, args.eigenstate, args.basis, np.arange(args.nprime_max + 1)
            )
        except DegenerateSpectrumError as exc:
            # The closed-form coefficients are this figure's content; with a
            # degenerate spectrum there is nothing to fall back to.
            print(f"error: degenerate spectrum: {exc}", file=sys.stderr)
            return 1
        rows = [
            [
                str(n),
                _fmt(series[n].real),
                _fmt(series[n].imag),
                _fmt(abs(series[n])),
                _fmt(background[n].real),
                _fmt(background[n].imag),
            ]
            for n in range(args.nprime_max + 1)
        ]
        _write_csv(
            args.output,
            ["n_prime", "re", "im", "abs", "background_re", "background_im"],
            rows,
            comments=[f"nu1={_fmt(args.nu1)}", f"phi={_fmt(phi)}", f"basis={args.basis}", f"k={args.eigenstate}"],
        )
        print(f"wrote {len(rows)} rows to {args.output}")
        return 0
    print(f"error: unknown figure {args.name!r}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------------
# demos


def _random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _demo_memory(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(f"# seed={args.seed}")
    net = alternating_pair_network(args.phi)
    psi = _random_state(4, rng)
    record = protocols.memory_store(net, psi)
    protocols.reset_cycle_applications()
    out = protocols.memory_retrieve(record, args.cycles)
    applications = protocols.cycle_applications()
    fidelity = float(abs(np.vdot(psi, out)))
    print(f"fidelity {fidelity:.9f}")
    print(f"cycle applications: {applications}")
    ok = fidelity > 1.0 - DEMO_FIDELITY_TOL and applications <= 4
    return 0 if ok else 1


def _demo_sensor(args) -> int:
    if not 0 <= args.nprime_max <= 1_000_000:
        print("error: --nprime-max must be in 0..10^6", file=sys.stderr)
        return 2
    net = alternating_pair_network(args.phi)
    final = protocols.sensor_run(net, args.bit, args.nprime_max)
    print(f"P(psi3)={final.p_psi3:.9f} detected={'true' if final.detected else 'false'}")
    # Stepwise cross-check of every intermediate cycle count: the probed
    # branch is the flipped reference state iterated one cycle at a time.
    u = compile_cycle(net)
    if args.bit == 0:
        probabilities = np.ones(args.nprime_max + 1)
    else:
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # reference state with the bottom qubit flipped
        probabilities = np.empty(args.nprime_max + 1)
        for n in range(args.nprime_max + 1):
            probabilities[n] = abs(v[0]) ** 2
            v = u @ v
    if args.output:
        rows = [[str(n), _fmt(p)] for n, p in enumerate(probabilities)]
        _write_csv(args.output, ["n_prime", "p_psi3"], rows)
    target = 1.0 if args.bit == 0 else 0.0
    ok = bool(np.max(np.abs(probabilities - target)) < DEMO_RESIDUAL_TOL)
    ok = ok and abs(final.p_psi3 - target) < DEMO_RESIDUAL_TOL and final.detected == (args.bit == 1)
    return 0 if ok else 1


def _demo_phase_est(args) -> int:
    fraction = float(Fraction(args.phase))
    net = CyclicNetwork(2, (DiagonalLayer((0.0, 2.0 * np.pi * fraction, 0.0, 0.0)),))
    spectrum = dense_eigendecomposition(compile_cycle(net))
    target = np.angle(np.exp(2j * np.pi * fraction))
    index = int(np.argmin(np.abs(np.exp(1j * spectrum.phases) - np.exp(1j * target))))
    result = protocols.phase_estimation_demo(net, index, args.bits)
    print(f"eigenphase fraction={result.phase_fraction:.9f}")
    print(f"estimate={result.estimate}")
    print(f"peak probability={result.distribution.max():.9f}")
    if args.output:
        rows = [[str(k), _fmt(p)] for k, p in enumerate(result.distribution)]
        _write_csv(args.output, ["outcome", "probability"], rows)
    best = round(fraction * 2**args.bits) % 2**args.bits
    ok = abs(result.estimate - best / 2**args.bits) < DEMO_ESTIMATE_TOL
    return 0 if ok else 1


def _demo_chain(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(f"# seed={args.seed}")
    q = args.links
    if not 1 <= q <= 4:
        print("error: --links must be 1..4", file=sys.stderr)
        return 2
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
    # Probe-|0> branch must be the unperturbed tensor evolution.
    unperturbed = np.array([1.0], dtype=complex)
    for net, psi in zip(reversed(nets), reversed(states)):
        u = compile_cycle(net)
        unperturbed = np.kron(unperturbed, matrix_power_spectral(u, args.nprime_max + q) @ psi)
    branch0 = out[: 4**q]
    residual = float(np.max(np.abs(branch0 - probe[0] * unperturbed)))
    print(f"links={q} n_prime={args.nprime_max} dim={out.shape[0]}")
    print(f"norm={norm:.12f}")
    print(f"unperturbed-branch residual={residual:.3e}")
    ok = abs(norm - 1.0) < DEMO_RESIDUAL_TOL and residual < DEMO_RESIDUAL_TOL
    return 0 if ok else 1


def cmd_demo(args) -> int:
    handlers = {
        "memory": _demo_memory,
        "sensor": _demo_sensor,
        "phase-est": _demo_phase_est,
        "chain": _demo_chain,
    }
    if args.name not in handlers:
        print(f"error: unknown demo {args.name!r}", file=sys.stderr)
        return 2
    return handlers[args.name](args)


# ----------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyclonet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a network JSON file")
    p_classify.add_argument("--input", required=True, help="network JSON path")
    p_classify.set_defaults(func=cmd_classify)

    p_figure = sub.add_parser("figure", help="emit a figure-reproduction CSV")
    p_figure.add_argument("name", choices=["nu0-sweep", "pert-series"])
    p_figure.add_argument("--output", required=True, help="CSV output path")
    p_figure.add_argument("--grid-step", type=float, default=0.01, help="phi grid step (radians)")
    p_figure.add_argument("--alpha-family", default=None, help="comma-separated alpha values")
    p_figure.add_argument("--nu1", type=float, default=None, help="target eigenphase for pert-series")
    p_figure.add_argument("--basis", default="110", help="joint basis state label (pert-series)")
    p_figure.add_argument("--nprime-max", type=int, default=1600, help="last n' row")
    p_figure.add_argument("--eigenstate", type=int, default=0, help="initial eigenstate index k")
    p_figure.set_defaults(func=cmd_figure)

    p_demo = sub.add_parser("demo", help="run a protocol demo")
    p_demo.add_argument("name", choices=["memory", "sensor", "phase-est", "chain"])
    p_demo.add_argument("--seed", type=int, default=0, help="PRNG seed for random draws")
    p_demo.add_argument("--phi", type=float, default=1.2, help="rotation-pair angle")
    p_demo.add_argument("--cycles", type=int, default=12345, help="memory: cycles before retrieval")
    p_demo.add_argument("--bit", type=int, choices=[0, 1], default=1, help="sensor: probe bit")
    p_demo.add_argument("--nprime-max", type=int, default=300, help="cycles after the coupling")
    p_demo.add_argument("--phase", default="1/8", help="phase-est: eigenphase fraction")
    p_demo.add_argument("--bits", type=int, default=3, help="phase-est: estimate bit count")
    p_demo.add_argument("--links", type=int, default=2, help="chain: number of linked cycles")
    p_demo.add_argument("--output", default=None, help="optional CSV output path")
    p_demo.set_defaults(func=cmd_demo)

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
