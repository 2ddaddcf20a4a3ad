"""Command-line interface: classification reports, CSVs, demos, determinism."""

import dataclasses
import hashlib
import io
import json
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclonet import Spectrum, cli, dynamics, linalg, protocols
from cyclonet.cli import main

from helpers import traced_peak


@pytest.fixture
def schur_calls(monkeypatch):
    """Records each dense_eigendecomposition call, through every cyclonet module that binds the name."""
    calls = []
    oracle = linalg.dense_eigendecomposition

    def counted(u):
        calls.append(1)
        return oracle(u)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "cyclonet" and getattr(module, "dense_eigendecomposition", None) is oracle:
            monkeypatch.setattr(module, "dense_eigendecomposition", counted)
    return calls


def write_net(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


SINGLE_AXIS_DOC = {
    "qubits": 2,
    "gates": [
        {"kind": "control_down", "alpha": 0.0, "phi": 0.5, "beta": 0.0, "delta": 0.0},
        {"kind": "control_down", "alpha": 0.0, "phi": 0.8, "beta": 0.0, "delta": 0.0},
        {"kind": "control_down", "alpha": 0.0, "phi": 0.3, "beta": 0.0, "delta": 0.0},
    ],
}

ALTERNATING_SU3_DOC = {
    "qubits": 2,
    "gates": [
        {"kind": "control_down", "alpha": 0.4, "phi": 0.9, "beta": 0.2, "delta": 0.0},
        {"kind": "control_up", "alpha": 0.4, "phi": 0.9, "beta": 0.2, "delta": 0.0},
    ],
}

MIXED_U4_DOC = {
    "qubits": 2,
    "gates": [
        {"kind": "control_down", "alpha": 0.1, "phi": 0.9, "beta": 0.0, "delta": 0.0},
        {"kind": "u2", "line": 1, "alpha": 0.2, "phi": 0.7, "beta": 0.1, "delta": 0.3},
    ],
}


class TestClassify:
    def test_single_axis_report(self, tmp_path, capsys):
        path = write_net(tmp_path / "net.json", SINGLE_AXIS_DOC)
        assert main(["classify", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "SO3 (single-axis)" in out
        assert "3 -> 1" in out
        assert "unitarity defect" in out

    def test_alternating_su3_report(self, tmp_path, capsys):
        path = write_net(tmp_path / "net.json", ALTERNATING_SU3_DOC)
        assert main(["classify", "--input", path]) == 0
        assert "class: SU3" in capsys.readouterr().out

    def test_single_qubit_gate_reports_u4(self, tmp_path, capsys):
        path = write_net(tmp_path / "net.json", MIXED_U4_DOC)
        assert main(["classify", "--input", path]) == 0
        assert "class: U4" in capsys.readouterr().out

    def test_one_qubit_network(self, tmp_path, capsys):
        doc = {
            "qubits": 1,
            "gates": [{"kind": "u2", "line": 1, "alpha": 0.0, "phi": 0.7, "beta": 0.0, "delta": 0.0}],
        }
        path = write_net(tmp_path / "net.json", doc)
        assert main(["classify", "--input", path]) == 0
        assert "class: SO2" in capsys.readouterr().out

    def test_parse_error_names_field_and_exits_nonzero(self, tmp_path, capsys):
        path = write_net(
            tmp_path / "net.json", {"qubits": 2, "gates": [{"kind": "not"}]}
        )
        assert main(["classify", "--input", path]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["classify", "--input", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_angle_exits_2_on_stderr_only(self, tmp_path, capsys, bad):
        path = tmp_path / "net.json"
        path.write_text('{"qubits": 2, "gates": [{"kind": "control_down", "phi": %s}]}' % bad)
        assert main(["classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'phi' must be finite" in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"qubits": 2, "gates": 5}, "gates"),
            ({"qubits": 2, "gates": [{"kind": "u2", "line": 1.7}]}, "line"),
            ({"qubits": 1.5, "gates": []}, "qubits"),
            ({"qubits": 2, "gates": ["control_down"]}, "gates"),
            ({"qubits": 2, "gates": [{"kind": "control_down", "phi": 0.5, "aplha": 0.3}]}, "aplha"),
        ],
    )
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, capsys, doc, field):
        assert main(["classify", "--input", write_net(tmp_path / "net.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{field}'" in captured.err


class TestFigures:
    def test_nu0_sweep_zero_alpha_column_is_flat_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["figure", "nu0-sweep", "--output", str(out), "--grid-step", "0.01", "--alpha-family", "0"]
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == int(np.ceil(2 * np.pi / 0.01))
        phis = np.array([float(r[1]) for r in rows])
        nus = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(nus)) < 1e-9
        near_half_pi = int(np.argmin(np.abs(phis - np.pi / 2)))
        assert abs(nus[near_half_pi]) < 1e-9

    def test_nu0_sweep_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["figure", "nu0-sweep", "--grid-step", "0.05"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pert_series_long_beat(self, tmp_path):
        out = tmp_path / "series.csv"
        nu1 = (np.pi + 0.01 * np.pi) / 4
        assert main(
            ["figure", "pert-series", "--output", str(out), "--nu1", repr(nu1), "--nprime-max", "1600"]
        ) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "n_prime,re,im,abs,background_re,background_im"
        rows = [line.split(",") for line in lines[1:]]
        amp = {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows}
        assert abs(amp[800] - amp[0]) < 1e-9
        assert abs(amp[1600] - amp[800]) < 1e-9

    def test_pert_series_short_beat(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(
            ["figure", "pert-series", "--output", str(out), "--nu1", repr(0.99 * np.pi), "--nprime-max", "400"]
        ) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        rows = [line.split(",") for line in lines[1:]]
        amp = {int(r[0]): complex(float(r[1]), float(r[2])) for r in rows}
        assert abs(amp[200] - amp[0]) < 1e-9

    def test_pert_series_background_tracks_series(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(
            ["figure", "pert-series", "--output", str(out), "--nu1", repr(np.pi / 4), "--nprime-max", "50"]
        ) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        for line in lines[1:]:
            n, re, im, mag, bre, bim = line.split(",")
            assert abs(float(re) - float(bre)) < 1e-9
            assert abs(float(im) - float(bim)) < 1e-9

    def test_pert_series_peak_memory_stays_near_its_columns(self, tmp_path, capsys):
        # The six 8-byte columns are the only arrays as long as the file; one block of series
        # temporaries and one write chunk come on top.  At 2x10^5 rows that traces 17.2 MB against
        # 9.6 MB of columns.  Stacking the whole table and the whole phase grid peaks at 25.7 MB.
        n = 200_000
        argv = ["figure", "pert-series", "--nu1", "0.7", "--nprime-max", str(n), "--output", str(tmp_path / "s.csv")]
        peak = traced_peak(lambda: main(argv))
        assert peak < 2 * 6 * 8 * (n + 1), f"pert-series peaked at {peak / 1e6:.1f} MB"

    def test_pert_series_requires_nu1(self, tmp_path, capsys):
        assert main(["figure", "pert-series", "--output", str(tmp_path / "x.csv")]) == 2
        assert "--nu1" in capsys.readouterr().err

    def test_bad_grid_step(self, tmp_path, capsys):
        rc = main(["figure", "nu0-sweep", "--output", str(tmp_path / "x.csv"), "--grid-step", "0"])
        assert rc == 2
        assert "grid-step" in capsys.readouterr().err


class TestErrorExits:
    """Invalid arguments and unusable paths end in one stderr line and exit code 2."""

    def check_error(self, capsys, argv, fragment):
        """Assert exit 2 with one stderr line naming fragment; return stdout."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and fragment in captured.err
        assert len(captured.err.splitlines()) == 1
        return captured.out

    def test_memory_negative_cycles(self, capsys):
        assert self.check_error(capsys, ["demo", "memory", "--cycles", "-5"], "--cycles") == ""

    def test_chain_bad_links(self, capsys):
        assert self.check_error(capsys, ["demo", "chain", "--links", "5"], "--links") == ""

    @pytest.mark.parametrize("phase", ["1/0", "half"])
    def test_bad_phase(self, capsys, phase):
        assert self.check_error(capsys, ["demo", "phase-est", "--phase", phase], "--phase") == ""

    @pytest.mark.parametrize("bits", ["0", "9"])
    def test_bad_bits_named_before_output_opens(self, tmp_path, capsys, bits):
        out = tmp_path / "x.csv"
        assert self.check_error(capsys, ["demo", "phase-est", "--bits", bits, "--output", str(out)], "--bits") == ""
        assert not out.exists()

    def test_bad_alpha_family(self, tmp_path, capsys):
        argv = ["figure", "nu0-sweep", "--alpha-family", "x", "--output", str(tmp_path / "x.csv")]
        assert self.check_error(capsys, argv, "--alpha-family") == ""

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_memory_non_finite_phi_writes_nothing_to_stdout(self, capsys, phi):
        assert self.check_error(capsys, ["demo", "memory", "--phi", phi], "'phi'") == ""

    @pytest.mark.parametrize("demo", ["memory", "chain"])
    def test_negative_seed_named(self, capsys, demo):
        assert self.check_error(capsys, ["demo", demo, "--seed", "-1"], "--seed") == ""

    @pytest.mark.parametrize("step", ["1e-6", "nan"])
    def test_grid_step_nan_or_over_the_row_cap(self, tmp_path, capsys, step):
        # 1e-6 would be 6.3e6 rows per alpha: rejected before any row is computed.
        argv = ["figure", "nu0-sweep", "--grid-step", step, "--output", str(tmp_path / "x.csv")]
        assert self.check_error(capsys, argv, "--grid-step") == ""
        assert not (tmp_path / "x.csv").exists()

    def test_grid_step_of_exactly_the_row_cap_passes_it(self, tmp_path, capsys):
        # 2 pi / step rounds up to 10^6 rows: the cap admits it, so the directory given as --output is what fails.
        argv = ["figure", "nu0-sweep", "--alpha-family", "0", "--grid-step", "6.283188448773811e-06"]
        assert self.check_error(capsys, argv + ["--output", str(tmp_path)], str(tmp_path)) == ""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["demo", "memory", "--cycles", "1000001"], "--cycles"),
            (["demo", "memory", "--cycles", "1" + "0" * 400], "--cycles"),
            (["demo", "chain", "--nprime-max", "1000001"], "--nprime-max"),
            (["demo", "chain", "--nprime-max", "-1"], "--nprime-max"),
            (["demo", "phase-est", "--phase", "1e400"], "--phase"),
            (["figure", "nu0-sweep", "--alpha-family", "0,nan"], "--alpha-family"),
            (["figure", "nu0-sweep", "--alpha-family", ",".join(["0"] * 1600)], "--grid-step"),
        ],
    )
    def test_sizes_capped_and_values_finite(self, tmp_path, capsys, argv, field):
        if argv[1] not in ("memory", "chain"):  # the demos that write no CSV take no --output
            argv = argv + ["--output", str(tmp_path / "x.csv")]
        assert self.check_error(capsys, argv, field) == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "nu0-sweep", "--grid-step", "0.5"],
            ["figure", "pert-series", "--nu1", "0.7", "--nprime-max", "5"],
            ["demo", "sensor", "--nprime-max", "5"],
            ["demo", "phase-est"],
        ],
    )
    def test_unwritable_output(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "no-such-dir" / "out.csv")
        # The path is tried before any work, so nothing reaches stdout.
        assert self.check_error(capsys, argv + ["--output", missing], "no-such-dir") == ""

    @staticmethod
    def check_usage_error(capsys, argv, fragments):
        """Assert argparse's usage error (SystemExit 2) naming every fragment on stderr; nothing on stdout."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage:")
        assert all(fragment in captured.err.splitlines()[-1] for fragment in fragments)

    @pytest.mark.parametrize(
        "option, value", [("--eigenstate", "3"), ("--eigenstate", "-1"), ("--basis", "011"), ("--basis", "x")]
    )
    def test_pert_series_eigenstate_and_basis_checked_before_output_opens(self, tmp_path, capsys, option, value):
        out = tmp_path / "p.csv"
        argv = ["figure", "pert-series", "--nu1", "0.7", f"{option}={value}", "--output", str(out)]
        self.check_usage_error(capsys, argv, [option, "invalid choice"])
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "demo memory --output P",
            "demo chain --output P",
            "demo phase-est --cycles -1",
            "demo chain --phase 1/0",
            "demo sensor --seed 3",
            "figure nu0-sweep --output P --nu1 0.7",
            "figure pert-series --output P --nu1 0.7 --grid-step 0.5",
        ],
    )
    def test_option_of_another_command_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "p.csv"
        argv = [str(out) if arg == "P" else arg for arg in argv.split()]
        foreign = [arg for arg in argv if arg.startswith("--")][-1]  # each case ends with the foreign option
        self.check_usage_error(capsys, argv, ["unrecognized arguments:", foreign])
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv, usage",
        [
            ("demo memory --output P", "usage: cyclonet demo memory [-h]"),
            ("demo chain --bit 1", "usage: cyclonet demo chain [-h]"),
            ("figure pert-series --nu1 0.7 --output P --grid-step 0.5", "usage: cyclonet figure pert-series [-h]"),
            ("figure --bits=3 nu0-sweep --output P", "usage: cyclonet figure [-h]"),
        ],
    )
    def test_unrecognized_option_is_reported_under_its_commands_usage(self, tmp_path, capsys, argv, usage):
        out = tmp_path / "p.csv"
        argv = [str(out) if arg == "P" else arg for arg in argv.split()]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert captured.err.startswith(usage)
        assert "unrecognized arguments:" in captured.err.splitlines()[-1]
        assert not out.exists()


# sha256 of the CSVs these arguments wrote before the spectral layer was
# consolidated (numpy 2.4, x86-64 Linux); a refactor must keep every byte.
GOLDEN_SHA256 = {
    ("figure", "nu0-sweep"): "7909af4fd23a306f96202fea3c50f920482547b19b780eb29b4d532d71649c46",
    ("figure", "pert-series", "--nu1", "0.7", "--nprime-max", "2000"):
        "376e326d6fee7943cdbffca568299167b0a3939570615e0604e1e4657a6b48ed",
    ("demo", "sensor"): "1169a233270c85e54b32ab28f1f265ae849881ef2417d46bb7325f82298ab910",
    ("demo", "phase-est"): "7c206615156b4b8aedf5670863d73738489db7248439aca0e46b64ac9bd76734",
    # Recorded before the CLI wrote CSVs from arrays: bit 0 of the sensor, a
    # pert-series longer than one write chunk with non-default basis and
    # eigenstate, and a custom nu0 grid and alpha family.
    ("demo", "sensor", "--bit", "0", "--nprime-max", "1000"):
        "23f2fac83fa79b294ef8f8ce7e0f1b2fe9653023658387642e7817a56460f96b",
    ("figure", "pert-series", "--nu1", "1.1", "--basis", "101", "--eigenstate", "2", "--nprime-max", "40000"):
        "284ec40c70a106d58adc1ba144654ddcd3de25c7a169c932560289a006c502bb",
    ("figure", "nu0-sweep", "--grid-step", "0.05", "--alpha-family", "0.1,-0.7"):
        "4b0fc432e1e255dcc35e376bf64addac7673f7f6f2bb6e0fbe36dcf47f84e3ab",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=lambda argv: " ".join(argv))
def test_csv_bytes_match_golden_digest(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


# Full stdout of README's memory and chain examples, on the build the golden CSVs were
# recorded on: it pins each seeded draw, the chain's gate order and angle range.
README_EXAMPLE_STDOUT = {
    "demo memory --cycles 12345 --seed 7":
        "# seed=7\nfidelity 1.000000000\ncycle applications: 2\nspectral-power residual=1.886e-12\n",
    "demo chain --links 2 --nprime-max 5 --seed 3":
        "# seed=3\nlinks=2 n_prime=5 dim=32\nnorm=1.000000000000\nunperturbed-branch residual=3.066e-16\n",
}


@pytest.mark.parametrize("argv", list(README_EXAMPLE_STDOUT))
def test_readme_demo_stdout_is_pinned(capsys, argv):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == README_EXAMPLE_STDOUT[argv]


class TestDemos:
    def test_memory_demo(self, capsys):
        assert main(["demo", "memory", "--cycles", "54321", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "# seed=9" in out
        assert "fidelity 1.000000000" in out

    @pytest.mark.parametrize("cycles", ["12345", "1000000"])
    def test_memory_residual_catches_skewed_stored_spectrum(self, monkeypatch, capsys, cycles):
        # Phases scaled by 1 + 1e-6 still retrieve with full fidelity (U^n and
        # U^-n share the spectrum); only binary exponentiation can notice.
        store = protocols.memory_store

        def skewed_store(net, psi):
            record = store(net, psi)
            spectrum = Spectrum(record.spectrum.phases * (1 + 1e-6), record.spectrum.vectors)
            return dataclasses.replace(record, spectrum=spectrum)

        assert main(["demo", "memory", "--cycles", cycles]) == 0
        assert float(capsys.readouterr().out.split("spectral-power residual=")[1]) < 4e-9
        monkeypatch.setattr(protocols, "memory_store", skewed_store)
        assert main(["demo", "memory", "--cycles", cycles]) == 1
        out = capsys.readouterr().out
        assert "fidelity 1.000000000" in out
        assert float(out.split("spectral-power residual=")[1]) > 1e-6

    def test_sensor_demo_bit_one(self, capsys):
        assert main(["demo", "sensor", "--bit", "1", "--nprime-max", "300"]) == 0
        assert "P(psi3)=0.000000000 detected=true" in capsys.readouterr().out

    def test_sensor_demo_bit_zero_with_csv(self, tmp_path, capsys):
        out = tmp_path / "sensor.csv"
        assert main(
            ["demo", "sensor", "--bit", "0", "--nprime-max", "50", "--output", str(out)]
        ) == 0
        assert "P(psi3)=1.000000000 detected=false" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert rows[0] == "n_prime,p_psi3"
        assert len(rows) == 52

    @pytest.mark.parametrize("bit", ["0", "1"])
    def test_sensor_demo_takes_one_spectrum(self, schur_calls, capsys, bit):
        assert main(["demo", "sensor", "--bit", bit, "--nprime-max", "300"]) == 0
        assert len(schur_calls) == 1

    @pytest.mark.parametrize(
        "demo, spectra",
        [("phase-est", 1), ("memory", 1)]
        + [(f"chain --links {q}", q) for q in range(1, 5)]
        + [("chain --links 1 --nprime-max 1000000", 1)],
    )
    def test_one_schur_spectrum_per_distinct_cycle(self, schur_calls, capsys, demo, spectra):
        # Each demo builds its cycles afresh; every reader of one cycle shares its stored spectrum.
        assert main(["demo", *demo.split()]) == 0
        assert len(schur_calls) == spectra

    def test_sensor_demo_checks_the_printed_last_entry(self, monkeypatch, capsys):
        series = protocols.sensor_series

        def skewed_series(net, bit, n_prime_max):
            probabilities = series(net, bit, n_prime_max)
            probabilities[-1] += 1e-6
            return probabilities

        monkeypatch.setattr(protocols, "sensor_series", skewed_series)
        assert main(["demo", "sensor", "--bit", "1", "--nprime-max", "300"]) == 1
        assert "P(psi3)=0.000001000 detected=true" in capsys.readouterr().out

    def test_phase_estimation_demo(self, capsys):
        assert main(["demo", "phase-est", "--phase", "1/8", "--bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimate=0.125" in out

    # The printed fraction is the estimated eigenphase over 2 pi, mod 1, not the --phase argument.
    @pytest.mark.parametrize("phase, printed", [("9/8", "0.125000000"), ("5/8", "0.625000000"), ("1/3", "0.333333333")])
    def test_phase_estimation_demo_prints_the_eigenphase_fraction(self, capsys, phase, printed):
        assert main(["demo", "phase-est", "--phase", phase, "--bits", "4"]) == 0
        assert f"eigenphase fraction={printed}\n" in capsys.readouterr().out

    # Both neighbours of a phase halfway between two t-bit values are correct estimates.
    @pytest.mark.parametrize("phase, bits", [("1/16", "3"), ("3/16", "3"), ("3/4", "1"), ("13/32", "4")])
    def test_phase_estimation_demo_passes_at_a_halfway_phase(self, capsys, phase, bits):
        assert main(["demo", "phase-est", "--phase", phase, "--bits", bits]) == 0

    @pytest.mark.parametrize(
        "phase, bits, estimate, code",
        [
            ("1/16", "3", 0.0, 0),
            ("1/16", "3", 0.125, 0),
            ("1/16", "3", 0.25, 1),
            ("1/8", "3", 0.0, 1),
            ("31/32", "4", 0.0, 0),
            ("31/32", "4", 0.9375, 0),
            ("31/32", "4", 0.875, 1),
            ("-1/8", "3", 0.875, 0),
            ("-1/8", "3", 0.0, 1),
        ],
    )
    def test_phase_estimate_passes_within_half_a_step_around_the_circle(
        self, monkeypatch, capsys, phase, bits, estimate, code
    ):
        demo = protocols.phase_estimation_demo
        monkeypatch.setattr(
            protocols, "phase_estimation_demo", lambda *args: dataclasses.replace(demo(*args), estimate=estimate)
        )
        assert main(["demo", "phase-est", f"--phase={phase}", "--bits", bits]) == code

    def test_phase_estimation_demo_far_phase_exits_1_without_a_traceback(self, capsys):
        # 2 pi x 1e307 keeps no digit of the phase mod 1, so the estimate misses it; the exact check cannot overflow.
        assert main(["demo", "phase-est", "--phase", "1e307", "--bits", "8"]) == 1

    def test_chain_demo(self, capsys):
        assert main(["demo", "chain", "--links", "2", "--nprime-max", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "norm=1.0000" in out

    def test_chain_residual_catches_skewed_spectral_powers(self, monkeypatch, capsys):
        # Every spectral power with its phases scaled by 1 + 1e-6 stays unitary,
        # so only a reference branch taken by another route can notice.
        spectral_power = dynamics.matrix_power_spectral

        def skewed(u, n, spectrum):
            return spectral_power(u, n, Spectrum(spectrum.phases * (1 + 1e-6), spectrum.vectors))

        monkeypatch.setattr(dynamics, "matrix_power_spectral", skewed)
        assert main(["demo", "chain", "--links", "2", "--nprime-max", "300", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert "norm=1.0000" in out
        assert float(out.split("residual=")[1]) > 1e-6

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_pert_series_degenerate_spectrum_exits_cleanly(self, tmp_path, capsys):
        # nu1 this close to pi collides the conjugate eigenvalue pair; the
        # closed-form figure has nothing to fall back to.
        rc = main(
            [
                "figure",
                "pert-series",
                "--output",
                str(tmp_path / "x.csv"),
                "--nu1",
                repr(np.pi - 1e-9),
                "--nprime-max",
                "5",
            ]
        )
        assert rc == 1
        assert "degenerate" in capsys.readouterr().err


class ShiftedProduct:
    """A reference power whose product with a state is off by offset in its first entry."""

    def __init__(self, matrix, offset):
        self.matrix, self.offset = matrix, offset

    def __matmul__(self, state):
        out = self.matrix @ state
        out[0] += self.offset
        return out


# A route shifted by half a demo's bound passes; one shifted by twice the bound, or by a
# fixed literal a few hundred times it, fails.
BOUND_SHIFTS = pytest.mark.parametrize("scale, code", [(0.5, 0), (2.0, 1), ("far", 1)], ids=["half", "twice", "far"])


class TestDemoBounds:
    @staticmethod
    def offset(scale, bound, far):
        return far if scale == "far" else scale * bound

    @BOUND_SHIFTS
    @pytest.mark.parametrize("cycles, far", [(0, 3e-8), (1000000, 1e-6)])
    def test_memory_power_residual(self, monkeypatch, capsys, cycles, far, scale, code):
        offset = self.offset(scale, linalg.STATE_TOL + cycles * linalg.POWER_ERROR_PER_CYCLE, far)
        direct = cli.matrix_power_direct
        monkeypatch.setattr(cli, "matrix_power_direct", lambda u, n: ShiftedProduct(direct(u, n), offset))
        assert main(["demo", "memory", "--cycles", str(cycles)]) == code

    @BOUND_SHIFTS
    def test_memory_fidelity_shortfall(self, monkeypatch, capsys, scale, code):
        offset = self.offset(scale, linalg.STATE_TOL, 3e-8)
        retrieve = protocols.memory_retrieve
        monkeypatch.setattr(protocols, "memory_retrieve", lambda record, n: retrieve(record, n) * (1.0 - offset))
        assert main(["demo", "memory"]) == code

    @BOUND_SHIFTS
    @pytest.mark.parametrize("bit", [0, 1])
    def test_sensor_probability_residual(self, monkeypatch, capsys, bit, scale, code):
        offset = self.offset(scale, linalg.STATE_TOL, 3e-8)
        series = protocols.sensor_series
        # Shifted toward 1/2, so only the residual moves, not the verdict.
        monkeypatch.setattr(protocols, "sensor_series", lambda *args: series(*args) + (offset if bit else -offset))
        assert main(["demo", "sensor", "--bit", str(bit)]) == code

    @BOUND_SHIFTS
    @pytest.mark.parametrize("n_prime, far", [(0, 3e-8), (1000000, 1e-6)])
    def test_chain_power_residual(self, monkeypatch, capsys, n_prime, far, scale, code):
        offset = self.offset(scale, linalg.STATE_TOL + (n_prime + 1) * linalg.POWER_ERROR_PER_CYCLE, far)
        evolve, direct = cli.chain_evolve, cli.matrix_power_direct
        probes = []

        def recording_evolve(nets, probe, states, n):
            probes.append(probe[0])
            return evolve(nets, probe, states, n)

        # The reference branch is the link's power times the probe's |0> amplitude, so the shift divides by it.
        monkeypatch.setattr(cli, "chain_evolve", recording_evolve)
        monkeypatch.setattr(cli, "matrix_power_direct", lambda u, n: ShiftedProduct(direct(u, n), offset / probes[0]))
        assert main(["demo", "chain", "--links", "1", "--nprime-max", str(n_prime)]) == code

    @BOUND_SHIFTS
    def test_chain_norm(self, monkeypatch, capsys, scale, code):
        # At 10^6 cycles the residual bound is about 36 times STATE_TOL, so the norm fails first.
        offset = self.offset(scale, linalg.STATE_TOL, 3e-8)
        evolve = cli.chain_evolve
        monkeypatch.setattr(cli, "chain_evolve", lambda *args: evolve(*args) * (1.0 + offset))
        assert main(["demo", "chain", "--links", "1", "--nprime-max", "1000000"]) == code


# ----------------------------------------------------------------------------
# Any argv: exit 0, 1 or 2, never a traceback; exit 2 is one stderr line and no stdout.

FLOAT_ARG = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.7", "1.2", "1e300", "1e-320"])


def count_arg(valid_max):
    return st.sampled_from(["-1", "1000001", "1" + "0" * 400]) | st.integers(0, valid_max).map(str)


OUTPUT_ARG = st.sampled_from(["out.csv", "no-such-dir/out.csv"])
ARGV_OPTIONS = {
    ("classify",): {"--input": st.sampled_from(["net.json", "nan.json", "mistyped.json", "missing.json"])},
    ("figure", "nu0-sweep"): {
        "--output": OUTPUT_ARG,
        "--grid-step": st.sampled_from(["0", "-0.5", "nan", "inf", "1e-7", "1e-320", "1e300"])
        | st.floats(0.05, 7.0).map(repr),
        "--alpha-family": st.sampled_from(["0", "0.1,-0.7", "x", "", "nan", "1e400"]),
    },
    ("figure", "pert-series"): {
        "--output": OUTPUT_ARG,
        "--nu1": FLOAT_ARG | st.floats(0.01, 3.13).map(repr),
        "--nprime-max": count_arg(2000),
        "--basis": st.sampled_from(["100", "101", "110", "111", "011", "x"]),
        "--eigenstate": st.integers(-1, 3).map(str),
    },
    ("demo", "memory"): {"--phi": FLOAT_ARG, "--cycles": count_arg(10**6), "--seed": count_arg(2**64)},
    ("demo", "sensor"): {
        "--output": OUTPUT_ARG,
        "--bit": st.sampled_from(["0", "1", "2"]),
        "--phi": FLOAT_ARG,
        "--nprime-max": count_arg(2000),
    },
    ("demo", "phase-est"): {
        "--output": OUTPUT_ARG,
        "--phase": st.sampled_from(["1/8", "3/7", "0", "-5/3", "1/0", "half", "nan", "1e400"]),
        "--bits": st.integers(-1, 9).map(str),
    },
    ("demo", "chain"): {"--links": st.integers(0, 5).map(str), "--nprime-max": count_arg(2000), "--seed": count_arg(2**64)},
}


@st.composite
def cli_argv(draw, command):
    argv = list(command)
    for option, values in ARGV_OPTIONS[command].items():
        if draw(st.integers(0, 3)):  # each option is given in about three draws of four
            argv.append(f"{option}={draw(values)}")
    return argv


@pytest.mark.parametrize("command", sorted(ARGV_OPTIONS), ids=" ".join)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_cleanly(tmp_path, monkeypatch, command, data):
    argv = data.draw(cli_argv(command), label="argv")
    monkeypatch.chdir(tmp_path)  # --input and --output paths are relative
    write_net(tmp_path / "net.json", SINGLE_AXIS_DOC)
    (tmp_path / "nan.json").write_text('{"qubits": 2, "gates": [{"kind": "control_up", "phi": NaN}]}')
    write_net(tmp_path / "mistyped.json", {"qubits": 2, "gates": [{"kind": "u2", "line": 1.7}]})
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # outside pytest a warning is printed on stderr
        try:
            code = main(argv)
            usage_error = False
        except SystemExit as exc:  # argparse's own usage errors
            code, usage_error = exc.code, True
    out, err = out.getvalue(), err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if usage_error:
        assert code == 2 and out == "" and err.startswith("usage:") and "error:" in err
    elif code == 2:
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
