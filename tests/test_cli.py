"""Command-line interface: classification reports, CSVs, demos, determinism."""

import hashlib
import json

import numpy as np
import pytest

from cyclonet.cli import main


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
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert len(err.splitlines()) == 1

    def test_memory_negative_cycles(self, capsys):
        self.check_error(capsys, ["demo", "memory", "--cycles", "-5"], "non-negative")

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
        self.check_error(capsys, argv + ["--output", missing], "no-such-dir")


# sha256 of the CSVs these arguments wrote before the spectral layer was
# consolidated (numpy 2.4, x86-64 Linux); a refactor must keep every byte.
GOLDEN_SHA256 = {
    ("figure", "nu0-sweep"): "7909af4fd23a306f96202fea3c50f920482547b19b780eb29b4d532d71649c46",
    ("figure", "pert-series", "--nu1", "0.7", "--nprime-max", "2000"):
        "376e326d6fee7943cdbffca568299167b0a3939570615e0604e1e4657a6b48ed",
    ("demo", "sensor"): "1169a233270c85e54b32ab28f1f265ae849881ef2417d46bb7325f82298ab910",
    ("demo", "phase-est"): "7c206615156b4b8aedf5670863d73738489db7248439aca0e46b64ac9bd76734",
}


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=lambda argv: " ".join(argv))
def test_csv_bytes_match_golden_digest(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


class TestDemos:
    def test_memory_demo(self, capsys):
        assert main(["demo", "memory", "--cycles", "54321", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "# seed=9" in out
        assert "fidelity 1.000000000" in out

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

    def test_phase_estimation_demo(self, capsys):
        assert main(["demo", "phase-est", "--phase", "1/8", "--bits", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimate=0.125" in out

    def test_chain_demo(self, capsys):
        assert main(["demo", "chain", "--links", "2", "--nprime-max", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "norm=1.0000" in out

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

    def test_fallback_env_validated(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CYCLONET_FALLBACK", "bogus")
        with pytest.raises(SystemExit, match="CYCLONET_FALLBACK"):
            main(
                [
                    "figure",
                    "pert-series",
                    "--output",
                    str(tmp_path / "x.csv"),
                    "--nu1",
                    repr(np.pi / 4),
                    "--nprime-max",
                    "5",
                ]
            )
