import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from csfq3d import cli
from csfq3d.fit import FitResult

DATA_DIR = resources.files("csfq3d") / "data"

BASE_CONFIG = """
[qubit]
alpha = 0.437
e_j_ghz = 136.75
e_c_ghz = 3.2
c_s_ff = 60.0

[cavity]
omega_c0_ghz = 8.2175
omega_c_ghz = 8.219
kappa_c_mhz = 0.6
kappa_i_mhz = 0.7

[cqed]
omega01_ghz = 4.68
omega12_ghz = 5.46
chi_mhz = 0.892

[grid]
n = 20
states = 4

[noise]
x_qp = 6.122448979591837e-8
a_phi_phi0sq = 3.24e-12
ramsey_time_s = 1e-6
base_temperature_k = 0.010

[attenuation]
stages = 300:1e-7, 4.0:9.9e-6, 0.1:9.99e-3, 0.01:0.99

[flux_sweep]
start = 0.49
stop = 0.51
steps = 5

[temperature_sweep]
start_k = 0.010
stop_k = 0.200
steps = 5

[filter]
pulse_counts = 1, 20
tau_s = 100e-6
tau_pi_s = 0.0
omega_min_rad_s = 1e3
omega_max_rad_s = 1e7
omega_points = 50

[envelope]
t1_s = 90e-6
shape = gaussian

[fit]
anharmonicity_ghz = 0.7863981990780409
exclude_halfwidth = 0.002

[output]
directory = out
format = csv
workers = 1
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(BASE_CONFIG)
    return path


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path / "nope.ini"), "filter"])
        assert code == cli.EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[qubit]\nalpha = 0.41\n")
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "spectrum"])
        assert code == cli.EXIT_CONFIG
        assert "missing" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("alpha = 0.437", "alpha = banana"))
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "spectrum"])
        assert code == cli.EXIT_CONFIG
        assert "bad value" in capsys.readouterr().err

    def test_physical_validation_propagates(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("alpha = 0.437", "alpha = 0.6"))
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "spectrum"])
        assert code == cli.EXIT_CONFIG
        assert "double-well" in capsys.readouterr().err


class TestDataFiles:
    def test_reads_bundled_fixture(self):
        series = cli.read_data_csv(str(DATA_DIR / "spectrum_synthetic.csv"),
                                   cli.DATA_SCHEMAS["spectrum"])
        assert len(series) == 31
        assert series.x_label == "flux_phi0"

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(cli.DataFileError, match="header"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    def test_bad_number_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("flux_phi0,freq_GHz\n0.49,4.8\n0.5,oops\n")
        with pytest.raises(cli.DataFileError, match=r"line 3, column 2"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(cli.DataFileError, match="empty"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    def test_empty_file_exit_code(self, tmp_path, config_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("")
        code = cli.main(["--config", str(config_path), "--out", str(tmp_path / "o"),
                         "fit", "spectrum", str(path)])
        assert code == cli.EXIT_CONFIG


class TestSpectrumCommand:
    def test_sweep_outputs(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_OK
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["flux_phi0", "omega01_analytic_GHz", "omega01_numeric_GHz",
                          "omega12_numeric_GHz", "status"]
        assert len(rows) == 5
        assert all(row[4] == "ok" for row in rows)
        # symmetric sweep: first and last rows carry identical frequencies
        assert rows[0][1:4] == rows[-1][1:4]

        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["failed_points"] == 0
        assert summary["grid_n"] == 20
        assert "omega01_numeric_GHz" in summary
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert sorted(manifest["outputs"]) == ["spectrum.csv", "spectrum_summary.json"]
        assert manifest["unit_conventions"]["frequencies"] == "cyclic GHz (E/h)"

    def test_bit_identical_reruns(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--config", str(config_path), "--out", str(out_a), "spectrum"]) == 0
        assert cli.main(["--config", str(config_path), "--out", str(out_b), "spectrum"]) == 0
        for name in ("spectrum.csv", "spectrum_summary.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "w1", tmp_path / "w4"
        assert cli.main(["--config", str(config_path), "--out", str(out_a),
                         "--workers", "1", "spectrum"]) == 0
        assert cli.main(["--config", str(config_path), "--out", str(out_b),
                         "--workers", "4", "spectrum"]) == 0
        assert (out_a / "spectrum.csv").read_bytes() == (out_b / "spectrum.csv").read_bytes()

    def test_json_format(self, tmp_path, config_path):
        out = tmp_path / "json_out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "--format", "json", "spectrum"])
        assert code == cli.EXIT_OK
        records = json.loads((out / "spectrum.json").read_text())
        assert len(records) == 5
        assert set(records[0]) == {"flux_phi0", "omega01_analytic_GHz",
                                   "omega01_numeric_GHz", "omega12_numeric_GHz", "status"}

    def test_partial_sweep_failure_marks_row_and_exits_3(self, tmp_path, config_path,
                                                         monkeypatch):
        from csfq3d.numeric import ConvergenceError as NumericError

        original = cli.lowest_eigenpairs

        def failing(op, k=4, **kwargs):
            # fail the f = 0.495 sweep point (and its flux mirror 0.505,
            # whose potential is identical); summary and other rows succeed
            if abs(op.potential[0, 0] - failing.marker) < 1e-12:
                raise NumericError("forced failure", [1.0])
            return original(op, k=k, **kwargs)

        probe = cli.RunConfig.load(config_path)
        marker_op = cli.build_hamiltonian_2d(probe.qubit(), 0.495, probe.grid())
        failing.marker = marker_op.potential[0, 0]
        monkeypatch.setattr(cli, "lowest_eigenpairs", failing)

        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_PARTIAL_FAILURE
        _, rows = read_csv(out / "spectrum.csv")
        statuses = [row[4] for row in rows]
        assert statuses.count("error:ConvergenceError") == 2
        assert statuses.count("ok") == len(rows) - 2
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["failed_points"] == 2

    @pytest.mark.parametrize("stop,solves", [(0.51, 5), (0.499, 6)])
    def test_optimal_point_reuses_sweep_solve(self, tmp_path, monkeypatch, stop, solves):
        # 0.5 is an exact sweep point of linspace(0.49, 0.51, 5); the summary
        # reuses that solve, and solves f = 0.5 once more only if it is absent
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("stop = 0.51", f"stop = {stop}"))
        calls = []
        original = cli.lowest_eigenpairs

        def counting(op, k=4, **kwargs):
            calls.append(op)
            return original(op, k=k, **kwargs)

        monkeypatch.setattr(cli, "lowest_eigenpairs", counting)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "--format", "json",
                         "spectrum"]) == cli.EXIT_OK
        assert len(calls) == solves
        records = json.loads((out / "spectrum.json").read_text())
        summary = json.loads((out / "spectrum_summary.json").read_text())
        at_optimum = [r for r in records if r["flux_phi0"] == 0.5]
        for record in at_optimum:
            assert summary["omega01_numeric_GHz"] == record["omega01_numeric_GHz"]
            assert summary["omega12_numeric_GHz"] == record["omega12_numeric_GHz"]
        assert len(at_optimum) == (1 if stop == 0.51 else 0)

    def test_unwritable_output_directory(self, tmp_path, config_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = cli.main(["--config", str(config_path),
                         "--out", str(blocker / "sub"), "filter"])
        assert code == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err


class TestCoherenceCommand:
    def test_outputs(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out), "coherence"])
        assert code == cli.EXIT_OK

        header, rows = read_csv(out / "t1_vs_temperature.csv")
        assert header == ["temp_K", "t1_qp_s", "status"]
        t1_values = [float(row[1]) for row in rows]
        assert all(np.diff(t1_values) < 0.0)  # hotter is always shorter-lived

        header, rows = read_csv(out / "dephasing_vs_flux.csv")
        assert header == ["flux_phi0", "gamma_phi_echo_per_s",
                          "gamma_phi_ramsey_per_s", "ramsey_echo_ratio"]
        ratios = [float(row[3]) for row in rows if row[3]]
        assert ratios
        np.testing.assert_allclose(ratios, 4.309623439359836, rtol=1e-9)

        budget = json.loads((out / "decoherence_budget.json").read_text())
        for key in ("t1_qp_s", "t1_purcell_s", "t_phi_thermal_s", "t_eff_K", "nbar",
                    "g01_MHz", "g12_MHz", "chi_MHz", "rate_convention"):
            assert key in budget
        assert budget["t_eff_K"] == pytest.approx(0.0499, rel=0.01)
        assert budget["g01_MHz"] == pytest.approx(72.844, rel=1e-3)
        assert budget["t1_purcell_s"] == pytest.approx(1.8e-3, rel=0.05)
        assert budget["t_phi_thermal_s"] == pytest.approx(3.2e-3, rel=0.05)

    def test_failed_t1_point_marks_row_and_exits_3(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("start_k = 0.010", "start_k = 0.0"))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "coherence"])
        assert code == cli.EXIT_PARTIAL_FAILURE
        _, rows = read_csv(out / "t1_vs_temperature.csv")
        assert rows[0][1] == "" and rows[0][2].startswith("error:")
        assert all(row[2] == "ok" for row in rows[1:])

    def test_zero_flux_noise_gives_zero_rates(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("a_phi_phi0sq = 3.24e-12", "a_phi_phi0sq = 0.0"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == 0
        _, rows = read_csv(out / "dephasing_vs_flux.csv")
        assert all(float(row[1]) == 0.0 and float(row[2]) == 0.0 for row in rows)


class TestFilterCommand:
    def test_outputs_match_closed_form(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert cli.main(["--config", str(config_path), "--out", str(out), "filter"]) == 0
        for name in ("filter_N1.csv", "filter_N20.csv"):
            header, rows = read_csv(out / name)
            assert header == ["omega_rad_s", "filter_value"]
            assert len(rows) == 50
            assert all(float(row[1]) >= 0.0 for row in rows)
        _, rows = read_csv(out / "filter_N1.csv")
        tau = 100e-6
        for row in rows[::11]:
            omega = float(row[0])
            expected = 16.0 * math.sin(omega * tau / 4.0) ** 4 / (omega * tau) ** 2
            assert float(row[1]) == pytest.approx(expected, abs=1e-10)


class TestFitCommand:
    def test_spectrum_fixture_recovers_generator(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "spectrum", str(DATA_DIR / "spectrum_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_spectrum.json").read_text())
        assert result["converged"]
        assert result["parameters"]["alpha"] == pytest.approx(0.41, rel=1e-6)
        assert result["parameters"]["C_S_fF"] == pytest.approx(78.0, rel=1e-6)
        assert result["parameters"]["E_J_GHz"] == pytest.approx(85.0, rel=1e-6)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "data_sha256" in manifest

    def test_t1_fixture_recovers_density(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(DATA_DIR / "example_config_perturbative.ini"),
                         "--out", str(out),
                         "fit", "t1", str(DATA_DIR / "t1_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_t1.json").read_text())
        assert result["parameters"]["x_qp"] == pytest.approx(6.122448979591837e-8, rel=1e-4)
        assert result["parameters"]["n_qp_per_um3"] == pytest.approx(0.6, rel=1e-4)
        assert result["parameters"]["n_qp_per_um3"] <= 0.6 + 1e-6

    def test_envelope_fixture(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "envelope", str(DATA_DIR / "envelope_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_envelope.json").read_text())
        assert result["parameters"]["gamma_phi_per_s"] == pytest.approx(1.25e4, rel=1e-3)

    def test_envelope_shape_override(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "envelope", str(DATA_DIR / "envelope_synthetic.csv"),
                         "--shape", "exponential"])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_envelope.json").read_text())
        assert result["model"] == "exponential decay envelope"

    def test_fluxnoise_fixture_recovers_amplitude(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(DATA_DIR / "example_config_perturbative.ini"),
                         "--out", str(out),
                         "fit", "fluxnoise", str(DATA_DIR / "fluxnoise_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_fluxnoise.json").read_text())
        assert result["sqrt_A_Phi_uPhi0"] == pytest.approx(1.8, rel=1e-6)

    def test_nonconvergence_maps_to_exit_2(self, tmp_path, config_path, monkeypatch):
        stub = FitResult(parameters={"x_qp": 0.0}, uncertainties={"x_qp": 0.0},
                         covariance=None, residual_norm=1.0, iterations=200,
                         converged=False, cost_history=(1.0,))
        monkeypatch.setattr(cli, "fit_xqp", lambda *a, **k: stub)
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "t1", str(DATA_DIR / "t1_synthetic.csv")])
        assert code == cli.EXIT_NOT_CONVERGED

    def test_fit_reruns_bit_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["--config", str(config_path), "--out", str(out),
                             "fit", "spectrum", str(DATA_DIR / "spectrum_synthetic.csv")]) == 0
        assert (out_a / "fit_spectrum.json").read_bytes() == (out_b / "fit_spectrum.json").read_bytes()


class TestWorkersResolution:
    def test_env_default(self, tmp_path, config_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV_VAR, "3")
        config = cli.RunConfig.load(config_path)
        config._parser.remove_option("output", "workers")

        class Args:
            workers = None

        assert cli._resolve_workers(Args(), config) == 3

    def test_flag_beats_config(self, config_path):
        config = cli.RunConfig.load(config_path)

        class Args:
            workers = 7

        assert cli._resolve_workers(Args(), config) == 7
