import configparser
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from csfq3d import cli
from csfq3d.analytic import PerturbativeValidityWarning
from csfq3d.cqed import DispersiveLimitWarning
from csfq3d.decoherence import FluxNoise, QuasiparticleEnv, decay_envelope
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

[noise]
x_qp = 6.122448979591837e-8
a_phi_phi0sq = 3.24e-12
ramsey_time_s = 1e-6
base_temperature_k = 0.010
delta0_uev = 200.0
n_cp_per_um3 = 4.9e6
omega_ir_rad_s = 2.5645654315018716

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

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        code = cli.main(["--config", str(tmp_path), "filter"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config path is not a file: {tmp_path}\n"

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_bytes(b"\xff\xfe" + BASE_CONFIG.encode())
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "filter"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file is not UTF-8: {path}: byte 0")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, where", [
        ("alpha = 0.41\n" + BASE_CONFIG, "line: 1"),
        (BASE_CONFIG.replace("alpha = 0.437\n", "alpha = 0.437\nalpha 0.41\n"), "[line 4]"),
    ], ids=["no-section-header", "no-equals-sign"])
    def test_malformed_config_is_one_line(self, tmp_path, capsys, text, where):
        path = tmp_path / "c.ini"
        path.write_text(text)
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "filter"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse config: ") and "'c.ini'" in err
        assert len(err.splitlines()) == 1 and where in err

    @pytest.mark.parametrize("line, value, command, message", [
        ("shape = gaussian", "shape = gaussian 100%", ["fit", "envelope"],
         "[envelope] shape must be one of gaussian, exponential, got 'gaussian 100%'"),
        ("pulse_counts = 1, 20", "pulse_counts = %(zz)s", ["filter"],
         "bad [filter] pulse_counts: '%(zz)s'"),
    ], ids=["percent-sign", "interpolation-syntax"])
    def test_percent_sign_is_literal(self, tmp_path, capsys, line, value, command, message):
        # values are not interpolated, so each fails its own cast
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace(line, value))
        if command[0] == "fit":
            command = [*command, str(DATA_DIR / "envelope_synthetic.csv")]
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), *command])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_byte_order_mark_is_ignored(self, tmp_path, config_path):
        # a BOM-prefixed copy runs to the same bytes, manifest hash included
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
        out_plain, out_bom = tmp_path / "plain", tmp_path / "bom"
        assert cli.main(["--config", str(config_path), "--out", str(out_plain), "filter"]) == 0
        assert cli.main(["--config", str(path), "--out", str(out_bom), "filter"]) == 0
        for name in ("filter_N1.csv", "filter_N20.csv", "manifest.json"):
            assert (out_plain / name).read_bytes() == (out_bom / name).read_bytes()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, line, command", [
        ("flux_sweep", "start = 0.49", "spectrum"),
        ("flux_sweep", "stop = 0.51", "spectrum"),
        ("temperature_sweep", "start_k = 0.010", "coherence"),
        ("temperature_sweep", "stop_k = 0.200", "coherence"),
    ])
    def test_non_finite_sweep_bound(self, tmp_path, capsys, section, line, command, value):
        key = line.split(" = ")[0]
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace(line, f"{key} = {value}"))
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "o"), command])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"[{section}] {key} must be finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("line, value, command", [
        ("format = csv", "format = xml", ["filter"]),
        ("format = csv", "format = JSON", ["spectrum"]),
        ("shape = gaussian", "shape = foo", ["fit", "envelope", "envelope_synthetic.csv"]),
        ("exclude_halfwidth = 0.002", "exclude_halfwidth = -0.001",
         ["fit", "fluxnoise", "fluxnoise_synthetic.csv"]),
        ("exclude_halfwidth = 0.002", "exclude_halfwidth = nan",
         ["fit", "fluxnoise", "fluxnoise_synthetic.csv"]),
        ("exclude_halfwidth = 0.002", "exclude_halfwidth = inf",
         ["fit", "fluxnoise", "fluxnoise_synthetic.csv"]),
    ], ids=["format-xml", "format-case", "shape", "halfwidth-negative", "halfwidth-nan",
            "halfwidth-inf"])
    def test_invalid_output_setting_rejected(self, tmp_path, capsys, line, value, command):
        section, key = {"format": ("output", "format"), "shape": ("envelope", "shape"),
                        "exclude_halfwidth": ("fit", "exclude_halfwidth")}[line.split(" = ")[0]]
        path = tmp_path / "c.ini"
        path.write_text((BASE_CONFIG + "\n[output]\nformat = csv\n").replace(line, value))
        out = tmp_path / "o"
        command = [str(DATA_DIR / a) if a.endswith(".csv") else a for a in command]
        assert cli.main(["--config", str(path), "--out", str(out), *command]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{section}] {key} must be")
        assert len(err.strip().splitlines()) == 1
        assert not list(out.glob("*"))  # rejected before any output is written

    @pytest.mark.parametrize("argv", [
        [],
        ["--config", "c.ini"],
        ["--config", "c.ini", "--format", "json", "spectrum"],
        ["--config", "c.ini", "fit", "envelope", "d.csv", "--shape", "exponential"],
        ["--config", "c.ini", "fit", "fluxnoise", "d.csv", "--window", "0.003"],
        ["--config", "c.ini", "fit", "nonsense", "d.csv"],
        ["--config", "c.ini", "--workers", "two", "spectrum"],
    ], ids=["no-arguments", "no-command", "format-flag", "shape-flag", "window-flag",
            "bad-fit-target", "bad-workers"])
    def test_usage_error_exits_1_with_one_line(self, tmp_path, capsys, argv):
        code = cli.main(["--out", str(tmp_path / "o"), *argv])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_flags_set_no_output_value(self):
        # every output-changing setting lives in the hashed config
        parser = cli._build_parser()
        assert {o for a in parser._actions for o in a.option_strings} == {
            "-h", "--help", "--config", "--out", "--workers"}
        fit_parser = parser._subparsers._group_actions[0].choices["fit"]
        assert [a.dest for a in fit_parser._actions] == ["help", "target", "data"]

    def test_legacy_csv_format_key_is_accepted(self, tmp_path, config_path):
        # tables are CSV only; an older config that says so writes the same tables
        path = tmp_path / "legacy.ini"
        path.write_text(BASE_CONFIG + "\n[output]\nformat = csv\n")
        out_new, out_old = tmp_path / "new", tmp_path / "old"
        assert cli.main(["--config", str(config_path), "--out", str(out_new), "filter"]) == 0
        assert cli.main(["--config", str(path), "--out", str(out_old), "filter"]) == 0
        for name in ("filter_N1.csv", "filter_N20.csv"):
            assert (out_new / name).read_bytes() == (out_old / name).read_bytes()

    def test_legacy_states_key_is_ignored(self, tmp_path, config_path):
        path = tmp_path / "legacy.ini"
        path.write_text(BASE_CONFIG.replace("n = 20\n", "n = 20\nstates = 99\n"))
        out_new, out_old = tmp_path / "new", tmp_path / "old"
        assert cli.main(["--config", str(config_path), "--out", str(out_new), "spectrum"]) == 0
        assert cli.main(["--config", str(path), "--out", str(out_old), "spectrum"]) == 0
        for name in ("spectrum.csv", "spectrum_summary.json"):
            assert (out_new / name).read_bytes() == (out_old / name).read_bytes()


# the sections whose keys a one-key mutation tries for each command (every
# section the command reads), and the values it tries
COMMAND_SECTIONS = {
    "spectrum": ("qubit", "grid", "flux_sweep"),
    "coherence": ("qubit", "cavity", "cqed", "noise", "attenuation", "flux_sweep",
                  "temperature_sweep"),
    "filter": ("filter",),
    "fit spectrum": ("fit",),
    "fit t1": ("qubit", "cqed", "noise", "fit"),
    "fit envelope": ("envelope", "fit"),
    "fit fluxnoise": ("qubit", "fit"),
}
# 1.7e308 is finite, but (4 + 2 alpha) E_J overflows and e^2/2C_S underflows;
# 1e15 elements are past the address space: the allocation fails at once
MUTATIONS = ("nan", "inf", "0", "-1", "1e300", "1.7e308", "5e-324", "1000000000000000")
# a list-valued key also takes the bad value as one item of an otherwise valid list
LIST_ITEMS = {("attenuation", "stages"): ("{}:1", "0.01:{}"),
              ("filter", "pulse_counts"): ("{}, 20",)}


def command_argv(command: str) -> list[str]:
    """The arguments of one command; a fit reads its bundled fixture."""
    argv = command.split()
    if argv[0] == "fit":
        argv.append(str(DATA_DIR / f"{argv[1]}_synthetic.csv"))
    return argv


class TestMutatedConfig:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    @pytest.mark.parametrize("value", MUTATIONS)
    @pytest.mark.parametrize("command", sorted(COMMAND_SECTIONS),
                             ids=lambda command: command.replace(" ", "-"))
    def test_one_key_mutation_ends_in_exit_code(self, tmp_path, capsys, command, value):
        # each key the command reads, set to one bad value at a time: the run
        # ends in a documented exit code, and exit 1 or 2 prints one error line;
        # exit 1 leaves no output directory, and any other exit a manifest that
        # names the command and lists exactly the other files written
        escapes = []
        for section in COMMAND_SECTIONS[command]:
            keys = configparser.ConfigParser()
            keys.read_string(BASE_CONFIG)
            for key in keys[section]:
                items = LIST_ITEMS.get((section, key), ())
                for index, raw in enumerate([value, *(item.format(value) for item in items)]):
                    parser = configparser.ConfigParser()
                    parser.read_string(BASE_CONFIG)
                    parser[section][key] = raw
                    path = tmp_path / f"{section}.{key}.{index}.ini"
                    with open(path, "w") as handle:
                        parser.write(handle)
                    label = f"[{section}] {key} = {raw}"
                    out = tmp_path / f"{section}.{key}.{index}"
                    try:
                        code = cli.main(["--config", str(path), "--out", str(out),
                                         *command_argv(command)])
                    except Exception as err:  # noqa: BLE001 - the escape is the finding
                        escapes.append(f"{label}: {err.__class__.__name__}: {err}")
                        continue
                    errors = [line for line in capsys.readouterr().err.splitlines()
                              if line.startswith("error:")]
                    if code not in (0, 1, 2, 3):
                        escapes.append(f"{label}: exit {code}")
                    elif code in (1, 2) and len(errors) != 1:
                        escapes.append(f"{label}: exit {code} printed {errors}")
                    if code == cli.EXIT_CONFIG and out.exists():
                        escapes.append(f"{label}: exit 1 left {sorted(os.listdir(out))}")
                    elif code != cli.EXIT_CONFIG:
                        manifest = json.loads((out / "manifest.json").read_text())
                        written = sorted(set(os.listdir(out)) - {"manifest.json"})
                        if (manifest["command"], manifest["outputs"]) != (command, written):
                            escapes.append(f"{label}: manifest {manifest['command']!r} lists "
                                           f"{manifest['outputs']}, wrote {written}")
        assert not escapes, "\n".join(escapes)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("command, section, key, code, message", [
        ("spectrum", "qubit", "e_j_ghz", 1, "E_J = 5e-324 GHz underflows"),
        ("coherence", "qubit", "e_j_ghz", 1, "E_J = 5e-324 GHz underflows"),
        ("spectrum", "qubit", "c_s_ff", 1, "C_S = 5e-324 fF underflows"),
        ("coherence", "cqed", "omega01_ghz", 1, "omega01 = 5e-324 GHz underflows"),
        ("fit t1", "cqed", "omega01_ghz", 1, "omega01 = 5e-324 GHz underflows"),
        ("coherence", "noise", "base_temperature_k", 1, "temperature 5e-324 K underflows"),
        ("fit spectrum", "fit", "anharmonicity_ghz", 1, "anharmonicity A = 4.94066e-324 GHz"),
        ("coherence", "noise", "delta0_uev", 1, "Delta0 = 5e-324 ueV must be positive"),
        ("fit t1", "noise", "delta0_uev", 1, "Delta0 = 5e-324 ueV must be positive"),
    ], ids=["spectrum-e_j", "coherence-e_j", "spectrum-c_s", "coherence-omega01",
            "fit-t1-omega01", "coherence-base-temperature", "fit-spectrum-anharm",
            "coherence-delta0", "fit-t1-delta0"])
    def test_tiny_positive_value_names_the_quantity(self, tmp_path, capsys, command,
                                                     section, key, code, message):
        # the smallest positive double underflows a scale the models divide by,
        # or pins the fitted alpha at 1/8 to double precision
        parser = configparser.ConfigParser()
        parser.read_string(BASE_CONFIG)
        parser[section][key] = "5e-324"
        path = tmp_path / "c.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         *command_argv(command)]) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and message in err
        if code == cli.EXIT_CONFIG:
            assert not list(out.glob("*"))  # rejected before any output is written

    @pytest.mark.parametrize("command", ["spectrum", "coherence"])
    def test_overflowing_potential_depth_is_a_config_error(self, tmp_path, capsys, command):
        # (4 + 2 alpha) E_J overflows, so the grid potential would hold inf and
        # NaN entries: the run ends before any output with one line naming E_J
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("e_j_ghz = 136.75", "e_j_ghz = 1.7e308"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), command]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "E_J = 1.7e+308 GHz overflows" in err
        assert not out.exists()


def record_reads(monkeypatch) -> set:
    """The (section, key) pairs that RunConfig._get is asked for from now on."""
    read = set()
    original = cli.RunConfig._get

    def recording(self, section, key, *args, **kwargs):
        read.add((section, key))
        return original(self, section, key, *args, **kwargs)

    monkeypatch.setattr(cli.RunConfig, "_get", recording)
    return read


QUBIT_KEYS = {("qubit", key) for key in ("alpha", "e_j_ghz", "e_c_ghz", "c_s_ff")}


class TestBundledConfigs:
    @pytest.mark.parametrize("name", ["example_config.ini", "example_config_perturbative.ini"])
    def test_every_key_is_read(self, tmp_path, monkeypatch, name):
        # a key that no command reads is a dead knob: it sets nothing it names
        text = (DATA_DIR / name).read_text()
        keys = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        keys.read_string(text)
        set_keys = {(section, key) for section in keys.sections() for key in keys[section]}
        # shrink the numeric work as the determinism acceptance test does
        path = tmp_path / name
        path.write_text(text.replace("n = 80", "n = 24").replace("steps = 21", "steps = 5")
                        .replace("steps = 16", "steps = 5")
                        .replace("omega_points = 400", "omega_points = 40"))
        read = record_reads(monkeypatch)
        commands = [["spectrum"], ["coherence"], ["filter"],
                    *(["fit", target, str(DATA_DIR / f"{target}_synthetic.csv")]
                      for target in sorted(cli.DATA_SCHEMAS))]
        for command in commands:
            code = cli.main(["--config", str(path), "--out", str(tmp_path / "_".join(command[:2])),
                             *command])
            assert code in (cli.EXIT_OK, cli.EXIT_NOT_CONVERGED), command
        assert set_keys - read == set()

    @pytest.mark.parametrize("name", ["example_config.ini", "example_config_perturbative.ini"])
    @pytest.mark.parametrize("target, keys", [
        ("spectrum", {("fit", "anharmonicity_ghz")}),
        ("t1", {*QUBIT_KEYS, ("cqed", "omega01_ghz"), ("noise", "delta0_uev"),
                ("noise", "n_cp_per_um3")}),
        ("envelope", {("envelope", "t1_s"), ("envelope", "shape")}),
        ("fluxnoise", {*QUBIT_KEYS, ("fit", "exclude_halfwidth")}),
    ], ids=["spectrum", "t1", "envelope", "fluxnoise"])
    def test_each_fit_reads_only_its_keys(self, tmp_path, monkeypatch, name, target, keys):
        # a fit fails only on a key it uses; [output] format is checked at load
        read = record_reads(monkeypatch)
        assert cli.main(["--config", str(DATA_DIR / name), "--out", str(tmp_path / "o"),
                         *command_argv(f"fit {target}")]) == cli.EXIT_OK
        assert read == {("output", "format"), *keys}

    @pytest.mark.parametrize("name", ["example_config.ini", "example_config_perturbative.ini"])
    @pytest.mark.parametrize("target, table, key, parameter", [
        ("fluxnoise", "dephasing_vs_flux.csv", "a_phi_phi0sq", "A_Phi_Phi0sq"),
        ("t1", "t1_vs_temperature.csv", "x_qp", "x_qp"),
    ], ids=["fluxnoise", "t1"])
    def test_fit_inverts_coherence(self, tmp_path, name, target, table, key, parameter):
        # the fit reads coherence's forward model back to the [noise] value it was given:
        # the echo rate column as gamma_e_per_s, the quasiparticle T1 column as t1_s
        config = DATA_DIR / name
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "coherence"),
                         "coherence"]) == cli.EXIT_OK
        _, rows = read_csv(tmp_path / "coherence" / table)
        data = tmp_path / f"{target}.csv"
        data.write_text("\n".join([",".join(cli.DATA_SCHEMAS[target]),
                                   *(f"{row[0]},{row[1]}" for row in rows)]) + "\n")
        assert cli.main(["--config", str(config), "--out", str(tmp_path / "fit"),
                         "fit", target, str(data)]) == cli.EXIT_OK
        fitted = json.loads((tmp_path / "fit" / f"fit_{target}.json").read_text())
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(config.read_text())
        assert fitted["parameters"][parameter] == pytest.approx(float(parser["noise"][key]),
                                                                rel=1e-8)

    @pytest.mark.parametrize("name, pinned, t1_qp_s", [
        ("example_config.ini",
         {"0.49": [2301666.29044, 9919314.99487, 4.30962343936],
          "0.495": [1150833.14522, 4959657.49744, 4.30962343936]}, 4.7281997996814546e-05),
        ("example_config_perturbative.ini",
         {"0.49": [982191.232268, 4232874.35652, 4.30962343936],
          "0.495": [491095.616134, 2116437.17826, 4.30962343936]}, 8.187526225697033e-05),
    ], ids=["example_config.ini", "example_config_perturbative.ini"])
    def test_bundled_coherence_is_pinned(self, tmp_path, name, pinned, t1_qp_s):
        # the closed-form dephasing and quasiparticle T1 of each bundled ini, so that a
        # change of either ini's dephasing model has to edit its pin
        assert cli.main(["--config", str(DATA_DIR / name),
                         "--out", str(tmp_path), "coherence"]) == cli.EXIT_OK
        _, rows = read_csv(tmp_path / "dephasing_vs_flux.csv")
        pinned = dict(pinned)
        for row in rows:
            if row[0] in pinned:
                assert [float(value) for value in row[1:]] == pytest.approx(
                    pinned.pop(row[0]), rel=1e-12)
        assert pinned == {}
        budget = json.loads((tmp_path / "decoherence_budget.json").read_text())
        assert budget["t1_qp_s"] == pytest.approx(t1_qp_s, rel=1e-12)

    @pytest.mark.parametrize("name, pinned, omega01_ghz, anharmonicity_ghz", [
        ("example_config.ini",
         {"0.49": [5.17609805747, 5.65199236034], "0.495": [4.8406022252, 5.57028274103],
          "0.5": [4.7160585623, 5.54722485089]}, 4.7160585622953874, 0.8311662885901399),
        ("example_config_perturbative.ini",
         {"0.49": [3.88454579776, 4.24785172991], "0.495": [3.74009851101, 4.20389815316],
          "0.5": [3.68879707503, 4.1900598168]}, 3.6887970750327668, 0.5012627417660838),
    ], ids=["example_config.ini", "example_config_perturbative.ini"])
    def test_bundled_spectrum_is_pinned(self, tmp_path, name, pinned, omega01_ghz,
                                        anharmonicity_ghz):
        # the n = 80 grid levels of each bundled ini off and at the optimal point; the
        # cells carry 12 digits and the solve's rounding varies with the BLAS build near
        # 1e-13, so a change of the solver past that has to edit its pin
        assert cli.main(["--config", str(DATA_DIR / name),
                         "--out", str(tmp_path), "spectrum"]) == cli.EXIT_OK
        header, rows = read_csv(tmp_path / "spectrum.csv")
        columns = [header.index("omega01_numeric_GHz"), header.index("omega12_numeric_GHz")]
        pinned = dict(pinned)
        for row in rows:
            if row[0] in pinned:
                assert [float(row[column]) for column in columns] == pytest.approx(
                    pinned.pop(row[0]), rel=1e-11)
        assert pinned == {}
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["omega01_numeric_GHz"] == pytest.approx(omega01_ghz, rel=1e-11)
        assert summary["anharmonicity_numeric_GHz"] == pytest.approx(anharmonicity_ghz, rel=1e-11)

    def test_omitted_keys_take_the_model_defaults(self, tmp_path):
        # the config defaults are the model classes' own field defaults, not copies of them
        text = (DATA_DIR / "example_config.ini").read_text()
        omitted = ("delta0_uev", "n_cp_per_um3", "tau_pi_s")
        lines = text.splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(omitted)]
        assert len(lines) - len(kept) == len(omitted)
        assert not any(line.startswith("omega_ir_rad_s") for line in lines)
        path = tmp_path / "defaults.ini"
        path.write_text("".join(kept))
        config = cli.RunConfig.load(path)
        assert config.quasiparticle_env() == QuasiparticleEnv(x_qp=6.122e-8)
        assert config.flux_noise() == FluxNoise(A_Phi=3.24e-12)
        for ini, out in ((DATA_DIR / "example_config.ini", "bundled"), (path, "defaults")):
            assert cli.main(["--config", str(ini), "--out", str(tmp_path / out),
                             "filter"]) == cli.EXIT_OK
        tables = sorted(p.name for p in (tmp_path / "bundled").glob("filter_N*.csv"))
        assert tables == sorted(p.name for p in (tmp_path / "defaults").glob("filter_N*.csv"))
        assert tables
        for table in tables:
            assert ((tmp_path / "defaults" / table).read_bytes()
                    == (tmp_path / "bundled" / table).read_bytes())


class TestDataFiles:
    def test_reads_bundled_fixture(self):
        series = cli.read_data_csv(str(DATA_DIR / "spectrum_synthetic.csv"),
                                   cli.DATA_SCHEMAS["spectrum"])
        assert len(series) == 31

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

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("flux_phi0,freq_GHz\n0.49,4.8\n0.5,4.7,1\n")
        with pytest.raises(cli.DataFileError, match=r"d.csv line 3: expected 2 columns, got 3"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    def test_one_data_row(self, tmp_path):
        # the DataSeries FitError comes back as a DataFileError naming the file
        path = tmp_path / "d.csv"
        path.write_text("flux_phi0,freq_GHz\n0.49,4.8\n")
        with pytest.raises(cli.DataFileError, match=r"^d.csv: need at least 2 points, got 1$"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    @pytest.mark.parametrize("column, cell", [(2, "nan"), (1, "inf"), (2, "-inf")])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, config_path, capsys,
                                                   column, cell):
        lines = (DATA_DIR / "envelope_synthetic.csv").read_text().splitlines()
        row = lines.index("time_s,signal") + 3
        cells = lines[row].split(",")
        cells[column - 1] = cell
        lines[row] = ",".join(cells)
        path = tmp_path / "env_nan.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "envelope", str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: env_nan.csv line {row + 1}, column {column}: "
            f"cannot parse {cell!r} as a finite number\n")
        assert not out.exists()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(cli.DataFileError, match="empty"):
            cli.read_data_csv(path, cli.DATA_SCHEMAS["spectrum"])

    def test_directory_is_not_a_file(self, tmp_path, config_path, capsys):
        code = cli.main(["--config", str(config_path), "--out", str(tmp_path / "o"),
                         "fit", "spectrum", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: data path is not a file: {tmp_path}\n"

    def test_not_utf8(self, tmp_path, config_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"flux_phi0,freq_GHz\n0.5,4.7\xff\xfe\n")
        code = cli.main(["--config", str(config_path), "--out", str(tmp_path / "o"),
                         "fit", "spectrum", str(path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: data file is not UTF-8: {path}: byte 26")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "t1_synthetic.csv").read_bytes())
        bom = cli.read_data_csv(path, cli.DATA_SCHEMAS["t1"])
        plain = cli.read_data_csv(DATA_DIR / "t1_synthetic.csv", cli.DATA_SCHEMAS["t1"])
        assert np.array_equal(bom.x, plain.x) and np.array_equal(bom.y, plain.y)

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
        for name in ("spectrum.csv", "spectrum_summary.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_charging_dominated_device_converges(self, tmp_path, config_path):
        # a vanishing E_J must not set an unreachable residual tolerance
        config_path.write_text(BASE_CONFIG.replace("e_j_ghz = 136.75", "e_j_ghz = 1e-300"))
        out = tmp_path / "out"
        with pytest.warns(PerturbativeValidityWarning):
            code = cli.main(["--config", str(config_path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_OK
        _, rows = read_csv(out / "spectrum.csv")
        assert [row[4] for row in rows] == ["ok"] * 5
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["flags"] == ["perturbative_ratio_low"]

    def test_small_alpha_device_omega12_matches_dense_oracle(self, tmp_path, config_path):
        # the third level at f = 0.45 is even in phi_p and lies just below the
        # lowest odd one (53.0712 GHz); a solve that returned the odd level
        # wrote omega12 = 12.1086 GHz here and still exited 0
        config_path.write_text(
            BASE_CONFIG.replace("alpha = 0.437", "alpha = 0.15")
            .replace("e_j_ghz = 136.75", "e_j_ghz = 30.0").replace("c_s_ff = 60.0", "c_s_ff = 5.0")
            .replace("n = 20", "n = 24")
            .replace("start = 0.49\nstop = 0.51\nsteps = 5", "start = 0.45\nstop = 0.5\nsteps = 2"))
        out = tmp_path / "out"
        with pytest.warns(PerturbativeValidityWarning):
            code = cli.main(["--config", str(config_path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_OK
        _, rows = read_csv(out / "spectrum.csv")
        assert float(rows[0][0]) == 0.45
        # levels 28.411876, 40.962581, 52.742610 GHz of the dense even-sector
        # oracle of tests/test_numeric.py at n = 24
        assert float(rows[0][2]) == pytest.approx(12.550704304385057, rel=1e-9)
        assert float(rows[0][3]) == pytest.approx(11.780029652781863, rel=1e-9)

    def test_json_format(self, tmp_path, capsys):
        # tables are CSV only: a config asking for JSON tables is refused,
        # never answered with CSV
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG + "\n[output]\nformat = json\n")
        out = tmp_path / "json_out"
        code = cli.main(["--config", str(path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: [output] format must be one of csv, got 'json'\n")
        assert not out.exists()

    # a warning raised at a sweep point would fail that row, and the counts below
    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_partial_sweep_failure_marks_row_and_exits_3(self, tmp_path, config_path,
                                                         monkeypatch, capsys, workers):
        from csfq3d.numeric import ConvergenceError as NumericError

        original = cli.lowest_eigenpairs

        def failing(op, k=4, **kwargs):
            # fail the one solve at f = 0.495, which also fills the row of its
            # flux mirror 0.505; summary and other rows succeed
            if np.array_equal(op.potential, failing.marker):
                failing.hits += 1
                raise NumericError("forced failure", [1.0])
            return original(op, k=k, **kwargs)

        probe = cli.RunConfig.load(config_path)
        failing.marker = cli.build_hamiltonian_2d(probe.qubit(), 0.495, probe.grid()).potential
        failing.hits = 0
        monkeypatch.setattr(cli, "lowest_eigenpairs", failing)

        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "--workers", workers, "spectrum"])
        assert code == cli.EXIT_PARTIAL_FAILURE
        _, rows = read_csv(out / "spectrum.csv")
        statuses = [row[4] for row in rows]
        assert failing.hits == 1
        assert [row[0] for row in rows if row[4] != "ok"] == ["0.495", "0.505"]
        assert statuses.count("error:ConvergenceError") == 2
        assert statuses.count("ok") == len(rows) - 2
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["failed_points"] == 2
        assert capsys.readouterr().err == (
            "error: spectrum.csv: 2 of 5 rows failed; first at flux_phi0 = 0.495: "
            "forced failure\n")

    @pytest.mark.parametrize("stop,solves", [(0.51, 3), (0.499, 6)])
    def test_optimal_point_reuses_sweep_solve(self, tmp_path, monkeypatch, stop, solves):
        # linspace(0.49, 0.51, 5) is three solves, 0.49, 0.495 and 0.5, each
        # row f > 0.5 reusing its mirror 1 - f and the summary the 0.5 row;
        # linspace(0.49, 0.499, 5) has no mirror pairs and lacks 0.5
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("stop = 0.51", f"stop = {stop}"))
        calls = []
        original = cli.lowest_eigenpairs

        def counting(op, k=4, **kwargs):
            calls.append(k)
            return original(op, k=k, **kwargs)

        monkeypatch.setattr(cli, "lowest_eigenpairs", counting)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "spectrum"]) == cli.EXIT_OK
        assert calls == [3] * solves  # the three levels behind omega01 and omega12
        header, rows = read_csv(out / "spectrum.csv")
        summary = json.loads((out / "spectrum_summary.json").read_text())
        at_optimum = [dict(zip(header, row)) for row in rows if float(row[0]) == 0.5]
        for record in at_optimum:  # the row is the summary value to 12 digits
            for key in ("omega01_numeric_GHz", "omega12_numeric_GHz"):
                assert record[key] == cli._fmt(summary[key])
        assert len(at_optimum) == (1 if stop == 0.51 else 0)

    @pytest.mark.parametrize("steps,solves", [(5, 3), (9, 5)])
    def test_symmetric_sweep_solves_only_up_to_optimal_point(self, tmp_path, monkeypatch,
                                                             steps, solves):
        # in linspace(0.49, 0.51, 9), 1 - f misses the mirror point by an ulp
        # at 0.4925 and 0.4975; the two keys share the solve at the smaller
        # one, which is never rounded, so every solve runs at a sweep flux
        fluxes = []
        original = cli.build_hamiltonian_2d

        def recording(q, f, grid=None):
            fluxes.append(f)
            return original(q, f, grid)

        monkeypatch.setattr(cli, "build_hamiltonian_2d", recording)
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("steps = 5", f"steps = {steps}", 1))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "spectrum"]) == cli.EXIT_OK
        assert len(fluxes) == len(set(fluxes)) == solves
        assert max(fluxes) == 0.5
        _, rows = read_csv(out / "spectrum.csv")  # cells carry 12 significant digits
        for row, mirror in zip(rows, rows[::-1]):
            for cell, mirror_cell in zip(row[2:4], mirror[2:4]):
                assert float(cell) == pytest.approx(float(mirror_cell), rel=1e-11, abs=0.0)

    def test_mirror_keys_an_ulp_apart_share_one_solve(self, tmp_path, monkeypatch):
        # linspace(0.45, 0.55, 41) gives 41 keys min(f, 1 - f): 20 of them
        # miss their mirror key by an ulp, so 21 solves, and each mirror pair
        # of rows carries the same bytes
        fluxes = []
        original = cli.build_hamiltonian_2d

        def recording(q, f, grid=None):
            fluxes.append(f)
            return original(q, f, grid)

        monkeypatch.setattr(cli, "build_hamiltonian_2d", recording)
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("start = 0.49\nstop = 0.51\nsteps = 5",
                                            "start = 0.45\nstop = 0.55\nsteps = 41"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "spectrum"]) == cli.EXIT_OK
        assert len(fluxes) == len(set(fluxes)) == 21
        _, rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 41
        for row, mirror in zip(rows, rows[::-1]):
            assert row[2:4] == mirror[2:4]

    @pytest.mark.parametrize("ini", ["example_config.ini", "example_config_perturbative.ini"])
    def test_bundled_mirror_rows_are_byte_equal(self, tmp_path, ini):
        out = tmp_path / "out"
        assert cli.main(["--config", str(DATA_DIR / ini), "--out", str(out),
                         "spectrum"]) == cli.EXIT_OK
        header, rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 21
        numeric = [header.index("omega01_numeric_GHz"), header.index("omega12_numeric_GHz")]
        for row, mirror in zip(rows, rows[::-1]):
            assert float(row[0]) == 1.0 - float(mirror[0])
            assert [row[i] for i in numeric] == [mirror[i] for i in numeric]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    @pytest.mark.parametrize("stop", [0.51, 0.499])
    def test_failed_optimal_point_still_writes_every_output(self, tmp_path, capsys, stop):
        # at E_J = 1e300 every solve overflows, the optimal point whether it is
        # a sweep point (stop 0.51) or a solve of its own (stop 0.499)
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("e_j_ghz = 136.75", "e_j_ghz = 1e300")
                        .replace("stop = 0.51", f"stop = {stop}"))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_NOT_CONVERGED
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "f = 0.5" in errors[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["spectrum.csv", "spectrum_summary.json"]
        _, rows = read_csv(out / "spectrum.csv")
        assert [row[4] for row in rows] == ["error:ConvergenceError"] * 5
        summary = json.loads((out / "spectrum_summary.json").read_text())
        assert summary["failed_points"] == 5
        for key in ("omega01_numeric_GHz", "omega12_numeric_GHz", "anharmonicity_numeric_GHz"):
            assert key in summary and summary[key] is None

    @pytest.mark.parametrize("command", [
        ["spectrum"],
        ["fit", "t1", str(DATA_DIR / "t1_synthetic.csv")],
        ["fit", "spectrum", str(DATA_DIR / "spectrum_synthetic.csv")],
        ["coherence"],
        ["filter"],
        ["fit", "envelope", str(DATA_DIR / "envelope_synthetic.csv")],
        ["fit", "fluxnoise", str(DATA_DIR / "fluxnoise_synthetic.csv")],
    ], ids=["spectrum", "fit-t1", "fit-spectrum", "coherence", "filter", "fit-envelope",
            "fit-fluxnoise"])
    def test_sweep_imports_no_scipy_solver_modules(self, tmp_path, config_path, command):
        # scipy is not a runtime dependency: no command loads scipy or any
        # scipy.* module; sweep points run in one loop, so no command loads
        # concurrent or concurrent.*, not even with --workers 2; the manifest
        # digests come from the interpreter's built-in SHA-256, so no command
        # loads OpenSSL through _hashlib or ssl
        driver = ("import sys; from csfq3d import cli; "
                  f"code = cli.main(['--config', {str(config_path)!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}, '--workers', '2', *{command!r}]); "
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
                  "in ('scipy', 'concurrent', '_hashlib', 'ssl')))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", driver], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["0", "[]"]

    def test_unwritable_output_directory(self, tmp_path, capsys):
        # the failed write is the run's one error line, also after a failed sweep
        # row (coherence alone would exit 3)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("start_k = 0.010", "start_k = 0.0"))
        for command in ("filter", "coherence"):
            code = cli.main(["--config", str(path), "--out", str(blocker / "sub"), command])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err


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

    def test_failed_t1_point_marks_row_and_exits_3(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("start_k = 0.010", "start_k = 0.0"))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "coherence"])
        assert code == cli.EXIT_PARTIAL_FAILURE
        _, rows = read_csv(out / "t1_vs_temperature.csv")
        assert rows[0][1] == "" and rows[0][2].startswith("error:")
        assert all(row[2] == "ok" for row in rows[1:])
        assert capsys.readouterr().err == (
            "error: t1_vs_temperature.csv: 1 of 5 rows failed; first at temp_K = 0: "
            "temperature must be positive, got 0.0 K\n")

    def test_near_resonant_qubit_warns_of_the_dispersive_limit(self, tmp_path, capsys):
        # omega01 17.5 MHz below the bare cavity infers g01 = 5.12 MHz, 0.29 of the
        # detuning: the budget's dispersive Purcell time is flagged, not silent
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("omega01_ghz = 4.68", "omega01_ghz = 8.2"))
        out = tmp_path / "out"
        with pytest.warns(DispersiveLimitWarning, match=r"g01/\|detuning\| = 0\.29") as caught:
            code = cli.main(["--config", str(path), "--out", str(out), "coherence"])
        assert code == cli.EXIT_OK and capsys.readouterr().err == ""
        assert [w.category for w in caught] == [DispersiveLimitWarning]
        budget = json.loads((out / "decoherence_budget.json").read_text())
        assert budget["g01_MHz"] == pytest.approx(5.123, rel=1e-3)

    def test_ultracold_base_temperature(self, tmp_path, capsys):
        # hbar omega01 / 2 k_B T ~ 1100 at 0.1 mK: past where exp(x) overflows
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("base_temperature_k = 0.010",
                                            "base_temperature_k = 1e-4"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        budget = json.loads((out / "decoherence_budget.json").read_text())
        assert 0.0 < budget["t1_qp_s"] < math.inf

    def test_zero_qp_rate_gives_infinite_t1(self, tmp_path, capsys):
        # x_qp = 0 leaves only the equilibrium rate, which underflows to 0 at 1 mK
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("x_qp = 6.122448979591837e-8", "x_qp = 0")
                        .replace("base_temperature_k = 0.010", "base_temperature_k = 1e-3"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        budget = json.loads((out / "decoherence_budget.json").read_text())
        assert budget["t1_qp_s"] is None

    def test_ramsey_time_past_infrared_cutoff_rejected(self, tmp_path, capsys):
        # the library's window 0 < omega_ir * t < 1, at and past both of its ends
        for index, value in enumerate(("1.0", "0", "-1e-6")):
            path = tmp_path / f"c{index}.ini"
            path.write_text(BASE_CONFIG.replace("ramsey_time_s = 1e-6",
                                                f"ramsey_time_s = {value}"))
            out = tmp_path / f"out{index}"
            assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: invalid [noise] ramsey_time_s: omega_ir * t = ")
            assert len(err.strip().splitlines()) == 1
            assert not list(out.glob("*"))  # rejected before any table is written

    def test_all_zero_attenuation_weights_rejected(self, tmp_path, capsys):
        # and the non-finite stages, and one whose Bose occupation overflows
        for index, stages in enumerate(("0.01:0", "nan:1", "inf:1", "0.01:nan", "0.01:inf",
                                        "1.7e308:1")):
            path = tmp_path / f"c{index}.ini"
            path.write_text(BASE_CONFIG.replace(
                "stages = 300:1e-7, 4.0:9.9e-6, 0.1:9.99e-3, 0.01:0.99", f"stages = {stages}"))
            out = tmp_path / f"out{index}"
            assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: invalid [attenuation] section")
            assert len(err.strip().splitlines()) == 1
            assert not list(out.glob("*"))  # rejected before any table is written

    def test_empty_attenuation_items_are_skipped(self, tmp_path, config_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("stages = 300:1e-7, 4.0:9.9e-6,",
                                            "stages = , 300:1e-7,, 4.0:9.9e-6, ,"))
        chain = cli.RunConfig.load(path).attenuation_chain()
        assert chain == cli.RunConfig.load(config_path).attenuation_chain()
        assert len(chain.stages) == 4

    def test_qubit_at_the_cavity_frequency_is_a_config_error(self, tmp_path, capsys):
        # omega01 at both cavity frequencies infers g01 = 0 without a complaint, but
        # the Purcell rate divides by the zero detuning: no table, one error line
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("omega01_ghz = 4.68", "omega01_ghz = 8.2175")
                        .replace("omega_c_ghz = 8.219", "omega_c_ghz = 8.2175"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("error: invalid [cqed]/[cavity] values: zero qubit-cavity detuning: "
                       "Purcell rate undefined\n")
        assert not out.exists()

    def test_inconsistent_cavity_pull_rejected(self, tmp_path, capsys):
        # a bare cavity below the dressed one gives negative coupling radicands
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("omega_c0_ghz = 8.2175", "omega_c0_ghz = 4.68"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[cqed]/[cavity]" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not list(out.glob("*.csv"))  # rejected before any table is written

    def test_zero_flux_noise_gives_zero_rates(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("a_phi_phi0sq = 3.24e-12", "a_phi_phi0sq = 0.0"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "coherence"]) == 0
        _, rows = read_csv(out / "dephasing_vs_flux.csv")
        assert all(float(row[1]) == 0.0 and float(row[2]) == 0.0 for row in rows)

    @pytest.mark.parametrize("section, key, quantity, dispersive_warnings", [
        ("qubit", "e_j_ghz", "dephasing_vs_flux gamma_phi_echo_per_s", 0),
        ("flux_sweep", "start", "dephasing_vs_flux gamma_phi_echo_per_s", 0),
        ("cavity", "kappa_c_mhz", "decoherence_budget t_phi_thermal_s", 0),
        ("cavity", "kappa_i_mhz", "decoherence_budget t_phi_thermal_s", 0),
        ("cqed", "chi_mhz", "decoherence_budget t_phi_thermal_s", 1),  # g12
        ("cavity", "omega_c_ghz", None, 2),  # no thermal photons: null, not NaN; g01, g12
    ], ids=["e_j", "flux_start", "kappa_c", "kappa_i", "chi", "omega_c"])
    def test_overflowing_value_exits_3_naming_the_quantity(self, tmp_path, capsys, section,
                                                            key, quantity, dispersive_warnings):
        parser = configparser.ConfigParser()
        parser.read_string(BASE_CONFIG)
        parser[section][key] = "1e300"
        path = tmp_path / "c.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DispersiveLimitWarning)
            code = cli.main(["--config", str(path), "--out", str(out), "coherence"])
        assert [w.category for w in caught] == [DispersiveLimitWarning] * dispersive_warnings
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        if quantity is None:
            assert code == cli.EXIT_OK and errors == []
            assert json.loads((out / "decoherence_budget.json").read_text())[
                "t_phi_thermal_s"] is None
        else:
            assert code == cli.EXIT_PARTIAL_FAILURE
            assert len(errors) == 1 and errors[0].startswith(f"error: {quantity} = ")
        assert (out / "manifest.json").is_file()  # the tables are still written

    def test_spectrum_overflow_exits_3_like_coherence(self, tmp_path, capsys):
        # the analytic omega01 overflows far from f = 1/2 while every solve succeeds
        parser = configparser.ConfigParser()
        parser.read_string(BASE_CONFIG)
        parser["flux_sweep"].update(start="1e300", steps="3")
        path = tmp_path / "c.ini"
        with open(path, "w") as handle:
            parser.write(handle)
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "spectrum"])
        assert code == cli.EXIT_PARTIAL_FAILURE
        assert capsys.readouterr().err == (
            "error: spectrum omega01_analytic_GHz = inf at flux_phi0 = 1e+300\n")
        _, rows = read_csv(out / "spectrum.csv")
        assert [row[-1] for row in rows] == ["ok"] * 3
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "spectrum.csv", "spectrum_summary.json"]


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

    @pytest.mark.parametrize("line, value", [("pulse_counts = 1, 20", "pulse_counts = 1, -1"),
                                             ("pulse_counts = 1, 20", "pulse_counts = 1, 20, 1"),
                                             ("pulse_counts = 1, 20", "pulse_counts = ,"),
                                             ("pulse_counts = 1, 20", "pulse_counts ="),
                                             ("tau_s = 100e-6", "tau_s = 0"),
                                             ("omega_min_rad_s = 1e3", "omega_min_rad_s = 0"),
                                             ("omega_points = 50", "omega_points = 0")],
                             ids=["pulse_counts", "pulse_counts-repeated", "pulse_counts-comma",
                                  "pulse_counts-empty", "tau_s", "omega_min_rad_s",
                                  "omega_points-zero"])
    def test_invalid_sequence_or_grid_rejected(self, tmp_path, capsys, line, value):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace(line, value))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "filter"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "[filter]" in err and "FilterSpec" not in err  # names the key, not an API
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not list(out.glob("*.csv"))  # rejected before any table, even a valid N = 1

    @pytest.mark.parametrize("line, value, message", [
        ("omega_min_rad_s = 1e3", "omega_min_rad_s = 0",
         "[filter] omega_min_rad_s must be positive, got 0.0"),
        ("omega_max_rad_s = 1e7", "omega_max_rad_s = -5",
         "[filter] omega_max_rad_s must be positive, got -5.0"),
        ("tau_s = 100e-6", "tau_s = 1e308",
         "[filter] tau_s = 1e+308 overflows omega * tau_s on the grid"),
    ], ids=["omega_min-zero", "omega_max-negative", "tau_s-overflow"])
    def test_unusable_grid_names_its_key(self, tmp_path, capsys, line, value, message):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace(line, value))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "filter"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("tau, ramsey", [("1e300", 0.0), ("1e-320", 1.0)])
    def test_filter_values_past_the_double_range_take_their_limit(self, tmp_path, capsys,
                                                                  tau, ramsey):
        # (omega tau)^2 overflows (g_N underflows to 0) or underflows (g_N is its
        # omega -> 0 limit): finite tables, no numpy warning, exit 0
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("tau_s = 100e-6", f"tau_s = {tau}")
                        .replace("pulse_counts = 1, 20", "pulse_counts = 0, 1, 20"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "filter"]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        for n, limit in ((0, ramsey), (1, 0.0), (20, 0.0)):
            _, rows = read_csv(out / f"filter_N{n}.csv")
            assert len(rows) == 50 and all(float(row[1]) == limit for row in rows)


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
        assert manifest["config_sha256"] == hashlib.sha256(BASE_CONFIG.encode("utf-8")).hexdigest()
        assert manifest["data_sha256"] == hashlib.sha256(
            (DATA_DIR / "spectrum_synthetic.csv").read_bytes()).hexdigest()

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

    def test_envelope_fixture_in_other_units(self, tmp_path, config_path):
        # the bundled trace with its signal 1000x smaller: J^T J's own condition number
        # grows 1e6-fold, to 9.35e15, but with unit-length columns it is 5.94 at any scale
        lines = (DATA_DIR / "envelope_synthetic.csv").read_text().splitlines()
        start = lines.index("time_s,signal") + 1
        rows = [line.split(",") for line in lines[start:]]
        path = tmp_path / "env_mV.csv"
        path.write_text("\n".join(lines[:start] + [f"{t},{float(y) * 1e-3!r}" for t, y in rows])
                        + "\n")
        outputs = []
        for index, data in enumerate((DATA_DIR / "envelope_synthetic.csv", path)):
            out = tmp_path / f"out{index}"
            assert cli.main(["--config", str(config_path), "--out", str(out),
                             "fit", "envelope", str(data)]) == cli.EXIT_OK
            outputs.append(json.loads((out / "fit_envelope.json").read_text()))
        base, scaled = outputs
        assert scaled["flags"] == base["flags"] == []
        assert all(value is not None for value in scaled["uncertainties"].values())
        assert scaled["parameters"]["gamma_phi_per_s"] == pytest.approx(
            base["parameters"]["gamma_phi_per_s"], rel=1e-8)
        # the trace is noiseless, so s is the rounding of its residuals, ~1e-12
        assert scaled["uncertainties"]["gamma_phi_per_s"] == pytest.approx(
            base["uncertainties"]["gamma_phi_per_s"], rel=1e-4)

    def test_envelope_shape_override(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("shape = gaussian", "shape = exponential"))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out),
                         "fit", "envelope", str(DATA_DIR / "envelope_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_envelope.json").read_text())
        assert result["model"] == "exponential decay envelope"

    def test_zero_dephasing_trace_converges_on_the_bound(self, tmp_path):
        # Gamma_phi = 0 under 0.5 % noise: the fitted rate is 0, and that is a converged fit
        t = np.linspace(0.0, 300e-6, 40)
        y = (0.8 * decay_envelope(t, 90e-6, 0.0, "exponential") + 0.1
             + np.random.default_rng(2).normal(0.0, 0.005, 40))
        data = tmp_path / "trace.csv"
        data.write_text("time_s,signal\n"
                        + "".join(f"{ti!r},{yi!r}\n" for ti, yi in zip(t.tolist(), y.tolist())))
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("shape = gaussian", "shape = exponential"))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "fit", "envelope", str(data)])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_envelope.json").read_text())
        assert result["converged"] and result["parameters"]["gamma_phi_per_s"] == 0.0

    @pytest.mark.parametrize("t1_s, code", [("1e-7", 2), ("1e-320", 2), ("1e-6", 0)])
    def test_flat_envelope_scan_is_not_converged(self, tmp_path, capsys, t1_s, code):
        # T1 far below the first nonzero time (7.7 us) decouples the signal from
        # Gamma_phi: every grid rate gives the same cost, which constrains nothing
        path = tmp_path / "c.ini"
        path.write_text((DATA_DIR / "example_config.ini").read_text()
                        .replace("t1_s = 90e-6", f"t1_s = {t1_s}"))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "fit",
                         "envelope", str(DATA_DIR / "envelope_synthetic.csv")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: fit envelope did not converge")
            assert len(err.splitlines()) == 1
        else:
            assert err == ""
        # the signal barely moves with Gamma_phi, so J^T J is ill-conditioned at each T1
        # and the data leave Gamma_phi unbounded: an infinite uncertainty, null in JSON
        result = json.loads((tmp_path / "out" / "fit_envelope.json").read_text())
        assert result["flags"] == ["degenerate_jacobian"]
        sigma = result["uncertainties"]
        assert sigma["gamma_phi_per_s"] is None
        assert 0.0 < sigma["amplitude"] < 1.0 and 0.0 < sigma["offset"] < 1.0

    def test_fluxnoise_fixture_recovers_amplitude(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["--config", str(DATA_DIR / "example_config_perturbative.ini"),
                         "--out", str(out),
                         "fit", "fluxnoise", str(DATA_DIR / "fluxnoise_synthetic.csv")])
        assert code == cli.EXIT_OK
        result = json.loads((out / "fit_fluxnoise.json").read_text())
        assert result["sqrt_A_Phi_uPhi0"] == pytest.approx(1.8, rel=1e-6)

    @pytest.mark.parametrize("name, flags", [
        ("example_config.ini", ["x_qp_weakly_constrained", "x_qp_at_bound"]),
        ("example_config_perturbative.ini", []),
    ])
    def test_t1_fixture_flags_a_density_held_at_its_bound(self, tmp_path, name, flags):
        # the full ini's qubit cannot reproduce the fixture's rates, so the x_qp >= 0 clip
        # decides x_qp; the flag says so, and the fit still converges with exit 0
        out = tmp_path / "out"
        assert cli.main(["--config", str(DATA_DIR / name), "--out", str(out),
                         "fit", "t1", str(DATA_DIR / "t1_synthetic.csv")]) == cli.EXIT_OK
        result = json.loads((out / "fit_t1.json").read_text())
        assert result["converged"]
        assert result["flags"] == flags
        assert (result["parameters"]["x_qp"] == 0.0) == ("x_qp_at_bound" in flags)

    def test_nonconvergence_maps_to_exit_2(self, tmp_path, config_path, monkeypatch, capsys):
        stub = FitResult(parameters={"x_qp": 0.0}, covariance=np.zeros((1, 1)),
                         residual_norm=1.0, converged=False, cost_history=(1.0,))
        monkeypatch.setattr(cli, "fit_xqp", lambda *a, **k: stub)
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out),
                         "fit", "t1", str(DATA_DIR / "t1_synthetic.csv")])
        assert code == cli.EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert err.startswith("error: fit t1 did not converge")
        assert len(err.strip().splitlines()) == 1

    def test_t1_data_temperature_without_thermal_energy_blames_the_data(self, tmp_path,
                                                                        capsys):
        # 5e-324 K underflows k_B T to 0: a data problem, not a [cqed]/[noise] one
        lines = (DATA_DIR / "t1_synthetic.csv").read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("0.01,"))
        lines[first] = "5e-324," + lines[first].split(",")[1]
        path = tmp_path / "t1.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = cli.main(["--config", str(DATA_DIR / "example_config_perturbative.ini"),
                         "--out", str(out), "fit", "t1", str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: data temperatures must be positive with k_B T > 0, got 5e-324 K\n")
        assert not out.exists()

    @pytest.mark.parametrize("target, rows, message", [
        ("envelope", [f"{i}e-6,{(-1) ** i}e308" for i in range(8)],
         "the envelope signals overflow"),
        ("t1", [f"0.0{i},5e-324" for i in range(1, 6)], "the relaxation rates 1/T1 overflow"),
        ("fluxnoise", [f"0.4{i},1e308" for i in range(5)], "the echo dephasing rates overflow"),
    ], ids=["envelope", "t1", "fluxnoise"])
    def test_overflowing_data_exits_1_naming_the_quantity(self, tmp_path, config_path, capsys,
                                                          target, rows, message):
        # data whose sum of squares overflows leave no fit cost to minimize:
        # one line naming the quantity, no numpy warning, no output
        path = tmp_path / "d.csv"
        path.write_text("\n".join([",".join(cli.DATA_SCHEMAS[target]), *rows]) + "\n")
        out = tmp_path / "out"
        code = cli.main(["--config", str(config_path), "--out", str(out), "fit", target,
                         str(path)])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}: their sum of squares is inf\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
    @pytest.mark.parametrize("line, value, target", [
        ("e_j_ghz = 136.75", "e_j_ghz = 1e300", "t1"),
        ("e_j_ghz = 136.75", "e_j_ghz = 1e300", "fluxnoise"),
    ], ids=["t1-e_j", "fluxnoise-e_j"])
    def test_non_finite_fit_is_not_converged(self, tmp_path, capsys, line, value, target):
        # an overflowing input leaves a null parameter or residual norm: that
        # fit has not converged, though its output is still written
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace(line, value))
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out),
                         "fit", target, str(DATA_DIR / f"{target}_synthetic.csv")])
        assert code == cli.EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert err.startswith(f"error: fit {target} did not converge")
        assert len(err.strip().splitlines()) == 1
        result = json.loads((out / f"fit_{target}.json").read_text())
        assert result["converged"] is False
        assert None in [*result["parameters"].values(), result["residual_norm"]]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [f"fit_{target}.json"]

    @pytest.mark.parametrize("e_j", ["136.75", "1e9"])
    def test_spectrum_fit_reads_no_start(self, tmp_path, config_path, e_j):
        # the closed form has no start: [qubit] e_j_ghz = 1e9, where the
        # iterative fit reported a false convergence, writes the same bytes
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("e_j_ghz = 136.75", f"e_j_ghz = {e_j}"))
        out_base, out = tmp_path / "base", tmp_path / "out"
        for config, target in ((config_path, out_base), (path, out)):
            assert cli.main(["--config", str(config), "--out", str(target), "fit", "spectrum",
                             str(DATA_DIR / "spectrum_synthetic.csv")]) == cli.EXIT_OK
        result = json.loads((out / "fit_spectrum.json").read_text())
        assert result["converged"] and result["iterations"] == 1
        assert (out / "fit_spectrum.json").read_bytes() == (
            out_base / "fit_spectrum.json").read_bytes()

    @pytest.mark.parametrize("value", ["5e-324", "1e-300", "1e300"])
    def test_unresolvable_anharmonicity_exits_1(self, tmp_path, capsys, value):
        # a tiny A pins alpha at 1/8 to double precision, and an A above the
        # gap fits no alpha: one line naming the anharmonicity, no output
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("anharmonicity_ghz = 0.7863981990780409",
                                            f"anharmonicity_ghz = {value}"))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "fit", "spectrum",
                         str(DATA_DIR / "spectrum_synthetic.csv")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: anharmonicity A = {float(value):.6g} GHz")
        assert not out.exists()

    def test_spectrum_fit_needs_the_anharmonicity(self, tmp_path, capsys):
        # omega01(f) alone pins two of the three parameters: without the
        # measured anharmonicity there is no fit to report
        path = tmp_path / "c.ini"
        path.write_text(BASE_CONFIG.replace("anharmonicity_ghz = 0.7863981990780409\n", ""))
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "fit", "spectrum",
                         str(DATA_DIR / "spectrum_synthetic.csv")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: missing [fit] anharmonicity_ghz\n"
        assert not out.exists()

    def test_fit_reruns_bit_identical(self, tmp_path, config_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["--config", str(config_path), "--out", str(out),
                             "fit", "spectrum", str(DATA_DIR / "spectrum_synthetic.csv")]) == 0
        assert (out_a / "fit_spectrum.json").read_bytes() == (out_b / "fit_spectrum.json").read_bytes()


class TestProcessEntry:
    """`python -m csfq3d.cli` and the console script call main() with no argv,
    and main then freezes the heap so interpreter exit skips the cyclic GC."""

    @staticmethod
    def run_python(*args):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    @pytest.mark.parametrize("command", [
        ["--config", str(DATA_DIR / "example_config_perturbative.ini"), "coherence"],
        ["--config", str(DATA_DIR / "example_config.ini"),
         "fit", "spectrum", str(DATA_DIR / "spectrum_synthetic.csv")],
    ], ids=["coherence", "fit-spectrum"])
    def test_module_run_matches_in_process_run(self, tmp_path, command):
        module_out, inproc_out = tmp_path / "module", tmp_path / "inproc"
        run = self.run_python("-m", "csfq3d.cli", "--out", str(module_out), *command)
        assert run.returncode == cli.EXIT_OK, run.stderr
        assert cli.main(["--out", str(inproc_out), *command]) == cli.EXIT_OK
        names = sorted(path.name for path in inproc_out.iterdir())
        assert sorted(path.name for path in module_out.iterdir()) == names
        for name in names:
            assert (module_out / name).read_bytes() == (inproc_out / name).read_bytes(), name

    @pytest.mark.parametrize("config_flag", [False, True], ids=["usage", "config"])
    def test_module_error_prints_one_line(self, tmp_path, config_flag):
        # without --config it is a usage error; a config that does not exist a config error
        flags = ["--config", str(tmp_path / "missing.ini")] if config_flag else []
        run = self.run_python("-m", "csfq3d.cli", *flags, "--out", str(tmp_path / "o"),
                              "filter")
        assert run.returncode == cli.EXIT_CONFIG
        assert run.stdout == ""
        assert run.stderr.startswith("error: ")
        assert len(run.stderr.splitlines()) == 1

    def test_model_warning_prints_one_line(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text((DATA_DIR / "example_config.ini").read_text()
                        .replace("omega01_ghz = 4.68", "omega01_ghz = 8.2"))
        run = self.run_python("-m", "csfq3d.cli", "--config", str(path),
                              "--out", str(tmp_path / "o"), "coherence")
        assert run.returncode == cli.EXIT_OK
        assert run.stderr == ("DispersiveLimitWarning: g01/|detuning| = 0.293 > 0.2: "
                              "outside the dispersive regime\n")

    def test_bundled_configs_print_nothing(self, tmp_path):
        # every command on both bundled configs, each a process entry in one interpreter
        argvs = [["csfq3d", "--config", str(DATA_DIR / name),
                  "--out", str(tmp_path / f"{name}-{command}"), *command_argv(command)]
                 for name in ("example_config.ini", "example_config_perturbative.ini")
                 for command in sorted(COMMAND_SECTIONS)]
        driver = ("import sys; from csfq3d import cli\n"
                  f"for argv in {argvs!r}:\n"
                  "    sys.argv = argv\n"
                  "    assert cli.main() == cli.EXIT_OK, argv\n")
        run = self.run_python("-c", driver)
        assert (run.returncode, run.stdout, run.stderr) == (0, "", "")

    def test_argv_entry_freezes_the_heap(self, tmp_path):
        # the console script calls main() with the command line in sys.argv
        config = str(DATA_DIR / "example_config.ini")
        driver = ("import gc, sys; from csfq3d import cli; before = gc.get_freeze_count(); "
                  f"sys.argv = ['csfq3d', '--config', {config!r}, "
                  f"'--out', {str(tmp_path / 'o')!r}, 'filter']; "
                  "code = cli.main(); print(code, before, gc.get_freeze_count())")
        run = self.run_python("-c", driver)
        code, before, after = map(int, run.stdout.split())
        assert (code, before) == (cli.EXIT_OK, 0), run.stderr
        assert after > 0

    def test_in_process_call_does_not_freeze(self, tmp_path):
        driver = ("import gc; from csfq3d import cli; before = gc.get_freeze_count(); "
                  f"code = cli.main(['--config', {str(DATA_DIR / 'example_config.ini')!r}, "
                  f"'--out', {str(tmp_path / 'o')!r}, 'filter']); "
                  "print(code, before, gc.get_freeze_count())")
        run = self.run_python("-c", driver)
        assert run.stdout.split() == [str(cli.EXIT_OK), "0", "0"], run.stderr
