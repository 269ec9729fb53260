import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import polariton2dcs
import polariton2dcs.cli as cli
from polariton2dcs.cli import (
    EIG_MAX_N,
    ConfigError,
    build_jobspec,
    main,
    params_hash,
    write_csv,
    write_json_grid,
)
from polariton2dcs import grids, signals, validate
from polariton2dcs.errors import DivergentTransform, TooLarge
from polariton2dcs.model import SystemParams
from polariton2dcs.parallel import cpu_count, fork_map
from polariton2dcs.propagator import build_matrix, decompose, propagator_G
from polariton2dcs.signals import twod_signal

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# the modes that read a config: validate runs on its own reference sets and takes only --out
CONFIG_MODES = [mode for mode in cli._MODES if mode != "validate"]

BASE_CONFIG = {
    "system": {
        "n_molecules": 10,
        "g": 1800.0 / math.sqrt(10),
        "delta_x": 0.0,
        "delta_c": 0.0,
        "gamma_x": 1.0,
        "gamma_c": 0.9,
        "omega_v": 1200.0,
        "gamma_v": 20.0,
        "lambda_hr": 1.0,
        "omega_ref": 16113.0,
    },
    "kernel": {"tail_eps": 1e-10},
    "grids": {
        "absorption": {"start": 13000.0, "stop": 19000.0, "count": 400},
        "omega1": {"start": 13000.0, "stop": 19000.0, "count": 40},
        "omega3": {"start": 13000.0, "stop": 19000.0, "count": 40},
        "pump_probe": {"start": 12000.0, "stop": 19000.0, "count": 300},
    },
    "t_wait": [0.0, 250.0],
    "output": {"directory": "out", "formats": ["csv", "json"]},
}


def config_text(**changes) -> str:
    """BASE_CONFIG as JSON text with each dotted key of ``changes`` set, or removed by None."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in changes.items():
        node = cfg
        *parents, last = dotted.split(".")
        for key in parents:
            node = node[key]
        if value is None:
            node.pop(last, None)
        else:
            node[last] = value
    return json.dumps(cfg)


def write_config(tmp_path, **changes) -> Path:
    path = tmp_path / "config.json"
    path.write_text(config_text(**changes))
    return path


def with_value(dotted: str, value) -> dict:
    """BASE_CONFIG with ``dotted`` set to ``value``; unlike write_config, None is written as null."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    *parents, last = dotted.split(".")
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return cfg


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -W error -m polariton2dcs.cli <args>`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "polariton2dcs.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


# a config key set to a value of the wrong JSON type, and the text that its refusal names
HAND_PICKED_WRONG_TYPES = [
    ("system", 5, "system"),
    ("kernel", 5, "kernel"),
    ("grids", 5, "grids"),
    ("grids.absorption", 5, "grids.absorption"),
    ("output", 5, "output"),
    ("stokes_orders", 5, "stokes_orders"),
    ("output.formats", 5, "output.formats"),
    ("output.directory", 5, "output.directory"),
    ("t_wait", "abc", "t_wait"),
    ("t_wait", [0.0, None], "t_wait"),
    ("kernel.tail_eps", "abc", "kernel.tail_eps"),
    ("system.n_molecules", "abc", "n_molecules"),
    ("system.n_molecules", "3", "n_molecules"),
    ("system.g", True, "(g)"),
    ("system.gamma_x", "1.0", "gamma_x"),
    ("t_wait", "250", "t_wait"),
    ("t_wait", [0.0, True], "t_wait"),
    ("kernel.tail_eps", "1e-10", "kernel.tail_eps"),
    ("kernel.tail_eps", False, "kernel.tail_eps"),
    ("grids.absorption.start", "13000", "grids.absorption.start"),
    ("grids.omega3.stop", True, "grids.omega3.stop"),
]


def _wrong_type_rows(rows):
    """``rows``, then null, {} and true in every key, and a numeric string and [1.0] in every
    number; a system field is named as the parameter error names it, (field)."""
    numbers = ([f"system.{f.name}" for f in dataclasses.fields(SystemParams)]
               + [f"grids.{axis}.{key}" for axis in BASE_CONFIG["grids"]
                  for key in ("start", "stop", "count")]
               + ["kernel.tail_eps"])
    keys = numbers + ["t_wait", "stokes_orders", "output.formats", "output.directory"]
    generated = [(key, value) for key in keys for value in (None, {}, True)]
    generated += [(key, value) for key in numbers for value in ("1", [1.0])] + [("t_wait", "1")]
    seen = {(dotted, json.dumps(value)) for dotted, value, _ in rows}
    rows = [pytest.param(*row, id=f"{row[0]}={json.dumps(row[1])}") for row in rows]
    for dotted, value in generated:
        if (dotted, json.dumps(value)) not in seen:
            key = f"({dotted[len('system.'):]})" if dotted.startswith("system.") else dotted
            rows.append(pytest.param(dotted, value, key, id=f"{dotted}={json.dumps(value)}"))
    return rows


WRONG_TYPE_ROWS = _wrong_type_rows(HAND_PICKED_WRONG_TYPES)

# documented refusals with exit 2: the mode, the text of its config file, its flags, and the
# text that the one stderr line holds
DOCUMENTED_REFUSALS = [
    pytest.param("absorption", config_text(**{"grids.absorption.count": None}), [],
                 "grids.absorption missing key(s): count", id="grid-without-count"),
    pytest.param("eig", json.dumps([BASE_CONFIG]), [], "config root must be a JSON object",
                 id="list-root"),
    pytest.param("eig", config_text(system=None), [], "config needs a 'system' section",
                 id="no-system"),
    pytest.param("twod", config_text(), ["--t-list", "0,abc"], "bad --t-list: ", id="t-list-abc"),
    pytest.param("slices", config_text(stokes_orders=[0]), [], "stokes_orders must be >= 1",
                 id="stokes-order-0"),
    pytest.param("eig", "{not json", [], "config.json is not valid JSON: ", id="not-json"),
    pytest.param("eig", config_text(**{"system.dipole": 0.0}), [], "NonPositiveRate(dipole)",
                 id="dipole-0"),
    pytest.param("eig", config_text(**{"system.lambda_hr": -0.5}), [],
                 "NonPositiveRate(lambda_hr)", id="negative-lambda"),
    pytest.param("eig", config_text(**{"system.g": 1e308}), [],
                 "NonFinite(g): Rabi splitting 2*g*sqrt(N) overflows", id="g-1e308"),
]

# a config key that a flag replaces: the flag with a valid value, and the modes that take it
FLAG_OF_KEY = {
    "output.directory": (["--out", "X"], CONFIG_MODES),
    "output.formats": (["--format", "csv"], [m for m in CONFIG_MODES if cli._MODES[m].axes]),
    "t_wait": (["--t-list", "0"], [m for m in CONFIG_MODES if cli._MODES[m].waits]),
}


class TestJobSpec:
    def test_valid_config(self, tmp_path):
        spec = build_jobspec("twod", BASE_CONFIG)
        assert spec.params.n_molecules == 10
        assert spec.kernel.m_max == 12
        assert spec.t_list == [0.0, 250.0]

    def test_unknown_top_level_key(self):
        cfg = dict(BASE_CONFIG, typo_section={})
        with pytest.raises(ConfigError, match="typo_section"):
            build_jobspec("absorption", cfg)

    def test_unknown_system_key(self):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["system"]["gamma_y"] = 1.0
        with pytest.raises(ConfigError, match="gamma_y"):
            build_jobspec("absorption", cfg)

    def test_missing_mode_grid(self):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["grids"]["omega3"]
        with pytest.raises(ConfigError, match="omega3"):
            build_jobspec("twod", cfg)

    def test_single_point_grid_rejected(self):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["grids"]["absorption"]["count"] = 1
        with pytest.raises(ConfigError):
            build_jobspec("absorption", cfg)

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            build_jobspec("absorption", BASE_CONFIG, formats_override="csv,xml")

    def test_t_list_override(self):
        spec = build_jobspec("twod", BASE_CONFIG, t_list_override="0,100,250")
        assert spec.t_list == [0.0, 100.0, 250.0]

    def test_negative_waiting_time_rejected(self):
        with pytest.raises(ConfigError):
            build_jobspec("twod", BASE_CONFIG, t_list_override="-5")

    def test_unknown_mode_rejected_before_any_directory(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(ConfigError, match="bogus"):
            build_jobspec("bogus", BASE_CONFIG, out_override=str(out))
        assert not out.exists()

    @pytest.mark.parametrize("override, key", [(None, "output.formats"), ("csv,xml", "--format")])
    def test_bad_format_names_its_source(self, override, key):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["output"]["formats"] = ["xml"]
        with pytest.raises(ConfigError, match=key):
            build_jobspec("absorption", cfg, formats_override=override)


class TestMainExitCodes:
    def test_absorption_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["absorption", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "absorption.csv").exists()
        assert (out / "absorption.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["absorption.csv", "absorption.json"]
        assert manifest["truncation"]["m_max"] == 12
        # parameters are recoverable from the manifest alone
        assert manifest["config"]["system"]["omega_ref"] == 16113.0
        spec = build_jobspec("absorption", manifest["config"])
        assert params_hash(spec) == manifest["params_hash"]

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, **{"system.bogus": 1.0})
        assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("dotted, value, key", [
        ("grids.absorption.count", 2.7, "grids.absorption.count"),
        ("system.n_molecules", True, "n_molecules"),
        ("stokes_orders", [1.5], "stokes_orders"),
    ])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, dotted, value, key):
        cfg = write_config(tmp_path, **{dotted: value})
        assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("dotted, value, key", WRONG_TYPE_ROWS)
    def test_wrong_json_type_exits_2(self, tmp_path, monkeypatch, capsys, dotted, value, key):
        # no --out: output.directory is read only without it, relative to the working directory
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(with_value(dotted, value)))
        for mode in CONFIG_MODES:
            assert main([mode, "--config", "config.json"]) == 2, mode
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: ") and err.count("\n") == 1, (mode, err)
            assert key in err, (mode, err)
            assert os.listdir() == ["config.json"], mode

    @pytest.mark.parametrize("dotted, value, key", [
        row for row in WRONG_TYPE_ROWS if row.values[0] in FLAG_OF_KEY])
    def test_wrong_json_type_under_its_flag_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    dotted, value, key):
        # the flag replaces the key's value, and the key is still read by its type rule
        monkeypatch.chdir(tmp_path)
        Path("config.json").write_text(json.dumps(with_value(dotted, value)))
        flag, modes = FLAG_OF_KEY[dotted]
        for mode in modes:
            assert main([mode, "--config", "config.json", *flag]) == 2, mode
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: ") and err.count("\n") == 1, (mode, err)
            assert key in err, (mode, err)
            assert os.listdir() == ["config.json"], mode

    @pytest.mark.parametrize("flags, changes, key", [
        pytest.param(["--out", ""], {}, "--out", id="--out"),
        pytest.param([], {"output.directory": ""}, "output.directory", id="output.directory"),
    ])
    def test_empty_output_directory_exits_2(self, tmp_path, monkeypatch, capsys, flags, changes,
                                            key):
        # an empty --out was taken as no flag and wrote output.directory; an empty
        # output.directory wrote into the working directory
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, **changes)
        runs = [[mode, "--config", "config.json", *flags] for mode in CONFIG_MODES]
        if flags:
            runs.append(["validate", *flags])
        for argv in runs:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == (
                "", f"config error: {key} must name a directory, got an empty string\n"), argv
            assert os.listdir() == ["config.json"], argv

    @pytest.mark.parametrize("mode, text, flags, key", DOCUMENTED_REFUSALS)
    def test_documented_refusal_exits_2(self, tmp_path, capsys, mode, text, flags, key):
        cfg, out = tmp_path / "config.json", tmp_path / "o"
        cfg.write_text(text)
        assert main([mode, "--config", str(cfg), "--out", str(out), *flags]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("config error: ") and err.count("\n") == 1, err
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value, key", [
        ("grids.absorption.stop", math.inf, "grids.absorption.stop"),
        ("grids.absorption.start", -math.inf, "grids.absorption.start"),
        ("grids.omega1.start", math.nan, "grids.omega1.start"),
        ("t_wait", [math.inf], "t_wait"),
        ("t_wait", math.nan, "t_wait"),
        ("kernel.tail_eps", math.nan, "kernel.tail_eps"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, dotted, value, key):
        # the config is written with json.dumps, which spells these Infinity and NaN
        cfg = write_config(tmp_path, **{dotted: value})
        assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("tokens", ["0,inf", "nan", "100,-Infinity"])
    def test_non_finite_t_list_exits_2(self, tmp_path, capsys, tokens):
        cfg = write_config(tmp_path)
        code = main(["pump-probe", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--t-list", tokens])
        assert code == 2
        assert "--t-list" in capsys.readouterr().err

    @pytest.mark.parametrize("tail_eps", [1e-17, 1e-300])
    def test_tail_eps_below_float_resolution_exits_2(self, tmp_path, capsys, tail_eps):
        cfg = write_config(tmp_path, **{"kernel.tail_eps": tail_eps})
        assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "kernel.tail_eps" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", CONFIG_MODES)
    def test_kernel_m_max_is_an_unknown_key(self, tmp_path, capsys, mode):
        # kernel.tail_eps alone sets the cutoff, and every mode refuses the key before it runs
        cfg, out = write_config(tmp_path, **{"kernel.m_max": 12}), tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "config error: unknown key(s) in kernel: m_max\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["twod", "pump-probe", "slices"])
    def test_negative_t_wait_exits_2(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, **{"t_wait": [0.0, -5.0]})
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "t_wait" in capsys.readouterr().err
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--t-list", "-1"]) == 2
        assert "--t-list" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["twod", "pump-probe", "slices"])
    @pytest.mark.parametrize("key, t_list", [("t_wait", None), ("--t-list", ""), ("--t-list", ",")])
    def test_no_waiting_time_exits_2_naming_its_key(self, tmp_path, capsys, mode, key, t_list):
        cfg, out = write_config(tmp_path, t_wait=[]), tmp_path / "o"
        flags = [] if t_list is None else ["--t-list", t_list]
        assert main([mode, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert capsys.readouterr() == (
            "", f"config error: {key}: mode '{mode}' needs at least one waiting time\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, key, t_list, clash", [
        ("pump-probe", "--t-list", "0.1,0.1000001,250,250.0000001",
         "0.1 and 0.1000001 share the file stem pump_probe_T0p1fs"),
        ("twod", "--t-list", "0.1,0.1000001", "0.1 and 0.1000001 share the file stem twod_T0p1fs"),
        ("twod", "--t-list", "0,250,250", "250.0 and 250.0 share the file stem twod_T250fs"),
        ("pump-probe", "t_wait", [250.0000001, 250.0],
         "250.0000001 and 250.0 share the file stem pump_probe_T250fs"),
        # -0 is the waiting time 0, named T0fs
        ("twod", "--t-list", "0,-0", "0.0 and 0.0 share the file stem twod_T0fs"),
        ("pump-probe", "--t-list", "250,-0,0", "0.0 and 0.0 share the file stem pump_probe_T0fs"),
        ("twod", "t_wait", [0.0, -0.0], "0.0 and 0.0 share the file stem twod_T0fs"),
        ("pump-probe", "t_wait", [-0.0, 250.0, 0.0],
         "0.0 and 0.0 share the file stem pump_probe_T0fs"),
    ])
    def test_waiting_times_sharing_a_file_stem_exit_2(self, tmp_path, capsys, mode, key, t_list,
                                                      clash):
        # each would overwrite the other's file, the survivor set by process timing
        if key == "t_wait":
            args = ["--config", str(write_config(tmp_path, t_wait=t_list))]
        else:
            args = ["--config", str(write_config(tmp_path)), "--t-list", t_list]
        assert main([mode, *args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: the waiting times {clash}\n"
        assert not (tmp_path / "o").exists()

    # Linux caps one argv string at 128 KiB (MAX_ARG_STRLEN), so each list stays under it
    @pytest.mark.parametrize("t_list, err", [
        (",".join(["0"] * 60_000),
         "--t-list: the waiting times 0.0 and 0.0 share the file stem twod_T0fs"),
        (",".join(map(str, range(20_000))) + ",-1", "--t-list must be >= 0, got -1.0"),
        (",".join(map(str, range(20_000))) + ",7",
         "--t-list: the waiting times 7.0 and 7.0 share the file stem twod_T7fs"),
    ], ids=["60000-zeros", "20000-then-negative", "20000-then-repeat"])
    def test_huge_t_list_exits_2_quickly(self, tmp_path, t_list, err):
        out = tmp_path / "o"
        start = time.perf_counter()
        result = run_cli("twod", "--config", str(CONFIGS / "cyanine_n10.json"), "--t-list", t_list,
                         "--out", str(out))
        assert time.perf_counter() - start < 5.0
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"config error: {err}\n")
        assert not out.exists()

    def test_negative_zero_waiting_time_is_zero(self, tmp_path, capsys):
        cfg = str(write_config(tmp_path))
        out = tmp_path / "pp"
        assert main(["pump-probe", "--config", cfg, "--out", str(out), "--t-list=-0"]) == 0
        assert sorted(path.name for path in out.iterdir()) == [
            "manifest.json", "pump_probe_T0fs.csv", "pump_probe_T0fs.json"]
        assert "# t_wait=0\n" in (out / "pump_probe_T0fs.csv").read_text()
        t_wait = json.loads((out / "pump_probe_T0fs.json").read_text())["t_wait"]
        assert math.copysign(1.0, t_wait) == 1.0
        out = tmp_path / "sl"
        assert main(["slices", "--config", cfg, "--out", str(out), "--t-list=-0"]) == 0
        assert '"t_list": [\n    0.0\n  ]' in (out / "slices.json").read_text()

    @pytest.mark.parametrize("mode, changes, args, err", [
        ("absorption", {}, ["--format", "csv,csv,json"], "--format: 'csv' is named twice"),
        ("twod", {}, ["--format", "json, csv,json"], "--format: 'json' is named twice"),
        ("pump-probe", {"output.formats": ["csv", "json", "csv"]}, [],
         "output.formats: 'csv' is named twice"),
        ("slices", {"stokes_orders": [2, 1, 2]}, [], "stokes_orders: 2 is named twice"),
        ("slices", {"stokes_orders": [1, 1.0]}, [], "stokes_orders: 1 is named twice"),
    ])
    def test_output_named_twice_exits_2(self, tmp_path, capsys, mode, changes, args, err):
        # a repeated format writes and lists one file twice; a repeated order computes it twice
        cfg = write_config(tmp_path, **changes)
        assert main([mode, "--config", str(cfg), *args, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["twod", "pump-probe"])
    def test_distinct_stems_are_accepted(self, mode):
        for t_list in (T_WAITS, [125.0 * k for k in range(8)], [0.1, 0.2, 0.25]):
            spec = build_jobspec(mode, BASE_CONFIG, t_list_override=",".join(map(repr, t_list)))
            assert spec.t_list == t_list

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, **{"grids.absorption.count": 1})
        assert main(["absorption", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["absorption", "--config", str(tmp_path / "missing.json")]) == 2

    def test_degenerate_bright_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, **{"system.g": 0.0, "system.gamma_c": 1.0})
        assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe", "slices"])
    def test_underflowing_lambda_runs(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path, **{"system.lambda_hr": 1e-300})
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, \
            capsys.readouterr().err

    @pytest.mark.parametrize("mode, dipole", [
        *((mode, 2e77) for mode in CONFIG_MODES),
        ("absorption", 2e154)])
    def test_dipole_past_the_float_range_exits_2(self, tmp_path, capsys, mode, dipole):
        # dipole**4 of the 2D and pump-probe prefactors, and dipole**2 of absorption at
        # 2e154, ended in an OverflowError traceback (exit 1)
        cfg = write_config(tmp_path, **{"system.dipole": dipole})
        out = tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: system section invalid: "
                                           "NonFinite(dipole): dipole**4 overflows\n")
        assert not out.exists()

    def test_largest_dipole_power_of_ten_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"system.dipole": 1e77})
        assert main(["twod", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, \
            capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["absorption", "eig"])
    @pytest.mark.parametrize("lam", [150.0, 1e300])
    def test_lambda_past_the_cutoff_cap_exits_2(self, tmp_path, capsys, mode, lam):
        cfg = write_config(tmp_path, **{"system.lambda_hr": lam})
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "system.lambda_hr" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", [EIG_MAX_N + 1, 1e300])
    def test_eig_beyond_its_size_limit_exits_3(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, **{"system.n_molecules": n})
        assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "system.n_molecules" in capsys.readouterr().err
        assert not (tmp_path / "o" / "eig.json").exists()

    @pytest.mark.parametrize("mode, n", [
        ("absorption", EIG_MAX_N + 1), ("twod", EIG_MAX_N + 1), ("pump-probe", EIG_MAX_N + 1),
        ("absorption", 1e8), ("twod", 1e8), ("pump-probe", 1e8),
        # the largest powers of ten whose index counts are finite floats
        ("absorption", 1e154), ("twod", 1e61), ("pump-probe", 1e77),
    ])
    def test_spectra_at_large_n_run(self, tmp_path, capsys, mode, n):
        cfg = write_config(tmp_path, **{"system.n_molecules": n})
        assert main([mode, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0, \
            capsys.readouterr().err

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 17 + 1, 10 ** 70],
                             ids=["2^53+1", "10^17+1", "10^70"])
    def test_integral_n_past_float_precision_runs(self, tmp_path, capsys, n):
        # float(n) == int(n) refused these with "need an integer >= 1" (exit 2)
        cfg, out = write_config(tmp_path, **{"system.n_molecules": n}), tmp_path / "o"
        assert main(["absorption", "--config", str(cfg), "--out", str(out)]) == 0, \
            capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["system"]["n_molecules"] == n

    @pytest.mark.parametrize("mode, n", [
        ("absorption", 1e155), ("twod", 1e62), ("pump-probe", 1e78),
        ("absorption", 1e300), ("twod", 1e300), ("pump-probe", 1e300),
    ])
    def test_spectra_past_float_index_counts_exit_3(self, tmp_path, capsys, mode, n):
        cfg = write_config(tmp_path, **{"system.n_molecules": n})
        out = tmp_path / "o"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: TooLarge: ") and "system.n_molecules" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("mode, key, value, err", [
        ("eig", "n_molecules", 200_000, "TooLarge: eig lists every mode and is limited to "),
        ("slices", "n_molecules", 101,
         "TooLarge: slices limited to N <= 100 (cost grows as N^3), got system.n_molecules = 101\n"),
        ("twod", "n_molecules", 10 ** 70, "TooLarge: index counts up to N^5 overflow a float "),
        ("twod", "omega_v", 1e308,
         "NonFiniteResult: twod_T0fs.csv, twod_T0fs.json not written: the twod values hold "),
    ], ids=["eig-N=200000", "slices-N=101", "twod-N=10^70", "twod-nan"])
    def test_job_refused_at_run_time_leaves_no_directory(self, tmp_path, capsys, mode, key,
                                                         value, err):
        # each was refused after the directory was made, and left it empty
        cfg, out = write_config(tmp_path, **{f"system.{key}": value}), tmp_path / "o" / "job"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"numeric failure: {err}") and stderr.count("\n") == 1, stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, dotted", [
        ("absorption", "grids.absorption.start"), ("absorption", "grids.absorption.stop"),
        ("twod", "grids.omega1.start"), ("twod", "grids.omega1.stop"),
        ("twod", "grids.omega3.start"), ("twod", "grids.omega3.stop"),
        ("pump-probe", "grids.pump_probe.start"), ("pump-probe", "grids.pump_probe.stop"),
        ("absorption", "kernel.tail_eps"), ("twod", "t_wait"),
    ])
    def test_config_number_past_the_float_range_exits_2(self, tmp_path, mode, dotted):
        # float() of a 400-digit JSON integer raised an OverflowError traceback (exit 1)
        cfg, out = write_config(tmp_path, **{dotted: 10 ** 400}), tmp_path / "o"
        result = run_cli(mode, "--config", str(cfg), "--out", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", f"config error: {dotted} must be a finite number, got {10 ** 400}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, changes, what", [
        ("absorption", {"grids.absorption.count": 1e9}, "grids.absorption.count x (3 m_max + 1)"),
        ("pump-probe", {"grids.pump_probe.count": 10 ** 6}, "grids.pump_probe.count x (3 m_max + 1)"),
        ("twod", {"grids.omega1.count": 10 ** 6}, "grids.omega1.count x grids.omega3.count"),
        ("twod", {"grids.omega1.count": 2, "grids.omega3.count": 10 ** 6},
         "grids.omega3.count x (3 m_max + 1)"),
        ("twod", {"system.lambda_hr": 90.0}, "(3 m_max + 1)^2"),
        ("absorption", {"system.lambda_hr": 90.0}, "grids.absorption.count x (3 m_max + 1)"),
    ])
    def test_grid_past_the_size_bound_is_refused(self, tmp_path, mode, changes, what):
        # refused by build_jobspec, before anything is allocated
        cfg = json.loads(write_config(tmp_path, **changes).read_text())
        with pytest.raises(TooLarge, match=re.escape(f"{mode} would allocate {what} = ")):
            build_jobspec(mode, cfg)

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe"])
    def test_grid_past_the_size_bound_exits_3(self, tmp_path, capsys, monkeypatch, mode):
        # a small bound, so that without the guard the job stays small
        monkeypatch.setattr(cli, "GRID_MAX_ELEMENTS", 1000)
        out = tmp_path / "o"
        assert main([mode, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: TooLarge: {mode} would allocate grids."), err
        assert "more than GRID_MAX_ELEMENTS = 1000" in err and not out.exists()

    def test_grid_size_bound_is_inclusive(self):
        width = 3 * 12 + 1   # m_max = 12 at the base config's tail_eps
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["grids"]["absorption"]["count"] = cli.GRID_MAX_ELEMENTS // width
        assert build_jobspec("absorption", cfg).kernel.m_max == 12
        cfg["grids"]["absorption"]["count"] += 1
        with pytest.raises(TooLarge, match="grids.absorption.count"):
            build_jobspec("absorption", cfg)

    @pytest.mark.parametrize("config", ["cyanine_n10.json", "cyanine_n1.json"])
    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe"])
    def test_shipped_grids_far_below_the_size_bound(self, monkeypatch, config, mode):
        monkeypatch.setattr(cli, "GRID_MAX_ELEMENTS", cli.GRID_MAX_ELEMENTS // 40)
        build_jobspec(mode, json.loads((CONFIGS / config).read_text()))

    @pytest.mark.parametrize("mode, changes, m_max", [
        ("twod", {"system.lambda_hr": 18.0}, 445),
        ("slices", {"system.lambda_hr": 90.0}, 8679),
        ("slices", {"system.lambda_hr": 96.8}, 9992),
        ("pump-probe", {"system.lambda_hr": 90.0, "grids.pump_probe.count": 2}, 8679),
    ])
    def test_work_past_the_bound_is_refused(self, tmp_path, mode, changes, m_max):
        # at kernel.tail_eps = 1e-10 the bound is lambda_hr 17.29 for twod, 88.82 for the others
        cfg = json.loads(write_config(tmp_path, **changes).read_text())
        power = 3 if mode == "twod" else 2
        with pytest.raises(TooLarge, match=re.escape(
                f"{mode} would take 15 x m_max^{power} = ")) as info:
            build_jobspec(mode, cfg)
        assert (f"(m_max = {m_max} from system.lambda_hr = {changes['system.lambda_hr']:g} "
                f"at kernel.tail_eps = 1e-10)") in str(info.value)

    @pytest.mark.parametrize("mode, changes, m_max", [
        ("twod", {"system.lambda_hr": 17.0}, 404),
        ("slices", {"system.lambda_hr": 88.0}, 8309),
        ("pump-probe", {"system.lambda_hr": 88.0, "grids.pump_probe.count": 2}, 8309),
    ])
    def test_work_just_below_the_bound_is_accepted(self, tmp_path, mode, changes, m_max):
        cfg = json.loads(write_config(tmp_path, **changes).read_text())
        assert build_jobspec(mode, cfg).kernel.m_max == m_max

    @pytest.mark.parametrize("mode, power", [("twod", 3), ("slices", 2), ("pump-probe", 2)])
    def test_work_bound_is_inclusive(self, tmp_path, monkeypatch, mode, power):
        # the base config's m_max = 12, with the bound set at and just below its work
        cfg = json.loads(write_config(tmp_path).read_text())
        monkeypatch.setattr(cli, "WORK_MAX_OPS", 15 * 12 ** power)
        assert build_jobspec(mode, cfg).kernel.m_max == 12
        monkeypatch.setattr(cli, "WORK_MAX_OPS", 15 * 12 ** power - 1)
        with pytest.raises(TooLarge, match=re.escape(f"(m_max = 12 from system.lambda_hr = 1 at "
                                                     f"kernel.tail_eps = 1e-10), more than "
                                                     f"WORK_MAX_OPS = {15 * 12 ** power - 1}")):
            build_jobspec(mode, cfg)

    @pytest.mark.parametrize("mode", ["twod", "pump-probe", "slices"])
    def test_work_past_the_bound_exits_3(self, tmp_path, capsys, monkeypatch, mode):
        # a small bound, so that without the guard the job stays small
        monkeypatch.setattr(cli, "WORK_MAX_OPS", 1000)
        out = tmp_path / "o"
        assert main([mode, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: TooLarge: {mode} would take 15 x m_max^"), err
        assert "(m_max = 12 from system.lambda_hr = 1 at kernel.tail_eps = 1e-10)" in err
        assert "more than WORK_MAX_OPS = 1000" in err and not out.exists()

    @pytest.mark.parametrize("mode", ["eig", "validate"])
    def test_modes_without_a_kernel_take_any_cutoff(self, tmp_path, mode):
        # the largest cutoff the tail search gives, past every spectrum mode's bound
        cfg = json.loads(write_config(tmp_path, **{"system.lambda_hr": 96.8}).read_text())
        assert build_jobspec(mode, cfg).kernel.m_max == 9992

    @pytest.mark.parametrize("config", ["cyanine_n10.json", "cyanine_n1.json"])
    @pytest.mark.parametrize("mode", ["twod", "pump-probe", "slices"])
    def test_shipped_configs_far_below_the_work_bound(self, monkeypatch, config, mode):
        monkeypatch.setattr(cli, "WORK_MAX_OPS", cli.WORK_MAX_OPS // 1000)
        build_jobspec(mode, json.loads((CONFIGS / config).read_text()))

    def test_unwritable_output_exits_4(self, tmp_path):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(["absorption", "--config", str(cfg), "--out", str(blocker / "sub")])
        assert code == 4

    def test_eig_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "eig"
        assert main(["eig", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "eig.json").read_text())
        assert doc["labels"][:2] == ["LP", "UP"]
        assert len(doc["labels"]) == 11
        assert doc["bright_absolute"] == pytest.approx([14313.0, 17913.0])

    def test_slices_output(self, tmp_path):
        cfg = write_config(tmp_path, **{"t_wait": [0.0, 100.0], "stokes_orders": [1]})
        out = tmp_path / "sl"
        assert main(["slices", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "slices.json").read_text())
        assert doc["t_list"] == [0.0, 100.0]
        assert "1" in doc["stokes"]

    def test_huge_stokes_order_runs_in_the_time_of_order_one(self, tmp_path, capsys):
        # past 2 m_max an order keeps no term, and its weight table is sized by the cutoff
        seconds = {}
        for order in (1, 10 ** 12):
            cfg = write_config(tmp_path, stokes_orders=[order])
            start = time.perf_counter()
            code = main(["slices", "--config", str(cfg), "--out", str(tmp_path / str(order))])
            seconds[order] = time.perf_counter() - start
            assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / str(10 ** 12) / "slices.json").read_text())
        assert doc["stokes"][str(10 ** 12)]["formula"] == [0.0, 0.0]
        assert seconds[10 ** 12] < 2.0 * seconds[1] + 0.5, seconds

    @pytest.mark.parametrize("order", [1e306, 10 ** 400], ids=["1e306", "10^400"])
    def test_stokes_line_past_the_float_range_exits_2(self, tmp_path, capsys, order):
        cfg = write_config(tmp_path, stokes_orders=[1, order])
        assert main(["slices", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: stokes_orders: the Stokes line of order more than 1e300")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe", "slices", "eig"])
    def test_rates_and_detunings_far_apart_run_without_warnings(self, tmp_path, mode):
        # the shipped config with gamma_x = 1e12 under a common detuning of 1e13, under -W
        # error: a job ends in 0 with finite files or in 3 with one numeric failure line
        cfg = json.loads((CONFIGS / "cyanine_n10.json").read_text())
        cfg["system"].update(gamma_x=1e12, delta_x=1e13, delta_c=1e13)
        path, out = tmp_path / "config.json", tmp_path / "o"
        path.write_text(json.dumps(cfg))
        result = run_cli(mode, "--config", str(path), "--out", str(out))
        assert "Traceback" not in result.stderr, result.stderr
        if result.returncode == 3:
            assert result.stderr.startswith("numeric failure: ") and result.stderr.count("\n") == 1
            return
        assert result.returncode == 0 and result.stderr == "", result.stderr
        for file in out.iterdir():
            if file.suffix == ".csv":
                assert np.isfinite(grids.load_grid(file).values).all(), file.name
            else:
                json.loads(file.read_text(), parse_constant=lambda name: pytest.fail(name))

    @pytest.mark.parametrize("mode, key, outputs", [
        ("absorption", "omega_v", "absorption.csv, absorption.json"),
        ("absorption", "gamma_v", "absorption.csv, absorption.json"),
        ("slices", "delta_x", "slices.json"),
        ("eig", "delta_x", "eig.json"),
    ])
    def test_non_finite_output_is_not_written(self, tmp_path, mode, key, outputs):
        # the shipped config with one rate or frequency at 1e308, under -W error: the
        # kernels overflow without a warning, and the output is refused before it is opened
        cfg = json.loads((CONFIGS / "cyanine_n10.json").read_text())
        cfg["system"][key] = 1e308
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        formats = ["--format", "csv,json"] if mode == "absorption" else []
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "polariton2dcs.cli", mode, "--config", str(path),
             "--out", str(out), *formats],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith(f"numeric failure: NonFiniteResult: {outputs} not written: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert not out.exists()

    def test_peaks_subcommand(self, tmp_path, capsys):
        # narrow polariton lines need the fine grid for stable peak heights
        cfg = write_config(tmp_path, **{"grids.absorption.count": 2000})
        out = tmp_path / "out"
        main(["absorption", "--config", str(cfg), "--out", str(out)])
        code = main(["peaks", str(out / "absorption.csv"), "--min-height", "0.05"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        found = sorted(round(p["refined"]) for p in report)
        assert len(found) == 3
        assert abs(found[0] - 14313) < 6 and abs(found[2] - 17913) < 6

    def test_peaks_report_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary):
        out, report = tmp_path / "out", tmp_path / "peaks.json"
        assert main(["absorption", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(["peaks", str(out / "absorption.csv"), "--report", str(report)]) == 0
        stdout = capsysbinary.readouterr().out
        assert json.loads(stdout) and report.read_bytes() == stdout

    def test_peaks_empty_report_exits_2_before_reading_the_grid(self, tmp_path, monkeypatch,
                                                                capsys):
        # an empty --report was taken as no flag: exit 0, the report on stdout, no file
        out = tmp_path / "out"
        assert main(["absorption", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.chdir(out)
        files = sorted(os.listdir())
        refusal = ("", "config error: --report must name a file, got an empty string\n")
        for grid_file in ("absorption.csv", "absorption.json", "missing.csv"):
            assert main(["peaks", grid_file, "--report", ""]) == 2, grid_file
            assert capsys.readouterr() == refusal, grid_file
        assert sorted(os.listdir()) == files

    def test_peaks_on_a_map_with_a_subnormal_omega_v(self, tmp_path):
        # an offset over omega_v = 1e-320 is no finite number of quanta; int() of it raised
        cfg = write_config(tmp_path, **{"system.omega_v": 1e-320, "t_wait": [0.0]})
        out = tmp_path / "out"
        assert run_cli("twod", "--config", str(cfg), "--out", str(out)).returncode == 0
        reports = []
        for fmt in ("csv", "json"):
            result = run_cli("peaks", str(out / f"twod_T0fs.{fmt}"))
            assert (result.returncode, result.stderr) == (0, ""), result.stderr
            reports.append(result.stdout)
        assert reports[0] == reports[1]
        off_diagonal = [p for p in json.loads(reports[0]) if p["omega1"] != p["omega3"]]
        assert off_diagonal and all(p["classification"] == "coherence" and p["k"] is None
                                    for p in off_diagonal)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_peaks_non_finite_min_height_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["absorption", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["peaks", str(out / "absorption.csv"), f"--min-height={value}"]) == 2
        captured = capsys.readouterr()
        assert "--min-height" in captured.err
        assert captured.out == ""

    def test_peaks_closed_stdout_exits_quietly(self, tmp_path):
        out = tmp_path / "out"
        assert main(["absorption", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "polariton2dcs.cli", "peaks", str(out / "absorption.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # the read end closes while the child is still importing, before its first write
        proc.stdout.close()
        with proc.stderr:
            stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr

    def test_validate_closed_stdout_writes_files_and_exits_quietly(self, tmp_path):
        out = tmp_path / "v"
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "polariton2dcs.cli", "validate", "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()     # as in `validate | head -1`, which stops reading early
        with proc.stderr:
            stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, stderr
        assert "Traceback" not in stderr and "Broken pipe" not in stderr, stderr
        assert (out / "validate.json").exists() and (out / "manifest.json").exists()

    def test_peaks_malformed_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nonsense\n")
        assert main(["peaks", str(bad)]) == 2

    def test_validate_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import polariton2dcs.cli as cli_mod
        from polariton2dcs.validate import CheckResult

        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda: [CheckResult("stub", 1.0, 0.5, False)])
        assert main(["validate", "--out", str(tmp_path / "v")]) == 1
        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda: [CheckResult("stub", 0.1, 0.5, True)])
        assert main(["validate", "--out", str(tmp_path / "v")]) == 0

    def test_validate_check_times_in_manifest_only(self, tmp_path, monkeypatch):
        import polariton2dcs.cli as cli_mod
        from polariton2dcs.validate import CheckResult

        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda: [CheckResult("stub", 0.1, 0.5, True, seconds=1.25)])
        out = tmp_path / "v"
        assert main(["validate", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["oracle_seconds"] == {"stub": 1.25}
        assert json.loads((out / "validate.json").read_text()) == [
            {"name": "stub", "max_err": 0.1, "tol": 0.5, "passed": True}]


class TestEigClosedForms:
    """eig.json holds the Rabi splitting 2 g sqrt(N), the bright lines omega_ref -/+ g sqrt(N)
    and the polaron shift 2 lambda_hr^2 omega_v."""

    @staticmethod
    def eig_doc(tmp_path, **system) -> dict:
        cfg = write_config(tmp_path, **{f"system.{name}": value for name, value in system.items()})
        assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "eig")]) == 0
        return json.loads((tmp_path / "eig" / "eig.json").read_text())

    @pytest.mark.parametrize("delta_x", [0.0, 250.0])
    def test_reference_set(self, tmp_path, delta_x):
        doc = self.eig_doc(tmp_path, delta_x=delta_x)
        assert doc["rabi_splitting"] == pytest.approx(3600.0)
        assert doc["bright_absolute"] == pytest.approx([14313.0, 17913.0])
        assert doc["polaron_shift"] == pytest.approx(2400.0)

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_splitting_holds_at_fixed_collective_coupling(self, tmp_path, n):
        doc = self.eig_doc(tmp_path, n_molecules=n, g=1800.0 / math.sqrt(n))
        assert doc["rabi_splitting"] == pytest.approx(3600.0, abs=1e-9)

    def test_decoupled_cavity(self, tmp_path):
        doc = self.eig_doc(tmp_path, g=0.0)
        assert doc["rabi_splitting"] == 0.0
        assert doc["bright_absolute"] == [16113.0, 16113.0]

    def test_no_vibronic_coupling(self, tmp_path):
        assert self.eig_doc(tmp_path, lambda_hr=0.0)["polaron_shift"] == 0.0


# the flags each mode takes: --format where it writes grids, --t-list where it takes waiting
# times, --config everywhere but validate
MODE_FLAGS = {"absorption": {"--config", "--out", "--format"},
              "twod": {"--config", "--out", "--format", "--t-list"},
              "pump-probe": {"--config", "--out", "--format", "--t-list"},
              "slices": {"--config", "--out", "--t-list"},
              "eig": {"--config", "--out"},
              "validate": {"--out"}}


class TestModeFlags:
    """Each mode takes only the flags it reads; argparse refuses any other with exit 2."""

    def test_each_mode_takes_the_flags_it_reads(self):
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        takes = {mode: {flag for action in sub.choices[mode]._actions
                        for flag in action.option_strings if flag not in ("-h", "--help")}
                 for mode in cli._MODES}
        assert takes == MODE_FLAGS
        assert sum(len(flags) for flags in MODE_FLAGS.values()) == 17

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode, flags in MODE_FLAGS.items()
        for flag in ("--config", "--format", "--t-list") if flag not in flags])
    def test_a_flag_the_mode_does_not_read_exits_2(self, tmp_path, capsys, mode, flag):
        # eig --t-list and slices --format were accepted, ignored and echoed in the manifest
        cfg = str(write_config(tmp_path))
        config = ["--config", cfg] if "--config" in MODE_FLAGS[mode] else []
        value = cfg if flag == "--config" else "0"
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([mode, *config, "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {flag} {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("mode, override, flag", [
        (mode, override, flag) for mode, flags in MODE_FLAGS.items()
        for override, flag in (("formats_override", "--format"), ("t_list_override", "--t-list"))
        if flag not in flags])
    def test_build_jobspec_refuses_an_override_the_mode_does_not_read(self, mode, override, flag):
        # build_jobspec("eig", ..., formats_override="json", t_list_override="5") echoed
        # t_wait [5.0] and output.formats ["json"] for a job that writes only eig.json
        value = "json" if flag == "--format" else "5"
        with pytest.raises(ConfigError, match=f"^mode '{mode}' takes no {flag}$"):
            build_jobspec(mode, BASE_CONFIG, **{override: value})

    def test_validate_reads_no_config(self, tmp_path, monkeypatch, capsys):
        # validate --config on a degenerate bright pair exited 3 before any check ran
        monkeypatch.setattr(cli, "run_suite", lambda: [validate.CheckResult("stub", 0.1, 0.5, True)])
        cfg = write_config(tmp_path, **{"system.g": 0.0, "system.gamma_c": 1.0})
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")])
        assert exc.value.code == 2 and not (tmp_path / "v").exists()
        capsys.readouterr()
        assert main(["validate", "--out", str(tmp_path / "v")]) == 0
        manifest = json.loads((tmp_path / "v" / "manifest.json").read_text())
        assert manifest["config"]["system"] == dataclasses.asdict(validate.reference_params())


class TestExtremeSystemNumbers:
    """Each system number of the shipped config, and the defaulted dipole and phase, in turn
    at 1e-300, 1e17, 2e154, 1e300 and as a 400-digit integer, ends every mode that reads a
    config in a documented exit code, never in a traceback.  At 1e17 a rate 10^17 above the
    other once left the slower bright rate at zero, and slices divided by it; at 2e154 a rate
    or a detuning overflowed the square of the eigenvector head, an OverflowError."""

    @pytest.mark.parametrize("value", [1e-300, 1e17, 2e154, 1e300])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_every_mode_exits_0_2_or_3(self, tmp_path, monkeypatch, capsys, name, value):
        # one CPU keeps every writer in this process
        set_cpus(monkeypatch, 1)
        cfg = json.loads((CONFIGS / "cyanine_n10.json").read_text())
        cfg["system"][name] = value
        for grid, count in (("absorption", 16), ("omega1", 6), ("omega3", 5), ("pump_probe", 16)):
            cfg["grids"][grid]["count"] = count
        cfg["t_wait"] = [0.0, 250.0]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        for mode in CONFIG_MODES:
            code = main([mode, "--config", str(path), "--out", str(tmp_path / mode)])
            assert code in (0, 2, 3), (mode, code, capsys.readouterr().err)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_an_integer_past_the_float_range_exits_2(self, tmp_path, capsys, name):
        # float() of a 400-digit JSON integer raised an OverflowError traceback (exit 1)
        cfg = json.loads((CONFIGS / "cyanine_n10.json").read_text())
        cfg["system"][name] = 10 ** 400
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        what = ("NegativeCount(n_molecules): need an integer >= 1 within the float range"
                if name == "n_molecules" else f"NonFinite({name}): must be a finite number")
        for mode in CONFIG_MODES:
            out = tmp_path / mode
            assert main([mode, "--config", str(path), "--out", str(out)]) == 2, mode
            assert capsys.readouterr().err == (f"config error: system section invalid: {what}, "
                                               f"got {10 ** 400}\n")
            assert not out.exists()


class TestParamsRecord:
    """params_hash and the grid metadata take every SystemParams field."""

    def test_shipped_config_hash_is_pinned(self):
        # every data file carries this hash: a change to the hashed record shows here
        spec = build_jobspec("absorption", json.loads((CONFIGS / "cyanine_n10.json").read_text()))
        assert params_hash(spec) == "88c90c084bfea4ab"

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemParams)])
    def test_every_field_changes_the_hash(self, name):
        spec = build_jobspec("absorption", BASE_CONFIG)
        value = getattr(spec.params, name)
        changed = dataclasses.replace(spec.params, **{name: value + 1})
        assert params_hash(dataclasses.replace(spec, params=changed)) != params_hash(spec)

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe"])
    def test_every_field_in_the_grid_metadata(self, mode):
        raw = dict(BASE_CONFIG["system"], dipole=1.5, phase=0.25)
        spec = build_jobspec(mode, dict(BASE_CONFIG, system=raw))
        dec = decompose(build_matrix(spec.params))
        grid = cli._grid_jobs(spec, dec)[0][1]()
        for f in dataclasses.fields(SystemParams):
            assert grid.metadata[f.name] == getattr(spec.params, f.name), f.name


class TestManifestConfigEcho:
    """The manifest's config plans the job that ran: build_jobspec of it gives the same
    waiting times, formats, directory and outputs, with the flags and without."""

    FLAGS = {"t_list_override": "--t-list", "formats_override": "--format",
             "out_override": "--out"}

    @pytest.mark.parametrize("mode, overrides", [
        ("pump-probe", {}),
        ("pump-probe", {"t_list_override": "0,100", "formats_override": "json", "out_override": "x"}),
        ("twod", {"t_list_override": "-0,250"}),
        ("absorption", {"formats_override": "json,csv"}),
        ("slices", {"t_list_override": "50", "out_override": "s"}),
        ("eig", {"out_override": "e"}),
    ])
    def test_the_echo_plans_the_job_that_ran(self, tmp_path, monkeypatch, mode, overrides):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, t_wait=[0.0])
        flags = [f"{self.FLAGS[key]}={value}" for key, value in overrides.items()]
        assert main([mode, "--config", str(cfg), *flags]) == 0
        ran = build_jobspec(mode, json.loads(cfg.read_text()), **overrides)
        manifest = json.loads((ran.out_dir / "manifest.json").read_text())
        planned = build_jobspec(mode, manifest["config"])
        assert (planned.t_list, planned.formats, planned.out_dir, planned.outputs) == (
            ran.t_list, ran.formats, ran.out_dir, ran.outputs)
        assert manifest["outputs"] == list(ran.outputs)
        if not overrides:   # without flags the echo is the file as read
            assert manifest["config"] == json.loads(cfg.read_text())


class TestManifestEnvironment:
    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe", "slices", "eig", "validate"])
    def test_every_mode_records_the_environment(self, tmp_path, monkeypatch, mode):
        monkeypatch.setattr(cli, "run_suite", lambda: [validate.CheckResult("stub", 0.1, 0.5, True)])
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_config(tmp_path, t_wait=[0.0], stokes_orders=[1])
        out = tmp_path / "out"
        config = ["--config", str(cfg)] if mode != "validate" else []
        assert main([mode, *config, "--out", str(out)]) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert json.loads((out / "manifest.json").read_text())["environment"] == {
            "python": "%d.%d.%d" % sys.version_info[:3],
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"},
            "cpus": cpu_count(),
        }

    def test_numpy_without_config_dicts_records_no_blas(self, tmp_path, monkeypatch):
        def show_config(mode="stdout"):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(np, "show_config", show_config)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "out"
        assert main(["eig", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["blas"] is None and env["threads"] == {}


class TestValidateSuite:
    def test_full_suite_green_within_budget(self):
        import time

        from polariton2dcs.validate import run_suite

        start = time.perf_counter()
        results = run_suite()
        elapsed = time.perf_counter() - start
        for res in results:
            assert res.passed, res.line()
            assert 0.0 < res.seconds < elapsed
        assert elapsed < 10.0


class TestDeterminism:
    def test_two_runs_write_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path, **{"t_wait": [0.0], "output.formats": ["csv"]})
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["twod", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["twod", "--config", str(cfg), "--out", str(out2)]) == 0
        a = (out1 / "twod_T0fs.csv").read_bytes()
        b = (out2 / "twod_T0fs.csv").read_bytes()
        assert a == b


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_twod_files(spec, out: Path) -> dict[str, bytes]:
    """The twod files of ``spec`` from in-process write_csv/write_json_grid calls, one map at a time."""
    out.mkdir()
    dec = decompose(build_matrix(spec.params))
    for t in spec.t_list:
        grid = twod_signal(spec.params, dec, spec.kernel, spec.grids["omega1"],
                           spec.grids["omega3"], t)
        grid.metadata["params_hash"] = params_hash(spec)
        grid.metadata["code_version"] = polariton2dcs.__version__
        for fmt in spec.formats:
            writer = write_csv if fmt == "csv" else write_json_grid
            writer(out / f"twod_T{t:g}fs.{fmt}", grid)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def set_cpus(monkeypatch, cpus: int) -> None:
    """Make the job see ``cpus`` CPUs in its affinity set."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))


T_WAITS = [0.0, 250.0, 500.0, 750.0, 1000.0]


class TestParallelWriters:
    """twod writes one map of each batch itself and the others in forked children."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("formats", ["csv", "json", "csv,json"])
    @pytest.mark.parametrize("n_t", [1, 2, 3, 5])
    def test_files_match_serial_writers(self, tmp_path, monkeypatch, cpus, formats, n_t):
        set_cpus(monkeypatch, cpus)
        t_list = ",".join(f"{t:g}" for t in T_WAITS[:n_t])
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["twod", "--config", str(cfg), "--out", str(out), "--format", formats,
                     "--t-list", t_list]) == 0
        assert_no_child_left()
        spec = build_jobspec("twod", json.loads(cfg.read_text()), formats_override=formats,
                             t_list_override=t_list)
        expected = serial_twod_files(spec, tmp_path / "serial")
        written = {path.name: path.read_bytes() for path in out.iterdir()
                   if path.name != "manifest.json"}
        assert written == expected

    def test_without_fork_writes_in_process(self, tmp_path, monkeypatch):
        monkeypatch.delattr(cli.os, "fork")
        cfg = write_config(tmp_path, t_wait=T_WAITS[:3])
        out = tmp_path / "out"
        assert main(["twod", "--config", str(cfg), "--out", str(out)]) == 0
        assert_no_child_left()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["writer_processes"] == 1
        spec = build_jobspec("twod", json.loads(cfg.read_text()))
        expected = serial_twod_files(spec, tmp_path / "serial")
        assert {name: (out / name).read_bytes() for name in expected} == expected

    @pytest.mark.parametrize("cpus, writers", [(1, 1), (2, 2), (3, 3), (8, 5)])
    def test_manifest_outputs_order_and_stages(self, tmp_path, monkeypatch, cpus, writers):
        set_cpus(monkeypatch, cpus)
        cfg = write_config(tmp_path, t_wait=T_WAITS)
        out = tmp_path / "out"
        assert main(["twod", "--config", str(cfg), "--out", str(out)]) == 0
        assert_no_child_left()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [f"twod_T{t:g}fs.{fmt}" for t in T_WAITS
                                       for fmt in ("csv", "json")]
        assert manifest["writer_processes"] == writers
        stages = manifest["stage_seconds"]
        assert set(stages) == {"compute", "write"}
        assert stages["compute"] > 0.0 and stages["write"] > 0.0
        assert stages["compute"] + stages["write"] == pytest.approx(manifest["wall_time_s"], abs=1e-3)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("mode, outputs", [
        ("absorption", ["absorption.csv", "absorption.json"]),
        ("twod", [f"twod_T{t}fs.{fmt}" for t in (0, 250, 500, 750) for fmt in ("csv", "json")]),
        ("pump-probe", [f"pump_probe_T{t}fs.{fmt}" for t in (0, 250, 500, 750)
                        for fmt in ("csv", "json")]),
        ("slices", ["slices.json"]),
        ("eig", ["eig.json"]),
        ("validate", ["validate.json"]),
    ])
    def test_manifest_lists_every_data_file_once(self, tmp_path, monkeypatch, cpus, mode, outputs):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(cli, "run_suite", lambda: [])
        out = tmp_path / "out"
        config = ["--config", str(CONFIGS / "cyanine_n10.json")] if mode != "validate" else []
        formats = ["--format", "csv,json"] if cli._MODES[mode].axes else []
        assert main([mode, *config, "--out", str(out), *formats]) == 0
        assert_no_child_left()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == outputs
        assert sorted(path.name for path in out.iterdir()) == sorted(outputs + ["manifest.json"])

    @pytest.mark.parametrize("mode", ["absorption", "pump-probe", "eig", "slices"])
    def test_other_modes_report_stages(self, tmp_path, monkeypatch, mode):
        set_cpus(monkeypatch, 4)
        cfg = write_config(tmp_path, t_wait=[0.0, 250.0, 500.0], stokes_orders=[1])
        out = tmp_path / "out"
        assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
        assert_no_child_left()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["writer_processes"] == (3 if mode == "pump-probe" else 1)
        assert set(manifest["stage_seconds"]) == {"compute", "write"}
        if mode == "pump-probe":
            assert manifest["outputs"] == [f"pump_probe_T{t:g}fs.{fmt}" for t in (0, 250, 500)
                                           for fmt in ("csv", "json")]

    @pytest.mark.parametrize("blocked", ["twod_T0fs.json", "twod_T250fs.csv", "twod_T500fs.json"])
    def test_write_failure_exits_4_without_traceback(self, tmp_path, monkeypatch, capfd, blocked):
        # with 2 CPUs the job writes T = 0 and 500 itself, and T = 250 in a child
        set_cpus(monkeypatch, 2)
        cfg = write_config(tmp_path, t_wait=T_WAITS[:3])
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main(["twod", "--config", str(cfg), "--out", str(out)]) == 4
        assert_no_child_left()
        err = capfd.readouterr().err
        assert err.startswith("i/o error: ") and blocked in err, err
        assert "Traceback" not in err
        assert not (out / "manifest.json").exists()

    def test_child_ended_by_a_signal_is_an_io_error(self, tmp_path, monkeypatch, capsys):
        set_cpus(monkeypatch, 2)
        parent = os.getpid()

        def write_or_die(spec, grid, stem):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            real_write_grid(spec, grid, stem)

        real_write_grid = cli._write_grid
        monkeypatch.setattr(cli, "_write_grid", write_or_die)
        cfg = write_config(tmp_path)
        assert main(["twod", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert_no_child_left()
        assert "ended with status -9" in capsys.readouterr().err

    def test_fork_deprecation_warning_is_silenced(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns like this on fork while OpenBLAS threads live
        set_cpus(monkeypatch, 2)
        real_fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(cli.os, "fork", warning_fork)
        cfg = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["twod", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert_no_child_left()


class TestForkMap:
    """Item i runs in process i mod k; process 0 is the caller."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 5])
    def test_results_in_item_order(self, monkeypatch, cpus, n_items):
        set_cpus(monkeypatch, cpus)
        out = fork_map(lambda x: (x * x, os.getpid()), range(n_items))
        assert_no_child_left()
        assert [value for value, _ in out] == [x * x for x in range(n_items)]
        pids = [pid for _, pid in out]
        k = min(cpus, n_items)
        assert pids == [pids[i % k] for i in range(n_items)]
        assert len(set(pids)) == k
        assert pids[:1] == [os.getpid()] * min(1, n_items)

    def test_without_fork_runs_in_process(self, monkeypatch):
        set_cpus(monkeypatch, 4)
        monkeypatch.delattr(cli.os, "fork")
        assert fork_map(lambda x: os.getpid(), range(5)) == [os.getpid()] * 5

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [{2, 3}, {3, 4}, {4}, {1, 2, 3, 4}])
    def test_first_failing_item_is_raised(self, monkeypatch, cpus, failing):
        set_cpus(monkeypatch, cpus)

        def fn(x):
            if x in failing:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"item {min(failing)}"):
            fork_map(fn, range(6))
        assert_no_child_left()

    def test_failed_fork_reaps_the_children_already_forked(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        real_fork = os.fork
        forked = []

        def fork_once():
            if forked:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forked.append(True)
            return real_fork()

        monkeypatch.setattr(cli.os, "fork", fork_once)
        with pytest.raises(BlockingIOError):
            fork_map(lambda x: x, range(3))
        assert_no_child_left()


def run_validate(out: Path) -> tuple[int, bytes, str]:
    """Exit code, validate.json bytes and stdout of ``validate --out <out>``, run in-process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["validate", "--out", str(out)])
    return code, (out / "validate.json").read_bytes(), stdout.getvalue()


@pytest.fixture(scope="module")
def serial_validate(tmp_path_factory):
    """validate run in one process: ``os.fork`` is missing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(cli.os, "fork")
        return run_validate(tmp_path_factory.mktemp("serial"))


class TestValidateOnEveryCpu:
    """The heavy checks share their cases among the CPUs of the affinity set."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_same_bytes_as_one_process(self, tmp_path, monkeypatch, serial_validate, cpus):
        set_cpus(monkeypatch, cpus)
        assert run_validate(tmp_path) == serial_validate
        assert_no_child_left()

    def test_max_err_bit_identical_to_serial_run(self, monkeypatch, serial_validate):
        set_cpus(monkeypatch, 2)
        forked = validate.run_suite()
        assert_no_child_left()
        serial = json.loads(serial_validate[1])
        assert [(r.name, float.hex(r.max_err)) for r in forked] == \
            [(r["name"], float.hex(r["max_err"])) for r in serial]

    def test_slices_direct_hands_out_its_cases_in_draw_order(self, monkeypatch):
        handed = []
        monkeypatch.setattr(validate, "fork_map", lambda fn, items: handed.extend(items) or [0.0])
        validate.check_slices_direct()
        # reference N = 2, 3, 4, 5, then random N = 1, 2, 3, 4
        assert [params.n_molecules for params, _ in handed] == [2, 3, 4, 5, 1, 2, 3, 4]
        # drawn as before: the random cases in N order 1, 2, 3, 4 from seed 107
        rng = np.random.default_rng(107)
        drawn = [(validate._random_params(rng, n), [0.0] + list(rng.uniform(0.0, 600.0, size=2)))
                 for n in (1, 2, 3, 4)]
        assert handed[4:] == drawn

    def test_divergent_transform_in_a_child_exits_3_like_serial(self, tmp_path, monkeypatch, capsys):
        # the second quadrature case, case 1, is in a child's share at 2 and 4 CPUs
        quadrature = validate.quadrature_fourier
        omegas = []

        def diverge_on_second_call(dec, omega, **kwargs):
            omegas.append(omega)
            if len(omegas) == 2:
                raise DivergentTransform(f"no transform at omega = {omega!r}")
            return quadrature(dec, omega, **kwargs)

        with monkeypatch.context() as patch:
            patch.delattr(cli.os, "fork")
            patch.setattr(validate, "quadrature_fourier", diverge_on_second_call)
            assert main(["validate", "--out", str(tmp_path / "serial")]) == 3
        serial_err = capsys.readouterr().err
        assert serial_err.startswith("numeric failure: DivergentTransform: no transform at omega")

        def diverge_at_case_1(dec, omega, **kwargs):
            if omega == omegas[1]:
                raise DivergentTransform(f"no transform at omega = {omega!r}")
            return quadrature(dec, omega, **kwargs)

        monkeypatch.setattr(validate, "quadrature_fourier", diverge_at_case_1)
        for cpus in (2, 4):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["validate", "--out", str(out)]) == 3
            assert_no_child_left()
            captured = capsys.readouterr()
            assert captured.err == serial_err and captured.out == ""
            assert not (out / "validate.json").exists()

    def test_child_killed_by_a_signal_exits_4(self, tmp_path, monkeypatch, capsys):
        set_cpus(monkeypatch, 2)
        parent = os.getpid()
        direct = validate.twod_signal_direct

        def direct_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return direct(*args)

        monkeypatch.setattr(validate, "twod_signal_direct", direct_or_die)
        assert main(["validate", "--out", str(tmp_path / "v")]) == 4
        assert_no_child_left()
        err = capsys.readouterr().err
        assert "ended with status -9" in err and "Traceback" not in err

    def test_broken_fast_path_in_a_child_only_fails(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        parent = os.getpid()
        values = validate.twod_values

        def broken_in_child(*args):
            return values(*args) * (1.0 if os.getpid() == parent else 1.0 + 1e-6)

        monkeypatch.setattr(validate, "twod_values", broken_in_child)
        result = validate.check_twod_direct()
        assert_no_child_left()
        assert not result.passed, result.line()

    def test_nan_fast_path_fails_forked_and_serial_checks(self, monkeypatch):
        # max(0.0, nan) is 0.0: a worst case taken with max would pass these
        set_cpus(monkeypatch, 2)
        values = validate.twod_values
        monkeypatch.setattr(validate, "twod_values", lambda *args: values(*args) * math.nan)
        monkeypatch.setattr(validate, "propagator_G", lambda dec, t: propagator_G(dec, t) * math.nan)
        for result in (validate.check_twod_direct(),
                       validate.check_propagator_expm()):
            assert math.isnan(result.max_err) and not result.passed, result.line()
        assert_no_child_left()


class TestBenchmarkTracingContract:
    """``perfbench/child.py`` wraps these names on ``cli`` and builds ``signals.Axis``;
    a missing one would end every traced benchmark run with ``correct: false``."""

    TRACED = ("build_jobspec", "write_csv", "write_json_grid", "write_manifest", "load_grid",
              "grid_peak_report", "decompose", "kernel_from_params", "twod_signal",
              "linear_absorption", "pump_probe", "pump_probe_slices")

    def test_traced_names_are_callables_on_cli(self):
        for name in self.TRACED:
            assert callable(getattr(cli, name, None)), name
        assert signals.Axis is grids.Axis
        for name in ("write_csv", "write_json_grid", "load_grid"):
            assert getattr(cli, name) is getattr(grids, name), name

    def test_cli_calls_the_grid_files_through_its_own_names(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("write_csv", "write_json_grid", "load_grid"):
            def traced(*args, _fn=getattr(cli, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(cli, name, traced)
        out = tmp_path / "o"
        assert main(["absorption", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        assert main(["peaks", str(out / "absorption.json")]) == 0
        assert calls == ["write_csv", "write_json_grid", "load_grid"]

    SPECTRUM = ("build_jobspec", "kernel_from_params", "decompose", "write_manifest")
    GRID = SPECTRUM + ("write_csv", "write_json_grid")
    JOBS = (("absorption", GRID + ("linear_absorption",)),
            ("twod", GRID + ("twod_signal",)),
            ("pump-probe", GRID + ("pump_probe",)),
            ("slices", SPECTRUM + ("pump_probe_slices",)),
            ("eig", SPECTRUM),
            ("validate", SPECTRUM),
            ("peaks", ("load_grid", "grid_peak_report")))

    @pytest.mark.parametrize("mode, called", JOBS)
    def test_each_traced_name_is_called_on_cli_by_its_job(self, tmp_path, monkeypatch, mode,
                                                          called):
        # the job runs with every traced name wrapped on cli, as perfbench/child.py does,
        # and calls exactly the names it uses; one CPU keeps every writer in this process
        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(cli, "run_suite", lambda: [])
        cfg, out = str(write_config(tmp_path)), tmp_path / "o"
        assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
        calls = set()
        for name in self.TRACED:
            def traced(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls.add(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, traced)
        argv = (["peaks", str(out / "absorption.json")] if mode == "peaks"
                else ["validate", "--out", str(tmp_path / mode)] if mode == "validate"
                else [mode, "--config", cfg, "--out", str(tmp_path / mode)])
        assert main(argv) == 0
        assert calls == set(called)

    def test_every_traced_name_has_a_job(self):
        assert set().union(*(called for _, called in self.JOBS)) == set(self.TRACED)


def loaded_modules(*args: str, package: str = "polariton2dcs") -> set[str]:
    """The modules of ``package`` that ``python -W error -X importtime <args>`` loads, in a
    fresh interpreter; the module that ``-m`` runs is ``__main__``, which importtime does not
    list."""
    env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    names = {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
             if line.startswith("import time:")}
    if args[0] == "-m":
        names.add(args[1])
    return {name for name in names if name.split(".")[0] == package}


PACKAGE = {f"polariton2dcs{name}" for name in ("", ".cli", ".errors", ".grids")}
STACK = PACKAGE | {f"polariton2dcs.{name}"
                   for name in ("model", "vibrations", "propagator", "signals", "parallel")}


class TestImportBudget:
    """Each process imports only the layers its mode runs."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peaks_loads_the_grid_reader_and_the_peak_finder_only(self, tmp_path, fmt):
        out = tmp_path / "o"
        assert main(["twod", "--config", str(write_config(tmp_path)), "--out", str(out),
                     "--t-list", "250"]) == 0
        assert (loaded_modules("-m", "polariton2dcs.cli", "peaks", str(out / f"twod_T250fs.{fmt}"))
                == PACKAGE | {"polariton2dcs.peaks"})

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe", "slices", "eig"])
    def test_spectrum_modes_load_the_stack_without_the_oracles(self, tmp_path, mode):
        argv = [mode, "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        assert loaded_modules("-m", "polariton2dcs.cli", *argv) == STACK

    @pytest.mark.parametrize("mode", ["absorption", "twod", "pump-probe", "slices", "eig", "peaks",
                                      "validate"])
    def test_only_validate_loads_numpy_random(self, tmp_path, mode):
        # only validate draws random numbers; loading numpy.random adds ~6 MiB to a job's RSS
        cfg, out = str(write_config(tmp_path)), tmp_path / "o"
        if mode == "peaks":
            assert main(["absorption", "--config", cfg, "--out", str(out)]) == 0
            argv = ["peaks", str(out / "absorption.csv")]
        elif mode == "validate":
            argv = ["validate", "--out", str(out)]
        else:
            argv = [mode, "--config", cfg, "--out", str(out)]
        loaded = loaded_modules("-m", "polariton2dcs.cli", *argv, package="numpy")
        assert "numpy" in loaded
        assert ("numpy.random" in loaded) == (mode == "validate")

    def test_package_import_loads_no_submodule(self):
        assert loaded_modules("-c", "import polariton2dcs") == {"polariton2dcs"}


class TestPackageNamespace:
    """The package holds no public name; cli binds its layers on first access, and binds
    them all on the first lookup from outside."""

    @pytest.mark.parametrize("module", [polariton2dcs, cli], ids=["package", "cli"])
    def test_unknown_name_raises_attribute_error_naming_it(self, module):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name

    def test_first_outside_lookup_on_cli_loads_every_layer(self):
        # perfbench/child.py wraps names only in modules already imported, after its first
        # lookup of a name on cli: that lookup must load validate too
        loaded = loaded_modules("-c", "import polariton2dcs.cli as cli; getattr(cli, 'decompose')")
        assert "polariton2dcs.validate" in loaded
        assert loaded == STACK | {"polariton2dcs.peaks", "polariton2dcs.validate"}

    def test_a_name_set_on_cli_before_the_lookup_stays(self):
        script = ("import polariton2dcs.cli as cli\n"
                  "cli.run_suite = stub = lambda: []\n"
                  "cli.decompose\n"
                  "assert cli.run_suite is stub and callable(cli.build_matrix)\n")
        assert "polariton2dcs.validate" in loaded_modules("-c", script)
