import contextlib
import csv
import functools
import inspect
import io
import json
import math
import numbers
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oblique_mv
from oblique_mv import cli, control, convexcore, library, mvsolver
from oblique_mv.cli import main, run
from oblique_mv.control import RateReport
from oblique_mv.dynamics import ValidationReport
from oblique_mv.errors import ConfigurationError, DivergenceError, ObliqueMVError
from oblique_mv.timedep import ConvergenceReport


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def properties_config(out):
    return {
        "mode": "properties",
        "seed": 7,
        "output_dir": str(out),
        "constraint": {"kind": "half-space", "normal": [1.0, 0.0], "offset": 0.0},
        "epsilon_ladder": [0.1, 0.01],
        "samples": 50,
    }


def simulate_config(out, **over):
    cfg = {
        "mode": "simulate",
        "seed": 42,
        "output_dir": str(out),
        "system": {"name": "ou"},
        "grid": {"start": 0.0, "end": 0.5, "steps": 64},
        "particles": 16,
        "replications": 2,
        "scheme": "projected",
    }
    cfg.update(over)
    return cfg


class TestExitCodes:
    def test_properties_mode_succeeds(self, tmp_path):
        cfg = write_config(tmp_path, properties_config(tmp_path / "out"))
        assert run(cfg) == 0
        report = (tmp_path / "out" / "properties.csv").read_text()
        assert "passed" in report.splitlines()[0]
        assert "false" not in report

    def test_short_ladder_rejected(self, tmp_path):
        payload = {
            "mode": "converge",
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "system": {"name": "ou"},
            "grid": {"start": 0.0, "end": 1.0, "steps": 256},
            "epsilon_ladder": [0.1, 0.05],
            "particles": 8,
            "replications": 2,
        }
        assert run(write_config(tmp_path, payload)) == 2

    def test_empty_ladder_rejected(self, tmp_path, capsys):
        payload = {
            "mode": "converge",
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "system": {"name": "ou"},
            "grid": {"start": 0.0, "end": 1.0, "steps": 256},
            "epsilon_ladder": [],
        }
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "at least 3 levels, got 0" in err and "Traceback" not in err

    def test_unknown_key_rejected(self, tmp_path):
        payload = simulate_config(tmp_path / "out")
        payload["wibble"] = 1
        assert run(write_config(tmp_path, payload)) == 2

    def test_unknown_system_rejected(self, tmp_path):
        payload = simulate_config(tmp_path / "out")
        payload["system"] = {"name": "nope"}
        assert run(write_config(tmp_path, payload)) == 2

    @pytest.mark.parametrize("mode,name,extra", [
        ("validate", "ou", {"samples": 10}),
        ("control", "two_control", {"grid": {"start": 0.0, "end": 1.0, "steps": 8}}),
        ("transform-demo", "moving_interval", {"grid_ladder": [4, 8]}),
    ])
    def test_unknown_system_param_named(self, tmp_path, capsys, mode, name, extra):
        payload = {"mode": mode, "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": name, "params": {"sigma": 0.5, "bogus": 1}}, **extra}
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        # the message names the builder, the parameter and the accepted ones
        assert f"{name!r}: bogus is not an accepted key; accepted: " in err and "sigma" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,name,extra", [
        ("validate", "ou", {"samples": 10}),
        ("control", "two_control", {"grid": {"start": 0.0, "end": 1.0, "steps": 8}}),
        ("transform-demo", "moving_interval", {"grid_ladder": [4, 8]}),
    ])
    def test_system_param_called_name_is_unknown(self, tmp_path, capsys, mode, name, extra):
        # the builder's own ``name`` is positional-only, so a parameter of
        # that name reaches the signature check
        payload = {"mode": mode, "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": name, "params": {"name": 1}}, **extra}
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "name is not an accepted key" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,params,message", [
        ("ou", {"x0": "abc"}, "system 'ou': x0 must be a number, got 'abc'"),
        ("linear", {"c": []}, "system 'linear': c must be a number, got []"),
        ("ou", {"sigma": True}, "system 'ou': sigma must be a number, got True"),
        ("example31", {"x0": [0.1, None]}, "system 'example31': x0/1 must be a number"),
        ("two_control", {"controls": True}, "'two_control': controls must be a list"),
        ("two_control", {"controls": []}, "controls must be a list of 1 or more items"),
        ("two_control", {"ramp": None}, "'two_control': ramp must be a number, got None"),
        ("two_control", {"cost_shape": 1.0}, "cost_shape must be a string"),
        ("two_control", {"horizon": [0.5]}, "not enough values to unpack"),
        ("moving_interval", {"outward": ""}, "'moving_interval': outward must be a number"),
    ])
    def test_ill_typed_system_param_is_config_error(self, tmp_path, capsys, name, params,
                                                     message):
        mode, extra = {
            "two_control": ("control", {"grid": {"start": 0.0, "end": 1.0, "steps": 8}}),
            "moving_interval": ("transform-demo", {"grid_ladder": [4, 8]}),
        }.get(name, ("validate", {"samples": 10}))
        payload = {"mode": mode, "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": name, "params": params}, **extra}
        assert run(write_config(tmp_path, payload)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", [1e308, -1e308, float("nan")])
    def test_unrepresentable_tau_is_config_error(self, tmp_path, capsys, tau):
        payload = {"mode": "control", "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": "two_control"}, "particles": 2, "replications": 1,
                   "grid": {"start": 0.0, "end": 1.0, "steps": 10},
                   "control": {"tau": tau, "clusters": 1, "inner_replications": 1}}
        assert run(write_config(tmp_path, payload)) == 2
        assert "tau" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_off_lattice_tau_is_config_error(self, tmp_path, capsys):
        payload = {"mode": "control", "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": "two_control"}, "particles": 2, "replications": 1,
                   "grid": {"start": 0.0, "end": 1.0, "steps": 8},
                   "control": {"tau": 0.3, "clusters": 1, "inner_replications": 1}}
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert all(part in err for part in ("tau = 0.3", "0.125", "0.25", "0.375"))
        assert not (tmp_path / "out" / "dpp.csv").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("grid, params, names", [
        ({"start": 5.0, "end": -3.0}, {}, ("[5.0, -3.0]", "[0.0, 1.0]")),
        ({"start": 0.0, "end": 2.0}, {}, ("[0.0, 2.0]", "[0.0, 1.0]")),
        ({"start": 0.0, "end": 1.0}, {"horizon": [0.0, 2.0]}, ("[0.0, 1.0]", "[0.0, 2.0]")),
    ])
    def test_control_grid_must_match_the_horizon(self, tmp_path, capsys, grid, params,
                                                 names):
        payload = {"mode": "control", "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": "two_control", "params": params},
                   "particles": 2, "replications": 1, "grid": dict(grid, steps=8),
                   "control": {"clusters": 1, "inner_replications": 1}}
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "horizon" in err and all(name in err for name in names)
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_control_grid_on_a_longer_horizon_runs(self, tmp_path):
        payload = {"mode": "control", "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": "two_control", "params": {"horizon": [0, 2]}},
                   "particles": 2, "replications": 2,
                   "grid": {"start": 0.0, "end": 2.0, "steps": 8},
                   "control": {"clusters": 1, "inner_replications": 1}}
        assert run(write_config(tmp_path, payload)) == 0
        assert (tmp_path / "out" / "dpp.csv").is_file()

    @pytest.mark.parametrize("scheme", [None, "projected"])
    def test_epsilon_without_the_penalized_scheme_is_config_error(self, tmp_path, capsys,
                                                                  scheme):
        payload = {"mode": "simulate", "seed": 1, "output_dir": str(tmp_path / "out"),
                   "system": {"name": "ou"}, "grid": {"start": 0, "end": 1, "steps": 4},
                   "particles": 2, "epsilon": 0.5}
        if scheme is not None:
            payload["scheme"] = scheme
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "epsilon" in err and "scheme is 'projected'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode,extra,stray", [
        ("converge", {"epsilon": 0.5, "scheme": "penalized"}, "epsilon"),
        ("control", {"scheme": "penalized"}, "scheme"),
        ("validate", {"grid": {"start": 0, "end": 1, "steps": 4}, "particles": 2},
         "grid"),
        ("validate", {"scheme": "projected"}, "scheme"),
        ("properties", {"system": {"name": "ou"}}, "system"),
        ("transform-demo", {"replications": 2}, "replications"),
        ("simulate", {"scheme": "projected", "epsilon_ladder": [0.1, 0.2, 0.3]},
         "epsilon_ladder"),
    ])
    def test_key_the_mode_does_not_read_is_config_error(self, tmp_path, capsys, mode,
                                                         extra, stray):
        base = {
            "simulate": {"system": {"name": "ou"}, "grid": {"start": 0, "end": 1, "steps": 4}},
            "converge": {"system": {"name": "ou"}, "grid": {"start": 0, "end": 1, "steps": 16},
                         "epsilon_ladder": [0.5, 0.25, 0.125], "particles": 2,
                         "replications": 2},
            "control": {"system": {"name": "two_control"},
                        "grid": {"start": 0, "end": 1, "steps": 4}},
            "validate": {"system": {"name": "ou"}, "samples": 4},
            "transform-demo": {"system": {"name": "moving_interval"}, "grid_ladder": [4, 8]},
            "properties": properties_config(tmp_path / "out"),
        }[mode]
        payload = {**base, "mode": mode, "seed": 1, "output_dir": str(tmp_path / "out")}
        # valid as it is (exit 0, or 4 for a failed probe on these tiny sizes)
        assert run(write_config(tmp_path, payload), out=tmp_path / "valid") in (0, 4)
        assert run(write_config(tmp_path, {**payload, **extra})) == 2
        err = capsys.readouterr().err
        assert f"config key {stray!r} is not used by mode {mode!r}" in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_every_mode_key_has_a_schema_entry(self, mode):
        # the runner's keyword-only parameters are the mode's keys
        params = inspect.signature(cli._RUNNERS[mode]).parameters.values()
        assert [p.name for p in params if p.kind is not p.KEYWORD_ONLY] == ["out", "seed"]
        keys = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
        props = cli.CONFIG_SCHEMA["properties"]
        assert keys and set(keys + list(cli._COMMON_KEYS)) <= set(props)
        assert not set(keys) & set(cli._COMMON_KEYS)
        assert set(cli._COMMON_KEYS) >= set(cli.CONFIG_SCHEMA["required"])

    @pytest.mark.parametrize("payload,message", [
        ({"mode": "simulate", "seed": -1, "particles": 0, "wibble": 1,
          "grid": {"start": "a", "steps": 0}}, "wibble is not an accepted key; accepted: mode, "),
        ({"mode": "nope", "seed": "x", "system": {"params": 3}}, "mode must be one of"),
        ({"seed": 1.5, "epsilon": 0, "control": {"tau": "m", "clusters": 0}},
         "mode is required"),
        ({"mode": "converge", "seed": 1, "epsilon_ladder": [0.1, -1.0, "x"]},
         "epsilon_ladder/1 must be greater than 0, got -1.0"),
        ([], "the config must be an object, got []"),
        ({"mode": "simulate", "seed": 1, "grid": {"start": 0, "end": 1, "steps": 0}},
         "grid/steps must be at least 1, got 0"),
        ({"mode": "simulate", "seed": 1, "grid": {"start": 0, "end": True, "steps": 4}},
         "grid/end must be a number, got True"),
        ({"mode": "simulate", "seed": 1, "grid": {"start": 0, "end": 1}},
         "grid/steps is required"),
        ({"mode": "control", "seed": 1, "control": {"tau": 0.5, "wibble": 1}},
         "control/wibble is not an accepted key; accepted: tau, switches, clusters, "),
        ({"mode": "transform-demo", "seed": 1, "grid_ladder": [4, 8.5]},
         "grid_ladder/1 must be an integer, got 8.5"),
    ], ids=["stray_key", "mode_enum", "mode_required", "ladder_item_bound", "not_an_object",
            "steps_minimum", "bool_not_number", "nested_required", "nested_stray",
            "ladder_item_type"])
    def test_schema_error_names_the_key_path(self, tmp_path, capsys, payload, message):
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        {"mode": "simulate", "system": {"name": "rbm"}, "particles": 4, "replications": 2,
         "grid": {"start": 0.0, "end": 0.5, "steps": 8}},
        {"mode": "validate", "system": {"name": "ou"}, "samples": 20},
        {"mode": "control", "system": {"name": "two_control"}, "particles": 2,
         "replications": 2, "grid": {"start": 0.0, "end": 1.0, "steps": 8},
         "control": {"switches": 1, "clusters": 1, "inner_replications": 2}},
        {"mode": "transform-demo", "system": {"name": "moving_interval"},
         "grid_ladder": [4, 8], "particles": 4},
        {"mode": "properties", "samples": 20,
         "constraint": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}},
    ], ids=lambda payload: payload["mode"])
    def test_integral_floats_run_as_their_integer_twin(self, tmp_path, payload):
        """``"seed": 1.0`` and ``"steps": 8.0`` are integers under JSON Schema: the
        run exits 0 with the bytes of its twin that writes them as ``1`` and ``8``."""
        payload = {**payload, "seed": 1}
        twin = json.loads(json.dumps(payload), parse_int=float)
        assert twin["seed"] == 1.0 and isinstance(twin["seed"], float)
        outputs = []
        for name, cfg in (("ints", payload), ("floats", twin)):
            assert run(write_config(tmp_path, cfg, f"{name}.json"), out=tmp_path / name) == 0
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            manifest = json.loads(files.pop("manifest.json"))
            manifest.pop("config_sha256")
            outputs.append((files, manifest))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("over,path", [
        ({"scheme": "penalized", "epsilon": math.inf}, "epsilon"),
        ({"scheme": "penalized", "epsilon": math.nan}, "epsilon"),
        ({"grid": {"start": -math.inf, "end": 0.5, "steps": 8}}, "grid/start"),
        ({"grid": {"start": 0.0, "end": math.nan, "steps": 8}}, "grid/end"),
        ({"epsilon_ladder": [0.1, math.inf, 0.01]}, "epsilon_ladder/1"),
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, over, path):
        # Python's json reads NaN and Infinity; no number key takes them
        out = tmp_path / "out"
        base = properties_config(out) if "epsilon_ladder" in over else simulate_config(out)
        assert run(write_config(tmp_path, {**base, **over})) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} must be a finite number, got ")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate_config(tmp_path / "out"))
        assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dyadic_level_is_config_error(self, tmp_path, capsys):
        # no mode snaps to a dyadic level, so the grid key is rejected like any unread key
        grid = {"start": 0.0, "end": 0.5, "steps": 64, "dyadic_level": 2}
        assert run(write_config(tmp_path, simulate_config(tmp_path / "out", grid=grid))) == 2
        assert "dyadic_level" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_path_that_is_a_file_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        assert run(write_config(tmp_path, properties_config(target))) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert target.read_text() == "keep"

    def test_penalized_needs_epsilon(self, tmp_path):
        payload = simulate_config(tmp_path / "out", scheme="penalized")
        assert run(write_config(tmp_path, payload)) == 2

    def test_coarse_penalized_step_runs(self, tmp_path):
        # h/eps = 15.6: the backward penalized step needs no bound on h/eps
        out = tmp_path / "out"
        payload = simulate_config(
            out, scheme="penalized", epsilon=0.001, system={"name": "example31"},
            grid={"start": 0.0, "end": 1.0, "steps": 64},
        )
        assert run(write_config(tmp_path, payload), strict=True) == 0
        rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()))
        gates = {"equation_residual": 1e-8, "inequality_residual": 1e-8}
        checked = [r for r in rows if r["check"] in gates]
        assert len(checked) == 2 * payload["replications"]
        assert all(float(r["value"]) <= gates[r["check"]] for r in checked)

    def test_penalized_simulate_with_stable_step(self, tmp_path):
        out = tmp_path / "out"
        payload = simulate_config(out, scheme="penalized", epsilon=0.1)
        assert run(write_config(tmp_path, payload)) == 0
        assert (out / "trajectories.csv").exists()

    def test_missing_file(self, tmp_path):
        assert run(tmp_path / "absent.json") == 2

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        @functools.wraps(cli._run_properties)       # the mode's keys are its runner's
        def broken(out, seed, **keys):
            raise KeyError("internal")

        monkeypatch.setitem(cli._RUNNERS, "properties", broken)
        cfg = write_config(tmp_path, properties_config(tmp_path / "out"))
        with pytest.raises(KeyError):
            run(cfg)

    def test_missing_nested_key_named(self, tmp_path, capsys):
        payload = properties_config(tmp_path / "out")
        payload["constraint"] = {"kind": "ball", "center": [0.0, 0.0]}
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert "config error: constraint 'ball': radius is required" in err

    @pytest.mark.parametrize("constraint,key", [
        ({"kind": "ball", "center": [0, 0], "radius": "x"}, "radius"),
        ({"kind": "ball", "center": [0, 0], "radius": None}, "radius"),
        ({"kind": "ball", "center": [0, 0], "radius": [1]}, "radius"),
        ({"kind": "box", "lower": [-1], "upper": "a"}, "upper"),
        ({"kind": "box", "lower": 5, "upper": [1]}, "lower"),
        ({"kind": "half-space", "normal": "ab"}, "normal"),
        ({"kind": "half-space", "normal": [[1, 0]]}, "normal"),
        ({"kind": "quadratic", "weights": "abc"}, "weights"),
        ({"kind": "ball", "center": [[0]], "radius": 1}, "center"),
        ({"kind": "ball", "center": [0, 0], "radius": 1, "bogus": 3}, "bogus"),
        ({"kind": "half-space", "normal": [1, 0], "label": "x"}, "label"),
        ({"kind": "half-space", "normal": [1e308, 1e308]}, "normal"),
        ({"kind": "intersection", "normals": [[0, 1], [1e308, 1e308]], "offsets": [0, 0]},
         "normals"),
        ({"kind": "ball", "center": [0, 0], "radius": math.nan}, "radius"),
        ({"kind": "quadratic", "weights": [1, -1]}, "weights"),
    ])
    def test_malformed_constraint_is_config_error(self, tmp_path, capsys, constraint, key):
        payload = properties_config(tmp_path / "out")
        payload["constraint"] = constraint
        assert run(write_config(tmp_path, payload)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert constraint["kind"] in err and key in err
        assert not (tmp_path / "out").exists()

    def test_properties_over_the_pair_budget_is_config_error(self, tmp_path, capsys,
                                                             monkeypatch):
        # 50 points in the plane need 8 * 1225 * (3 * 2 + 5) bytes of pair arrays
        cfg = write_config(tmp_path, properties_config(tmp_path / "out"))
        monkeypatch.setattr(convexcore, "PROPERTY_PAIR_BYTES", 8 * 1225 * 11 - 1)
        assert run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the properties check on 50 points")
        assert "PROPERTY_PAIR_BYTES" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()
        monkeypatch.setattr(convexcore, "PROPERTY_PAIR_BYTES", 8 * 1225 * 11)
        assert run(cfg) == 0

    def test_quadratic_properties_pass(self, tmp_path):
        """L-BFGS-B ends ABNORMAL at some of these points, each at the prox."""
        payload = properties_config(tmp_path / "out")
        payload.update(seed=0, samples=200, constraint={"kind": "quadratic", "weights": [1, 10]})
        payload.pop("epsilon_ladder")
        assert run(write_config(tmp_path, payload), strict=True) == 0

    def test_strict_flips_probe_failures(self, tmp_path):
        # an unreflective system makes the converge probe degenerate
        payload = {
            "mode": "converge",
            "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "system": {"name": "ou", "params": {"theta": 0.0, "sigma": 0.05, "x0": 5.0}},
            "grid": {"start": 0.0, "end": 1.0, "steps": 256},
            "epsilon_ladder": [0.125, 0.0625, 0.03125],
            "particles": 8,
            "replications": 2,
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, strict=False) == 0
        assert run(cfg, strict=True) == 4

    @pytest.mark.parametrize("extra,level", [
        ({"mode": "transform-demo", "system": {"name": "moving_interval"},
          "grid_ladder": [64, 64, 128]}, "64"),
        ({"mode": "converge", "system": {"name": "ou"},
          "grid": {"start": 0.0, "end": 1.0, "steps": 256},
          "epsilon_ladder": [0.125, 0.125, 0.0625, 0.03125], "replications": 2}, "0.125"),
    ], ids=["grid_ladder", "epsilon_ladder"])
    def test_repeated_ladder_level_is_config_error(self, tmp_path, capsys, extra, level):
        out = tmp_path / "out"
        payload = {"seed": 1, "output_dir": str(out), "particles": 8, **extra}
        assert run(write_config(tmp_path, payload), strict=True) == 2
        assert f"repeats the level {level}" in capsys.readouterr().err
        assert not (out.exists() and any(out.iterdir()))


class TestOutputs:
    def test_simulate_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, simulate_config(out))
        assert run(cfg) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert set(manifest["outputs"]) == {"trajectories.csv", "diagnostics.csv"}
        assert len(manifest["config_sha256"]) == 64
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header == "replication,particle,t,x_1,k_1,variation"
        assert not list(out.glob("*.tmp*"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_honour_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, simulate_config(out))
        old = os.umask(umask)
        try:
            assert run(cfg) == 0
        finally:
            os.umask(old)
        files = sorted(out.iterdir())
        assert [p.name for p in files] == ["diagnostics.csv", "manifest.json", "trajectories.csv"]
        assert [p.stat().st_mode & 0o777 for p in files] == [mode] * 3

    def test_reruns_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, simulate_config(out_a))
        assert run(cfg) == 0
        assert run(cfg, out=out_b) == 0
        for name in ("trajectories.csv", "diagnostics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("over", [
        {"system": {"name": "example31"}},
        {"scheme": "penalized", "epsilon": 0.1},
    ], ids=["example31-projected", "ou-penalized"])
    def test_replication_batches_do_not_change_bytes(self, tmp_path, monkeypatch, over):
        # simulate runs its replications through the ensemble runner: at a
        # budget of one byte every replication is its own batch
        cfg = write_config(tmp_path, simulate_config(tmp_path / "a", replications=3, **over))
        calls = []
        real = mvsolver._simulate
        monkeypatch.setattr(mvsolver, "_simulate",
                            lambda *a, **kw: calls.append(kw["groups"]) or real(*a, **kw))
        assert run(cfg) == 0
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 1)
        assert run(cfg, out=tmp_path / "b") == 0
        assert calls == [3, 1, 1, 1]
        for name in ("trajectories.csv", "diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulate_peak_is_one_batch_not_the_table(self, tmp_path, monkeypatch):
        # 4 replications as 4 batches: the traced peak of the run stays below
        # the whole-run (R N (steps+1), 2m+4) float table of the rows
        R, N, steps, m = 4, 256, 256, 2
        cfg = write_config(tmp_path, simulate_config(
            tmp_path / "out", system={"name": "example31"}, particles=N, replications=R,
            grid={"start": 0.0, "end": 0.5, "steps": steps}))
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 8 * N * steps)
        calls, real = [], mvsolver._simulate
        monkeypatch.setattr(mvsolver, "_simulate",
                            lambda *a, **kw: calls.append(kw["groups"]) or real(*a, **kw))
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [1] * R
        assert peak < R * N * (steps + 1) * (2 * m + 4) * 8

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, simulate_config(out_a))
        run(cfg)
        run(cfg, seed=43, out=out_b)
        assert (out_a / "trajectories.csv").read_bytes() != \
            (out_b / "trajectories.csv").read_bytes()

    def test_validate_mode(self, tmp_path):
        out = tmp_path / "out"
        payload = {
            "mode": "validate",
            "seed": 3,
            "output_dir": str(out),
            "system": {"name": "example31"},
            "samples": 300,
        }
        assert run(write_config(tmp_path, payload)) == 0
        rows = list(csv.reader((out / "validation.csv").read_text().splitlines()))[1:]
        assert [r[:2] for r in rows] == [[check, "true"] for check in (
            "lipschitz", "oblique_symmetry", "oblique_band_low", "oblique_band_high",
            "oblique_lipschitz")]
        assert rows[-1][3] == "4.5"

    def test_validate_mode_without_an_oblique_constant_declares_nan(self, tmp_path):
        out = tmp_path / "out"
        payload = {"mode": "validate", "seed": 3, "output_dir": str(out),
                   "system": {"name": "ou"}, "samples": 50}
        assert run(write_config(tmp_path, payload), strict=True) == 0
        last = (out / "validation.csv").read_text().splitlines()[-1]
        assert last == "oblique_lipschitz,true,0,nan"

    def test_validate_mode_gates_the_oblique_lipschitz_constant(self, tmp_path, monkeypatch,
                                                                 capsys):
        @functools.wraps(library._example31)
        def tight(**params):        # example31 with a declared L_H below its estimate
            system = library._example31(**params)
            system.oblique.lipschitz = 0.1
            return system

        monkeypatch.setitem(library.SYSTEMS, "example31", tight)
        out = tmp_path / "out"
        payload = {"mode": "validate", "seed": 3, "output_dir": str(out),
                   "system": {"name": "example31"}, "samples": 300}
        assert run(write_config(tmp_path, payload), strict=True) == 4
        assert re.search(r"probe failed: oblique_lipschitz [0-9.]+ above declared 0\.1;",
                         capsys.readouterr().out)
        check, passed, estimate, declared = (out / "validation.csv").read_text() \
            .splitlines()[-1].split(",")
        assert (check, passed, float(declared)) == ("oblique_lipschitz", "false", 0.1)
        assert float(estimate) > 0.1

    def test_transform_demo_mode(self, tmp_path):
        out = tmp_path / "out"
        payload = {
            "mode": "transform-demo",
            "seed": 3,
            "output_dir": str(out),
            "system": {"name": "moving_interval"},
            "grid_ladder": [64, 128],
            "particles": 16,
        }
        assert run(write_config(tmp_path, payload)) == 0
        body = (out / "equivalence.csv").read_text()
        assert "chain-rule" in body and "as-printed" in body


def oracle_trajectories(ensembles, times, header):
    """The tuple-per-row, ``_fmt``-per-value trajectory text that the array
    writer replaced; the byte reference for ``write_csv`` on trajectory blocks."""
    rows = []
    for r, ens in enumerate(ensembles):
        for i in range(ens.states.shape[0]):
            for k, t in enumerate(times):
                rows.append(
                    (r, i, t, *ens.states[i, k], *ens.reflection[i, k],
                     ens.variation[i, k])
                )
    lines = [",".join(header)]
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


SPECIAL_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                  1.7976931348623157e308, 1 / 3, -2.0, 1e17, 123456789.0]


def trajectory_header(m):
    return (["replication", "particle", "t"] + [f"x_{j + 1}" for j in range(m)]
            + [f"k_{j + 1}" for j in range(m)] + ["variation"])


def assert_writer_matches_oracle(tmp_path, values, reps, particles, steps1, m):
    """Fill ``reps`` fake ensembles from ``values`` (cycled) and compare bytes."""
    per_rep = particles * steps1 * (2 * m + 1)
    pool = np.resize(np.array(values, dtype=float), reps * per_rep + steps1)
    times = pool[-steps1:]
    ensembles = []
    for r in range(reps):
        block = pool[r * per_rep:(r + 1) * per_rep].reshape(particles, steps1, 2 * m + 1)
        ensembles.append(SimpleNamespace(states=block[..., :m], reflection=block[..., m:2 * m],
                                         variation=block[..., 2 * m]))
    header = trajectory_header(m)
    path = tmp_path / "trajectories.csv"
    blocks = (block for r, ens in enumerate(ensembles)
              for block in cli._trajectory_text(r, ens, times))
    cli.write_csv(path, header, cli._Blocks(reps * particles * steps1, blocks))
    assert path.read_bytes() == oracle_trajectories(ensembles, times, header).encode()


class TestArrayWriter:
    @given(
        m=st.sampled_from([1, 2, 3]),
        reps=st.sampled_from([1, 3]),
        particles=st.integers(1, 3),
        steps1=st.integers(1, 4),
        chunk_offset=st.sampled_from([-1, 0, 1, None]),
        values=st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()),
                        min_size=1, max_size=40),
    )
    @settings(max_examples=150)
    def test_bytes_match_tuple_oracle(self, tmp_path_factory, m, reps, particles, steps1,
                                      chunk_offset, values):
        rows = reps * particles * steps1
        # just under, at and just over one chunk, or several small chunks
        chunk = 2 if chunk_offset is None else max(1, rows + chunk_offset)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_CHUNK_ROWS", chunk)
            assert_writer_matches_oracle(tmp_path_factory.mktemp("w"), values, reps,
                                         particles, steps1, m)

    @given(
        m=st.sampled_from([1, 2, 3]),
        reps=st.sampled_from([1, 3]),
        particles=st.integers(1, 3),
        steps1=st.integers(1, 4),
        chunk=st.integers(1, 12),
        values=st.lists(st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats()),
                        min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)),
    )
    @settings(max_examples=100)
    def test_few_distinct_values_match_tuple_oracle(self, tmp_path_factory, m, reps,
                                                    particles, steps1, chunk, values):
        # a 3-value pool: long tail runs, each formatted once
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_CHUNK_ROWS", chunk)
            assert_writer_matches_oracle(tmp_path_factory.mktemp("w"), values, reps,
                                         particles, steps1, m)

    @pytest.mark.parametrize("chunk", [1, 11, 12, 13, 1024])
    def test_special_values_match_oracle(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        assert_writer_matches_oracle(tmp_path, SPECIAL_VALUES, 3, 2, 2, 2)

    @pytest.mark.parametrize("chunk,particles,steps1,rows", [
        (3, 2, 5, [5, 5]),          # steps + 1 > CSV_CHUNK_ROWS: one particle a block
        (4, 3, 4, [4, 4, 4]),
        (10, 5, 3, [9, 6]),         # 3 particles a block, then the 2 left over
        (12, 7, 2, [12, 2]),
    ])
    def test_blocks_hold_whole_particles(self, tmp_path, monkeypatch, chunk, particles,
                                         steps1, rows):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        paths = np.zeros((particles, steps1, 2))
        ens = SimpleNamespace(states=paths, reflection=paths, variation=paths[..., 0])
        blocks = [b.splitlines() for b in cli._trajectory_text(2, ens, np.arange(steps1))]
        assert [len(b) for b in blocks] == rows
        assert [line.split(",")[1] for b in blocks for line in b] \
            == [str(i) for i in range(particles) for _ in range(steps1)]
        assert_writer_matches_oracle(tmp_path, SPECIAL_VALUES, 3, particles, steps1, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_tail_runs_keep_signed_zeros_and_nan_payloads_apart(self, offset, m):
        # tail runs of rows that differ only by -0.0 and 0.0 or by a NaN payload, some
        # crossing a particle boundary, beside all-distinct states, across a block edge
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(np.float64)
        pool = np.array([0.0, -0.0, *nans, math.inf, -math.inf, 5e-324])
        steps1 = 5
        rows = steps1 * (cli.CSV_CHUNK_ROWS // steps1 + offset)
        runs = np.repeat(np.resize(pool, rows // 3 + 1), 3)[:rows]     # runs of three rows
        tail = np.column_stack([runs] * (m + 1))
        tail[1::4, 0] = -tail[1::4, 0]            # runs that differ in one column's sign bit
        states = np.arange(rows * m).reshape(rows, m) / 7.0 - 1e3
        times = np.linspace(0.0, 0.5, steps1)
        ens = SimpleNamespace(states=states.reshape(-1, steps1, m),
                              reflection=tail[:, :m].reshape(-1, steps1, m),
                              variation=tail[:, m].reshape(-1, steps1))
        expected = [",".join(["%.17g" % v for v in (0, i // steps1, times[i % steps1],
                                                    *states[i], *tail[i])]) for i in range(rows)]
        assert "".join(cli._trajectory_text(0, ens, times)).splitlines() == expected

    def test_a_particle_longer_than_a_block(self, tmp_path, monkeypatch):
        # steps + 1 > CSV_CHUNK_ROWS: one particle a block, its tail runs whole
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 4)
        paths = np.zeros((3, 9, 1))
        paths[1, 4:] = -0.0
        ens = SimpleNamespace(states=np.arange(27.0).reshape(3, 9, 1), reflection=paths,
                              variation=paths[..., 0])
        blocks = list(cli._trajectory_text(1, ens, np.arange(9) / 8))
        assert [b.count("\n") for b in blocks] == [9, 9, 9]
        assert blocks[1].splitlines()[4:6] == ["1,1,0.5,13,-0,-0", "1,1,0.625,14,-0,-0"]
        assert_writer_matches_oracle(tmp_path, SPECIAL_VALUES, 2, 3, 9, 2)

    def test_a_simulate_run_sizes_its_trajectory_rows(self, tmp_path, monkeypatch):
        # len() of the rows handed to the writer, which a caller may read without
        # iterating them, is the number of rows written
        sized, write = {}, cli.write_csv

        def sizing(path, header, rows):
            sized[Path(path).name] = len(rows)
            write(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", sizing)
        out = tmp_path / "out"
        cfg = simulate_config(out, grid={"start": 0.0, "end": 0.5, "steps": 4}, particles=3)
        assert run(write_config(tmp_path, cfg)) == 0
        written = len((out / "trajectories.csv").read_text().splitlines()) - 1
        assert sized["trajectories.csv"] == written == 2 * 3 * 5


class TestAllOrNothing:
    def test_failed_rerun_leaves_no_manifest_and_none_of_its_files(self, tmp_path,
                                                                    monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, simulate_config(out, seed=1))
        assert run(cfg) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"manifest.json", "trajectories.csv", "diagnostics.csv"} <= set(first)

        real = cli.write_csv

        def failing_diagnostics(path, header, rows):
            if Path(path).name == "diagnostics.csv":
                raise ObliqueMVError("injected")
            return real(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", failing_diagnostics)
        assert run(cfg, seed=2) == 3
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        # the failed run wrote trajectories.csv before failing: it is gone,
        # and the old manifest no longer vouches for the directory
        assert "manifest.json" not in left and "trajectories.csv" not in left
        assert left == {"diagnostics.csv": first["diagnostics.csv"]}

    @pytest.mark.parametrize("over", [
        {"samples": 10}, {"epsilon": 0.1}, {"scheme": "penalized"}, {"grid": None},
        {"mode": "properties"},
    ], ids=["stray", "epsilon_projected", "penalized_without_epsilon", "missing", "mode"])
    def test_key_set_error_leaves_the_previous_run_in_place(self, tmp_path, capsys, over):
        out = tmp_path / "out"
        cfg = simulate_config(out, seed=1)
        assert run(write_config(tmp_path, cfg)) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in first
        bad = {k: v for k, v in {**cfg, **over}.items() if v is not None}
        assert run(write_config(tmp_path, bad, "bad.json")) == 2
        assert "config key" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_divergence_in_a_later_batch_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, simulate_config(out, seed=1, replications=3))
        assert run(cfg) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 1)     # one batch per replication
        real, batches = mvsolver._simulate, []

        def diverging(*args, **kwargs):
            batches.append([p.stat().st_size for p in out.glob("trajectories.csv.tmp*")])
            if len(batches) == 2:
                raise DivergenceError("injected", step=3, group=0, particle=0)
            return real(*args, **kwargs)

        monkeypatch.setattr(mvsolver, "_simulate", diverging)
        assert run(cfg, seed=2) == 3
        # the first batch's rows were in the temp file when the second batch
        # was drawn; the temp file is gone, and so is the old manifest
        assert len(batches) == 2 and len(batches[1]) == 1 and batches[1][0] > 0
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        assert left == {k: v for k, v in first.items() if k != "manifest.json"}

    def test_unexpected_error_also_removes_written_files(self, tmp_path, monkeypatch):
        @functools.wraps(cli._run_properties)       # the mode's keys are its runner's
        def broken(out, seed, **keys):
            out.write_csv("partial.csv", ["a"], [(1,)])
            raise KeyError("internal")

        monkeypatch.setitem(cli._RUNNERS, "properties", broken)
        cfg = write_config(tmp_path, properties_config(tmp_path / "out"))
        with pytest.raises(KeyError):
            run(cfg)
        assert list((tmp_path / "out").iterdir()) == []


def fake_rate_report(*args, **kwargs):
    return RateReport(xs=[0.1, 0.2, 0.3], ys=[0.1, 0.2, 0.3], slope=0.41,
                      r_squared=0.99, stderrs=[0.0] * 3)


def fake_equivalence(*args, **kwargs):
    return ConvergenceReport(step_sizes=[0.25, 0.125], sup_distances={"chain-rule": [0.1, 0.2]},
                             feasibility={"chain-rule": [0.0, 0.0]})


def fake_value_and_dpp(prob, tau, cfg, family):
    return control.value(prob, cfg, family=family), 1.0, 0.01


def fake_lipschitz(fld, pairs, seed):
    return ValidationReport("lipschitz", False, 2.5, fld.lipschitz)


class TestVerdicts:
    @pytest.mark.parametrize("mode,patch,payload,verdict", [
        ("converge", {"penalization_rate_probe": fake_rate_report},
         {"system": {"name": "ou"}, "grid": {"start": 0.0, "end": 1.0, "steps": 64},
          "epsilon_ladder": [0.5, 0.25, 0.125]},
         "slope 0.41 outside [0.7, 1.3]"),
        ("control", {"_value_and_dpp": fake_value_and_dpp},
         {"system": {"name": "two_control"}, "grid": {"start": 0.0, "end": 1.0, "steps": 8},
          "particles": 4, "replications": 2,
          "control": {"clusters": 1, "inner_replications": 2}},
         "dpp_residual 1 outside [-inf, 0.625]"),
        ("transform-demo", {"equivalence_check": fake_equivalence},
         {"system": {"name": "moving_interval"}, "grid_ladder": [4, 8]},
         "chain-rule sup_distance not decreasing along the grid ladder"),
        ("validate", {"validate_lipschitz": fake_lipschitz},
         {"system": {"name": "ou"}, "samples": 20}, "lipschitz 2.5 above declared 1"),
    ])
    def test_failed_probe_names_its_gate(self, tmp_path, monkeypatch, capsys, mode, patch,
                                         payload, verdict):
        for name, fake in patch.items():
            monkeypatch.setattr(cli, name, fake)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"mode": mode, "seed": 1, "output_dir": str(out),
                                      **payload})
        assert run(cfg, strict=True) == 4
        assert f"mode {mode}: probe failed: {verdict}; outputs in" in capsys.readouterr().out
        assert (out / "manifest.json").is_file()
        assert run(cfg) == 0

    def test_gate_bounds(self):
        assert cli._gate("slope", 1.0, 0.7, 1.3) is None
        assert cli._gate("r", math.nan, low=0.9) == "r nan outside [0.9, inf]"
        assert cli._gate("x", 2.5e-7, high=1e-8) == "x 2.5e-07 outside [-inf, 1e-08]"


class TestDescribe:
    @pytest.mark.parametrize("table", [library.SYSTEMS, library.CONTROL_PROBLEMS,
                                       library.MOVING_PROBLEMS])
    def test_description_is_the_builders_docstring(self, table):
        for name, builder in table.items():
            assert library.describe(name) == inspect.getdoc(builder)
            assert "Declared constants:" in library.describe(name)

    def test_known_system(self, capsys):
        assert main(["describe", "example31"]) == 0
        out = capsys.readouterr().out
        assert "example31" in out and "a_H=3" in out

    def test_unknown_system(self, capsys):
        assert main(["describe", "mystery"]) == 2
        err = capsys.readouterr().err
        assert "available" in err


def test_no_mode_loads_scipy(tmp_path):
    """Nothing at run time imports scipy or jsonschema, which only the tests use as
    oracles: importing the CLI, a ``validate`` run (the W2 assignments), a polytope
    ``properties`` run (the polyhedral step) and a quadratic ``properties`` run
    (the smooth prox) each leave every ``scipy`` and ``jsonschema`` module unloaded."""
    src = str(Path(oblique_mv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    loaded = ("print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    code = "import sys, oblique_mv.cli; " + loaded
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
    triangle = {"kind": "intersection", "normals": [[1, 0], [0, 1], [-1, -1]],
                "offsets": [-1, -1, -1]}
    configs = {
        "validate": {"mode": "validate", "seed": 3, "system": {"name": "example31"},
                     "samples": 200},
        "triangle": {"mode": "properties", "seed": 3, "constraint": triangle, "samples": 60},
        "quadratic": {"mode": "properties", "seed": 3, "samples": 60,
                      "constraint": {"kind": "quadratic", "weights": [1, 4]}},
    }
    for name, payload in configs.items():
        cfg = write_config(tmp_path, payload, f"{name}.json")
        code = ("import sys; from oblique_mv import cli; "
                f"code = cli.main(['run', '--config', {str(cfg)!r}, '--strict', "
                f"'--out', {str(tmp_path / name)!r}]); " + loaded + "; sys.exit(code)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "[]", name


# system names each mode accepts; any other name must be a config error
MODE_NAMES = {"control": ["two_control"], "transform-demo": ["moving_interval"]}
SYSTEM_NAMES = ["example31", "ou", "linear", "rbm"]
PARAM_KEYS = {
    "example31": ["x0", "radius"], "ou": ["theta", "sigma", "x0"],
    "linear": ["a", "b", "c", "x0"], "rbm": ["sigma", "x0"],
    "two_control": ["theta", "sigma", "x0", "horizon", "controls", "ramp",
                    "control_mode", "cost_shape"],
    "moving_interval": ["outward", "sigma", "coupling", "x0", "horizon", "growth"],
    "nope": ["x0"],
}
# JSON values of every type; numbers mostly of a plausible size
PARAM_VALUES = st.one_of(
    st.floats(-2, 2), st.floats(-2, 2), st.integers(-3, 3), st.floats(),
    st.lists(st.floats(-2, 2), max_size=3), st.text(max_size=3), st.none(), st.booleans(),
    st.sampled_from(["scale", "shift", "abs", "linear"]),
)
# now and then a malformed value in place of a well-formed one: a string,
# null, a scalar, a list nested one level too deep or too shallow
MALFORMED = st.one_of(st.text(max_size=3), st.none(), st.floats(-2, 2), st.booleans(),
                      st.lists(st.lists(st.floats(-1, 1), max_size=2), max_size=2),
                      st.lists(st.floats(-1, 1), max_size=2))


def _or_malformed(values):
    return st.one_of(values, values, values, MALFORMED)


_CONSTRAINTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("half-space"),
                           "normal": _or_malformed(
                               st.lists(st.floats(-2, 2), min_size=1, max_size=3))},
                          optional={"offset": _or_malformed(st.floats(-1, 1))}),
    st.fixed_dictionaries({"kind": st.just("box"),
                           "lower": _or_malformed(st.lists(
                               st.one_of(st.none(), st.floats(-2, 0)), min_size=1, max_size=2)),
                           "upper": _or_malformed(st.lists(
                               st.one_of(st.none(), st.floats(0, 2)), min_size=1, max_size=2))}),
    st.fixed_dictionaries({"kind": st.just("ball"),
                           "center": _or_malformed(
                               st.lists(st.floats(-1, 1), min_size=1, max_size=2)),
                           "radius": _or_malformed(st.floats(-1, 2))}),
    st.fixed_dictionaries({"kind": st.just("intersection"),
                           "normals": _or_malformed(st.lists(
                               st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                               min_size=1, max_size=3)),
                           "offsets": _or_malformed(
                               st.lists(st.floats(-1, 1), min_size=1, max_size=3))}),
    st.fixed_dictionaries({"kind": st.sampled_from(["quadratic", "wedge"])},
                          optional={"weights": _or_malformed(
                              st.lists(st.floats(0, 2), min_size=1, max_size=2))}),
)
CONSTRAINTS = st.one_of(_CONSTRAINTS, _CONSTRAINTS, _CONSTRAINTS,
                        _CONSTRAINTS.map(lambda c: {**c, "bogus": 3}))


def _or_float(ints):
    """``ints``, now and then as integral floats (``2.0``), which JSON Schema calls integers."""
    return st.one_of(ints, ints, ints, ints.map(float))


OPTIONAL_KEYS = {
    "threads": _or_float(st.integers(1, 4)),
    "grid": st.fixed_dictionaries(
        {"start": st.one_of(st.sampled_from([0.0, -0.5, 0.25]), st.floats()),
         "end": st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats()),
         "steps": _or_float(st.integers(1, 16))}),
    "grid_ladder": st.lists(_or_float(st.sampled_from([2, 3, 4, 8, 16])), min_size=2,
                            max_size=3),
    "particles": _or_float(st.integers(1, 8)),
    "replications": _or_float(st.integers(1, 2)),
    "scheme": st.sampled_from(["projected", "penalized"]),
    "epsilon": st.sampled_from([0.01, 0.1, 1.0, 4.0]),
    "epsilon_ladder": st.lists(st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.1]), max_size=4),
    "constraint": CONSTRAINTS,
    "samples": _or_float(st.integers(1, 20)),
    "control": st.fixed_dictionaries({}, optional={
        "tau": st.one_of(st.floats(-0.5, 1.5), st.floats()),
        "switches": _or_float(st.integers(0, 1)), "clusters": _or_float(st.integers(1, 2)),
        "inner_replications": _or_float(st.integers(1, 2))}),
}


# The mode key sets written out as a table, an oracle apart from the runners'
# signatures that the CLI reads them from: (mode, scheme) -> (keys a config must
# have, further keys it may have); only simulate takes a scheme.  Every config
# may also have the COMMON_KEYS.
MODE_KEYS = {
    ("simulate", "projected"): (("system", "grid"), ("scheme", "particles", "replications")),
    ("simulate", "penalized"): (("system", "grid", "epsilon"),
                                ("scheme", "particles", "replications")),
    ("converge", None): (("system", "grid", "epsilon_ladder"), ("particles", "replications")),
    ("control", None): (("system", "grid"), ("particles", "replications", "control")),
    ("validate", None): (("system",), ("samples",)),
    ("transform-demo", None): (("system", "grid_ladder"), ("particles",)),
    ("properties", None): (("constraint",), ("epsilon_ladder", "samples")),
}
COMMON_KEYS = ("mode", "seed", "output_dir", "threads")


@st.composite
def fuzz_configs(draw):
    """A config valid under CONFIG_SCHEMA, mostly carrying only keys its mode reads.

    Sizes stay small: at most 16 steps, 8 particles, 2 replications."""
    mode = draw(st.sampled_from(cli.MODES))
    scheme = draw(OPTIONAL_KEYS["scheme"]) if mode == "simulate" else None
    required, optional = MODE_KEYS[mode, scheme]
    cfg = {"mode": mode, "seed": draw(_or_float(st.integers(0, 2**32)))}
    if scheme == "penalized" or (scheme and draw(st.booleans())):
        cfg["scheme"] = scheme
    for key in required + optional:
        if key == "system":
            names = MODE_NAMES.get(mode, SYSTEM_NAMES)
            system = {"name": draw(st.sampled_from(names * 3 + ["nope"]))}
            if draw(st.integers(0, 2)) > 0:
                system["params"] = draw(st.dictionaries(
                    st.sampled_from(PARAM_KEYS[system["name"]]), PARAM_VALUES, max_size=2))
            cfg["system"] = system
        elif key != "scheme" and draw(st.integers(0, 9)) > 0:
            cfg[key] = draw(OPTIONAL_KEYS[key])
    if draw(st.integers(0, 4)) == 0:        # now and then keys the mode does not read
        cfg.update(draw(st.fixed_dictionaries({}, optional=OPTIONAL_KEYS)))
    jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    return cfg


class TestFuzz:
    @given(constraint=CONSTRAINTS)
    @settings(max_examples=200)
    def test_constraint_configs_build_or_are_config_errors(self, constraint):
        """A constraint mapping builds a constraint or raises a ConfigurationError,
        which the CLI maps to exit 2; nothing else escapes."""
        try:
            assert isinstance(library.constraint_from_config(constraint),
                              oblique_mv.ConvexConstraint)
        except ConfigurationError as err:
            assert constraint["kind"] in str(err)

    @given(cfg=fuzz_configs())
    @settings(max_examples=40)
    def test_schema_configs_exit_cleanly(self, tmp_path_factory, cfg):
        """Every drawn config ends in a documented exit code, without a traceback."""
        tmp = tmp_path_factory.mktemp("fuzz")
        path = write_config(tmp, cfg)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(path), "--strict", "--out", str(tmp / "out")])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()


# any JSON value, small; bounded floats are finite
ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _or_float(st.integers(-2, 3)), st.floats(-2, 3),
              st.text(max_size=2)),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner,
                                                                  max_size=2),
    max_leaves=4)


def _now_and_then(draw):
    """True for about one draw in eight; the simplest draw, all zeros, is False."""
    return draw(st.integers(0, 7)) == 7


@st.composite
def schema_values(draw, schema):
    """A value for the CONFIG_SCHEMA entry ``schema``: mostly of its type and within its
    bound (integral floats included), now and then just below the bound, non-finite or
    any JSON value; an object mostly has its required keys, now and then one too few
    or a stray one."""
    kind, low = schema.get("type"), schema.get("minimum", schema.get("exclusiveMinimum", 0))
    if _now_and_then(draw):
        return draw(st.one_of(ANY_JSON, st.booleans(), st.just("nope"), st.just(low - 1),
                              st.floats(low - 1, low + 3),
                              st.sampled_from([math.nan, math.inf, -math.inf])))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    if kind == "integer":
        return draw(_or_float(st.integers(low, low + 3)))
    if kind == "number":
        return draw(st.one_of(_or_float(st.integers(low + 1, low + 3)),
                              st.floats(low, low + 3)))
    if kind == "string":
        return draw(st.text(max_size=3))
    if kind == "array":
        return draw(st.lists(schema_values(schema["items"]), max_size=4))
    if kind != "object":
        return draw(ANY_JSON)
    props, required = schema.get("properties", {}), schema.get("required", [])
    keys = [key for key in props if key in required or draw(st.booleans())]
    if keys and _now_and_then(draw):
        keys.remove(draw(st.sampled_from(keys)))
    if _now_and_then(draw):
        keys.append(draw(st.sampled_from(["wibble", "name", "steps", "tau"])))
    return {key: draw(schema_values(props.get(key, {}))) for key in keys}


@st.composite
def key_set_configs(draw):
    """A config with the key set of a drawn mode and scheme, now and then a key too few
    or too many, and values of every type (bools, integral floats, strings, objects)."""
    mode = draw(st.sampled_from(cli.MODES))
    scheme = draw(st.sampled_from(["projected", "penalized"])) if mode == "simulate" else None
    required, optional = MODE_KEYS[mode, scheme]
    props = cli.CONFIG_SCHEMA["properties"]
    keys = ["seed", *required, *(key for key in optional + ("output_dir", "threads")
                                 if key != "scheme" and draw(st.booleans()))]
    if _now_and_then(draw):
        keys.remove(draw(st.sampled_from(keys)))
    if _now_and_then(draw):     # a key the mode and scheme do not take
        stray = set(props) - {*required, *optional, *COMMON_KEYS}
        keys.append(draw(st.sampled_from(sorted(stray) + ["wibble"])))
    cfg = {"mode": draw(st.sampled_from(["nope", True, None, *cli.MODES]))
           if _now_and_then(draw) else mode}
    if scheme == "penalized" or (scheme and draw(st.booleans())):
        cfg["scheme"] = scheme
    cfg.update((key, draw(schema_values(props.get(key, {})))) for key in keys)
    return draw(ANY_JSON) if _now_and_then(draw) and _now_and_then(draw) else cfg


def _draft7_where(kind, means):
    """A Draft7Validator of CONFIG_SCHEMA whose type ``kind`` is what ``means`` accepts."""
    checker = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(kind, lambda _, v: means(v))
    return jsonschema.validators.extend(jsonschema.Draft7Validator,
                                        type_checker=checker)(cli.CONFIG_SCHEMA)


# a config the check returns has Python ints on its integer keys
INTS_ARE_INTS = _draft7_where("integer", lambda v: type(v) is int)
# the check's one departure from JSON Schema: a number key takes no NaN or infinity
FINITE_NUMBERS = _draft7_where("number",
                               lambda v: type(v) is int or type(v) is float and math.isfinite(v))


def jsonschema_and_mode_keys_accept(cfg):
    """The oracle: ``jsonschema.validate`` against CONFIG_SCHEMA, then the key sets of
    ``MODE_KEYS``."""
    try:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    except jsonschema.ValidationError:
        return False
    scheme = cfg.get("scheme", "projected") if cfg["mode"] == "simulate" else None
    required, optional = MODE_KEYS[cfg["mode"], scheme]
    return set(required) <= set(cfg) <= set(required + optional + COMMON_KEYS)


class TestConfigCheck:
    """``cli._check_config`` accepts exactly the configs that jsonschema and the mode
    key sets accept, less those with NaN or infinity on a number key, and returns
    them with integral floats on integer keys made ints."""

    def check_against_the_oracle(self, cfg):
        try:
            checked = cli._check_config(cfg)
        except ConfigurationError:
            checked = None
        accepted = jsonschema_and_mode_keys_accept(cfg)
        assert (checked is not None) == (accepted and FINITE_NUMBERS.is_valid(cfg))
        if checked is not None:
            assert checked == cfg and INTS_ARE_INTS.is_valid(checked)

    @given(cfg=key_set_configs())
    @settings(max_examples=600)
    def test_accepts_what_jsonschema_and_the_mode_keys_accept(self, cfg):
        self.check_against_the_oracle(cfg)

    @pytest.mark.parametrize("mode, scheme", list(MODE_KEYS))
    def test_each_key_added_or_dropped(self, mode, scheme):
        """Every mode rule, seen without luck: a valid config of the mode and scheme
        with each schema key added in turn, and with each required key dropped."""
        valid = {"seed": 0, "output_dir": "out", "threads": 1, "system": {"name": "ou"},
                 "grid": {"start": 0.0, "end": 1.0, "steps": 4}, "grid_ladder": [4, 8],
                 "particles": 4, "replications": 1, "scheme": "projected", "epsilon": 0.1,
                 "epsilon_ladder": [0.1], "constraint": {"kind": "ball"}, "samples": 4,
                 "control": {}}
        assert set(valid) | {"mode"} == set(cli.CONFIG_SCHEMA["properties"])
        required, _ = MODE_KEYS[mode, scheme]
        base = {"mode": mode, **{key: valid[key] for key in ("seed", *required)}}
        if scheme:
            base["scheme"] = scheme
        assert jsonschema_and_mode_keys_accept(base)
        for key in valid:
            self.check_against_the_oracle({key: valid[key], **base})
        for key in required:
            self.check_against_the_oracle({k: v for k, v in base.items() if k != key})

    @given(cfg=fuzz_configs())
    @settings(max_examples=200)
    def test_fuzz_corpus(self, cfg):
        self.check_against_the_oracle(cfg)


def _finite_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def param_error(default, value):
    """The builder check as it was before builder parameters went through the schema
    walk, kept as an oracle: why ``value`` cannot stand in for ``default``, or None."""
    if default is inspect.Parameter.empty:
        return None
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple, np.ndarray)) and len(value) > 0 \
            and all(_finite_number(v) for v in value)
        return None if ok else "a non-empty list of finite numbers"
    return None if _finite_number(value) else "a finite number"


def param_error_accepts(builder, params):
    accepted = inspect.signature(builder).parameters
    return (all(key in accepted for key in params)
            and all(key in params for key, p in accepted.items() if p.default is p.empty)
            and all(param_error(accepted[key].default, v) is None for key, v in params.items()))


BUILDERS = {**library.SYSTEMS, **library.CONTROL_PROBLEMS, **library.MOVING_PROBLEMS,
            **library.CONSTRAINTS}
# what the Python API may pass besides JSON values: numpy scalars (bools, NaN and
# infinity among them), tuples and numpy arrays of one or two axes
NUMPY_SCALARS = st.sampled_from([np.float64(1.5), np.float32(-2.0), np.int64(3), np.bool_(True),
                                 np.float64(math.nan), np.float32(math.inf), np.int8(-1)])
NUMPY_ARRAYS = st.one_of(
    st.lists(st.floats(-2, 2), max_size=3).map(np.array),
    st.lists(st.floats(), min_size=1, max_size=3).map(np.array),
    st.lists(st.one_of(st.floats(-2, 2), st.none()), min_size=1, max_size=2)
    .map(lambda v: np.array(v, dtype=object)),
    st.integers(1, 2).map(lambda n: np.ones((n, 2))))
API_VALUES = st.recursive(
    st.one_of(ANY_JSON, PARAM_VALUES, NUMPY_SCALARS, NUMPY_ARRAYS,
              st.sampled_from([math.nan, math.inf, -math.inf])),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=5)


@st.composite
def builder_params(draw):
    name = draw(st.sampled_from(sorted(BUILDERS)))
    keys = list(inspect.signature(BUILDERS[name]).parameters) + ["bogus", "name"]
    return name, draw(st.fixed_dictionaries({}, optional={key: API_VALUES for key in keys}))


class TestBuilderCheck:
    @given(drawn=builder_params())
    @settings(max_examples=600)
    def test_accepts_what_the_param_error_oracle_accepts(self, drawn):
        """The schema walk of a builder's parameters accepts exactly what the old
        signature check accepted, JSON and Python-API values alike, and a rejection
        names a parameter."""
        name, params = drawn
        builder = BUILDERS[name]
        try:
            library._checked(params, library._param_schema(builder))
            accepted = True
        except ConfigurationError as err:
            accepted = False
            named = str(err).split(" ", 1)[0].split("/", 1)[0]
            assert named in set(params) | set(inspect.signature(builder).parameters)
        assert accepted == param_error_accepts(builder, params)

    @pytest.mark.parametrize("make,name,params", [
        (library.make_control_problem, "two_control", {"controls": np.array([-1.0, 1.0])}),
        (library.make_control_problem, "two_control", {"horizon": (0.0, 2.0), "ramp": 0.5}),
        (library.make_system, "example31", {"x0": np.float32([0.1, 0.0]),
                                            "radius": np.int64(2)}),
        (library.make_system, "ou", {"theta": np.float64(0.5), "sigma": 1}),
    ])
    def test_python_api_values_build(self, make, name, params):
        make(name, **params)

    @pytest.mark.parametrize("params,message", [
        ({"controls": np.array(1.0)}, "controls must be a list, got array(1.)"),
        ({"ramp": np.bool_(True)}, "ramp must be a number, got "),
        ({"ramp": np.float64(math.nan)}, "ramp must be a finite number, got "),
        ({"controls": (1.0, math.inf)}, "controls/1 must be a finite number, got inf"),
    ])
    def test_python_api_values_rejected(self, params, message):
        with pytest.raises(ConfigurationError, match=re.escape(
                f"control problem 'two_control': {message}")):
            library.make_control_problem("two_control", **params)
