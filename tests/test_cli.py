import contextlib
import io
import json
import math
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_mv import cli, mvsolver
from oblique_mv.cli import main, run
from oblique_mv.control import RateReport
from oblique_mv.errors import ObliqueMVError
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
        assert "unknown parameter 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,params,message", [
        ("ou", {"x0": "abc"}, "parameter 'x0' must be a finite number, got 'abc'"),
        ("linear", {"c": []}, "parameter 'c' must be a finite number"),
        ("ou", {"sigma": True}, "parameter 'sigma' must be a finite number"),
        ("example31", {"x0": [0.1, None]}, "must be a non-empty list of finite numbers"),
        ("two_control", {"controls": True}, "must be a non-empty list of finite numbers"),
        ("two_control", {"ramp": None}, "parameter 'ramp' must be a finite number"),
        ("two_control", {"cost_shape": 1.0}, "parameter 'cost_shape' must be a string"),
        ("two_control", {"horizon": [0.5]}, "not enough values to unpack"),
        ("moving_interval", {"outward": ""}, "parameter 'outward' must be a finite number"),
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

    @pytest.mark.parametrize("mode", list(cli.MODES) + ["penalized"])
    def test_every_mode_key_has_a_schema_entry(self, mode):
        scheme = {"simulate": "projected", "penalized": "penalized"}.get(mode)
        required, optional = cli._MODE_KEYS["simulate" if scheme else mode, scheme]
        props = cli.CONFIG_SCHEMA["properties"]
        assert set(required + optional + cli._COMMON_KEYS) <= set(props)
        assert set(cli._COMMON_KEYS) >= set(cli.CONFIG_SCHEMA["required"])

    @pytest.mark.parametrize("payload", [
        {"mode": "simulate", "seed": -1, "particles": 0, "wibble": 1,
         "grid": {"start": "a", "steps": 0}},
        {"mode": "nope", "seed": "x", "system": {"params": 3}},
        {"seed": 1.5, "epsilon": 0, "control": {"tau": "m", "clusters": 0}},
        {"mode": "converge", "seed": 1, "epsilon_ladder": [0.1, -1.0, "x"]},
        [],
    ])
    def test_schema_error_line_is_jsonschemas(self, tmp_path, capsys, payload):
        # the same error, and so the same line, as jsonschema.validate raises
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, cli.CONFIG_SCHEMA)
        err = expected.value
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        assert run(write_config(tmp_path, payload)) == 2
        assert capsys.readouterr().err == f"config error at {path}: {err.message}\n"

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

    def test_stability_rule_enforced(self, tmp_path):
        payload = simulate_config(
            tmp_path / "out", scheme="penalized", epsilon=0.001,
            grid={"start": 0.0, "end": 1.0, "steps": 64},
        )
        assert run(write_config(tmp_path, payload)) == 2

    def test_penalized_simulate_with_stable_step(self, tmp_path):
        out = tmp_path / "out"
        payload = simulate_config(out, scheme="penalized", epsilon=0.1)
        assert run(write_config(tmp_path, payload)) == 0
        assert (out / "trajectories.csv").exists()

    def test_missing_file(self, tmp_path):
        assert run(tmp_path / "absent.json") == 2

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(cfg, seed, outdir):
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
        assert "config error" in err and "'radius'" in err

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
        body = (out / "validation.csv").read_text()
        assert "lipschitz,true" in body

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
    writer replaced; the byte reference for ``write_csv`` on array tables."""
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
    cli.write_csv(path, header, cli._trajectory_table(ensembles, times))
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

    @pytest.mark.parametrize("chunk", [1, 11, 12, 13, 1024])
    def test_special_values_match_oracle(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk)
        assert_writer_matches_oracle(tmp_path, SPECIAL_VALUES, 3, 2, 2, 2)


class TestAllOrNothing:
    def test_failed_rerun_leaves_no_manifest_and_none_of_its_files(self, tmp_path,
                                                                    monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, simulate_config(out, seed=1))
        assert run(cfg) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {"manifest.json", "trajectories.csv", "diagnostics.csv"} <= set(first)

        def failing_report(*args, **kwargs):
            raise ObliqueMVError("injected")

        monkeypatch.setattr(cli, "residual_report", failing_report)
        assert run(cfg, seed=2) == 3
        left = {p.name: p.read_bytes() for p in out.iterdir()}
        # the failed run wrote trajectories.csv before failing: it is gone,
        # and the old manifest no longer vouches for the directory
        assert "manifest.json" not in left and "trajectories.csv" not in left
        assert left == {"diagnostics.csv": first["diagnostics.csv"]}

    def test_unexpected_error_also_removes_written_files(self, tmp_path, monkeypatch):
        def broken(cfg, seed, out):
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


class TestVerdicts:
    @pytest.mark.parametrize("mode,patch,payload,verdict", [
        ("converge", {"penalization_rate_probe": fake_rate_report},
         {"system": {"name": "ou"}, "grid": {"start": 0.0, "end": 1.0, "steps": 64},
          "epsilon_ladder": [0.5, 0.25, 0.125]},
         "slope 0.41 outside [0.7, 1.3]"),
        ("control", {"dpp_residual": lambda *a, **k: (1.0, 0.01)},
         {"system": {"name": "two_control"}, "grid": {"start": 0.0, "end": 1.0, "steps": 8},
          "particles": 4, "replications": 2,
          "control": {"clusters": 1, "inner_replications": 2}},
         "dpp_residual 1 outside [-inf, 0.625]"),
        ("transform-demo", {"equivalence_check": fake_equivalence},
         {"system": {"name": "moving_interval"}, "grid_ladder": [4, 8]},
         "chain-rule sup_distance not decreasing along the grid ladder"),
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
    def test_known_system(self, capsys):
        assert main(["describe", "example31"]) == 0
        out = capsys.readouterr().out
        assert "example31" in out and "a_H=3" in out

    def test_unknown_system(self, capsys):
        assert main(["describe", "mystery"]) == 2
        err = capsys.readouterr().err
        assert "available" in err


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
CONSTRAINTS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("half-space"),
                           "normal": st.lists(st.floats(-2, 2), min_size=1, max_size=3)},
                          optional={"offset": st.floats(-1, 1)}),
    st.fixed_dictionaries({"kind": st.just("box"),
                           "lower": st.lists(st.one_of(st.none(), st.floats(-2, 0)),
                                             min_size=1, max_size=2),
                           "upper": st.lists(st.one_of(st.none(), st.floats(0, 2)),
                                             min_size=1, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("ball"),
                           "center": st.lists(st.floats(-1, 1), min_size=1, max_size=2),
                           "radius": st.floats(-1, 2)}),
    st.fixed_dictionaries({"kind": st.just("intersection"),
                           "normals": st.lists(st.lists(st.floats(-1, 1), min_size=2,
                                                        max_size=2), min_size=1, max_size=3),
                           "offsets": st.lists(st.floats(-1, 1), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["quadratic", "wedge"])},
                          optional={"weights": st.lists(st.floats(0, 2), min_size=1,
                                                        max_size=2)}),
)
OPTIONAL_KEYS = {
    "threads": st.integers(1, 4),
    "grid": st.fixed_dictionaries(
        {"start": st.one_of(st.sampled_from([0.0, -0.5, 0.25]), st.floats()),
         "end": st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats()),
         "steps": st.integers(1, 16)}),
    "grid_ladder": st.lists(st.sampled_from([2, 3, 4, 8, 16]), min_size=2, max_size=3),
    "particles": st.integers(1, 8),
    "replications": st.integers(1, 2),
    "scheme": st.sampled_from(["projected", "penalized"]),
    "epsilon": st.sampled_from([0.01, 0.1, 1.0, 4.0]),
    "epsilon_ladder": st.lists(st.sampled_from([4.0, 2.0, 1.0, 0.5, 0.1]), max_size=4),
    "constraint": CONSTRAINTS,
    "samples": st.integers(1, 20),
    "control": st.fixed_dictionaries({}, optional={
        "tau": st.one_of(st.floats(-0.5, 1.5), st.floats()), "switches": st.integers(0, 1),
        "clusters": st.integers(1, 2), "inner_replications": st.integers(1, 2)}),
}


@st.composite
def fuzz_configs(draw):
    """A config valid under CONFIG_SCHEMA, mostly carrying only keys its mode reads.

    Sizes stay small: at most 16 steps, 8 particles, 2 replications."""
    mode = draw(st.sampled_from(cli.MODES))
    scheme = draw(OPTIONAL_KEYS["scheme"]) if mode == "simulate" else None
    required, optional = cli._MODE_KEYS[mode, scheme]
    cfg = {"mode": mode, "seed": draw(st.integers(0, 2**32))}
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
