import json

import pytest

from oblique_mv import cli
from oblique_mv.cli import main, run


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


class TestDescribe:
    def test_known_system(self, capsys):
        assert main(["describe", "example31"]) == 0
        out = capsys.readouterr().out
        assert "example31" in out and "a_H=3" in out

    def test_unknown_system(self, capsys):
        assert main(["describe", "mystery"]) == 2
        err = capsys.readouterr().err
        assert "available" in err
