"""The benchmark workloads: inputs made from a seed, one timed pass, gates.

A pass runs one or more operations; an operation is one library entry
call or one CLI config.  The first pass of a run is checked by the gates
below (untimed).  Every later pass must reproduce the first pass's output
digest exactly, since the inputs and seed are the same.  Why each
workload exists is written in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

# Entry points are called through their modules (``cli.main``,
# ``mvsolver.simulate_projected``) so that the tracer's wrappers are seen.
from oblique_mv import cli, library, mvsolver
from oblique_mv.measures import second_moment_sup
from oblique_mv.mvsolver import NoiseSource, TimeGrid, residual_report


@dataclass
class Gate:
    name: str
    value: object
    limit: str
    ok: bool

    def __str__(self):
        value = f"{self.value:.3g}" if isinstance(self.value, float) else self.value
        return f"{self.name}={value} ({self.limit}) {'ok' if self.ok else 'FAIL'}"


def _le(name, value, limit):
    return Gate(name, float(value), f"<= {limit:g}", bool(value <= limit))


def _sha256_bytes(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    """A named set of operations; subclasses build, run, digest and gate them."""

    name: str
    operations: tuple

    def same_output(self, digest, first):
        """Gate of a repeated pass: same inputs and seed, so identical outputs."""
        return Gate("output_sha256", digest[:16], f"== first pass {first[:16]}",
                    digest == first)

    def particle_steps(self):
        """(steps through mvsolver simulations, steps through other solvers)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Library workload


class BallProjected(Workload):
    """``simulate_projected`` on ``example31`` (ball, diagonal state-dependent H)."""

    name = "ball_projected"
    particles, steps = 4096, 1024
    operations = ("simulate_projected",)

    def build(self, seed, workdir):
        return {
            "system": library.make_system("example31"),
            "grid": TimeGrid(0.0, 1.0, self.steps),
            "noise": NoiseSource(seed),
        }

    def run(self, inputs, passdir):
        ens = mvsolver.simulate_projected(inputs["system"], inputs["grid"], self.particles,
                                          inputs["noise"])
        return {"simulate_projected": ens}

    def digest(self, op, ens):
        return _sha256_bytes(ens.states.tobytes(), ens.reflection.tobytes())

    def gates(self, op, ens):
        rep = residual_report(ens, ens.system, probes=[np.zeros(ens.system.state_dim)])
        return [
            _le("equation_residual", rep.equation_residual, 1e-8),
            _le("feasibility_gap", rep.feasibility_gap, 1e-10),
            _le("inequality_residual", rep.inequality_residual, 1e-8),
            _le("abs(E sup|x|^2 - 1)", abs(second_moment_sup(ens) - 1.0), 0.01),
        ]

    def particle_steps(self):
        return self.particles * self.steps, 0


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class CliResult:
    code: int
    outdir: Path
    stderr: str


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class CliWorkload(Workload):
    """Runs JSON configs through ``oblique_mv.cli.main`` with ``--strict``."""

    # op name -> config without its seed
    configs: dict = {}

    def build(self, seed, workdir):
        paths = {}
        for op, body in self.configs.items():
            cfg = {**body, "seed": int(seed)}
            jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
            path = Path(workdir) / f"{self.name}.{op}.json"
            path.write_text(json.dumps(cfg))
            paths[op] = path
        return paths

    @property
    def operations(self):
        return tuple(self.configs)

    def run(self, inputs, passdir):
        results = {}
        for op, config_path in inputs.items():
            outdir = Path(passdir) / op
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", str(config_path), "--threads", "1",
                                 "--strict", "--out", str(outdir)])
            results[op] = CliResult(code, outdir, err.getvalue())
        return results

    def digest(self, op, result):
        csvs = sorted(result.outdir.glob("*.csv"))
        return _sha256_bytes(*(p.name.encode() + p.read_bytes() for p in csvs))

    def gates(self, op, result):
        gates = self._exit_gates(op, result)
        manifest = result.outdir / "manifest.json"
        if manifest.is_file():
            outputs = json.loads(manifest.read_text())["outputs"]
            missing = [o for o in outputs if not (result.outdir / o).is_file()]
            gates.append(Gate("outputs_present", len(outputs) - len(missing),
                              f"== {len(outputs)}", not missing))
            if not missing:
                gates += self.output_gates(op, result.outdir)
        elif result.code in (0, 4):
            gates.append(Gate("manifest_present", 0, "== 1", False))
        return gates

    def _exit_gates(self, op, result):
        ok = result.code == 0
        limit = "== 0" if ok else f"== 0; stderr: {result.stderr.strip()[-200:]}"
        return [Gate("exit_code", result.code, limit, ok)]

    def output_gates(self, op, outdir):
        return []


KNOWN_DEFECT_MAX = 1e-5
TRIANGLE = {"kind": "intersection", "normals": [[1, 0], [0, 1], [-1, -1]],
            "offsets": [-1, -1, -1]}


class CliModes(CliWorkload):
    """All six CLI modes back to back: paths written and read back, ladders, control, checks."""

    name = "cli_modes"
    sim_particles, sim_steps, sim_reps = 256, 512, 1
    conv_particles, conv_steps, conv_reps = 256, 2048, 4
    eps_ladder = [2.0**-k for k in range(3, 9)]
    ctl_particles, ctl_steps, ctl_reps = 128, 1024, 4
    clusters, inner, controls, switches = 4, 4, 2, 0
    grid_ladder, moving_particles = [256, 512, 1024], 128
    configs = {
        "simulate": {
            "mode": "simulate", "system": {"name": "example31"},
            "grid": {"start": 0.0, "end": 0.5, "steps": sim_steps},
            "particles": sim_particles, "replications": sim_reps,
        },
        "converge": {
            "mode": "converge", "system": {"name": "ou"},
            "grid": {"start": 0.0, "end": 1.0, "steps": conv_steps},
            "particles": conv_particles, "replications": conv_reps,
            "epsilon_ladder": eps_ladder,
        },
        "control": {
            "mode": "control", "system": {"name": "two_control"},
            "grid": {"start": 0.0, "end": 1.0, "steps": ctl_steps},
            "particles": ctl_particles, "replications": ctl_reps,
            "control": {"clusters": clusters, "inner_replications": inner,
                        "switches": switches},
        },
        "transform-demo": {
            "mode": "transform-demo", "system": {"name": "moving_interval"},
            "grid_ladder": grid_ladder, "particles": moving_particles,
        },
        "validate": {"mode": "validate", "system": {"name": "example31"}, "samples": 2000},
        "properties": {"mode": "properties", "constraint": TRIANGLE, "samples": 200},
    }

    def _exit_gates(self, op, result):
        if op != "properties" or result.code != 4:
            return super()._exit_gates(op, result)
        # Known defect: on this triangle the Euclidean Dykstra projection
        # stops on step size, not on accuracy, so properties (b) and (c)
        # miss the 1e-8 tolerance by small amounts (about 2e-7 for (b)).
        # Exit 4 with only those two failing, each under KNOWN_DEFECT_MAX,
        # is that defect and is reported as such; any other failure is not.
        report = result.outdir / "properties.csv"
        rows = _csv_rows(report) if report.is_file() else []
        failing = {r["property"]: float(r["max_violation"])
                   for r in rows if r["passed"] != "true"}
        ok = bool(failing) and set(failing) <= {"b", "c"} \
            and max(failing.values()) <= KNOWN_DEFECT_MAX
        gates = [Gate("exit_code", 4, "== 0, or 4 from the known Dykstra-accuracy defect", ok)]
        gates += [Gate(f"known_defect_property_{p}", v,
                       f"tolerance {float(rows[0]['tolerance']):g}, "
                       f"accepted up to {KNOWN_DEFECT_MAX:g}", ok)
                  for p, v in sorted(failing.items())]
        return gates

    def output_gates(self, op, outdir):
        if op == "simulate":
            with open(outdir / "trajectories.csv", "rb") as fh:
                rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
            expected = self.sim_reps * self.sim_particles * (self.sim_steps + 1)
            gates = [Gate("trajectory_rows", rows, f"== {expected}", rows == expected)]
            limits = {"equation_residual": 1e-8, "feasibility_gap": 1e-10,
                      "inequality_residual": 1e-8}
            for row in _csv_rows(outdir / "diagnostics.csv"):
                if row["check"] in limits:
                    gates.append(_le(f"rep{row['replication']}.{row['check']}",
                                     float(row["value"]), limits[row["check"]]))
            return gates
        if op == "converge":
            row = _csv_rows(outdir / "rate_summary.csv")[0]
            slope, r2 = float(row["slope"]), float(row["r_squared"])
            return [Gate("slope", slope, "in [0.7, 1.3]", 0.7 <= slope <= 1.3),
                    Gate("r_squared", r2, ">= 0.9", r2 >= 0.9)]
        if op == "control":
            row = _csv_rows(outdir / "dpp.csv")[0]
            return [_le("dpp_residual", float(row["residual"]), float(row["threshold"]))]
        if op == "validate":
            rows = _csv_rows(outdir / "validation.csv")
            passed = sum(r["passed"] == "true" for r in rows)
            return [Gate("validation_checks_passed", passed, f"== {len(rows)}",
                         passed == len(rows))]
        return []

    def particle_steps(self):
        sim = self.sim_reps * self.sim_particles * self.sim_steps
        converge = self.conv_reps * len(self.eps_ladder) * self.conv_particles * self.conv_steps
        # control: value() runs every control of the family on every
        # replication; the DPP residual runs the 2-leg family over the whole
        # horizon, one head leg per first control up to tau (the midpoint),
        # then per first control and cluster a nested value over the rest.
        N, S, R, U = self.ctl_particles, self.ctl_steps, self.ctl_reps, self.controls
        tau = round(S / 2)
        family = U ** (self.switches + 1)
        control = (R * family * S + R * U * U * S + U * R * tau
                   + U * self.clusters * self.inner * family * (S - tau)) * N
        # transform-demo solves both reduced systems (chain-rule and
        # as-printed) through mvsolver and the direct moving-interval
        # reference through timedep, on every level of the grid ladder.
        levels = sum(self.grid_ladder) * self.moving_particles
        return sim + converge + control + 2 * levels, levels


WORKLOADS = {w.name: w for w in (BallProjected(), CliModes())}
