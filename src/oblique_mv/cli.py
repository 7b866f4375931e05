"""Batch front end: validate a JSON experiment config, dispatch, emit CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 probe failure under --strict.  All outputs are written atomically
(temp file + rename) and depend only on (config, seed); a run that fails
leaves no manifest and none of its own files.  The thread count
(``--threads``, the ``threads`` key, ``OBLIQUE_MV_THREADS``) is accepted
for compatibility and changes nothing: every mode runs its ensembles as
batches of one step loop.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, library
from .control import SimConfig, dpp_residual, penalization_ladder, penalization_rate_probe, value
from .convexcore import check_yosida_properties
from .dynamics import validate_lipschitz, validate_oblique
from .errors import ConfigurationError, DivergenceError, ObliqueMVError
from .measures import second_moment_sup
from .mvsolver import (
    NoiseSource,
    TimeGrid,
    _stream_batches,
    residual_report,
)
from .timedep import equivalence_check

MODES = ("simulate", "converge", "control", "validate", "transform-demo", "properties")

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["mode", "seed"],
    "properties": {
        "mode": {"enum": list(MODES)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "end", "steps"],
            "properties": {
                "start": {"type": "number"},
                "end": {"type": "number"},
                "steps": {"type": "integer", "minimum": 1},
            },
        },
        "grid_ladder": {
            "type": "array", "items": {"type": "integer", "minimum": 2},
            "minItems": 2,
        },
        "particles": {"type": "integer", "minimum": 1},
        "replications": {"type": "integer", "minimum": 1},
        "scheme": {"enum": ["projected", "penalized"]},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "epsilon_ladder": {
            "type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
        },
        "constraint": {"type": "object"},
        "samples": {"type": "integer", "minimum": 1},
        "control": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tau": {"type": "number"},
                "switches": {"type": "integer", "minimum": 0},
                "clusters": {"type": "integer", "minimum": 1},
                "inner_replications": {"type": "integer", "minimum": 1},
            },
        },
    },
}


@functools.cache
def _config_validator():
    """The validator of ``CONFIG_SCHEMA``, checked and built once per process.

    Built on first use, not at import, so importing the module stays cheap;
    ``jsonschema.validate`` would re-check the constant schema on every call.
    """
    cls = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    cls.check_schema(CONFIG_SCHEMA)
    return cls(CONFIG_SCHEMA)


# Rows per formatted block of an array table.
CSV_CHUNK_ROWS = 1024


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _atomic_write(path: Path, chunks):
    """Write the strings ``chunks`` to a temp file, then rename it to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _array_lines(table):
    """CSV text of a 2-D float array, one ``%`` per block of CSV_CHUNK_ROWS rows.

    ``%.17g`` prints a float as ``_fmt`` does, and an integer-valued float up
    to 2**53 as that integer's ``str``, so index columns can be float columns.
    """
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, len(table), CSV_CHUNK_ROWS):
        block = table[start:start + CSV_CHUNK_ROWS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header, rows):
    """Write a CSV atomically; ``rows`` is a list of tuples or a 2-D float array."""
    if isinstance(rows, np.ndarray):
        body = _array_lines(rows)
    else:
        body = (",".join(map(_fmt, row)) + "\n" for row in rows)
    _atomic_write(Path(path), itertools.chain([",".join(header) + "\n"], body))


class _Outputs:
    """One run's output directory and the files written into it, in order."""

    def __init__(self, directory):
        self.dir = directory
        self.written = []

    def write_csv(self, name, header, rows):
        write_csv(self.dir / name, header, rows)
        self.written.append(name)


def _gate(name, value, low=-math.inf, high=math.inf):
    """None if ``low <= value <= high``, else the failure naming gate, value and bounds."""
    if low <= value <= high:
        return None
    return f"{name} {value:.4g} outside [{low:.4g}, {high:.4g}]"


def _failures(*gates):
    return [g for g in gates if g is not None]


def _stability_check(cfg, eps_values, system):
    grid = cfg["grid"]
    h = (grid["end"] - grid["start"]) / grid["steps"]
    bound = min(eps_values) / (2.0 * system.oblique.b_h)
    if h > bound:
        raise ConfigurationError(
            f"grid.steps: step size {h:.3g} violates the penalized stability rule "
            f"h <= eps/(2 b_H) = {bound:.3g}"
        )


# ---------------------------------------------------------------------------
# Mode runners: each writes its CSVs through ``out`` and returns its failed
# probe gates (none means pass)


def _trajectory_table(ensembles, times):
    """One row per (replication, particle, time), in that order:
    replication, particle, t, states, reflection, variation."""
    particles, steps1, m = ensembles[0].states.shape
    table = np.empty((len(ensembles), particles, steps1, 2 * m + 4))
    table[..., 0] = np.arange(len(ensembles))[:, None, None]
    table[..., 1] = np.arange(particles)[:, None]
    table[..., 2] = times
    for r, ens in enumerate(ensembles):
        table[r, ..., 3:3 + m] = ens.states
        table[r, ..., 3 + m:3 + 2 * m] = ens.reflection
        table[r, ..., -1] = ens.variation
    return table.reshape(-1, 2 * m + 4)


def _run_simulate(cfg, seed, out):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    g = cfg["grid"]
    grid = TimeGrid(g["start"], g["end"], g["steps"])
    eps = cfg.get("epsilon")        # given exactly for the penalized scheme
    if eps is not None:
        _stability_check(cfg, [eps], system)
    particles = cfg.get("particles", 256)
    streams = [NoiseSource(seed).for_replication(r) for r in range(cfg.get("replications", 1))]
    ensembles = [ens for _, run in _stream_batches(system, grid, particles, streams, eps=eps)
                 for ens in run]

    m = system.state_dim
    header = (
        ["replication", "particle", "t"]
        + [f"x_{j + 1}" for j in range(m)]
        + [f"k_{j + 1}" for j in range(m)]
        + ["variation"]
    )
    out.write_csv("trajectories.csv", header, _trajectory_table(ensembles, grid.times))

    # every supported geometry contains the origin, so it is a valid probe
    probe = [np.zeros(m)] if system.constraint.has_indicator() else []
    diag_rows = []
    for r, ens in enumerate(ensembles):
        rep = residual_report(ens, system, probes=probe)
        diag_rows.append((r, "equation_residual", rep.equation_residual))
        diag_rows.append((r, "feasibility_gap", rep.feasibility_gap))
        diag_rows.append((r, "inequality_residual", rep.inequality_residual))
        diag_rows.append((r, "second_moment_sup", second_moment_sup(ens)))
    out.write_csv("diagnostics.csv", ["replication", "check", "value"], diag_rows)
    return []


def _run_converge(cfg, seed, out):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    ladder = penalization_ladder(cfg["epsilon_ladder"])
    _stability_check(cfg, ladder, system)
    g = cfg["grid"]
    sim = SimConfig(
        steps=g["steps"], particles=cfg.get("particles", 256),
        replications=cfg.get("replications", 16), seed=seed,
    )
    report = penalization_rate_probe(
        system, None, ladder, sim, noise=NoiseSource(seed).child(3),
        horizon=(g["start"], g["end"]),
    )
    out.write_csv(
        "rate_table.csv",
        ["eps_pair_sum", "distance", "stderr", "sup_distance"],
        list(zip(report.xs, report.ys, report.stderrs,
                 report.extras.get("sup_distances", [float("nan")] * len(report.xs)))),
    )
    out.write_csv(
        "rate_summary.csv",
        ["slope", "r_squared", "sup_slope", "sup_r_squared", "degenerate"],
        [(report.slope, report.r_squared,
          report.extras.get("sup_slope", float("nan")),
          report.extras.get("sup_r_squared", float("nan")), report.degenerate)],
    )
    return _failures(
        "degenerate rate fit" if report.degenerate else None,
        _gate("slope", report.slope, 0.7, 1.3),
        _gate("r_squared", report.r_squared, low=0.9),
    )


def _run_control(cfg, seed, out):
    prob = library.make_control_problem(
        cfg["system"]["name"], **cfg["system"].get("params", {})
    )
    g = cfg["grid"]
    if (g["start"], g["end"]) != tuple(prob.horizon):
        raise ConfigurationError(
            f"grid: [start, end] = [{g['start']}, {g['end']}] does not match the "
            f"problem horizon [{prob.horizon[0]}, {prob.horizon[1]}]"
        )
    ctl = cfg.get("control", {})
    sim = SimConfig(
        steps=g["steps"], particles=cfg.get("particles", 128),
        replications=cfg.get("replications", 16), seed=seed,
        switches=ctl.get("switches", 0), clusters=ctl.get("clusters", 8),
        inner_replications=ctl.get("inner_replications", 8),
    )
    est = value(prob, sim, noise=NoiseSource(seed).child(1))
    rows = [(str(k), v) for k, v in est.per_control.items()]
    rows.append(("minimum", est.value))
    rows.append(("mc_stderr", est.mc_stderr))
    out.write_csv("value.csv", ["control", "cost"], rows)

    s, t_end = prob.horizon
    tau = ctl.get("tau", 0.5 * (s + t_end))
    residual, stderr = dpp_residual(prob, tau, sim, noise=NoiseSource(seed))
    threshold = max(3 * stderr, 5 * (t_end - s) / g["steps"])
    failures = _failures(_gate("dpp_residual", residual, high=threshold))
    out.write_csv(
        "dpp.csv",
        ["tau", "residual", "stderr", "threshold", "passed"],
        [(tau, residual, stderr, threshold, not failures)],
    )
    return failures


def _run_validate(cfg, seed, out):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    pairs = cfg.get("samples", 2000)
    lip = validate_lipschitz(system.coeffs, pairs=pairs, seed=seed)
    obl = validate_oblique(system.oblique, samples=pairs, seed=seed)
    d = obl.details
    checks = [  # (check, failure or None, estimate, declared)
        ("lipschitz", None if lip.passed else
         f"lipschitz {lip.estimate:.4g} above declared {lip.declared:.4g}",
         lip.estimate, lip.declared),
        ("oblique_symmetry",
         _gate("oblique_symmetry", d["symmetry_residual"], high=1e-10),
         d["symmetry_residual"], 1e-10),
        ("oblique_band_low",
         _gate("oblique_band_low", d["rayleigh_min"], low=d["a_h"] - 1e-9),
         d["rayleigh_min"], d["a_h"]),
        ("oblique_band_high",
         _gate("oblique_band_high", d["rayleigh_max"], high=d["b_h"] + 1e-9),
         d["rayleigh_max"], d["b_h"]),
    ]
    out.write_csv("validation.csv", ["check", "passed", "estimate", "declared"],
                  [(name, fail is None, est, declared) for name, fail, est, declared in checks])
    return _failures(*(c[1] for c in checks))


def _run_transform(cfg, seed, out):
    prob = library.make_moving_problem(
        cfg["system"]["name"], **cfg["system"].get("params", {})
    )
    report = equivalence_check(
        prob, cfg["grid_ladder"], cfg.get("particles", 128), NoiseSource(seed).child(6)
    )
    rows = []
    for i, h in enumerate(report.step_sizes):
        for c in report.sup_distances:
            dist = report.sup_distances[c][i] if report.sup_distances[c] else float("nan")
            rows.append((c, h, dist, report.feasibility[c][i]))
    out.write_csv("equivalence.csv",
                  ["correction", "h", "sup_distance", "feasibility_gap"], rows)
    chain = report.sup_distances.get("chain-rule", [])
    return _failures(
        None if report.monotone("chain-rule") else
        "chain-rule sup_distance not decreasing along the grid ladder",
        _gate("chain-rule sup_distance", chain[-1],
              high=10 * np.sqrt(report.step_sizes[-1])) if chain else None,
        _gate("chain-rule feasibility_gap", max(report.feasibility["chain-rule"]),
              high=1e-8),
    )


def _run_properties(cfg, seed, out):
    constraint = library.constraint_from_config(cfg["constraint"])
    ladder = cfg.get("epsilon_ladder", [0.1, 0.01, 0.001])
    samples = cfg.get("samples", 200)
    rng = np.random.default_rng(seed)
    pts = 2.0 * rng.standard_normal((samples, constraint.dim))
    report = check_yosida_properties(constraint, ladder, pts)
    checks = [
        (name, viol, _gate(f"property {name}", viol, high=report.tolerance))
        for name, viol in sorted(report.violations.items())
    ]
    out.write_csv("properties.csv", ["property", "max_violation", "tolerance", "passed"],
                  [(name, viol, report.tolerance, fail is None) for name, viol, fail in checks])
    return _failures(*(fail for _, _, fail in checks))


_RUNNERS = {
    "simulate": _run_simulate,
    "converge": _run_converge,
    "control": _run_control,
    "validate": _run_validate,
    "transform-demo": _run_transform,
    "properties": _run_properties,
}

# (mode, scheme) -> (keys a config must have, further keys it may have); only
# simulate takes a scheme.  Every config may also have the _COMMON_KEYS.
_MODE_KEYS = {
    ("simulate", "projected"): (("system", "grid"), ("scheme", "particles", "replications")),
    ("simulate", "penalized"): (("system", "grid", "epsilon"),
                                ("scheme", "particles", "replications")),
    ("converge", None): (("system", "grid", "epsilon_ladder"), ("particles", "replications")),
    ("control", None): (("system", "grid"), ("particles", "replications", "control")),
    ("validate", None): (("system",), ("samples",)),
    ("transform-demo", None): (("system", "grid_ladder"), ("particles",)),
    ("properties", None): (("constraint",), ("epsilon_ladder", "samples")),
}
_COMMON_KEYS = ("mode", "seed", "output_dir", "threads")


def _check_keys(cfg):
    """Every key the mode (and scheme) needs is in ``cfg``, and no key it does not read."""
    mode = cfg["mode"]
    scheme = cfg.get("scheme", "projected") if mode == "simulate" else None
    required, optional = _MODE_KEYS[mode, scheme]
    where = f"mode {mode!r}" + (f" where scheme is {scheme!r}" if scheme else "")
    for key in required:
        if key not in cfg:
            raise ConfigurationError(f"{where} requires config key {key!r}")
    for key in cfg:
        if key not in required + optional + _COMMON_KEYS:
            raise ConfigurationError(f"config key {key!r} is not used by {where}")


def _execute(runner, cfg, seed, outdir):
    """Run one mode all-or-nothing; returns (failures, files written).

    A previous run's manifest is removed first, so it cannot vouch for files
    this run replaces; if the runner fails, every file it wrote is removed.
    """
    if outdir.exists() and not outdir.is_dir():
        raise ConfigurationError(f"output directory {str(outdir)!r} is not a directory")
    out = _Outputs(outdir)
    (outdir / "manifest.json").unlink(missing_ok=True)
    try:
        return runner(cfg, seed, out), out.written
    except BaseException:
        for name in out.written:
            (outdir / name).unlink(missing_ok=True)
        raise


def run(config_path, seed=None, threads=None, strict=False, out=None):
    """Execute one experiment config; returns the process exit code.

    ``threads`` is accepted for compatibility and ignored.
    """
    try:
        raw = Path(config_path).read_bytes()
        cfg = json.loads(raw)
        # the error jsonschema.validate raises, without re-checking the schema
        error = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
        if error is not None:
            raise error
        _check_keys(cfg)
        seed = cfg["seed"] if seed is None else int(seed)
        if seed < 0:
            raise ConfigurationError(f"--seed must be a nonnegative integer, got {seed}")
        outdir = Path(out or cfg.get("output_dir", "out"))
        failures, outputs = _execute(_RUNNERS[cfg["mode"]], cfg, seed, outdir)
    except jsonschema.ValidationError as err:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        print(f"config error at {path}: {err.message}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, FileNotFoundError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConfigurationError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"numerical divergence: {err}", file=sys.stderr)
        return 3
    except ObliqueMVError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3

    manifest = {
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "mode": cfg["mode"],
        "outputs": outputs,
        "versions": {
            "oblique_mv": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    _atomic_write(outdir / "manifest.json", [json.dumps(manifest, indent=2) + "\n"])
    verdict = "probe failed: " + ", ".join(failures) if failures else "pass"
    print(f"mode {cfg['mode']}: {verdict}; outputs in {outdir}")
    if strict and failures:
        return 4
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="oblique-mv",
        description="Constrained mean-field SDE experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--threads", type=int, default=None,
                      help="accepted for compatibility; has no effect (ensembles "
                           "run as batches of one step loop)")
    runp.add_argument("--strict", action="store_true",
                      help="exit 4 when an acceptance-style probe fails")
    runp.add_argument("--out", default=None, help="output directory override")
    descp = sub.add_parser("describe", help="print a bundled system description")
    descp.add_argument("name", help="system name")
    args = parser.parse_args(argv)

    if args.command == "describe":
        try:
            print(library.describe(args.name))
        except ConfigurationError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return 0
    return run(args.config, seed=args.seed, threads=args.threads,
               strict=args.strict, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
