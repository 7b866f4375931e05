"""Batch front end: validate a JSON experiment config, dispatch, emit CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 probe failure under --strict.  All outputs are written atomically
(temp file + rename) and depend only on (config, seed).  The thread count
(``--threads``, the ``threads`` key, ``OBLIQUE_MV_THREADS``) is accepted
for compatibility and changes nothing: every mode runs its ensembles as
batches of one step loop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, library
from .control import SimConfig, dpp_residual, penalization_rate_probe, value
from .convexcore import check_yosida_properties
from .dynamics import validate_lipschitz, validate_oblique
from .errors import ConfigurationError, DivergenceError, ObliqueMVError
from .measures import second_moment_sup
from .mvsolver import (
    NoiseSource,
    TimeGrid,
    _replication_increments,
    _simulate,
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
                "dyadic_level": {"type": ["integer", "null"]},
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


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _require(cfg, *keys):
    for key in keys:
        if key not in cfg:
            raise ConfigurationError(f"mode {cfg['mode']!r} requires config key {key!r}")


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
# Mode runners (each returns (passed, outputs))


def _run_simulate(cfg, seed, outdir):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    g = cfg["grid"]
    grid = TimeGrid(g["start"], g["end"], g["steps"], g.get("dyadic_level"))
    scheme = cfg.get("scheme", "projected")
    eps = cfg.get("epsilon")
    if scheme == "penalized":
        if eps is None:
            raise ConfigurationError("epsilon: required for the penalized scheme")
        _stability_check(cfg, [eps], system)
    particles = cfg.get("particles", 256)
    reps = cfg.get("replications", 1)
    noise = NoiseSource(seed)
    increments = _replication_increments(noise, range(reps), particles, grid.steps,
                                         system.noise_dim, grid.h)
    ensembles = _simulate(system, grid, particles, noise, scheme=scheme,
                          eps=eps if scheme == "penalized" else None,
                          increments=increments, groups=reps)
    if reps == 1:
        ensembles = [ensembles]

    rows = []
    m = system.state_dim
    times = grid.times
    for r, ens in enumerate(ensembles):
        for i in range(particles):
            for k, t in enumerate(times):
                rows.append(
                    (r, i, t, *ens.states[i, k], *ens.reflection[i, k],
                     ens.variation[i, k])
                )
    header = (
        ["replication", "particle", "t"]
        + [f"x_{j + 1}" for j in range(m)]
        + [f"k_{j + 1}" for j in range(m)]
        + ["variation"]
    )
    write_csv(outdir / "trajectories.csv", header, rows)

    # every supported geometry contains the origin, so it is a valid probe
    probe = [np.zeros(m)] if system.constraint.has_indicator() else []
    diag_rows = []
    for r, ens in enumerate(ensembles):
        rep = residual_report(ens, system, probes=probe)
        diag_rows.append((r, "equation_residual", rep.equation_residual))
        diag_rows.append((r, "feasibility_gap", rep.feasibility_gap))
        diag_rows.append((r, "inequality_residual", rep.inequality_residual))
        diag_rows.append((r, "second_moment_sup", second_moment_sup(ens)))
    write_csv(outdir / "diagnostics.csv", ["replication", "check", "value"], diag_rows)
    return True, ["trajectories.csv", "diagnostics.csv"]


def _run_converge(cfg, seed, outdir):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    ladder = cfg.get("epsilon_ladder", [])
    if len(ladder) < 3:
        raise ConfigurationError(
            f"epsilon_ladder: needs at least 3 levels, got {len(ladder)}"
        )
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
    write_csv(
        outdir / "rate_table.csv",
        ["eps_pair_sum", "distance", "stderr", "sup_distance"],
        list(zip(report.xs, report.ys, report.stderrs,
                 report.extras.get("sup_distances", [float("nan")] * len(report.xs)))),
    )
    write_csv(
        outdir / "rate_summary.csv",
        ["slope", "r_squared", "sup_slope", "sup_r_squared", "degenerate"],
        [(report.slope, report.r_squared,
          report.extras.get("sup_slope", float("nan")),
          report.extras.get("sup_r_squared", float("nan")), report.degenerate)],
    )
    passed = (not report.degenerate) and 0.7 <= report.slope <= 1.3 \
        and report.r_squared >= 0.9
    return passed, ["rate_table.csv", "rate_summary.csv"]


def _run_control(cfg, seed, outdir):
    prob = library.make_control_problem(
        cfg["system"]["name"], **cfg["system"].get("params", {})
    )
    g = cfg["grid"]
    ctl = cfg.get("control", {})
    sim = SimConfig(
        steps=g["steps"], particles=cfg.get("particles", 128),
        replications=cfg.get("replications", 16), seed=seed,
        switches=ctl.get("switches", 0), clusters=ctl.get("clusters", 8),
        inner_replications=ctl.get("inner_replications", 8),
    )
    est = value(prob, ("projected",), sim, noise=NoiseSource(seed).child(1))
    rows = [(str(k), v) for k, v in est.per_control.items()]
    rows.append(("minimum", est.value))
    rows.append(("mc_stderr", est.mc_stderr))
    write_csv(outdir / "value.csv", ["control", "cost"], rows)

    s, t_end = prob.horizon
    tau = ctl.get("tau", 0.5 * (s + t_end))
    residual, stderr = dpp_residual(prob, tau, sim, noise=NoiseSource(seed))
    threshold = max(3 * stderr, 5 * (t_end - s) / g["steps"])
    passed = residual <= threshold
    write_csv(
        outdir / "dpp.csv",
        ["tau", "residual", "stderr", "threshold", "passed"],
        [(tau, residual, stderr, threshold, passed)],
    )
    return passed, ["value.csv", "dpp.csv"]


def _run_validate(cfg, seed, outdir):
    system = library.make_system(cfg["system"]["name"], **cfg["system"].get("params", {}))
    pairs = cfg.get("samples", 2000)
    lip = validate_lipschitz(system.coeffs, pairs=pairs, seed=seed)
    obl = validate_oblique(system.oblique, samples=pairs, seed=seed)
    rows = [
        ("lipschitz", lip.passed, lip.estimate, lip.declared),
        ("oblique_symmetry", obl.details["symmetry_residual"] <= 1e-10,
         obl.details["symmetry_residual"], 1e-10),
        ("oblique_band_low", obl.details["rayleigh_min"] >= obl.details["a_h"] - 1e-9,
         obl.details["rayleigh_min"], obl.details["a_h"]),
        ("oblique_band_high", obl.details["rayleigh_max"] <= obl.details["b_h"] + 1e-9,
         obl.details["rayleigh_max"], obl.details["b_h"]),
    ]
    write_csv(outdir / "validation.csv",
              ["check", "passed", "estimate", "declared"], rows)
    return all(r[1] for r in rows), ["validation.csv"]


def _run_transform(cfg, seed, outdir):
    prob = library.make_moving_problem(
        cfg["system"]["name"], **cfg["system"].get("params", {})
    )
    ladder = cfg.get("grid_ladder")
    if not ladder:
        raise ConfigurationError("grid_ladder: required for transform-demo mode")
    report = equivalence_check(
        prob, ladder, cfg.get("particles", 128), NoiseSource(seed).child(6)
    )
    rows = []
    for i, h in enumerate(report.step_sizes):
        for c in report.sup_distances:
            dist = report.sup_distances[c][i] if report.sup_distances[c] else float("nan")
            rows.append((c, h, dist, report.feasibility[c][i]))
    write_csv(outdir / "equivalence.csv",
              ["correction", "h", "sup_distance", "feasibility_gap"], rows)
    chain = report.sup_distances.get("chain-rule", [])
    passed = report.monotone("chain-rule") and (
        not chain or chain[-1] <= 10 * np.sqrt(report.step_sizes[-1])
    ) and max(report.feasibility["chain-rule"]) <= 1e-8
    return passed, ["equivalence.csv"]


def _run_properties(cfg, seed, outdir):
    if "constraint" not in cfg:
        raise ConfigurationError("constraint: required for properties mode")
    constraint = library.constraint_from_config(cfg["constraint"])
    ladder = cfg.get("epsilon_ladder", [0.1, 0.01, 0.001])
    samples = cfg.get("samples", 200)
    rng = np.random.default_rng(seed)
    pts = 2.0 * rng.standard_normal((samples, constraint.dim))
    report = check_yosida_properties(constraint, ladder, pts)
    rows = [
        (name, viol, report.tolerance, viol <= report.tolerance)
        for name, viol in sorted(report.violations.items())
    ]
    write_csv(outdir / "properties.csv",
              ["property", "max_violation", "tolerance", "passed"], rows)
    return report.passed, ["properties.csv"]


_RUNNERS = {
    "simulate": _run_simulate,
    "converge": _run_converge,
    "control": _run_control,
    "validate": _run_validate,
    "transform-demo": _run_transform,
    "properties": _run_properties,
}

_MODE_KEYS = {
    "simulate": ("system", "grid"),
    "converge": ("system", "grid", "epsilon_ladder"),
    "control": ("system", "grid"),
    "validate": ("system",),
    "transform-demo": ("system", "grid_ladder"),
    "properties": ("constraint",),
}


def run(config_path, seed=None, threads=None, strict=False, out=None):
    """Execute one experiment config; returns the process exit code.

    ``threads`` is accepted for compatibility and ignored.
    """
    try:
        raw = Path(config_path).read_bytes()
        cfg = json.loads(raw)
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        _require(cfg, *_MODE_KEYS[cfg["mode"]])
        seed = cfg["seed"] if seed is None else int(seed)
        outdir = Path(out or cfg.get("output_dir", "out"))
        passed, outputs = _RUNNERS[cfg["mode"]](cfg, seed, outdir)
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
    _atomic_write(outdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"mode {cfg['mode']}: {'pass' if passed else 'probe failed'}; "
          f"outputs in {outdir}")
    if strict and not passed:
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
