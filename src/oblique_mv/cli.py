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
import hashlib
import inspect
import itertools
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, library
from .control import (SimConfig, _value_and_dpp, control_family, penalization_ladder,
                      penalization_rate_probe)
from .convexcore import check_yosida_properties
from .dynamics import SYMMETRY_TOL, validate_lipschitz, validate_oblique
from .errors import ConfigurationError, DivergenceError, ObliqueMVError
from .library import _checked
from .measures import second_moment_sup
from .mvsolver import (
    NoiseSource,
    TimeGrid,
    _stream_batches,
    residual_report,
)
from .timedep import equivalence_check

MODES = ("simulate", "converge", "control", "validate", "transform-demo", "properties")

# A draft-07 JSON Schema, one entry per key; ``library._checked`` walks it, and
# the tests check the walk against jsonschema.
CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object", "additionalProperties": False, "required": ["mode", "seed"],
    "properties": {
        "mode": {"enum": list(MODES)},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "system": {"type": "object", "additionalProperties": False, "required": ["name"],
                   "properties": {"name": {"type": "string"}, "params": {"type": "object"}}},
        "grid": {"type": "object", "additionalProperties": False,
                 "required": ["start", "end", "steps"],
                 "properties": {"start": {"type": "number"}, "end": {"type": "number"},
                                "steps": {"type": "integer", "minimum": 1}}},
        "grid_ladder": {"type": "array", "items": {"type": "integer", "minimum": 2},
                        "minItems": 2},
        "particles": {"type": "integer", "minimum": 1},
        "replications": {"type": "integer", "minimum": 1},
        "scheme": {"enum": ["projected", "penalized"]},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "epsilon_ladder": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "constraint": {"type": "object"},
        "samples": {"type": "integer", "minimum": 1},
        "control": {"type": "object", "additionalProperties": False,
                    "properties": {"tau": {"type": "number"},
                                   "switches": {"type": "integer", "minimum": 0},
                                   "clusters": {"type": "integer", "minimum": 1},
                                   "inner_replications": {"type": "integer", "minimum": 1}}},
    },
}

# Rows per formatted block of trajectories.csv, in whole particles (one if it has more).
CSV_CHUNK_ROWS = 4096


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v)


def _atomic_write(path: Path, chunks):
    """Write ``chunks`` to a temp file (mode 0666 less the umask), then rename it to ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp{os.getpid()}-{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)       # each chunk is freed before the next is made
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Blocks:
    """A sized iterable of blocks of CSV text; ``len()`` is their row count."""

    def __init__(self, rows, blocks):
        self.rows, self.blocks = rows, blocks

    def __len__(self):
        return self.rows

    def __iter__(self):
        return iter(self.blocks)


def write_csv(path, header, rows):
    """Write a CSV atomically; ``rows`` is a list of tuples or ``_Blocks``."""
    if not isinstance(rows, _Blocks):
        rows = (",".join(map(_fmt, row)) + "\n" for row in rows)
    _atomic_write(Path(path), itertools.chain([",".join(header) + "\n"], rows))


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


# ---------------------------------------------------------------------------
# Mode runners, ``_run_<mode>(out, seed, *, <config keys, optional ones with defaults>)``:
# each writes its CSVs through ``out`` and returns its failed probe gates (none means pass)


def _trajectory_text(r, ens, times):
    """Replication ``r``'s rows, one per (particle, time) in that order, as CSV
    text in blocks of whole particles, CSV_CHUNK_ROWS rows or fewer unless one
    particle has more: replication, particle, t, states, reflection, variation.
    A block is one ``%`` of ``m + 3`` cells a row: ``replication,particle`` and
    ``t`` formatted once, the tail ``k_1..k_m,variation`` once per run of rows
    of equal bits (``-0.0`` and ``0.0`` apart), each ``x_j`` as ``%.17g``."""
    particles, steps1, m = ens.states.shape
    per = max(1, CSV_CHUNK_ROWS // steps1)
    line = "%s,%s," + "%.17g," * m + "%s\n"
    tail_format = ",".join(["%.17g"] * (m + 1))
    t_text = np.array(["%.17g" % t for t in np.asarray(times, dtype=float).tolist()], object)
    reflection, variation = ens.reflection, ens.variation
    for start in range(0, particles, per):
        stop = min(start + per, particles)
        n = (stop - start) * steps1
        tail = np.concatenate([reflection[start:stop], variation[start:stop, :, None]], axis=2)
        bits = tail.reshape(n, m + 1).view(np.uint64)
        heads = np.flatnonzero(np.r_[True, np.any(bits[1:] != bits[:-1], axis=1)])
        cells = np.empty((n, m + 3), dtype=object)
        cells[:, 0] = np.repeat(np.array([f"{r},{i}" for i in range(start, stop)], object), steps1)
        cells[:, 1] = np.tile(t_text, stop - start)
        cells[:, 2:-1] = ens.states[start:stop].reshape(n, m)
        cells[:, -1] = np.repeat(np.array([tail_format % tuple(v) for v in
                                           bits[heads].view(np.float64).tolist()], object),
                                 np.diff(np.r_[heads, n]))
        cells = tuple(cells.ravel().tolist())      # the object array is freed before the ``%``
        yield line * n % cells


def _run_simulate(out, seed, *, system, grid, scheme="projected", epsilon=None,
                  particles=256, replications=1):
    system = library.make_system(system["name"], **system.get("params", {}))
    grid = TimeGrid(grid["start"], grid["end"], grid["steps"])
    eps = epsilon if scheme == "penalized" else None
    streams = [NoiseSource(seed).for_replication(r) for r in range(replications)]
    m = system.state_dim
    diag_rows = []

    def blocks():
        # the writer pulls the batches: one batch of ensembles is alive at a time
        for chunk, run in _stream_batches(system, grid, particles, streams, eps=eps):
            for r, ens in enumerate(run, chunk.start):
                yield from _trajectory_text(r, ens, grid.times)
                # every constraint vanishes at the origin, so it is a valid probe
                rep = residual_report(ens, system, probes=[np.zeros(m)])
                diag_rows.extend([(r, "equation_residual", rep.equation_residual),
                                  (r, "feasibility_gap", rep.feasibility_gap),
                                  (r, "inequality_residual", rep.inequality_residual),
                                  (r, "second_moment_sup", second_moment_sup(ens))])
            del run, ens                # before the next batch is drawn

    header = (
        ["replication", "particle", "t"]
        + [f"x_{j + 1}" for j in range(m)]
        + [f"k_{j + 1}" for j in range(m)]
        + ["variation"]
    )
    out.write_csv("trajectories.csv", header,
                  _Blocks(len(streams) * particles * (grid.steps + 1), blocks()))
    out.write_csv("diagnostics.csv", ["replication", "check", "value"], diag_rows)
    return []


def _run_converge(out, seed, *, system, grid, epsilon_ladder, particles=256, replications=16):
    system = library.make_system(system["name"], **system.get("params", {}))
    ladder = penalization_ladder(epsilon_ladder)
    sim = SimConfig(steps=grid["steps"], particles=particles, replications=replications, seed=seed)
    report = penalization_rate_probe(system, None, ladder, sim,
                                     horizon=(grid["start"], grid["end"]))
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


def _run_control(out, seed, *, system, grid, particles=128, replications=16, control=None):
    prob = library.make_control_problem(system["name"], **system.get("params", {}))
    if (grid["start"], grid["end"]) != tuple(prob.horizon):
        raise ConfigurationError(
            f"grid: [start, end] = [{grid['start']}, {grid['end']}] does not match the "
            f"problem horizon [{prob.horizon[0]}, {prob.horizon[1]}]"
        )
    ctl = control or {}
    sim = SimConfig(steps=grid["steps"], particles=particles, replications=replications,
                    seed=seed, switches=ctl.get("switches", 0), clusters=ctl.get("clusters", 8),
                    inner_replications=ctl.get("inner_replications", 8))
    s, t_end = prob.horizon
    tau = ctl.get("tau", 0.5 * (s + t_end))
    est, residual, stderr = _value_and_dpp(prob, tau, sim,
                                           family=control_family(prob, sim.switches))
    rows = [(str(k), v) for k, v in est.per_control.items()]
    rows.append(("minimum", est.value))
    rows.append(("mc_stderr", est.mc_stderr))
    out.write_csv("value.csv", ["control", "cost"], rows)

    threshold = max(3 * stderr, 5 * (t_end - s) / grid["steps"])
    failures = _failures(_gate("dpp_residual", residual, high=threshold))
    out.write_csv(
        "dpp.csv",
        ["tau", "residual", "stderr", "threshold", "passed"],
        [(tau, residual, stderr, threshold, not failures)],
    )
    return failures


def _run_validate(out, seed, *, system, samples=2000):
    system = library.make_system(system["name"], **system.get("params", {}))
    lip = validate_lipschitz(system.coeffs, pairs=samples, seed=seed)
    obl = validate_oblique(system.oblique, samples=samples, seed=seed)
    d, ok = obl.details, obl.details["checks"]
    rows = [  # (check, the validator's verdict, estimate, declared)
        ("lipschitz", lip.passed, lip.estimate, lip.declared),
        ("oblique_symmetry", ok["oblique_symmetry"], d["symmetry_residual"], SYMMETRY_TOL),
        ("oblique_band_low", ok["oblique_band_low"], d["rayleigh_min"], d["a_h"]),
        ("oblique_band_high", ok["oblique_band_high"], d["rayleigh_max"], d["b_h"]),
        ("oblique_lipschitz", ok["oblique_lipschitz"], obl.estimate,
         math.nan if obl.declared is None else obl.declared),
    ]
    out.write_csv("validation.csv", ["check", "passed", "estimate", "declared"], rows)
    return [f"{name} {est:.4g} {'below' if name == 'oblique_band_low' else 'above'} declared "
            f"{declared:.4g}" for name, passed, est, declared in rows if not passed]


def _run_transform(out, seed, *, system, grid_ladder, particles=128):
    prob = library.make_moving_problem(system["name"], **system.get("params", {}))
    report = equivalence_check(prob, grid_ladder, particles, NoiseSource(seed).child(6))
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


def _run_properties(out, seed, *, constraint, epsilon_ladder=(0.1, 0.01, 0.001), samples=200):
    constraint = library.constraint_from_config(constraint)
    rng = np.random.default_rng(seed)
    pts = 2.0 * rng.standard_normal((samples, constraint.dim))
    report = check_yosida_properties(constraint, epsilon_ladder, pts)
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

# Keys every config may have; the runner reads all the others.
_COMMON_KEYS = ("mode", "seed", "output_dir", "threads")


def _check_config(cfg):
    """``_checked(cfg, CONFIG_SCHEMA)``, if its keys are its mode's runner's keyword-only
    parameters (those without a default at least) or common; ``epsilon`` is the
    penalized scheme's."""
    cfg = _checked(cfg, CONFIG_SCHEMA)
    mode = cfg["mode"]
    keys = inspect.signature(_RUNNERS[mode]).parameters.values()
    required = [p.name for p in keys if p.kind is p.KEYWORD_ONLY and p.default is p.empty]
    accepted = [p.name for p in keys if p.kind is p.KEYWORD_ONLY] + list(_COMMON_KEYS)
    where = f"mode {mode!r}"
    if mode == "simulate":
        scheme = cfg.get("scheme", "projected")
        where += f" where scheme is {scheme!r}"
        if scheme == "penalized":
            required.append("epsilon")
        else:
            accepted.remove("epsilon")
    for key in required:
        if key not in cfg:
            raise ConfigurationError(f"{where} requires config key {key!r}")
    for key in cfg:
        if key not in accepted:
            raise ConfigurationError(f"config key {key!r} is not used by {where}")
    return cfg


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
        keys = {k: v for k, v in cfg.items() if k not in _COMMON_KEYS}
        return runner(out, seed, **keys), out.written
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
        cfg = _check_config(json.loads(raw))
        seed = cfg["seed"] if seed is None else int(seed)
        if seed < 0:
            raise ConfigurationError(f"--seed must be a nonnegative integer, got {seed}")
        outdir = Path(out or cfg.get("output_dir", "out"))
        failures, outputs = _execute(_RUNNERS[cfg["mode"]], cfg, seed, outdir)
    except (json.JSONDecodeError, FileNotFoundError, ConfigurationError) as err:
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
    descp = sub.add_parser("describe", help="print a bundled system's or problem's "
                                            "description (its builder's docstring)")
    descp.add_argument("name", help="system or problem name")
    args = parser.parse_args(argv)

    if args.command == "describe":
        try:
            print(f"{args.name}: {library.describe(args.name)}")
        except ConfigurationError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        return 0
    return run(args.config, seed=args.seed, threads=args.threads,
               strict=args.strict, out=args.out)


if __name__ == "__main__":
    sys.exit(main())
