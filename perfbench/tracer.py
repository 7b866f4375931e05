"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each ``oblique_mv`` module and a
few public methods, from outside the package: nothing under ``src/``
knows it is being traced.  Every wrapped call is a span.  Spans are
aggregated in memory per boundary name as a call count, inclusive time
and self time (inclusive time minus the time of the spans it directly
caused).  Post-call hooks count the work a boundary did from its
arguments and results (particle-steps, rows written, ...); the time they
take is charged to the tracer, not to the enclosing span.

Spans assume one thread: the benchmark runs the CLI with ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

# Modules whose public functions are traced.  ``library`` only builds
# systems and is measured through ``setup_s``.
LAYERS = ("mvsolver", "dynamics", "measures", "convexcore", "timedep", "control", "cli")

# Public methods and callables, traced as spans of their module's layer.
METHODS = (
    ("mvsolver", "NoiseSource", "brownian"),
    ("dynamics", "CoefficientField", "drift"),
    ("dynamics", "CoefficientField", "diffusion"),
    ("dynamics", "ObliqueField", "__call__"),
    ("measures", "EmpiricalMeasure", "__init__"),
    ("convexcore", "ConvexConstraint", "distance"),
)

# Boundaries that are only counted: one Philox stream per call, thousands
# of calls per simulation, so a span each would mostly time the tracer.
COUNTED = (("mvsolver", "NoiseSource", "gaussians", "mvsolver.noise_streams"),)

# Spans whose self time makes up each layer's ``self_s``.  For mvsolver it
# is the step loop of a simulation (Skorohod correction, bookkeeping and
# storage) with noise, coefficient, measure and projection calls taken
# out; for cli it is config validation, row assembly and the manifest,
# with CSV writing taken out.
SELF_SPANS = {
    "mvsolver": ("mvsolver.simulate_projected", "mvsolver.simulate_penalized",
                 "mvsolver.euler_iteration"),
    "timedep": "timedep.",      # a prefix: every span of the layer
    "control": "control.",
    "cli": ("cli.main", "cli.run"),
}


class Tracer:
    """Span aggregates and counters, filled while the wrappers are installed."""

    def __init__(self):
        self.spans = {}          # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.hook_s = 0.0
        self._stack = []         # per open span: time covered by its children
        self._patches = []

    # -- installing -------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"oblique_mv.{name}"] for name in LAYERS}
        bound = [m for n, m in sys.modules.items()
                 if m is not None and (n == "oblique_mv" or n.startswith("oblique_mv."))]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._span(name, fn, _HOOKS.get(name))
                for holder in bound:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, key, wrapped)
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{attr}"
            self._patch(cls, attr, self._span(name, cls.__dict__[attr], None))
        for layer, cls_name, attr, counter in COUNTED:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._count(counter, cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def _patch(self, holder, key, wrapped):
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapped)

    def _span(self, name, fn, hook):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stats[0] += 1
                stats[1] += end - start
                stats[2] += end - start - covered[0]
                if stack:
                    stack[-1][0] += end - start
            if hook is not None:
                hook(self, args, result)
                spent = clock() - end
                self.hook_s += spent
                if stack:
                    stack[-1][0] += spent
            return result

        return traced

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- reading ----------------------------------------------------------

    def calls(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive(self, *names):
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, layer):
        spec = SELF_SPANS[layer]
        names = [n for n in self.spans if n.startswith(spec)] if isinstance(spec, str) else spec
        return sum(self.spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_metrics(self):
        """The per-layer metrics that come from spans and counters."""
        c = self.counts
        steps = c["mvsolver.particle_steps"]
        sims = ("mvsolver.simulate_projected", "mvsolver.simulate_penalized",
                "mvsolver.euler_iteration")
        evals = ("dynamics.CoefficientField.drift", "dynamics.CoefficientField.diffusion",
                 "dynamics.ObliqueField.__call__")
        return {
            "mvsolver.simulate_s": (self.inclusive(*sims), "s"),
            "mvsolver.self_s": (self.self_time("mvsolver"), "s"),
            "mvsolver.simulate_calls": (self.calls(*sims), "count"),
            "mvsolver.particle_steps": (steps, "count"),
            "mvsolver.reflected_share": (
                c["mvsolver.reflected_steps"] / steps if steps else 0.0, "ratio"),
            "mvsolver.path_bytes": (c["mvsolver.path_bytes"], "bytes"),
            "mvsolver.noise_s": (self.inclusive("mvsolver.NoiseSource.brownian"), "s"),
            "mvsolver.noise_streams": (c["mvsolver.noise_streams"], "count"),
            "mvsolver.residual_report_s": (self.inclusive("mvsolver.residual_report"), "s"),
            "dynamics.drift_s": (self.inclusive(evals[0]), "s"),
            "dynamics.diffusion_s": (self.inclusive(evals[1]), "s"),
            "dynamics.oblique_s": (self.inclusive(evals[2]), "s"),
            "dynamics.eval_calls": (self.calls(*evals), "count"),
            "dynamics.validate_s": (
                self.inclusive("dynamics.validate_lipschitz", "dynamics.validate_oblique"), "s"),
            "measures.measure_s": (self.inclusive("measures.EmpiricalMeasure.__init__"), "s"),
            "measures.measure_calls": (self.calls("measures.EmpiricalMeasure.__init__"), "count"),
            "measures.w2_s": (
                self.inclusive("measures.wasserstein2", "measures.w2_to_origin"), "s"),
            "convexcore.project_s": (self.inclusive("convexcore.project"), "s"),
            "convexcore.project_calls": (self.calls("convexcore.project"), "count"),
            "convexcore.distance_s": (self.inclusive("convexcore.ConvexConstraint.distance"), "s"),
            "convexcore.properties_s": (
                self.inclusive("convexcore.check_yosida_properties"), "s"),
            "timedep.equivalence_s": (self.inclusive("timedep.equivalence_check"), "s"),
            "timedep.self_s": (self.self_time("timedep"), "s"),
            "control.self_s": (self.self_time("control"), "s"),
            "control.cost_s": (self.inclusive("control.cost"), "s"),
            "control.cost_calls": (self.calls("control.cost"), "count"),
            "control.value_calls": (self.calls("control.value"), "count"),
            "cli.run_s": (self.inclusive("cli.run"), "s"),
            "cli.self_s": (self.self_time("cli"), "s"),
            "cli.write_csv_s": (self.inclusive("cli.write_csv"), "s"),
            "cli.rows_written": (c["cli.rows_written"], "count"),
            "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        }

    def table(self):
        """One line per boundary reached, slowest first, for the run log."""
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        lines = [f"  {'span':<44} {'calls':>8} {'incl_s':>9} {'self_s':>9}"]
        lines += [f"  {n:<44} {s[0]:>8} {s[1]:>9.4f} {s[2]:>9.4f}"
                  for n, s in rows if s[0]]
        lines += [f"  {n:<44} {v:>8}" for n, v in sorted(self.counts.items())]
        lines.append(f"  {'tracer hooks':<44} {'':>8} {self.hook_s:>9.4f}")
        return "\n".join(lines)


# -- post-call hooks: count the work a boundary did -------------------------


def _ensembles(result):
    if isinstance(result, tuple):       # euler_iteration -> (iterates, distances)
        return result[0]
    return [result]


def _simulated(tracer, args, result):
    c = tracer.counts
    for ens in _ensembles(result):
        n, steps = ens.density.shape[:2]
        c["mvsolver.particle_steps"] += n * steps
        c["mvsolver.reflected_steps"] += int(np.count_nonzero(np.any(ens.density != 0, axis=2)))
        c["mvsolver.path_bytes"] += (ens.states.nbytes + ens.reflection.nbytes
                                     + ens.variation.nbytes + ens.density.nbytes)


def _csv_written(tracer, args, result):
    path, _header, rows = args
    tracer.counts["cli.rows_written"] += len(rows)
    tracer.counts["cli.bytes_written"] += os.path.getsize(path)


_HOOKS = {
    "mvsolver.simulate_projected": _simulated,
    "mvsolver.simulate_penalized": _simulated,
    "mvsolver.euler_iteration": _simulated,
    "cli.write_csv": _csv_written,
}
