"""Particle schemes for mean-field SDEs with obliquely reflected constraints.

Two discretizations of the same constrained dynamics are provided:

* ``simulate_penalized``: explicit Euler-Maruyama on the smoothed equation,
  where the set-valued term is replaced by ``H * grad`` of the Moreau
  envelope at smoothing level ``eps``.
* ``simulate_projected``: a free Euler increment followed by a one-step
  discrete Skorohod correction ``x + H dk = y`` with ``dk`` in the exterior
  normal cone at ``x`` and ``H`` frozen at the step's left endpoint.

``euler_iteration`` repeats the projected scheme with coefficients frozen at
the previous iterate's states, sampled on a dyadic lattice.

All of them run through one step loop, ``_simulate``, whose level ``eps``
names the scheme (``None``: projected, positive: penalized).  It asks an
``inputs(k, X, u)`` callable for each step's coefficients and the set the
step ends in: by default the coefficients at the current states and the
fixed constraint, the frozen ones in ``euler_iteration``, and a moving
interval in :func:`oblique_mv.timedep.simulate_moving_interval`.  The
one-step Skorohod correction is the ``oblique_step`` of the set's geometry
(:mod:`oblique_mv.convexcore`).  The loop records the states and each
step's reflection increment ``dk``; ``PathEnsemble`` derives the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import convexcore
from .convexcore import ConvexConstraint, interior_constants
from .dynamics import CoefficientField, ObliqueField
from .errors import ConfigurationError, DivergenceError, StepError
from .measures import EmpiricalMeasure, sq_norms

BLOWUP_GUARD = 1e8
BATCH_NOISE_BYTES = 32 * 2**20      # increments one batch of replications holds
NOISE_BLOCK = 64                    # streams drawn particle-major before one transposed copy


# ---------------------------------------------------------------------------
# Time grid and noise


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end]."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not self.end > self.start:
            raise ConfigurationError("time grid needs start < end")
        if self.steps < 1:
            raise ConfigurationError("time grid needs at least one step")

    @property
    def h(self):
        return (self.end - self.start) / self.steps

    @property
    def times(self):
        return self.start + self.h * np.arange(self.steps + 1)

    def dyadic_snap(self, t, level):
        """Largest lattice point 2^-level * k not exceeding t."""
        scale = 2.0**level
        return math.floor(t * scale + 1e-12) / scale

    def snap_index(self, t, level):
        """Index of the last grid node at or before the dyadic snap of t."""
        s = self.dyadic_snap(t, level)
        idx = int(math.floor((s - self.start) / self.h + 1e-9))
        return min(max(idx, 0), self.steps)


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based Gaussian streams keyed by (seed, stream path, particle).

    Draws are reproducible regardless of evaluation order or thread
    schedule: every (replication, particle) pair owns an independent Philox
    stream derived from the master seed.
    """

    seed: int
    path: tuple = ()

    def for_replication(self, r):
        return NoiseSource(self.seed, self.path + (int(r),))

    def child(self, *tags):
        return NoiseSource(self.seed, self.path + tuple(int(t) for t in tags))

    def gaussians(self, particle, steps, dim):
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self.path + (int(particle),)
        )
        gen = np.random.Generator(np.random.Philox(ss))
        return gen.standard_normal((steps, dim))

    def brownian(self, particles, steps, dim, h, out=None):
        """Brownian increments, sqrt(h)-scaled, for a whole ensemble.

        Filled into a time-major ``(steps, N, d)`` buffer, ``out`` if given;
        the result is its ``(N, steps, d)`` view, so one step's increments
        are a contiguous row.  Streams are drawn ``NOISE_BLOCK`` at a time
        into a particle-major block, which is scaled into the buffer in one
        transposed copy instead of one strided write per stream.
        """
        if out is None:
            out = np.empty((steps, particles, dim))
        for start in range(0, particles, NOISE_BLOCK):
            block = np.stack([self.gaussians(i, steps, dim)
                              for i in range(start, min(start + NOISE_BLOCK, particles))])
            np.multiply(block.transpose(1, 0, 2), math.sqrt(h),
                        out=out[:, start:start + len(block)])
        return out.transpose(1, 0, 2)


def _stream_increments(sources, particles, steps, dim, h):
    """Increments of the streams ``sources`` as one ``(S, N, steps, d)`` array.

    A view of a time-major ``(S, steps, N, d)`` buffer that each source's
    draws fill in place: a step's rows of all the streams form one
    ``(S, N, d)`` slab.
    """
    out = np.empty((len(sources), steps, particles, dim))
    for slab, source in zip(out, sources):
        source.brownian(particles, steps, dim, h, out=slab)
    return out.transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# Paths and systems


def _running_sum(rows):
    """Sums of ``rows`` in step order from a zero row, so ``0.0 + -0.0`` is ``+0.0``."""
    out = np.zeros((len(rows) + 1,) + rows.shape[1:])
    for k, row in enumerate(rows):
        np.add(out[k], row, out=out[k + 1])
    return out


@dataclass
class PathEnsemble:
    """Ensemble arrays for one replication of the particle system.

    The step loop records the states and each step's reflection increment
    ``dk`` in time-major buffers, one contiguous row per step; the path
    arrays here, stored or worked out from ``dk`` on each access, are
    particle-major views of time-major arrays (so ``reshape`` copies them).
    """

    grid: TimeGrid
    states: np.ndarray        # (N, steps+1, m)
    dk: np.ndarray            # (N, steps, m), reflection increment of each step
    increments: np.ndarray    # (N, steps, d)
    system: "System"
    eps: float | None = None
    control: np.ndarray | None = None

    @property
    def particles(self):
        return self.states.shape[0]

    @property
    def scheme(self):
        return "projected" if self.eps is None else "penalized"

    @property
    def reflection(self):         # (N, steps+1, m), cumulative k
        return _running_sum(self.dk.transpose(1, 0, 2)).transpose(1, 0, 2)

    @property
    def variation(self):          # (N, steps+1), cumulative total variation
        return _running_sum(np.sqrt(sq_norms(self.dk.transpose(1, 0, 2)))).T

    @property
    def density(self):            # (N, steps, m), dk / h
        return (self.dk.transpose(1, 0, 2) / self.grid.h).transpose(1, 0, 2)

    def feasibility_gap(self):
        """Largest distance of any recorded state to the constraint set."""
        flat = self.states.transpose(1, 0, 2).reshape(-1, self.states.shape[-1])
        return float(np.max(self.system.constraint.distance(flat)))


@dataclass
class System:
    """Dynamics bundle: coefficients, oblique field, constraint, start point."""

    coeffs: CoefficientField
    oblique: ObliqueField
    constraint: ConvexConstraint
    x0: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.coeffs.state_dim,):
            raise ConfigurationError("initial state has the wrong dimension")
        if self.constraint.dim != self.coeffs.state_dim:
            raise ConfigurationError("constraint dimension mismatch")
        if self.oblique.dim != self.coeffs.state_dim:
            raise ConfigurationError("oblique field dimension mismatch")

    @property
    def state_dim(self):
        return self.coeffs.state_dim

    @property
    def noise_dim(self):
        return self.coeffs.noise_dim


# ---------------------------------------------------------------------------
# One-step oblique Skorohod problem


def oblique_skorohod_step(constraint, H, y):
    """Solve x + H dk = y with x in the set and dk in the normal cone at x."""
    if not constraint.has_indicator():
        raise ConfigurationError("Skorohod steps require an indicator constraint")
    X, dK = constraint.geometry.oblique_step(np.asarray(H, dtype=float),
                                             np.asarray(y, dtype=float)[None, :])
    return X[0], dK[0]


# ---------------------------------------------------------------------------
# Simulation engine


def _control_value(control, k):
    """Control at step ``k``: shared (a scalar) or one value per group."""
    if control is None:
        return None
    arr = np.asarray(control)
    if arr.ndim == 0:
        return control
    return arr[k] if arr.ndim == 1 else arr[:, k]


def _gdb(gk, dB):
    if gk.ndim == 2:          # shared (m, d)
        return dB @ gk.T
    if gk.ndim != 3:          # else per particle (N, m, d), summed column by column
        raise ConfigurationError(f"diffusion returned unexpected shape {gk.shape}")
    out = np.empty(gk.shape[:2])
    for j, col in enumerate(out.T):
        np.multiply(gk[:, j, 0], dB[:, 0], out=col)
        for gl, dBl in zip(gk[:, j, 1:].T, dB[:, 1:].T):
            col += gl * dBl
    out += 0.0                # a zero sum is +0.0, as from a matrix product
    return out


def _hu(Hk, U, diagonal=False):
    if diagonal:
        return U * Hk + 0.0   # + 0.0: a zero is +0.0, as from the dense product
    if Hk.ndim == 2:
        return U @ Hk.T
    return np.einsum("nij,nj->ni", Hk, U)


def _per_row(values, rows):
    """A per-group scalar or ``(G,)`` array as a ``(G * rows, 1)`` column."""
    if values is None or np.ndim(values) == 0:
        return values
    return np.repeat(values, rows)[:, None]


def _stack_groups(parts, rows, core=2):
    """Per-group values as one batch array: shared (``core`` axes) if all agree, else per row."""
    if all(p.ndim == core and np.array_equal(p, parts[0]) for p in parts):
        return parts[0]
    return np.concatenate([np.broadcast_to(p, (rows,) + p.shape[-core:]) for p in parts])


def _coefficients(system, X, u, t, groups=1):
    """Drift, diffusion and oblique matrix at time ``t`` for a batch of groups.

    ``X`` holds ``groups`` contiguous blocks of rows and ``u`` is the
    control, shared or one value per group.  Measure-free fields are
    evaluated once on the whole batch (a per-group control reaches them as
    a ``(rows, 1)`` column).  Otherwise every group is evaluated on its own
    rows with its own empirical measure and scalar control, exactly as a
    run of that group alone.
    """
    coeffs, oblique = system.coeffs, system.oblique
    need_mu = coeffs.uses_measure or (not oblique.time_dependent and oblique.uses_measure)
    if groups == 1 or not need_mu:
        mu = EmpiricalMeasure(X) if need_mu else None
        u = _per_row(u, X.shape[0] // groups)
        return (coeffs.drift(X, mu, u, t), coeffs.diffusion(X, mu, u, t), oblique(X, mu, t))
    parts = []
    for g, Xg in enumerate(np.split(X, groups)):
        mu = EmpiricalMeasure(Xg)
        ug = u if np.ndim(u) == 0 else u[g]
        parts.append((coeffs.drift(Xg, mu, ug, t), coeffs.diffusion(Xg, mu, ug, t),
                      oblique(Xg, mu, t)))
    drift, diffusion, matrix = zip(*parts)
    rows = X.shape[0] // groups
    return (np.concatenate([np.broadcast_to(f, (rows, X.shape[1])) for f in drift]),
            _stack_groups(diffusion, rows),
            _stack_groups(matrix, rows, 1 if oblique.diagonal else 2))


def _increment_rows(increments, groups):
    """Step ``k``'s increments as ``(G N, d)`` rows; group g uses replication g % R."""
    inc = increments if increments.ndim == 4 else increments[None]
    reps, N, _, d = inc.shape
    if groups == 1:
        return lambda k: inc[0, :, k, :]
    shape = (groups // reps, reps, N, d)
    return lambda k: np.broadcast_to(inc[:, :, k, :], shape).reshape(-1, d)


class _PathRecorder:
    """The default step observer: stores the states and each step's ``dk`` time-major."""

    def __init__(self, grid):
        self.steps = grid.steps

    def start(self, X):
        self.states = np.empty((self.steps + 1,) + X.shape)
        self.states[0] = X
        self.dk = np.empty((self.steps,) + X.shape)

    def step(self, k, X, dk_step):
        self.states[k + 1] = X
        self.dk[k] = dk_step


def _simulate(system, grid, particles, noise, *, eps=None, control=None,
              increments=None, groups=1, observer=None, inputs=None, x0=None):
    """One step loop for ``groups`` independent ensembles of ``particles`` each.

    The groups advance together as one ``(groups * N, m)`` array, group g
    in rows ``g N .. (g+1) N``; each has its own penalization level
    (``eps``, shared or one per group; ``None`` runs the projected scheme),
    its own control (``None``, a scalar, one value per step, or one row of
    such values per group) and its own empirical measure.
    ``increments`` is ``(N, steps, d)``, shared by all groups, or
    ``(R, N, steps, d)`` with group g driven by replication ``g % R``.
    Every group starts at ``system.x0``, or at its own row of a ``(groups,
    m)`` array ``x0``.

    ``inputs(k, X, u)`` gives step ``k``'s drift, diffusion, oblique matrix
    (in the form ``system.oblique`` declares: dense, or its diagonal) and
    the constraint the step ends in; the default evaluates
    ``_coefficients`` on ``X`` and keeps ``system.constraint``.  Frozen
    coefficients (``euler_iteration``) and moving sets
    (``timedep.simulate_moving_interval``) are other ``inputs``.

    Every step is handed to ``observer`` (``start(X)``, then ``step(k, X,
    dk)``), which is returned.  Without one the paths are recorded and
    returned as a list of one ``PathEnsemble`` per group.
    """
    d = system.noise_dim
    steps, h = grid.steps, grid.h
    times = grid.times
    N, G = int(particles), int(groups)
    if eps is not None and not np.all(np.asarray(eps) > 0):
        raise ValueError(f"penalization parameter must be positive, got {eps}")
    if eps is None and not system.constraint.has_indicator():
        raise ConfigurationError("projected scheme requires an indicator constraint")
    if inputs is None:
        def inputs(k, X, u):
            return (*_coefficients(system, X, u, times[k], G), system.constraint)

    if increments is None:
        increments = noise.brownian(N, steps, d, h)
    reps = 1 if increments.ndim == 3 else increments.shape[0]
    if increments.shape[-3:] != (N, steps, d) or G % reps:
        raise ConfigurationError(
            f"increments shape {increments.shape} does not match (N, steps, d) "
            f"for {G} groups"
        )
    increment_rows = _increment_rows(increments, G)
    eps_rows = _per_row(eps, N)
    control = None if control is None else np.asarray(control)

    if x0 is None:
        X = np.tile(system.x0, (N * G, 1))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (G, system.state_dim):
            raise ConfigurationError(
                f"start points of shape {x0.shape} do not match (groups, m) = "
                f"({G}, {system.state_dim})"
            )
        X = np.repeat(x0, N, axis=0)
    watch = _PathRecorder(grid) if observer is None else observer
    watch.start(X)
    for k in range(steps):
        fk, gk, Hk, constraint = inputs(k, X, _control_value(control, k))
        gdB = _gdb(gk, increment_rows(k))
        if eps is not None:
            if constraint.kind == "indicator":
                U = (X - convexcore.project(constraint, X)) / eps_rows
            else:
                U = convexcore.yosida_gradient(constraint, eps_rows, X)
            X = X + h * (fk - _hu(Hk, U, system.oblique.diagonal)) + gdB
            dk_step = U * h
        else:
            Y = X + h * fk + gdB
            try:
                X, dk_step = constraint.geometry.oblique_step(Hk, Y, system.oblique.diagonal)
            except StepError as err:
                raise StepError(f"step {k}: {err}", residual=err.residual) from err

        if not np.max(np.abs(X)) <= BLOWUP_GUARD:      # also true for NaN
            raise DivergenceError(
                f"state magnitude exceeded {BLOWUP_GUARD:g} or is not finite "
                f"at step {k}", step=k
            )
        watch.step(k, X, dk_step)

    if observer is not None:
        return observer
    ensembles = []
    for g in range(G):
        rows = slice(g * N, (g + 1) * N)
        ensembles.append(PathEnsemble(
            grid=grid, states=watch.states[:, rows].transpose(1, 0, 2),
            dk=watch.dk[:, rows].transpose(1, 0, 2),
            increments=increments if increments.ndim == 3 else increments[g % reps],
            system=system, eps=eps if np.ndim(eps) == 0 else float(eps[g]),
            control=control if control is None or control.ndim < 2 else control[g],
        ))
    return ensembles


def _stream_batches(system, grid, particles, streams, *, observer=None,
                    variants=1, eps=None, control=None, x0=None, draw=None):
    """The one runner of independent ensembles: yields ``(chunk, run)`` per batch.

    ``streams`` go in chunks (slices) whose increments on the ``draw`` grid
    (default: ``grid``) fit ``BATCH_NOISE_BYTES``.  Each chunk is drawn once
    and runs, on the last ``grid.steps`` steps of ``draw``, as one
    ``_simulate`` batch of groups ordered (variant, stream): ``eps`` shared
    or one per variant, ``control`` shared or one row per variant, ``x0``
    ``(variants, streams, m)``, and a fresh ``observer()`` if given.
    """
    S, N, d = len(streams), int(particles), system.noise_dim
    draw = grid if draw is None else draw
    per = max(1, BATCH_NOISE_BYTES // (8 * N * draw.steps * d))
    for start in range(0, S, per):
        chunk = slice(start, min(start + per, S))
        C = chunk.stop - start
        inc = _stream_increments(streams[chunk], N, draw.steps, d, draw.h)
        yield chunk, _simulate(
            system, grid, N, None,
            eps=eps if np.ndim(eps) == 0 else np.repeat(eps, C),
            control=control if np.ndim(control) < 2 else np.repeat(control, C, axis=0),
            increments=inc[:, :, draw.steps - grid.steps:], groups=variants * C,
            x0=None if x0 is None else x0[:, chunk].reshape(-1, system.state_dim),
            observer=None if observer is None else observer(),
        )


def simulate_penalized(system, eps, grid, particles, noise, control=None,
                       increments=None):
    """Explicit Euler on the smoothed equation at penalization level eps."""
    if eps is None:
        raise ValueError("penalization parameter must be positive, got None")
    return _simulate(system, grid, particles, noise, eps=eps, control=control,
                     increments=increments)[0]


def simulate_projected(system, grid, particles, noise, control=None,
                       increments=None):
    """Projected Euler with per-step oblique Skorohod corrections."""
    return _simulate(system, grid, particles, noise, control=control,
                     increments=increments)[0]


def euler_iteration(system, level, iterations, grid, particles, noise,
                    control=None):
    """Frozen-coefficient iteration of the projected scheme.

    Each pass re-solves the projected scheme with drift, diffusion, and the
    oblique matrix evaluated on the previous iterate at the dyadic snap
    (level ``level``) of each step's left endpoint.  The zeroth iterate is
    the constant path at the start point, so the first pass freezes
    coefficients at the initial state and its point mass.  All passes share
    one set of Brownian increments.  Steps in one snap window reuse their
    coefficients when nothing but the snapped states feeds them: no
    control, and neither the coefficients nor the oblique matrix depend on
    time.

    Returns the list of iterates and the root-mean-square sup-distances
    between consecutive iterates.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    N = int(particles)
    increments = noise.brownian(N, grid.steps, system.noise_dim, grid.h)
    times = grid.times
    snaps = [grid.snap_index(t, level) for t in times[:-1]]
    reuse = control is None and not (system.coeffs.time_dependent
                                     or system.oblique.time_dependent)
    prev = np.broadcast_to(system.x0, (N, grid.steps + 1, system.state_dim))

    def frozen(k, X, u):
        nonlocal cache
        j = snaps[k]
        if not (reuse and cache[0] == j):
            cache = (j, (*_coefficients(system, prev[:, j, :], u, times[k]),
                         system.constraint))
        return cache[1]

    iterates = []
    distances = []
    for _ in range(iterations):
        cache = (None, None)    # (snap index, step inputs)
        ens = _simulate(system, grid, N, noise, control=control, increments=increments,
                        inputs=frozen)[0]
        if iterates:
            gap = np.sqrt(np.max(sq_norms(ens.states - iterates[-1].states), axis=1))
            distances.append(float(np.sqrt(np.mean(gap**2))))
        iterates.append(ens)
        prev = ens.states
    return iterates, distances


# ---------------------------------------------------------------------------
# Solution diagnostics


@dataclass
class SolutionDiagnostics:
    """Residuals of the defining properties of a constrained solution."""

    equation_residual: float
    feasibility_gap: float
    inequality_residual: float
    details: dict = field(default_factory=dict)


def residual_report(ensemble, system, probes=(), shifts=(), feasibility_band=None):
    """Check a simulated ensemble against the solution clauses.

    Reports (1) the worst subdifferential-inequality residual over constant
    probe paths and shifted copies of the path itself, (2) the worst
    distance of any state to the constraint domain, and (3) the worst
    equation residual obtained by re-integrating drift, noise, and oblique
    reflection from the recorded path.
    """
    grid = ensemble.grid
    h = grid.h
    times = grid.times
    N, steps = ensemble.particles, grid.steps
    m = system.state_dim
    dK = np.multiply(ensemble.density, h, order="C")

    feas = ensemble.feasibility_gap()
    band = max(feas * (1 + 1e-9), convexcore.TOL_GEOM) \
        if feasibility_band is None else feasibility_band

    residual = np.zeros((N, m))
    eq_worst = 0.0
    for k in range(steps):
        tk = times[k]
        fk, gk, Hk = _coefficients(system, ensemble.states[:, k, :],
                                   _control_value(ensemble.control, k), tk)
        Hdk = _hu(Hk, dK[:, k, :], system.oblique.diagonal)
        residual = residual + Hdk - h * np.broadcast_to(np.asarray(fk), (N, m)) \
            - _gdb(gk, ensemble.increments[:, k, :])
        node_res = ensemble.states[:, k + 1, :] - ensemble.states[:, 0, :] + residual
        eq_worst = max(eq_worst, float(np.max(np.sqrt(sq_norms(node_res)))))

    # subdifferential inequality against probe paths.  The sums over time
    # run on C-ordered (N, steps, ...) arrays, so their summation order, and
    # hence every bit of the result, does not depend on the path layout.
    post = ensemble.states[:, 1:, :]
    post_tm = ensemble.states.transpose(1, 0, 2)[1:]    # no copy for time-major paths
    pi_x = np.asarray(system.constraint.value(
        post_tm.reshape(-1, m), feasibility_band=band)).reshape(steps, N)
    x_term = h * np.sum(np.ascontiguousarray(pi_x.T), axis=1)
    ineq = -np.inf
    probe_paths = [np.broadcast_to(np.asarray(p, dtype=float), (steps, m))
                   for p in probes]
    probe_paths += [post[i] + np.asarray(s, dtype=float)
                    for s in shifts for i in range(N)]
    for y in probe_paths:
        pi_y = np.asarray(system.constraint.value(
            np.asarray(y).reshape(-1, m), feasibility_band=band)).reshape(steps)
        if not np.all(np.isfinite(pi_y)):
            continue
        pairing = np.einsum("nkm,nkm->n", np.subtract(y[None, :, :], post, order="C"), dK)
        value = pairing + x_term - h * np.sum(pi_y)
        ineq = max(ineq, float(np.max(value)))

    return SolutionDiagnostics(
        equation_residual=eq_worst,
        feasibility_gap=feas,
        inequality_residual=ineq,
        details={"probes": len(probe_paths), "band": band},
    )


def interior_reflection_margin(ensemble, cert, constants=None):
    """Worst-subinterval margin of the interior reflection inequality.

    For every particle and every grid subinterval the accumulated
    ``<x - a, dk>`` must dominate ``l1 * variation - l2 * int |x - a| -
    l3 * dt``; the minimum margin over all windows is returned (negative
    means a violation).
    """
    if constants is None:
        constants = interior_constants(ensemble.system.constraint, cert)
    l1, l2, l3 = constants
    a = np.asarray(cert.anchor, dtype=float)
    h = ensemble.grid.h
    post = ensemble.states[:, 1:, :] - a
    dK = ensemble.density * h
    terms = (
        np.einsum("nkm,nkm->nk", post, dK)
        - l1 * np.sqrt(sq_norms(dK))
        + l2 * np.sqrt(sq_norms(post)) * h
        + l3 * h
    )
    prefix = np.concatenate(
        [np.zeros((terms.shape[0], 1)), np.cumsum(terms, axis=1)], axis=1
    )
    runmax = np.maximum.accumulate(prefix[:, :-1], axis=1)
    margins = prefix[:, 1:] - runmax
    return float(np.min(margins))
