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

All of them run through one step loop, ``_simulate``.  It asks an
``inputs(k, X, u)`` callable for each step's coefficients and the set the
step ends in: by default the coefficients at the current states and the
fixed constraint, the frozen ones in ``euler_iteration``, and a moving
interval in :func:`oblique_mv.timedep.simulate_moving_interval`.

The one-step Skorohod problem is solved exactly as the metric projection of
``y`` onto the set in the norm induced by ``H^{-1}``: its variational
inequality is precisely feasibility, the linear relation, and the
normal-cone inclusion of ``dk = H^{-1}(y - x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import convexcore
from .convexcore import (
    Ball,
    Box,
    ConvexConstraint,
    HalfSpace,
    HalfSpaceIntersection,
    interior_constants,
)
from .dynamics import CoefficientField, ObliqueField
from .errors import ConfigurationError, DivergenceError, StepError
from .measures import EmpiricalMeasure

BLOWUP_GUARD = 1e8
BALL_NEWTON_MAX_ITER = 50
BATCH_NOISE_BYTES = 32 * 2**20      # increments one batch of replications holds


# ---------------------------------------------------------------------------
# Time grid and noise


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end] with an optional dyadic snap level."""

    start: float
    end: float
    steps: int
    dyadic_level: int | None = None

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

    def dyadic_snap(self, t, level=None):
        """Largest lattice point 2^-n * k not exceeding t."""
        n = self.dyadic_level if level is None else level
        if n is None:
            raise ConfigurationError("no dyadic level configured")
        scale = 2.0**n
        return math.floor(t * scale + 1e-12) / scale

    def snap_index(self, t, level=None):
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

    def brownian(self, particles, steps, dim, h):
        """Brownian increments, sqrt(h)-scaled, for a whole ensemble.

        Filled into a time-major ``(steps, N, d)`` buffer; the result is its
        ``(N, steps, d)`` view, so one step's increments are a contiguous row.
        """
        out = np.empty((steps, particles, dim))
        for i in range(particles):
            out[:, i, :] = self.gaussians(i, steps, dim)
        out *= math.sqrt(h)
        return out.transpose(1, 0, 2)


def _replication_increments(noise, reps, particles, steps, dim, h):
    """Increments of the replications ``reps`` as one ``(R, N, steps, d)`` array.

    A view of a time-major ``(R, steps, N, d)`` buffer: replication ``r``
    draws from ``noise.for_replication(r)``, and a step's rows of all the
    replications form one ``(R, N, d)`` slab.
    """
    if len(reps) == 1:
        return noise.for_replication(reps[0]).brownian(particles, steps, dim, h)[None]
    out = np.empty((len(reps), steps, particles, dim))
    for i, r in enumerate(reps):
        out[i] = noise.for_replication(r).brownian(particles, steps, dim, h).transpose(1, 0, 2)
    return out.transpose(0, 2, 1, 3)


def _replication_chunks(replications, particles, steps, dim):
    """Ranges of replications whose increments together fit ``BATCH_NOISE_BYTES``."""
    per = max(1, BATCH_NOISE_BYTES // (8 * particles * steps * dim))
    return [range(a, min(a + per, replications)) for a in range(0, replications, per)]


# ---------------------------------------------------------------------------
# Paths and systems


@dataclass
class PathEnsemble:
    """Ensemble arrays for one replication of the particle system.

    The step loops fill time-major buffers, one contiguous row per step;
    the path arrays here are particle-major views of them (not
    C-contiguous, so ``reshape`` copies them).
    """

    grid: TimeGrid
    states: np.ndarray        # (N, steps+1, m)
    reflection: np.ndarray    # (N, steps+1, m), cumulative k
    variation: np.ndarray     # (N, steps+1), cumulative total variation
    density: np.ndarray       # (N, steps, m), dk = density * h
    increments: np.ndarray    # (N, steps, d)
    system: "System"
    scheme: str
    eps: float | None = None
    control: np.ndarray | None = None

    @property
    def particles(self):
        return self.states.shape[0]

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


def _is_diagonal(H):
    return float(np.max(np.abs(H * (1 - np.eye(H.shape[-1]))))) <= 1e-14


def _halfspace_step(geom, H, Y):
    n, c = geom.normal, geom.offset
    gap = c - Y @ n
    mask = gap > 0
    X = Y.copy()
    dK = np.zeros_like(Y)
    if not np.any(mask):
        return X, dK
    Hn = (H if H.ndim == 2 else H[mask]) @ n
    t = gap[mask] / (Hn @ n)
    X[mask] = Y[mask] + t[:, None] * Hn
    dK[mask] = -t[:, None] * n
    return X, dK


def _box_step(geom, H, Y):
    X = np.clip(Y, geom.lower, geom.upper)
    if _is_diagonal(H):
        dK = (Y - X) / np.einsum("...ii->...i", H)
        dK += 0.0       # unclipped rows get +0.0, also where -0.0 met a bound at 0.0
        return X, dK
    eye = np.eye(Y.shape[1])
    offsets = np.concatenate([geom.lower, -geom.upper])
    finite = np.isfinite(offsets)
    rows = HalfSpaceIntersection(np.vstack([eye, -eye])[finite], offsets[finite])
    return _intersection_step(rows, H, Y)


def _ball_multiplier(w, d, r):
    """Root ``lam > 0`` of the secular equation ``|w / (1 + lam d)| = r``.

    Rows of ``w`` are points outside the ball in the eigenbasis of H and
    rows of ``d`` the eigenvalues.  With ``s = w / (1 + lam d)`` this is a
    trust-region secular equation (Hessian ``diag(1/d)``, gradient
    ``w/d``), so ``psi(lam) = 1/|s| - 1/r`` is concave and increasing and
    Newton's iterates from ``lam = 0`` rise monotonically to the root
    (Moré & Sorensen 1983).  The loop stops on the residual ``| |s| - r |``,
    whose rounding floor grows with the dimension; ``StepError`` reports
    the worst residual if it is not met within ``BALL_NEWTON_MAX_ITER``
    steps.  Returns ``lam`` and ``s``.
    """
    tol = 4 * (d.shape[1] + 1) * np.finfo(float).eps * r
    lam = np.zeros(w.shape[0])
    for step in range(BALL_NEWTON_MAX_ITER + 1):
        q = 1.0 + lam[:, None] * d
        s = w / q
        norm = np.sqrt(np.einsum("ki,ki->k", s, s))
        gap = norm - r
        open_rows = np.abs(gap) > tol
        if not open_rows.any():
            return lam, s
        if step == BALL_NEWTON_MAX_ITER:
            raise StepError(
                "ball Newton solve did not converge in %d iterations"
                % BALL_NEWTON_MAX_ITER,
                residual=float(np.max(np.abs(gap))),
            )
        slope = np.einsum("ki,ki->k", d * s, s / q)
        lam = np.where(open_rows, lam + gap * norm**2 / (r * slope), lam)


def _ball_step(geom, H, Y):
    c, r = geom.center, geom.radius
    rel = Y - c
    dist = np.linalg.norm(rel, axis=1)
    X = Y.copy()
    dK = np.zeros_like(Y)
    mask = dist > r
    if not np.any(mask):
        return X, dK
    idx = np.flatnonzero(mask)
    Hs = np.broadcast_to(H, (Y.shape[0],) + H.shape[-2:]) if H.ndim == 2 else H
    Hsub = np.ascontiguousarray(Hs[idx])
    relsub = rel[idx]
    if _is_diagonal(Hsub):
        d = np.einsum("kii->ki", Hsub)
        w = relsub
        back = None
    else:
        d, Q = np.linalg.eigh(Hsub)
        w = np.einsum("kji,kj->ki", Q, relsub)
        back = Q
    lam, scaled = _ball_multiplier(w, d, r)
    relsol = scaled if back is None else np.einsum("kij,kj->ki", back, scaled)
    X[idx] = c + relsol
    dK[idx] = lam[:, None] * relsol
    return X, dK


def _intersection_step(geom, H, Y):
    X = Y.copy()
    dK = np.zeros_like(Y)
    outside = np.min(Y @ geom.normals.T - geom.offsets, axis=1) < 0
    Hs = np.broadcast_to(H, (Y.shape[0],) + H.shape[-2:]) if H.ndim == 2 else H
    for i in np.flatnonzero(outside):
        X[i], dK[i] = convexcore.polyhedral_step(geom.normals, geom.offsets, Hs[i], Y[i])
    return X, dK


def _skorohod_batch(constraint, H, Y):
    geom = constraint.geometry
    if isinstance(geom, HalfSpace):
        return _halfspace_step(geom, H, Y)
    if isinstance(geom, Box):
        return _box_step(geom, H, Y)
    if isinstance(geom, Ball):
        return _ball_step(geom, H, Y)
    if isinstance(geom, HalfSpaceIntersection):
        return _intersection_step(geom, H, Y)
    raise ConfigurationError(f"unsupported geometry {type(geom).__name__}")


def oblique_skorohod_step(constraint, H, y):
    """Solve x + H dk = y with x in the set and dk in the normal cone at x."""
    if not constraint.has_indicator():
        raise ConfigurationError("Skorohod steps require an indicator constraint")
    H = np.asarray(H, dtype=float)
    y = np.asarray(y, dtype=float)
    X, dK = _skorohod_batch(constraint, H, y[None, :])
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
    if gk.ndim == 3:          # per particle (N, m, d)
        return np.einsum("nmd,nd->nm", gk, dB)
    raise ConfigurationError(f"diffusion returned unexpected shape {gk.shape}")


def _hu(Hk, U):
    if Hk.ndim == 2:
        return U @ Hk.T
    return np.einsum("nij,nj->ni", Hk, U)


def _per_row(values, rows):
    """A per-group scalar or ``(G,)`` array as a ``(G * rows, 1)`` column."""
    if values is None or np.ndim(values) == 0:
        return values
    return np.repeat(values, rows)[:, None]


def _stack_groups(parts, rows):
    """One batch matrix from per-group ones: shared if all agree, else one per row."""
    if all(p.ndim == 2 and np.array_equal(p, parts[0]) for p in parts):
        return parts[0]
    return np.concatenate([np.broadcast_to(p, (rows,) + p.shape[-2:]) for p in parts])


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
        return (coeffs.drift(X, mu, u, t), coeffs.diffusion(X, mu, u, t),
                oblique(t=t) if oblique.time_dependent else oblique(X, mu))
    parts = []
    for g, Xg in enumerate(np.split(X, groups)):
        mu = EmpiricalMeasure(Xg)
        ug = u if np.ndim(u) == 0 else u[g]
        parts.append((coeffs.drift(Xg, mu, ug, t), coeffs.diffusion(Xg, mu, ug, t),
                      oblique(t=t) if oblique.time_dependent else oblique(Xg, mu)))
    drift, diffusion, matrix = zip(*parts)
    rows = X.shape[0] // groups
    return (np.concatenate([np.broadcast_to(f, (rows, X.shape[1])) for f in drift]),
            _stack_groups(diffusion, rows), _stack_groups(matrix, rows))


def _increment_rows(increments, groups):
    """Step ``k``'s increments as ``(G N, d)`` rows; group g uses replication g % R."""
    inc = increments if increments.ndim == 4 else increments[None]
    reps, N, _, d = inc.shape
    if groups == 1:
        return lambda k: inc[0, :, k, :]
    shape = (groups // reps, reps, N, d)
    return lambda k: np.broadcast_to(inc[:, :, k, :], shape).reshape(-1, d)


class _PathRecorder:
    """The default step observer: stores every step in time-major buffers."""

    def __init__(self, grid):
        self.steps, self.h = grid.steps, grid.h

    def start(self, X):
        rows, m = X.shape
        self.states = np.empty((self.steps + 1, rows, m))
        self.reflection = np.zeros((self.steps + 1, rows, m))
        self.variation = np.zeros((self.steps + 1, rows))
        self.density = np.empty((self.steps, rows, m))
        self.states[0] = X

    def step(self, k, X, dk_step):
        self.states[k + 1] = X
        np.add(self.reflection[k], dk_step, out=self.reflection[k + 1])
        np.add(self.variation[k], np.linalg.norm(dk_step, axis=1), out=self.variation[k + 1])
        np.divide(dk_step, self.h, out=self.density[k])


def _simulate(system, grid, particles, noise, *, scheme, eps=None, control=None,
              increments=None, groups=1, observer=None, inputs=None):
    """One step loop for ``groups`` independent ensembles of ``particles`` each.

    The groups advance together as one ``(groups * N, m)`` array, group g
    in rows ``g N .. (g+1) N``; each has its own ``eps`` (a scalar or one
    per group), its own control (``None``, a scalar, one value per step, or
    one row of such values per group) and its own empirical measure.
    ``increments`` is ``(N, steps, d)``, shared by all groups, or
    ``(R, N, steps, d)`` with group g driven by replication ``g % R``.

    ``inputs(k, X, u)`` gives step ``k``'s drift, diffusion, oblique matrix
    and the constraint the step ends in; the default evaluates
    ``_coefficients`` on ``X`` and keeps ``system.constraint``.  Frozen
    coefficients (``euler_iteration``) and moving sets
    (``timedep.simulate_moving_interval``) are other ``inputs``.

    Every step is handed to ``observer`` (``start(X)``, then ``step(k, X,
    dk)``), which is returned.  Without one the paths are recorded and
    returned as a ``PathEnsemble``, or a list of one per group.
    """
    d = system.noise_dim
    steps, h = grid.steps, grid.h
    times = grid.times
    N, G = int(particles), int(groups)
    if scheme not in ("penalized", "projected"):
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if scheme == "penalized" and not np.all(np.asarray(eps) > 0):
        raise ValueError(f"penalization parameter must be positive, got {eps}")
    if scheme == "projected" and not system.constraint.has_indicator():
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
    if control is not None:
        control = np.asarray(control)

    X = np.tile(system.x0, (N * G, 1))
    watch = _PathRecorder(grid) if observer is None else observer
    watch.start(X)
    for k in range(steps):
        fk, gk, Hk, constraint = inputs(k, X, _control_value(control, k))
        gdB = _gdb(gk, increment_rows(k))
        if scheme == "penalized":
            if constraint.kind == "indicator":
                U = (X - convexcore.project(constraint, X)) / eps_rows
            elif np.ndim(eps) == 0:
                U = convexcore.yosida_gradient(constraint, eps, X)
            else:
                U = np.concatenate([convexcore.yosida_gradient(constraint, e, Xg)
                                    for e, Xg in zip(eps, np.split(X, G))])
            X = X + h * (fk - _hu(Hk, U)) + gdB
            dk_step = U * h
        else:
            Y = X + h * fk + gdB
            try:
                X, dk_step = _skorohod_batch(constraint, Hk, Y)
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
            reflection=watch.reflection[:, rows].transpose(1, 0, 2),
            variation=watch.variation[:, rows].T,
            density=watch.density[:, rows].transpose(1, 0, 2),
            increments=increments if increments.ndim == 3 else increments[g % reps],
            system=system, scheme=scheme,
            eps=eps if np.ndim(eps) == 0 else float(eps[g]),
            control=control if control is None or control.ndim < 2 else control[g],
        ))
    return ensembles[0] if G == 1 else ensembles


def simulate_penalized(system, eps, grid, particles, noise, control=None,
                       increments=None):
    """Explicit Euler on the smoothed equation at penalization level eps."""
    return _simulate(system, grid, particles, noise, scheme="penalized", eps=eps,
                     control=control, increments=increments)


def simulate_projected(system, grid, particles, noise, control=None,
                       increments=None):
    """Projected Euler with per-step oblique Skorohod corrections."""
    return _simulate(system, grid, particles, noise, scheme="projected",
                     control=control, increments=increments)


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
        ens = _simulate(system, grid, N, noise, scheme="projected", control=control,
                        increments=increments, inputs=frozen)
        if iterates:
            gap = np.max(
                np.linalg.norm(ens.states - iterates[-1].states, axis=2), axis=1
            )
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
    if ensemble.scheme not in ("penalized", "projected"):
        raise ConfigurationError(
            f"diagnostics expect a penalized or projected ensemble, got {ensemble.scheme!r}"
        )
    grid = ensemble.grid
    h = grid.h
    times = grid.times
    N, steps = ensemble.density.shape[0], grid.steps
    m = system.state_dim

    feas = ensemble.feasibility_gap()
    band = max(feas * (1 + 1e-9), convexcore.TOL_GEOM) \
        if feasibility_band is None else feasibility_band

    residual = np.zeros((N, m))
    eq_worst = 0.0
    for k in range(steps):
        tk = times[k]
        fk, gk, Hk = _coefficients(system, ensemble.states[:, k, :],
                                   _control_value(ensemble.control, k), tk)
        dk_step = ensemble.density[:, k, :] * h
        Hdk = _hu(Hk, dk_step)
        residual = residual + Hdk - h * np.broadcast_to(np.asarray(fk), (N, m)) \
            - _gdb(gk, ensemble.increments[:, k, :])
        node_res = ensemble.states[:, k + 1, :] - ensemble.states[:, 0, :] + residual
        eq_worst = max(eq_worst, float(np.max(np.linalg.norm(node_res, axis=1))))

    # subdifferential inequality against probe paths.  The sums over time
    # run on C-ordered (N, steps, ...) arrays, so their summation order, and
    # hence every bit of the result, does not depend on the path layout.
    post = ensemble.states[:, 1:, :]
    dK = np.multiply(ensemble.density, h, order="C")
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
        - l1 * np.linalg.norm(dK, axis=2)
        + l2 * np.linalg.norm(post, axis=2) * h
        + l3 * h
    )
    prefix = np.concatenate(
        [np.zeros((terms.shape[0], 1)), np.cumsum(terms, axis=1)], axis=1
    )
    runmax = np.maximum.accumulate(prefix[:, :-1], axis=1)
    margins = prefix[:, 1:] - runmax
    return float(np.min(margins))
