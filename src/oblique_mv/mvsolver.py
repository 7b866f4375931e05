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
        """Brownian increments, sqrt(h)-scaled, for a whole ensemble."""
        out = np.empty((particles, steps, dim))
        for i in range(particles):
            out[i] = self.gaussians(i, steps, dim)
        out *= math.sqrt(h)
        return out


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
    off = H - np.einsum("...ii->...i", H)[..., None] * np.eye(H.shape[-1])
    return float(np.max(np.abs(off * (1 - np.eye(H.shape[-1]))))) <= 1e-14


def _halfspace_step(geom, H, Y):
    n, c = geom.normal, geom.offset
    gap = c - Y @ n
    mask = gap > 0
    X = Y.copy()
    dK = np.zeros_like(Y)
    if not np.any(mask):
        return X, dK
    if H.ndim == 2:
        Hn = H @ n
        nHn = float(n @ Hn)
        t = gap[mask] / nHn
        X[mask] = Y[mask] + t[:, None] * Hn
    else:
        Hn = H[mask] @ n
        nHn = Hn @ n
        t = gap[mask] / nHn
        X[mask] = Y[mask] + t[:, None] * Hn
    dK[mask] = -t[:, None] * n
    return X, dK


def _box_step(geom, H, Y):
    X = np.clip(Y, geom.lower, geom.upper)
    dK = np.zeros_like(Y)
    mask = np.any(np.abs(X - Y) > 0, axis=1)
    if not np.any(mask):
        return X, dK
    if _is_diagonal(H):
        diag = np.einsum("...ii->...i", H)
        dK[mask] = (Y[mask] - X[mask]) / (diag[mask] if diag.ndim == 2 else diag)
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
    if control is None:
        return None
    arr = np.asarray(control)
    if arr.ndim == 0:
        return control
    return arr[k]


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


def _simulate(system, grid, particles, noise, *, scheme, eps=None, control=None,
              increments=None, frozen_from=None, frozen_level=None):
    coeffs = system.coeffs
    m, d = system.state_dim, system.noise_dim
    steps, h = grid.steps, grid.h
    times = grid.times
    N = int(particles)

    if increments is None:
        increments = noise.brownian(N, steps, d, h)
    elif increments.shape != (N, steps, d):
        raise ConfigurationError(
            f"increments shape {increments.shape} does not match (N, steps, d)"
        )

    oblique = system.oblique
    need_mu = coeffs.uses_measure or (
        not oblique.time_dependent and getattr(oblique, "uses_measure", True)
    )

    X = np.tile(system.x0, (N, 1))
    states = np.empty((steps + 1, N, m))
    reflection = np.zeros((steps + 1, N, m))
    variation = np.zeros((steps + 1, N))
    density = np.empty((steps, N, m))
    states[0] = X

    frozen_cache = (None, None)  # (snap index, (fk, gk, Hk))
    for k in range(steps):
        tk = times[k]
        uk = _control_value(control, k)
        if frozen_from is not None:
            j = grid.snap_index(tk, frozen_level)
            if frozen_cache[0] == j and control is None and not oblique.time_dependent:
                fk, gk, Hk = frozen_cache[1]
            else:
                Xe = frozen_from.states[:, j, :]
                mu = EmpiricalMeasure(Xe) if need_mu else None
                fk = coeffs.drift(Xe, mu, uk, tk)
                gk = coeffs.diffusion(Xe, mu, uk, tk)
                Hk = oblique(t=tk) if oblique.time_dependent else oblique(Xe, mu)
                frozen_cache = (j, (fk, gk, Hk))
        else:
            mu = EmpiricalMeasure(X) if need_mu else None
            fk = coeffs.drift(X, mu, uk, tk)
            gk = coeffs.diffusion(X, mu, uk, tk)
            Hk = oblique(t=tk) if oblique.time_dependent else oblique(X, mu)

        gdB = _gdb(gk, increments[:, k, :])
        if scheme == "penalized":
            U = (X - convexcore.project(system.constraint, X)) / eps \
                if system.constraint.kind == "indicator" \
                else convexcore.yosida_gradient(system.constraint, eps, X)
            X = X + h * (fk - _hu(Hk, U)) + gdB
            dk_step = U * h
        elif scheme == "projected":
            Y = X + h * fk + gdB
            try:
                X, dk_step = _skorohod_batch(system.constraint, Hk, Y)
            except StepError as err:
                raise StepError(f"step {k}: {err}", residual=err.residual) from err
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")

        if not np.max(np.abs(X)) <= BLOWUP_GUARD:      # also true for NaN
            raise DivergenceError(
                f"state magnitude exceeded {BLOWUP_GUARD:g} or is not finite "
                f"at step {k}", step=k
            )
        states[k + 1] = X
        np.add(reflection[k], dk_step, out=reflection[k + 1])
        np.add(variation[k], np.linalg.norm(dk_step, axis=1), out=variation[k + 1])
        np.divide(dk_step, h, out=density[k])

    return PathEnsemble(
        grid=grid, states=states.transpose(1, 0, 2),
        reflection=reflection.transpose(1, 0, 2), variation=variation.T,
        density=density.transpose(1, 0, 2), increments=increments,
        system=system, scheme=scheme,
        eps=eps, control=None if control is None else np.asarray(control),
    )


def simulate_penalized(system, eps, grid, particles, noise, control=None,
                       increments=None):
    """Explicit Euler on the smoothed equation at penalization level eps."""
    if not eps > 0:
        raise ValueError(f"penalization parameter must be positive, got {eps}")
    return _simulate(system, grid, particles, noise, scheme="penalized", eps=eps,
                     control=control, increments=increments)


def simulate_projected(system, grid, particles, noise, control=None,
                       increments=None):
    """Projected Euler with per-step oblique Skorohod corrections."""
    if not system.constraint.has_indicator():
        raise ConfigurationError("projected scheme requires an indicator constraint")
    return _simulate(system, grid, particles, noise, scheme="projected",
                     control=control, increments=increments)


def _constant_ensemble(system, grid, particles):
    N = int(particles)
    m = system.state_dim
    states = np.tile(system.x0, (N, grid.steps + 1, 1))
    zeros = np.zeros((N, grid.steps + 1, m))
    return PathEnsemble(
        grid=grid, states=states, reflection=zeros,
        variation=np.zeros((N, grid.steps + 1)),
        density=np.zeros((N, grid.steps, m)),
        increments=np.zeros((N, grid.steps, system.noise_dim)),
        system=system, scheme="constant",
    )


def euler_iteration(system, level, iterations, grid, particles, noise,
                    control=None):
    """Frozen-coefficient iteration of the projected scheme.

    Each pass re-solves the projected scheme with drift, diffusion, and the
    oblique matrix evaluated on the previous iterate at the dyadic snap
    (level ``level``) of each step's left endpoint.  The zeroth iterate is
    the constant path at the start point, so the first pass freezes
    coefficients at the initial state and its point mass.  All passes share
    one set of Brownian increments.

    Returns the list of iterates and the root-mean-square sup-distances
    between consecutive iterates.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    increments = noise.brownian(int(particles), grid.steps, system.noise_dim, grid.h)
    prev = _constant_ensemble(system, grid, particles)
    iterates = []
    distances = []
    for _ in range(iterations):
        ens = _simulate(system, grid, particles, noise, scheme="projected",
                        control=control, increments=increments,
                        frozen_from=prev, frozen_level=level)
        if iterates:
            gap = np.max(
                np.linalg.norm(ens.states - iterates[-1].states, axis=2), axis=1
            )
            distances.append(float(np.sqrt(np.mean(gap**2))))
        iterates.append(ens)
        prev = ens
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
    coeffs = system.coeffs
    h = grid.h
    times = grid.times
    N, steps = ensemble.density.shape[0], grid.steps
    m = system.state_dim

    feas = ensemble.feasibility_gap()
    band = max(feas * (1 + 1e-9), convexcore.TOL_GEOM) \
        if feasibility_band is None else feasibility_band

    oblique = system.oblique
    need_mu = coeffs.uses_measure or (
        not oblique.time_dependent and getattr(oblique, "uses_measure", True)
    )
    residual = np.zeros((N, m))
    eq_worst = 0.0
    for k in range(steps):
        tk = times[k]
        Xk = ensemble.states[:, k, :]
        uk = _control_value(ensemble.control, k)
        mu = EmpiricalMeasure(Xk) if need_mu else None
        fk = coeffs.drift(Xk, mu, uk, tk)
        gk = coeffs.diffusion(Xk, mu, uk, tk)
        Hk = oblique(t=tk) if oblique.time_dependent else oblique(Xk, mu)
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
