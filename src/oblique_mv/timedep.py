"""Reduction of moving-constraint problems to fixed-set oblique problems.

A problem constrained to the moving set ``H(t) * Xi`` is transformed into a
problem on the fixed set ``Xi`` whose reflection is distorted by the matrix
``(H^{-1}(t))^2``.  Writing ``x = H(t) xbar``, the chain rule gives

    d xbar + (H^{-1})^2 dI_Xi(xbar) dt
        in  H^{-1} (f(H xbar, mu) - H'(t) xbar) dt + H^{-1} g dB.

``correction="chain-rule"`` (the default) applies exactly this.  The
alternative ``correction="as-printed"`` flips the sign of the ``H' xbar``
term and also injects it into the diffusion; it reproduces a published
variant of the formula and is kept for side-by-side reporting, but it is
not consistent with direct simulation of the moving-set dynamics.

The direct reference, ``simulate_moving_interval``, is no loop of its own:
it hands the step loop of :mod:`oblique_mv.mvsolver` the pulled-back
measure, identity reflection and the interval at each step's end, and
``equivalence_check`` compares its states with the lifted reduced ones.
A check computes its frames ``(H, H^{-1}, H')`` once, as one stack over its
grid times; the lift and the feasibility gaps are array passes over it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .convexcore import Box, ConvexConstraint
from .dynamics import CoefficientField, ObliqueField, _inverses_spd, inverse_spd, validate_oblique
from .errors import ConfigurationError, ReductionError
from .measures import EmpiricalMeasure, sq_norms
from .mvsolver import System, TimeGrid, _simulate, _StateRecorder

CORRECTIONS = ("chain-rule", "as-printed")


@dataclass
class MovingConstraintProblem:
    """Dynamics constrained to the moving convex set H(t) * Xi."""

    base_set: ConvexConstraint
    hfield: ObliqueField
    coeffs: CoefficientField
    x0: np.ndarray
    horizon: tuple

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if not self.hfield.time_dependent or self.hfield.diagonal:
            raise ConfigurationError("moving constraints need a time-dependent dense matrix")
        if not self.base_set.has_indicator():
            raise ConfigurationError("the base set must be an indicator constraint")
        t0, t1 = self.horizon
        report = validate_oblique(self.hfield, samples=256, horizon=(t0, t1))
        if not report.passed:
            raise ReductionError(
                f"matrix path violates the ellipticity/symmetry assumptions: "
                f"{report.details}"
            )
        xbar0 = inverse_spd(self.hfield(t=t0)) @ self.x0
        if self.base_set.distance(xbar0) > 1e-9:
            raise ConfigurationError("initial state lies outside the moving set")


def _frames(prob, known=None):
    """``frame(t)``: ``H(t)``, its inverse and ``H'(t)``, once per time ``t`` for every
    step's matrix, drift and diffusion, correction and grid level that share it;
    ``known`` maps times to ``(H, H^{-1})`` already computed."""
    hf, span, memo, known = prob.hfield, prob.horizon[1] - prob.horizon[0], {}, known or {}

    def frame(t):
        if t not in memo:
            h, hi = known[t] if t in known else (hf(t=t), None)
            memo[t] = h, inverse_spd(h) if hi is None else hi, hf.derivative_at(t, span)
        return memo[t]
    return frame


def reduce_time_dependent(prob, correction="chain-rule"):
    """Build the fixed-set oblique system equivalent to the moving problem."""
    return _reduce(prob, correction, _frames(prob))


def _reduce(prob, correction, frame):      # frame: from _frames(prob)
    if correction not in CORRECTIONS:
        raise ConfigurationError(f"correction must be one of {CORRECTIONS}")
    hf = prob.hfield
    base = prob.coeffs
    t0, _ = prob.horizon
    sign = -1.0 if correction == "chain-rule" else 1.0
    noise_correction = correction == "as-printed"
    one_d = hf.dim == 1                     # a 1x1 matrix is declared as its diagonal

    def apply(c, v):        # c times each row of v; in 1-d + 0.0 gives a zero the product's +0.0
        return v * c[0, 0] + 0.0 if one_d else v @ c.T

    def matrix(t):
        _, hi, _ = frame(t)
        return hi[0] * hi[0] if one_d else hi @ hi

    def matrix_derivative(t):
        _, hi, hp = frame(t)
        hih = hi @ hp @ hi
        return -(hih @ hi + hi @ hih).reshape((hf.dim,) * (2 - one_d))

    oblique = ObliqueField(
        matrix,
        a_h=1.0 / hf.b_h**2,
        b_h=1.0 / hf.a_h**2,
        dim=hf.dim,
        time_dependent=True,
        derivative=matrix_derivative if hf.derivative_is_analytic else None,
        diagonal=one_d,
    )

    def drift(xbar, mu, u, t):
        h, hi, hp = frame(t)
        inner = base.drift(apply(h, xbar), mu, u, t) + sign * apply(hp, xbar)
        return apply(hi, inner)

    fixed = base._diffusion if isinstance(base._diffusion, np.ndarray) else None  # reads no x

    def diffusion(xbar, mu, u, t):
        h, hi, hp = frame(t)
        g = fixed if fixed is not None else base.diffusion(apply(h, xbar), mu, u, t)
        if noise_correction:
            g = g + apply(hp, xbar)[..., None]
        if one_d:
            return g * hi[0, 0] + 0.0
        return hi @ g if g.ndim == 2 else np.einsum("ij,njd->nid", hi, g)

    reduced = CoefficientField(
        drift,
        diffusion,
        lipschitz=base.lipschitz * (1 + hf.b_h) / hf.a_h
        + hf.max_derivative_norm(*prob.horizon) / hf.a_h,
        state_dim=base.state_dim,
        noise_dim=base.noise_dim,
        controlled=True,
        time_dependent=True,
        uses_measure=base.uses_measure,
        normalized=False,
        batched=base.batched,
    )
    xbar0 = frame(t0)[1] @ prob.x0
    return System(reduced, oblique, prob.base_set, xbar0,
                  label=f"reduced[{correction}]")


def lift_solution(states, hfield, times):
    """Map fixed-set paths back to the moving set: ``H(t_j)`` read once per node,
    all nodes lifted by one stacked product (``equivalence_check`` lifts from
    the stack of frames it computes once per check)."""
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.shape[-2] != times.size:
        raise ConfigurationError(
            f"grid mismatch: {states.shape[-2]} nodes vs {times.size} times"
        )
    m = states.shape[-1]
    return _lift(states, np.array([hfield(t=t) for t in times]).reshape(-1, m, m))


def _lift(states, hs):
    """``states[..., j, :] @ hs[j].T`` for every node ``j`` as one stacked product:
    each node's block takes the matrix kernel of its own product, so its bits."""
    nodes = np.moveaxis(states, -2, 0)
    if nodes.ndim == 2:         # one path: node j is one row
        return (nodes[:, None] @ hs.transpose(0, 2, 1))[:, 0]
    ht = hs.transpose(0, 2, 1).reshape(len(hs), *(1,) * (nodes.ndim - 3), *hs.shape[1:])
    return np.moveaxis(nodes @ ht, 0, -2)


def moving_set_distance(x, hfield, t, base_set):
    """Distance to the moving set at time t (exact for 1-d intervals)."""
    h = hfield(t=t)
    x = np.asarray(x, dtype=float)[..., None, :]
    return _moving_gaps(x, h[None], inverse_spd(h)[None], base_set, hfield.b_h)[..., 0]


def _moving_gaps(x, hs, his, base_set, b_h):
    """Distance of ``x[..., j, :]`` to the set ``hs[j] * base_set`` at every node
    ``j``, in one array pass: exact for 1-d intervals, else the fixed-set distance
    of ``his[j] x`` scaled by ``b_h``, an upper bound."""
    geom = base_set.geometry
    if isinstance(geom, Box) and base_set.dim == 1:
        lo = geom.lower[0] * hs[:, 0, 0]
        hi = geom.upper[0] * hs[:, 0, 0]
        return np.maximum(np.maximum(lo - x[..., 0], x[..., 0] - hi), 0.0)
    return base_set.distance(_lift(x, his)) * b_h


def simulate_moving_interval(prob, grid, particles, noise, increments=None, hs=None):
    """Direct projected Euler on a 1-d moving interval [H(t) lo, H(t) hi].

    The reference dynamics for the equivalence check, a discrete
    Skorohod problem in the moving domain (Nyström & Önskog 2010): the
    coefficients see the empirical law of ``H^{-1}(t_k) x``, which is
    exactly the law carried by the reduced fixed-set system, the
    reflection is the identity, and step ``k`` ends in the interval
    scaled to ``t_{k+1}``, i.e. a clip.  Runs through the step loop of
    :mod:`oblique_mv.mvsolver` and returns its ``PathEnsemble``; that
    ensemble's system carries the base interval, so measure feasibility
    with ``moving_set_distance``, not ``feasibility_gap()``.  ``hs`` holds
    ``H(t)`` at the grid's times, read from ``prob.hfield`` when not given.
    """
    geom = prob.base_set.geometry
    if prob.coeffs.state_dim != 1 or not isinstance(geom, Box):
        raise ConfigurationError("direct moving-set simulation supports 1-d intervals")
    coeffs = prob.coeffs
    times = grid.times
    scales = [prob.hfield(t=t)[0, 0] for t in times] if hs is None else hs[:, 0, 0]
    # H(t) > 0 scales the validated base interval to another valid one
    intervals = [ConvexConstraint("indicator", 1, geometry=Box(geom.lower * s, geom.upper * s))
                 for s in scales]
    system = System(coeffs, ObliqueField.identity(1), prob.base_set, prob.x0,
                    label="moving-direct")

    def moving(k, X, u):
        mu = EmpiricalMeasure(X / scales[k]) if coeffs.uses_measure else None
        return (coeffs.drift(X, mu, None, times[k]), coeffs.diffusion(X, mu, None, times[k]),
                system.oblique.matrix, intervals[k + 1])

    return _simulate(system, grid, particles, noise, increments=increments, inputs=moving)[0]


@dataclass
class ConvergenceReport:
    """Grid-ladder comparison of lifted reduced paths vs direct simulation."""

    step_sizes: list
    sup_distances: dict
    feasibility: dict
    details: dict = field(default_factory=dict)

    def monotone(self, correction="chain-rule"):
        d = self.sup_distances[correction]
        return all(b < a for a, b in zip(d, d[1:]))


def equivalence_check(prob, step_ladder, particles, noise):
    """Solve the reduced system of each of ``CORRECTIONS`` over a grid ladder and
    compare with the direct moving-interval dynamics under a shared Brownian path.

    Increments are drawn on the finest grid and block-summed for coarser
    levels, so distances across the ladder reflect discretization alone.
    The frames are computed once per check, as one stack over the times of
    all levels: ``H(t)`` read once per time and every inverse from one
    batched call.  The reduced systems, the direct reference, the lift and
    the feasibility gaps all read from that stack.
    """
    bad = [s for s in step_ladder
           if not (isinstance(s, numbers.Real) and float(s).is_integer() and s >= 1)]
    if bad:
        raise ConfigurationError(f"step ladder levels must be integers of at least 1: {bad}")
    steps_list = sorted(int(s) for s in step_ladder)
    repeats = [a for a, b in zip(steps_list, steps_list[1:]) if a == b]
    if repeats:
        raise ConfigurationError(f"the step ladder repeats the level {repeats[0]}")
    t0, t1 = prob.horizon
    finest = steps_list[-1]
    for s in steps_list:
        if finest % s != 0:
            raise ConfigurationError("step ladder entries must divide the finest level")
    N = int(particles)
    fine_inc = noise.brownian(N, finest, prob.coeffs.noise_dim, (t1 - t0) / finest)

    grids = [TimeGrid(t0, t1, steps) for steps in steps_list]
    times = np.unique(np.concatenate([grid.times for grid in grids]))
    hs = np.array([prob.hfield(t=t) for t in times])
    his = _inverses_spd(hs)
    frame = _frames(prob, dict(zip(times, zip(hs, his))))
    reduced = {c: _reduce(prob, c, frame) for c in CORRECTIONS}
    distances = {c: [] for c in CORRECTIONS}
    feasibility = {c: [] for c in CORRECTIONS}
    direct_one_d = prob.coeffs.state_dim == 1 and isinstance(prob.base_set.geometry, Box)
    for grid in grids:
        at = np.searchsorted(times, grid.times)     # each level's nodes in the stack
        inc = fine_inc.reshape(N, grid.steps, finest // grid.steps, -1).sum(axis=2)
        if direct_one_d:
            direct = simulate_moving_interval(prob, grid, N, noise, inc, hs[at])
        for c in CORRECTIONS:
            run = _simulate(reduced[c], grid, N, noise, increments=inc,
                            observer=_StateRecorder(grid))     # no dk: only states are read
            lifted = _lift(run.states.transpose(1, 0, 2), hs[at])
            gaps = _moving_gaps(lifted, hs[at], his[at], prob.base_set, prob.hfield.b_h)
            feasibility[c].append(float(np.max(gaps)))
            if direct_one_d:
                diff = np.sqrt(np.max(sq_norms(lifted - direct.states), axis=1))
                distances[c].append(float(np.mean(diff)))
    return ConvergenceReport(
        step_sizes=[grid.h for grid in grids],
        sup_distances=distances,
        feasibility=feasibility,
        details={"particles": N, "direct_reference": direct_one_d},
    )
