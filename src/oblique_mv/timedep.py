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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convexcore import Box, ConvexConstraint
from .dynamics import CoefficientField, ObliqueField, inverse_spd, validate_oblique
from .errors import ConfigurationError, ReductionError
from .measures import EmpiricalMeasure, sq_norms
from .mvsolver import System, TimeGrid, _simulate

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


def reduce_time_dependent(prob, correction="chain-rule"):
    """Build the fixed-set oblique system equivalent to the moving problem."""
    if correction not in CORRECTIONS:
        raise ConfigurationError(f"correction must be one of {CORRECTIONS}")
    hf = prob.hfield
    base = prob.coeffs
    t0, _ = prob.horizon
    span = prob.horizon[1] - prob.horizon[0]
    sign = -1.0 if correction == "chain-rule" else 1.0
    noise_correction = correction == "as-printed"

    frame_cache = [None, None]      # [t, (H(t), H(t)^{-1}, H'(t))]

    def frame(t):
        """``H(t)``, its inverse and ``H'(t)``, computed once per time ``t``:
        a step evaluates the matrix, drift and diffusion at the same ``t``."""
        if frame_cache[0] is None or frame_cache[0] != t:
            h = hf(t=t)
            frame_cache[:] = t, (h, inverse_spd(h), hf.derivative_at(t, span))
        return frame_cache[1]

    def matrix(t):
        _, hi, _ = frame(t)
        return hi @ hi

    def matrix_derivative(t):
        _, hi, hp = frame(t)
        hih = hi @ hp @ hi
        return -(hih @ hi + hi @ hih)

    oblique = ObliqueField(
        matrix,
        a_h=1.0 / hf.b_h**2,
        b_h=1.0 / hf.a_h**2,
        dim=hf.dim,
        time_dependent=True,
        derivative=matrix_derivative if hf.derivative_is_analytic else None,
    )

    def drift(xbar, mu, u, t):
        h, hi, hp = frame(t)
        x = xbar @ h.T
        inner = base.drift(x, mu, u, t) + sign * (xbar @ hp.T)
        return inner @ hi.T

    def diffusion(xbar, mu, u, t):
        h, hi, hp = frame(t)
        x = xbar @ h.T
        g = base.diffusion(x, mu, u, t)
        if noise_correction:
            g = g + (xbar @ hp.T)[..., None]
        if g.ndim == 2:
            return hi @ g
        return np.einsum("ij,njd->nid", hi, g)

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
    )
    xbar0 = inverse_spd(hf(t=t0)) @ prob.x0
    return System(reduced, oblique, prob.base_set, xbar0,
                  label=f"reduced[{correction}]")


def lift_solution(states, hfield, times):
    """Map fixed-set paths back to the moving set, node by node."""
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    if states.shape[-2] != times.size:
        raise ConfigurationError(
            f"grid mismatch: {states.shape[-2]} nodes vs {times.size} times"
        )
    out = np.empty_like(states)
    for j, t in enumerate(times):
        out[..., j, :] = states[..., j, :] @ hfield(t=t).T
    return out


def moving_set_distance(x, hfield, t, base_set):
    """Distance to the moving set at time t (exact for 1-d intervals)."""
    geom = base_set.geometry
    h = hfield(t=t)
    if isinstance(geom, Box) and base_set.dim == 1:
        lo = geom.lower[0] * h[0, 0]
        hi = geom.upper[0] * h[0, 0]
        return np.maximum(np.maximum(lo - x[..., 0], x[..., 0] - hi), 0.0)
    # upper bound via the fixed set, scaled by the matrix norm
    xbar = x @ inverse_spd(h).T
    return base_set.distance(xbar) * hfield.b_h


def simulate_moving_interval(prob, grid, particles, noise, increments=None):
    """Direct projected Euler on a 1-d moving interval [H(t) lo, H(t) hi].

    The reference dynamics for the equivalence check, a discrete
    Skorohod problem in the moving domain (Nyström & Önskog 2010): the
    coefficients see the empirical law of ``H^{-1}(t_k) x``, which is
    exactly the law carried by the reduced fixed-set system, the
    reflection is the identity, and step ``k`` ends in the interval
    scaled to ``t_{k+1}``, i.e. a clip.  Runs through the step loop of
    :mod:`oblique_mv.mvsolver` and returns its ``PathEnsemble``; that
    ensemble's system carries the base interval, so measure feasibility
    with ``moving_set_distance``, not ``feasibility_gap()``.
    """
    geom = prob.base_set.geometry
    if prob.coeffs.state_dim != 1 or not isinstance(geom, Box):
        raise ConfigurationError("direct moving-set simulation supports 1-d intervals")
    coeffs = prob.coeffs
    times = grid.times
    scales = [prob.hfield(t=t)[0, 0] for t in times]
    # H(t) > 0 scales the validated base interval to another valid one
    intervals = [ConvexConstraint("indicator", 1, geometry=Box(geom.lower * s, geom.upper * s))
                 for s in scales]
    identity = np.ones(1)       # the declared diagonal of ObliqueField.identity(1)

    def moving(k, X, u):
        mu = EmpiricalMeasure(X / scales[k]) if coeffs.uses_measure else None
        return (coeffs.drift(X, mu, None, times[k]), coeffs.diffusion(X, mu, None, times[k]),
                identity, intervals[k + 1])

    system = System(coeffs, ObliqueField.identity(1), prob.base_set, prob.x0,
                    label="moving-direct")
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


def equivalence_check(prob, step_ladder, particles, noise,
                      corrections=CORRECTIONS):
    """Solve reduced systems over a grid ladder and compare with the direct
    moving-interval dynamics under a shared Brownian path.

    Increments are drawn on the finest grid and block-summed for coarser
    levels, so distances across the ladder reflect discretization alone.
    """
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

    reduced = {c: reduce_time_dependent(prob, correction=c) for c in corrections}
    distances = {c: [] for c in corrections}
    feasibility = {c: [] for c in corrections}
    hs = []
    direct_one_d = prob.coeffs.state_dim == 1 and isinstance(prob.base_set.geometry, Box)
    for steps in steps_list:
        grid = TimeGrid(t0, t1, steps)
        factor = finest // steps
        inc = fine_inc.reshape(N, steps, factor, -1).sum(axis=2)
        hs.append(grid.h)
        if direct_one_d:
            direct = simulate_moving_interval(prob, grid, N, noise, inc)
        for c in corrections:
            run = _simulate(reduced[c], grid, N, noise, increments=inc)[0]
            lifted = lift_solution(run.states, prob.hfield, grid.times)
            gaps = [
                float(np.max(moving_set_distance(
                    lifted[:, j, :], prob.hfield, t, prob.base_set)))
                for j, t in enumerate(grid.times)
            ]
            feasibility[c].append(max(gaps))
            if direct_one_d:
                diff = np.sqrt(np.max(sq_norms(lifted - direct.states), axis=1))
                distances[c].append(float(np.mean(diff)))
    return ConvergenceReport(
        step_sizes=hs,
        sup_distances=distances,
        feasibility=feasibility,
        details={"particles": N, "direct_reference": direct_one_d},
    )
