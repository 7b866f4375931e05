"""Monte-Carlo optimal control on reflected mean-field dynamics.

The admissible class is piecewise-constant controls with finitely many
equally spaced switch times and values on a finite grid; the value function
is the minimum of the estimated cost over the enumerated family.  All
comparisons (across controls, penalization levels, or start-point
perturbations) run under common random numbers: every replication keys its
Brownian increments off the same counter-based stream.

Every multi-ensemble estimate runs through the one ensemble runner,
``mvsolver._stream_batches``, as batches of the step loop whose streaming
observers reduce the paths to what the estimate needs.  As in the loop,
``eps=None`` names the projected scheme and a positive ``eps`` the
penalized one.  The cost estimates (``value``, both legs of the DPP
residual and the value ladder) go through ``_cost_runs``, whose runner
variants are (level or start points, control); the penalization probe's
are its ladder levels.  ``_stderr`` is the one Monte-Carlo standard error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CostField
from .errors import BudgetError, ConfigurationError
from .measures import sq_norms
from .mvsolver import (
    NoiseSource,
    System,
    TimeGrid,
    _stream_batches,
)

CONTROL_FAMILY_LIMIT = 100_000


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant control: values on the cells between switch times."""

    values: tuple
    switch_times: tuple = ()

    def __post_init__(self):
        if len(self.values) != len(self.switch_times) + 1:
            raise ConfigurationError("need one more value than switch times")

    def value_at(self, t):
        for i, s in enumerate(self.switch_times):
            if t < s:
                return self.values[i]
        return self.values[-1]

    def per_step(self, grid):
        """Control value on each step's left endpoint, plus the final node."""
        times = grid.times
        return np.array([self.value_at(t) for t in times], dtype=float)


@dataclass
class ControlProblem:
    """Controlled dynamics plus running/terminal costs over a horizon."""

    system: System
    costs: CostField
    control_set: tuple
    horizon: tuple

    def __post_init__(self):
        if len(self.control_set) == 0:
            raise ConfigurationError("the control set must be nonempty")
        if not self.system.oblique.time_dependent:
            raise ConfigurationError(
                "controlled problems require a time-dependent oblique matrix"
            )
        if not self.system.coeffs.controlled:
            raise ConfigurationError("coefficients must accept a control argument")
        s, t = self.horizon
        if not t > s:
            raise ConfigurationError("horizon must satisfy s < T")

    def restarted(self, start, x0):
        """Same problem from a later start time and a new initial state."""
        sys2 = System(self.system.coeffs, self.system.oblique,
                      self.system.constraint, np.atleast_1d(x0),
                      label=self.system.label)
        return ControlProblem(sys2, self.costs, self.control_set,
                              (start, self.horizon[1]))


@dataclass
class SimConfig:
    """Discretization and sampling budget for value estimation."""

    steps: int
    particles: int
    replications: int
    seed: int
    threads: int = 1            # accepted for compatibility; runs are single-threaded
    switches: int = 0
    clusters: int = 8
    inner_replications: int = 12
    nested_budget: int = 20_000


@dataclass
class ValueEstimate:
    value: float
    mc_stderr: float
    replications: int
    minimizer: ControlPath
    per_control: dict = field(default_factory=dict)
    rep_costs: np.ndarray | None = None


@dataclass
class RateReport:
    """Log-log rate fit over a parameter ladder."""

    xs: list
    ys: list
    slope: float
    r_squared: float
    stderrs: list
    degenerate: bool = False
    floor_suspected: bool = False
    extras: dict = field(default_factory=dict)


@dataclass
class RegularityProbe:
    scale: float
    dx: np.ndarray
    ds: float
    dv: float
    dv_stderr: float
    ratio: float
    ratio_stderr: float


@dataclass
class RegularityReport:
    base_value: float
    probes: list


# ---------------------------------------------------------------------------
# Cost functional


def cost(ensemble, control, costs):
    """Trapezoidal running cost plus terminal cost, averaged over particles.

    ``control`` is a ControlPath or a per-node value array matching the
    ensemble grid.
    """
    grid = ensemble.grid
    if isinstance(control, ControlPath):
        u_nodes = control.per_step(grid)
    elif control is None:
        u_nodes = np.zeros(grid.steps + 1)
    else:
        u_nodes = np.asarray(control, dtype=float)
        if u_nodes.ndim == 0:
            u_nodes = np.full(grid.steps + 1, float(u_nodes))
        elif u_nodes.size == grid.steps:
            u_nodes = np.append(u_nodes, u_nodes[-1])
    states = ensemble.states
    z = np.empty(states.shape[:2])
    for k in range(states.shape[1]):
        z[:, k] = costs.running(states[:, k, :], u_nodes[k])
    per_particle = np.trapezoid(z, dx=grid.h, axis=1) + costs.terminal(states[:, -1, :])
    return float(np.mean(per_particle)), float(_stderr(per_particle))


def _stderr(samples):
    """Monte-Carlo standard error of the mean over the first axis; zeros for one sample."""
    n = samples.shape[0]
    if n < 2:
        return np.zeros(samples.shape[1:])
    return samples.std(axis=0, ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# Value function


def control_family(prob, switches):
    """All piecewise-constant controls with the given number of switches."""
    count = len(prob.control_set) ** (switches + 1)
    if count > CONTROL_FAMILY_LIMIT:
        raise ConfigurationError(
            f"control family of size {count} exceeds the limit {CONTROL_FAMILY_LIMIT}"
        )
    s, t = prob.horizon
    times = tuple(s + (t - s) * (i + 1) / (switches + 1) for i in range(switches))
    return [
        ControlPath(values=v, switch_times=times)
        for v in itertools.product(prob.control_set, repeat=switches + 1)
    ]


class _CostStream:
    """Streams each particle's trapezoid of the running cost along the loop.

    The rows form ``len(u_nodes)`` equal contiguous blocks; block ``b`` runs
    under the control ``u_nodes[b]`` (one value per grid node), and the
    running cost is called once per block and node.  ``integral`` is the
    per-row trapezoid of the running cost and ``X`` the latest states.
    """

    def __init__(self, running, u_nodes, h):
        self.running, self.u_nodes, self.h = running, np.asarray(u_nodes), h

    def _z(self, X, node):
        blocks = len(self.u_nodes)
        z = np.empty(X.shape[0])
        for zb, Xb, u in zip(z.reshape(blocks, -1), X.reshape(blocks, -1, X.shape[1]),
                             self.u_nodes):
            zb[...] = self.running(Xb, u[node])
        return z

    def start(self, X):
        self.X, self.z = X, self._z(X, 0)
        self.integral = np.zeros(X.shape[0])

    def step(self, k, X, dk_step):
        z = self._z(X, k + 1)
        self.integral += self.h * (z + self.z) / 2.0
        self.X, self.z = X, z


def _cost_runs(prob, eps, grid, particles, streams, u_nodes, x0=None, draw=None):
    """Running-cost integrals ``(V, F, S, N)`` and end states ``(V, F, S, N, m)``
    of every (variant, control, stream), run by ``_stream_batches`` with
    (variant, control) as its variants and ``draw`` passed on.

    The variants are the levels of an array ``eps``, or the first axis of
    ``x0``, one start point per (variant, stream); by default there is one.
    """
    F, S, N = len(u_nodes), len(streams), particles
    m = prob.system.state_dim
    V = len(eps) if np.ndim(eps) else 1 if x0 is None else x0.shape[0]
    blocks = np.tile(u_nodes, (V, 1))                           # (variant, control)
    integral, ends = np.empty((V, F, S, N)), np.empty((V, F, S, N, m))
    batches = _stream_batches(
        prob.system, grid, N, streams, variants=V * F,
        eps=np.repeat(eps, F) if np.ndim(eps) else eps, control=blocks,
        x0=None if x0 is None
        else np.broadcast_to(x0[:, None], (V, F, S, m)).reshape(V * F, S, m),
        observer=lambda: _CostStream(prob.costs.running, blocks, grid.h), draw=draw)
    for chunk, run in batches:
        integral[:, :, chunk] = run.integral.reshape(V, F, -1, N)
        ends[:, :, chunk] = run.X.reshape(V, F, -1, N, m)
    return integral, ends


def _mean_costs(prob, integral, ends):
    """Mean over the particles of running plus terminal cost, per run."""
    terminal = prob.costs.terminal(ends.reshape(-1, ends.shape[-1]))
    return (integral + terminal.reshape(integral.shape)).mean(axis=-1)


def _value_costs(prob, eps, cfg, noise, family, skip=0, draw=None):
    """Per-replication cost tables ``(variants, replications, controls)``.

    Runs on the problem's horizon in ``cfg.steps - skip`` steps, driven by
    the last steps of each replication's increments on the ``draw`` grid
    (default the run grid), with one variant per level of an array ``eps``.
    Each column is contiguous, so sums over replications add in one order
    however they were chunked.
    """
    grid = TimeGrid(prob.horizon[0], prob.horizon[1], cfg.steps - skip)
    u_nodes = np.array([c.per_step(grid) for c in family])
    streams = [noise.for_replication(r) for r in range(cfg.replications)]
    runs = _cost_runs(prob, eps, grid, cfg.particles, streams, u_nodes, draw=draw)
    return _mean_costs(prob, *runs).transpose(0, 2, 1), grid


def _best_control(table):
    """Per-control means of a ``(replications, controls)`` cost table, the
    index of the smallest and the Monte-Carlo standard error of that one."""
    means = table.mean(axis=0)
    best = int(np.argmin(means))
    return means, best, float(_stderr(table[:, best]))


def value(prob, cfg, eps=None, noise=None, family=None):
    """Minimum estimated cost over the enumerated control family, under ``eps``."""
    if noise is None:
        noise = NoiseSource(cfg.seed).child(1)
    if family is None:
        family = control_family(prob, cfg.switches)
    table = _value_costs(prob, eps, cfg, noise, family)[0][0]
    means, best, stderr = _best_control(table)
    return ValueEstimate(
        value=float(means[best]),
        mc_stderr=stderr,
        replications=table.shape[0],
        minimizer=family[best],
        per_control={f.values: float(m) for f, m in zip(family, means)},
        rep_costs=table,
    )


# ---------------------------------------------------------------------------
# Dynamic programming residual


def _kmeans(points, k):
    """Small deterministic Lloyd iteration; centers are cluster means."""
    pts = np.asarray(points, dtype=float)
    uniq = np.unique(pts, axis=0)
    k = min(k, uniq.shape[0])
    order = np.argsort(pts[:, 0], kind="stable")
    centers = pts[order[np.linspace(0, pts.shape[0] - 1, k).astype(int)]].copy()
    for _ in range(60):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        new = centers.copy()
        for j in range(k):
            sel = labels == j
            if np.any(sel):
                new[j] = pts[sel].mean(axis=0)
        if np.allclose(new, centers, atol=1e-13):
            break
        centers = new
    return centers, labels


def _nested_values(prob, eps, grid, particles, replications, noise, centers):
    """Values on ``grid`` from every center of every first control, as one batch.

    ``centers[i]`` holds first control i's cluster centers.  The value from
    center ``j`` is the minimum over the constant controls of the mean cost
    over ``replications`` replications keyed by ``noise.child(2, j)``,
    exactly as ``value`` estimates it.  The first controls are the
    variants of ``_cost_runs`` and the (cluster, replication) slots its
    streams, so each slot draws its increments once for all of them.  First
    controls with fewer clusters than the most run padding groups that are
    discarded.  Returns ``(values, stderrs)`` per first control.
    """
    family = control_family(prob, 0)
    u_nodes = np.array([c.per_step(grid) for c in family])
    I, U, R = len(centers), len(family), replications
    J = max(len(c) for c in centers)
    starts = np.array([np.concatenate([c, np.repeat(c[:1], J - len(c), axis=0)])
                       for c in centers])                       # (I, J, m)
    streams = [noise.child(2, j).for_replication(r) for j in range(J) for r in range(R)]
    runs = _cost_runs(prob, eps, grid, particles, streams, u_nodes,
                      x0=np.repeat(starts, R, axis=1))
    costs = _mean_costs(prob, *runs).reshape(I, U, J, R)
    out = []
    for i, c in enumerate(centers):
        best = [_best_control(costs[i, :, j].T) for j in range(len(c))]
        out.append((np.array([means[b] for means, b, _ in best]),
                    np.array([se for _, _, se in best])))
    return out


def dpp_residual(prob, tau, cfg, eps=None, noise=None):
    """Gap between the value and its one-step dynamic-programming rewrite.

    The left side is the value over controls allowed to switch at ``tau``;
    the right side re-optimizes the first leg and prices the state at
    ``tau`` with nested value estimates on a small set of cluster
    representatives (centers are within-cluster means, so the first-order
    lookup error cancels).  Returns ``(residual, combined stderr)``.
    """
    if noise is None:
        noise = NoiseSource(cfg.seed)
    s, t_end = prob.horizon
    grid = TimeGrid(s, t_end, cfg.steps)
    lattice = (tau - s) / grid.h
    tau_idx = int(round(lattice)) if math.isfinite(lattice) else -1
    if tau_idx < 0 or tau_idx >= cfg.steps:
        raise ConfigurationError("need s <= tau < T on the step lattice")
    if abs(lattice - tau_idx) > 1e-9:         # rounding noise only, not a snap
        near = s + math.floor(lattice) * grid.h
        raise ConfigurationError(f"tau = {tau} is not on the step lattice (step {grid.h}); "
                                 f"the nearest lattice times are {near} and {near + grid.h}")
    tau_snap = grid.times[tau_idx]

    controls = list(prob.control_set)
    inner_sims = cfg.clusters * len(controls) * cfg.inner_replications
    if tau_idx > 0 and inner_sims > cfg.nested_budget:
        raise BudgetError(
            f"nested budget exceeded: {inner_sims} inner runs > {cfg.nested_budget}"
        )

    if tau_idx == 0:
        lhs = value(prob, cfg, eps, noise=noise.child(1))
        return 0.0, lhs.mc_stderr

    # left side: allow a switch exactly at tau
    pair_family = [
        ControlPath(values=(u1, u2), switch_times=(tau_snap,))
        for u1 in controls for u2 in controls
    ]
    lhs = value(prob, cfg, eps, noise=noise.child(1), family=pair_family)

    # first leg per initial control, all controls and replications batched
    head_grid = TimeGrid(s, tau_snap, tau_idx)
    u_nodes = np.repeat(np.asarray(controls, dtype=float)[:, None], tau_idx + 1, axis=1)
    streams = [noise.child(1).for_replication(r) for r in range(cfg.replications)]
    running_all, ends_all = (a[0] for a in _cost_runs(prob, eps, head_grid, cfg.particles,
                                                      streams, u_nodes))
    pooled_all = ends_all.reshape(len(controls), -1, prob.system.state_dim)
    centers = [_kmeans(pooled, cfg.clusters)[0] for pooled in pooled_all]
    tail_grid = TimeGrid(tau_snap, t_end, cfg.steps - tau_idx)
    nested = _nested_values(prob, eps, tail_grid, cfg.particles,
                            cfg.inner_replications, noise, centers)
    best_rhs, best_se = np.inf, 0.0
    for running, pooled, cs, (center_vals, center_ses) in zip(running_all, pooled_all,
                                                              centers, nested):
        d2 = np.sum((pooled[:, None, :] - cs[None, :, :]) ** 2, axis=2)
        lookup = center_vals[np.argmin(d2, axis=1)].reshape(running.shape)
        rep_means = (running + lookup).mean(axis=1)
        rhs_u1 = float(rep_means.mean())
        se_outer = float(_stderr(rep_means))
        se_u1 = math.sqrt(se_outer**2 + float(np.max(center_ses)) ** 2)
        if rhs_u1 < best_rhs:
            best_rhs, best_se = rhs_u1, se_u1

    residual = abs(lhs.value - best_rhs)
    return residual, math.sqrt(lhs.mc_stderr**2 + best_se**2)


# ---------------------------------------------------------------------------
# Rate probes


def _fit_loglog(xs, ys):
    lx, ly = np.log(np.asarray(xs)), np.log(np.asarray(ys))
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(r2)


def penalization_ladder(eps_ladder):
    """The levels of a rate fit, sorted: at least 3, none repeated."""
    ladder = sorted(float(e) for e in eps_ladder)
    if len(ladder) < 3:
        raise ConfigurationError(
            f"the penalization ladder needs at least 3 levels, got {len(ladder)}")
    repeats = [a for a, b in zip(ladder, ladder[1:]) if a == b]
    if repeats:     # a zero gap between equal levels has no logarithm
        raise ConfigurationError(f"the penalization ladder repeats the level {repeats[0]}")
    return ladder


class _LadderGaps:
    """Streams the distance between consecutive smoothing levels.

    The rows are ``levels`` equal blocks, one per level, each holding the
    same replications in the same order; ``sq_sum`` accumulates
    ``|x^(l+1) - x^l|^2`` over the grid nodes and ``sup`` keeps the pathwise
    maximum of ``|x^(l+1) - x^l|``, both ``(levels - 1, rows per level)``.
    """

    def __init__(self, levels):
        self.levels = levels

    def start(self, X):
        shape = (self.levels - 1, X.shape[0] // self.levels)
        self.sq_sum, self.sup = np.zeros(shape), np.zeros(shape)

    def step(self, k, X, dk_step):
        Xl = X.reshape(self.levels, -1, X.shape[1])
        gap = np.sqrt(sq_norms(Xl[1:] - Xl[:-1]))
        self.sq_sum += gap**2
        np.maximum(self.sup, gap, out=self.sup)


def penalization_rate_probe(prob, control, eps_ladder, cfg, noise=None,
                            horizon=None):
    """Fit the decay of the coupled distance between smoothing levels.

    Consecutive ladder pairs are coupled through shared increments, so the
    measured distance isolates the smoothing error.  The primary fit is on
    the time-integrated squared distance ``E int |x^eps - x^eps'|^2 dt``
    (the norm in which the family is Cauchy); the pathwise-sup variant is
    reported in ``extras``.  ``prob`` may be a control problem (with
    ``control`` fixed) or a bare system plus an explicit horizon.
    """
    ladder = penalization_ladder(eps_ladder)
    if noise is None:
        noise = NoiseSource(cfg.seed).child(3)
    if isinstance(prob, ControlProblem):
        system, horizon = prob.system, prob.horizon
    else:
        system = prob
        if horizon is None:
            raise ConfigurationError("a bare system needs an explicit horizon")
    grid = TimeGrid(horizon[0], horizon[1], cfg.steps)
    ctrl_steps = control.per_step(grid) if isinstance(control, ControlPath) \
        else control

    L, R, N = len(ladder), cfg.replications, cfg.particles
    # (replications, len - 1, N), C order as the means below expect
    per_rep, per_rep_sup = np.empty((R, L - 1, N)), np.empty((R, L - 1, N))
    streams = [noise.for_replication(r) for r in range(R)]
    for chunk, gaps in _stream_batches(system, grid, N, streams, variants=L, eps=ladder,
                                       control=ctrl_steps, observer=lambda: _LadderGaps(L)):
        per_rep[chunk] = (gaps.sq_sum.reshape(L - 1, -1, N) * grid.h).transpose(1, 0, 2)
        per_rep_sup[chunk] = (gaps.sup.reshape(L - 1, -1, N) ** 2).transpose(1, 0, 2)
    dists = per_rep.mean(axis=(0, 2))
    sup_dists = per_rep_sup.mean(axis=(0, 2))
    stderrs = _stderr(per_rep.mean(axis=2))
    xs = [ladder[i] + ladder[i + 1] for i in range(len(ladder) - 1)]
    if float(np.max(dists)) < 1e-16:
        return RateReport(xs, list(dists), float("nan"), 0.0, list(stderrs),
                          degenerate=True)
    slope, r2 = _fit_loglog(xs, dists)
    sup_slope, sup_r2 = _fit_loglog(xs, sup_dists)
    return RateReport(xs, list(dists), slope, r2, list(stderrs),
                      extras={"sup_distances": list(sup_dists),
                              "sup_slope": sup_slope, "sup_r_squared": sup_r2})


def value_rate_probe(prob, eps_ladder, cfg, noise=None):
    """Fit |V_eps - V_projected| against eps over the penalization ladder."""
    ladder = penalization_ladder(eps_ladder)
    if noise is None:
        noise = NoiseSource(cfg.seed).child(4)
    family = control_family(prob, cfg.switches)
    ref_table = _value_costs(prob, None, cfg, noise, family)[0][0]
    tables = _value_costs(prob, ladder, cfg, noise, family)[0]
    ref_rep = ref_table.min(axis=1)
    v_ref = float(ref_table.mean(axis=0).min())
    dists = [abs(float(table.mean(axis=0).min()) - v_ref) for table in tables]
    stderrs = [float(_stderr(table.min(axis=1) - ref_rep)) for table in tables]
    floor = dists[-1] <= 3 * stderrs[-1] or (len(dists) > 1 and dists[-1] >= dists[-2])
    if float(np.max(dists)) < 1e-16:
        return RateReport(list(ladder), dists, float("nan"), 0.0, stderrs,
                          degenerate=True, floor_suspected=floor)
    slope, r2 = _fit_loglog(ladder, dists)
    return RateReport(list(ladder), dists, slope, r2, stderrs,
                      floor_suspected=floor)


def value_regularity_probe(prob, perturbations, cfg, eps=None, noise=None):
    """Ratios |dV| / (|dx| + sqrt(ds)) for start-point perturbations.

    Start-time shifts are snapped to the base step lattice and the shifted
    run consumes the tail of the same master increment stream, so value
    differences are pathwise-coupled.
    """
    if noise is None:
        noise = NoiseSource(cfg.seed).child(5)
    s, t_end = prob.horizon
    base_grid = TimeGrid(s, t_end, cfg.steps)
    h = base_grid.h

    def costs_from(start_idx, x0):
        start = base_grid.times[start_idx]
        sub = prob.restarted(start, x0) if start_idx or not np.allclose(
            x0, prob.system.x0) else prob
        # the shifted run consumes the tail of the base grid's increments
        return _value_costs(sub, eps, cfg, noise, control_family(sub, cfg.switches),
                            skip=start_idx, draw=base_grid)[0][0]

    base_table = costs_from(0, prob.system.x0)
    v_base = float(base_table.mean(axis=0).min())
    base_rep = base_table.min(axis=1)

    probes = []
    for scale, dx, ds in perturbations:
        dx = np.atleast_1d(np.asarray(dx, dtype=float))
        ds_idx = int(round(ds / h))
        ds_real = ds_idx * h
        table = costs_from(ds_idx, prob.system.x0 + dx)
        v_pert = float(table.mean(axis=0).min())
        se = float(_stderr(table.min(axis=1) - base_rep))
        denom = float(np.linalg.norm(dx)) + math.sqrt(ds_real)
        if denom <= 0:
            ratio, ratio_se = 0.0, 0.0
        else:
            ratio = abs(v_pert - v_base) / denom
            ratio_se = se / denom
        probes.append(RegularityProbe(scale, dx, ds_real, v_pert - v_base, se,
                                      ratio, ratio_se))
    return RegularityReport(v_base, probes)
