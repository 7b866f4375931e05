"""Monte-Carlo optimal control on reflected mean-field dynamics.

The admissible class is piecewise-constant controls with finitely many
equally spaced switch times and values on a finite grid; the value function
is the minimum of the estimated cost over the enumerated family.  All
comparisons (across controls, penalization levels, or start-point
perturbations) run under common random numbers: every replication keys its
Brownian increments off the same counter-based stream.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CostField
from .errors import BudgetError, ConfigurationError
from .mvsolver import (
    NoiseSource,
    System,
    TimeGrid,
    simulate_penalized,
    simulate_projected,
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
    threads: int = 1
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

    def max_ratio(self):
        return max(p.ratio for p in self.probes)


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
    n, nodes = states.shape[0], states.shape[1]
    z = np.empty((n, nodes))
    for k in range(nodes):
        z[:, k] = costs.running(states[:, k, :], u_nodes[k])
    per_particle = np.trapezoid(z, dx=grid.h, axis=1) + costs.terminal(states[:, -1, :])
    est = float(np.mean(per_particle))
    stderr = float(np.std(per_particle, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, stderr


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


def _map_ordered(fn, items, threads):
    if threads <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _simulate_scheme(system, grid, particles, noise, scheme, control_steps,
                     increments=None):
    if scheme[0] == "projected":
        return simulate_projected(system, grid, particles, noise,
                                  control=control_steps, increments=increments)
    if scheme[0] == "penalized":
        return simulate_penalized(system, scheme[1], grid, particles, noise,
                                  control=control_steps, increments=increments)
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def _simulate_controlled(prob, grid, particles, noise, scheme, control_steps,
                         increments=None):
    return _simulate_scheme(prob.system, grid, particles, noise, scheme,
                            control_steps, increments)


def _value_costs(prob, scheme, cfg, noise, family, grid=None):
    """Per-replication cost table, one row per control, shared increments."""
    if grid is None:
        grid = TimeGrid(prob.horizon[0], prob.horizon[1], cfg.steps)
    steps_per_control = [c.per_step(grid) for c in family]

    def run_rep(r):
        rep_noise = noise.for_replication(r)
        inc = rep_noise.brownian(cfg.particles, grid.steps,
                                 prob.system.noise_dim, grid.h)
        out = np.empty(len(family))
        for i, ctrl_steps in enumerate(steps_per_control):
            ens = _simulate_controlled(prob, grid, cfg.particles, rep_noise,
                                       scheme, ctrl_steps, increments=inc)
            out[i], _ = cost(ens, ctrl_steps, prob.costs)
        return out

    rows = _map_ordered(run_rep, range(cfg.replications), cfg.threads)
    return np.array(rows), grid  # (replications, len(family))


def value(prob, scheme, cfg, noise=None, family=None):
    """Minimum estimated cost over the enumerated control family."""
    if noise is None:
        noise = NoiseSource(cfg.seed).child(1)
    if family is None:
        family = control_family(prob, cfg.switches)
    table, _ = _value_costs(prob, scheme, cfg, noise, family)
    means = table.mean(axis=0)
    best = int(np.argmin(means))
    reps = table.shape[0]
    stderr = float(table[:, best].std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ValueEstimate(
        value=float(means[best]),
        mc_stderr=stderr,
        replications=reps,
        minimizer=family[best],
        per_control={f.values: float(m) for f, m in zip(family, means)},
        rep_costs=table,
    )


# ---------------------------------------------------------------------------
# Dynamic programming residual


def _kmeans(points, k, seed):
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


def dpp_residual(prob, tau, cfg, scheme=("projected",), noise=None):
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
    tau_idx = int(round((tau - s) / grid.h))
    if tau_idx < 0 or tau_idx >= cfg.steps:
        raise ConfigurationError("need s <= tau < T on the step lattice")
    tau_snap = grid.times[tau_idx]

    controls = list(prob.control_set)
    inner_cfg = SimConfig(
        steps=cfg.steps - tau_idx, particles=cfg.particles,
        replications=cfg.inner_replications, seed=cfg.seed,
        threads=cfg.threads, switches=0,
    )
    inner_sims = cfg.clusters * len(controls) * cfg.inner_replications
    if tau_idx > 0 and inner_sims > cfg.nested_budget:
        raise BudgetError(
            f"nested budget exceeded: {inner_sims} inner runs > {cfg.nested_budget}"
        )

    if tau_idx == 0:
        lhs = value(prob, scheme, cfg, noise=noise.child(1))
        return 0.0, lhs.mc_stderr

    # left side: allow a switch exactly at tau
    pair_family = [
        ControlPath(values=(u1, u2), switch_times=(tau_snap,))
        for u1 in controls for u2 in controls
    ]
    lhs = value(prob, scheme, cfg, noise=noise.child(1), family=pair_family)

    # first leg per initial control
    head_grid = TimeGrid(s, tau_snap, tau_idx)
    best_rhs, best_se = np.inf, 0.0
    for u1 in controls:
        ctrl_steps = np.full(tau_idx + 1, float(u1))

        def run_head(r):
            rep_noise = noise.child(1).for_replication(r)
            inc = rep_noise.brownian(cfg.particles, tau_idx,
                                     prob.system.noise_dim, head_grid.h)
            ens = _simulate_controlled(prob, head_grid, cfg.particles, rep_noise,
                                       scheme, ctrl_steps, increments=inc)
            states = ens.states
            z = np.empty((cfg.particles, tau_idx + 1))
            for k in range(tau_idx + 1):
                z[:, k] = prob.costs.running(states[:, k, :], u1)
            running = np.trapezoid(z, dx=head_grid.h, axis=1)
            return running, states[:, -1, :]

        head = _map_ordered(run_head, range(cfg.replications), cfg.threads)
        running = np.stack([h[0] for h in head])        # (R, N)
        ends = np.stack([h[1] for h in head])           # (R, N, m)

        pooled = ends.reshape(-1, ends.shape[-1])
        centers, _ = _kmeans(pooled, cfg.clusters, cfg.seed)
        center_vals = np.empty(centers.shape[0])
        center_ses = np.empty(centers.shape[0])
        for j, c in enumerate(centers):
            sub = prob.restarted(tau_snap, c)
            est = value(sub, scheme, inner_cfg, noise=noise.child(2, j))
            center_vals[j] = est.value
            center_ses[j] = est.mc_stderr

        d2 = np.sum((pooled[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        lookup = center_vals[np.argmin(d2, axis=1)].reshape(ends.shape[:2])
        rep_means = (running + lookup).mean(axis=1)
        rhs_u1 = float(rep_means.mean())
        se_outer = float(rep_means.std(ddof=1) / math.sqrt(cfg.replications)) \
            if cfg.replications > 1 else 0.0
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
    ladder = sorted(float(e) for e in eps_ladder)
    if len(ladder) < 3:
        raise ConfigurationError("the penalization ladder needs at least 3 levels")
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

    def run_rep(r):
        rep_noise = noise.for_replication(r)
        inc = rep_noise.brownian(cfg.particles, grid.steps,
                                 system.noise_dim, grid.h)
        l2s, sups = [], []
        prev = None
        for e in ladder:
            ens = _simulate_scheme(system, grid, cfg.particles, rep_noise,
                                   ("penalized", e), ctrl_steps,
                                   increments=inc)
            if prev is not None:
                # C order keeps the time sum's order independent of the path layout
                diff = np.ascontiguousarray(np.linalg.norm(ens.states - prev, axis=2))
                l2s.append(np.sum(diff**2, axis=1) * grid.h)
                sups.append(np.max(diff, axis=1) ** 2)
            prev = ens.states
        return np.array(l2s), np.array(sups)        # each (len-1, N)

    results = _map_ordered(run_rep, range(cfg.replications), cfg.threads)
    per_rep = np.stack([r[0] for r in results])
    per_rep_sup = np.stack([r[1] for r in results])
    dists = per_rep.mean(axis=(0, 2))
    sup_dists = per_rep_sup.mean(axis=(0, 2))
    stderrs = per_rep.mean(axis=2).std(axis=0, ddof=1) / math.sqrt(cfg.replications) \
        if cfg.replications > 1 else np.zeros(len(ladder) - 1)
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
    ladder = sorted(float(e) for e in eps_ladder)
    if len(ladder) < 3:
        raise ConfigurationError("the penalization ladder needs at least 3 levels")
    if noise is None:
        noise = NoiseSource(cfg.seed).child(4)
    family = control_family(prob, cfg.switches)
    ref_table, grid = _value_costs(prob, ("projected",), cfg, noise, family)
    ref_rep = ref_table.min(axis=1)
    v_ref = float(ref_table.mean(axis=0).min())
    dists, stderrs = [], []
    for e in ladder:
        table, _ = _value_costs(prob, ("penalized", e), cfg, noise, family)
        v_eps = float(table.mean(axis=0).min())
        diff_rep = table.min(axis=1) - ref_rep
        se = float(diff_rep.std(ddof=1) / math.sqrt(len(diff_rep))) \
            if len(diff_rep) > 1 else 0.0
        dists.append(abs(v_eps - v_ref))
        stderrs.append(se)
    floor = dists[-1] <= 3 * stderrs[-1] or (len(dists) > 1 and dists[-1] >= dists[-2])
    if float(np.max(dists)) < 1e-16:
        return RateReport(list(ladder), dists, float("nan"), 0.0, stderrs,
                          degenerate=True, floor_suspected=floor)
    slope, r2 = _fit_loglog(ladder, dists)
    return RateReport(list(ladder), dists, slope, r2, stderrs,
                      floor_suspected=floor)


def value_regularity_probe(prob, perturbations, cfg, scheme=("projected",),
                           noise=None):
    """Ratios |dV| / (|dx| + sqrt(ds)) for start-point perturbations.

    Start-time shifts are snapped to the base step lattice and the shifted
    run consumes the tail of the same master increment stream, so value
    differences are pathwise-coupled.
    """
    if noise is None:
        noise = NoiseSource(cfg.seed).child(5)
    s, t_end = prob.horizon
    base_grid = TimeGrid(s, t_end, cfg.steps)
    family = control_family(prob, cfg.switches)
    h = base_grid.h

    def costs_from(start_idx, x0):
        steps = cfg.steps - start_idx
        start = base_grid.times[start_idx]
        sub = prob.restarted(start, x0) if start_idx or not np.allclose(
            x0, prob.system.x0) else prob
        grid = TimeGrid(start, t_end, steps)
        sub_family = [ControlPath(c.values, ()) for c in family] \
            if cfg.switches == 0 else control_family(sub, cfg.switches)

        def run_rep(r):
            rep_noise = noise.for_replication(r)
            inc = rep_noise.brownian(cfg.particles, cfg.steps,
                                     prob.system.noise_dim, h)[:, start_idx:, :]
            out = np.empty(len(sub_family))
            for i, ctrl in enumerate(sub_family):
                ctrl_steps = ctrl.per_step(grid)
                ens = _simulate_controlled(sub, grid, cfg.particles, rep_noise,
                                           scheme, ctrl_steps, increments=inc)
                out[i], _ = cost(ens, ctrl_steps, prob.costs)
            return out

        return np.array(_map_ordered(run_rep, range(cfg.replications), cfg.threads))

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
        diff_rep = table.min(axis=1) - base_rep
        se = float(diff_rep.std(ddof=1) / math.sqrt(len(diff_rep))) \
            if len(diff_rep) > 1 else 0.0
        denom = float(np.linalg.norm(dx)) + math.sqrt(ds_real)
        if denom <= 0:
            ratio, ratio_se = 0.0, 0.0
        else:
            ratio = abs(v_pert - v_base) / denom
            ratio_se = se / denom
        probes.append(RegularityProbe(scale, dx, ds_real, v_pert - v_base, se,
                                      ratio, ratio_se))
    return RegularityReport(v_base, probes)
