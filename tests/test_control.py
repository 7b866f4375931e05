import itertools
import math

import numpy as np
import pytest

from oblique_mv import control, library, mvsolver
from oblique_mv.control import (
    ControlPath,
    ControlProblem,
    SimConfig,
    control_family,
    cost,
    dpp_residual,
    penalization_rate_probe,
    value,
    value_rate_probe,
    value_regularity_probe,
    _cost_runs,
    _CostStream,
    _kmeans,
    _value_costs,
)
from oblique_mv.dynamics import CoefficientField, CostField
from oblique_mv.errors import BudgetError, ConfigurationError
from oblique_mv.mvsolver import (
    NoiseSource,
    System,
    TimeGrid,
    simulate_penalized,
    simulate_projected,
)


def deterministic_problem(x0=0.5, controls=(-1.0, 1.0), cost_shape="abs"):
    """Additive two-action drift with zero noise: a hand-checkable oracle."""
    return library.make_control_problem(
        "two_control", theta=0.5, sigma=0.0, x0=x0, controls=controls,
        control_mode="shift", cost_shape=cost_shape,
    )


def ode_cost_oracle(x0, u, theta=0.5, T=1.0, n=200_000):
    """Fine forward-Euler of the reflected deterministic flow plus |x| costs."""
    h = T / n
    x, acc = x0, 0.0
    for _ in range(n):
        acc += abs(x) * h
        x = max(x + h * (-theta * x + u), 0.0)
    return acc + abs(x)


def family_runs(prob, eps, particles, grid, noise, reps, u_nodes):
    """One batch: every control of ``u_nodes`` on every replication of ``reps``.

    Replication ``r`` draws from ``noise.for_replication(r)``.  Returns the
    ``_CostStream``; its rows are ``(control, replication, particle)`` in C
    order.
    """
    inc = mvsolver._stream_increments([noise.for_replication(r) for r in reps], particles,
                                      grid.steps, prob.system.noise_dim, grid.h)
    return mvsolver._simulate(
        prob.system, grid, particles, None, eps=eps,
        control=np.repeat(u_nodes, len(reps), axis=0), increments=inc,
        groups=len(u_nodes) * len(reps),
        observer=_CostStream(prob.costs.running, u_nodes, grid.h),
    )


def recorded_chunks(monkeypatch):
    """The stream count of every batch that ``control`` runs through
    ``_stream_batches``, in order; filled as the batches run."""
    sizes, real = [], mvsolver._stream_batches

    def recording(*args, **kwargs):
        for chunk, run in real(*args, **kwargs):
            sizes.append(chunk.stop - chunk.start)
            yield chunk, run

    monkeypatch.setattr(control, "_stream_batches", recording)
    return sizes


def oracle_dpp_residual(prob, tau, cfg, eps=None):
    """The DPP residual with one ``value`` call per first control and cluster."""
    noise = NoiseSource(cfg.seed)
    s, t_end = prob.horizon
    grid = TimeGrid(s, t_end, cfg.steps)
    tau_idx = int(round((tau - s) / grid.h))
    tau_snap = grid.times[tau_idx]
    controls = list(prob.control_set)
    inner_cfg = SimConfig(
        steps=cfg.steps - tau_idx, particles=cfg.particles,
        replications=cfg.inner_replications, seed=cfg.seed, switches=0,
    )
    pair_family = [
        ControlPath(values=(u1, u2), switch_times=(tau_snap,))
        for u1 in controls for u2 in controls
    ]
    lhs = value(prob, cfg, eps, noise=noise.child(1), family=pair_family)
    head_grid = TimeGrid(s, tau_snap, tau_idx)
    u_nodes = np.repeat(np.asarray(controls, dtype=float)[:, None], tau_idx + 1, axis=1)
    N, m = cfg.particles, prob.system.state_dim
    head = family_runs(prob, eps, N, head_grid, noise.child(1), range(cfg.replications),
                       u_nodes)
    running_all = head.integral.reshape(len(controls), -1, N)
    ends_all = head.X.reshape(len(controls), -1, N, m)
    best_rhs, best_se = np.inf, 0.0
    for running, ends in zip(running_all, ends_all):
        pooled = ends.reshape(-1, ends.shape[-1])
        centers, _ = _kmeans(pooled, cfg.clusters)
        center_vals = np.empty(centers.shape[0])
        center_ses = np.empty(centers.shape[0])
        for j, c in enumerate(centers):
            sub = prob.restarted(tau_snap, c)
            est = value(sub, inner_cfg, eps, noise=noise.child(2, j))
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
    return abs(lhs.value - best_rhs), math.sqrt(lhs.mc_stderr**2 + best_se**2)


def noiseless_under_low_control():
    """``two_control`` whose diffusion vanishes under the control -1.

    Under -1 every particle of every replication follows one path, so its
    end states at tau form a single cluster; under +1 they spread.
    """
    base = library.make_control_problem("two_control")
    coeffs = CoefficientField(
        lambda x, mu, u: (u - 0.5) * x,
        lambda x, mu, u: (0.6 * (np.asarray(u) > 0) + 0.0 * x)[..., None],
        lipschitz=1.5, state_dim=1, noise_dim=1,
        controlled=True, uses_measure=False, normalized=False,
    )
    system = System(coeffs, base.system.oblique, base.system.constraint, [0.4])
    return ControlProblem(system, base.costs, base.control_set, base.horizon)


class TestControlPath:
    def test_value_lookup(self):
        path = ControlPath(values=(1.0, -1.0), switch_times=(0.5,))
        assert path.value_at(0.2) == 1.0
        assert path.value_at(0.7) == -1.0
        grid = TimeGrid(0.0, 1.0, 4)
        np.testing.assert_array_equal(path.per_step(grid), [1, 1, -1, -1, -1])

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            ControlPath(values=(1.0,), switch_times=(0.5,))

    def test_family_enumeration_and_guard(self):
        prob = library.make_control_problem("two_control")
        fam = control_family(prob, 1)
        assert len(fam) == 4
        big = ControlProblem(prob.system, prob.costs, tuple(range(12)),
                             prob.horizon)
        with pytest.raises(ConfigurationError):
            control_family(big, 4)


class TestCost:
    def test_zero_costs(self):
        prob = deterministic_problem()
        grid = TimeGrid(0.0, 1.0, 32)
        ens = simulate_projected(prob.system, grid, 4, NoiseSource(0),
                                 control=np.full(33, 1.0))
        zero = CostField(lambda x, u: 0.0 * x[..., 0], lambda x: 0.0 * x[..., 0],
                         1.0, control_probe=1.0)
        est, se = cost(ens, np.full(33, 1.0), zero)
        assert est == 0.0 and se == 0.0

    def test_constant_path_terminal_only(self):
        sys_ = library.make_system("ou", theta=0.0, sigma=0.0, x0=0.7)
        # zero dynamics: path constant at 0.7
        grid = TimeGrid(0.0, 1.0, 16)
        ens = simulate_projected(sys_, grid, 4, NoiseSource(0))
        costs = CostField(lambda x, u: 0.0 * x[..., 0], lambda x: np.abs(x[..., 0]),
                          1.0)
        est, _ = cost(ens, None, costs)
        assert est == pytest.approx(0.7, abs=1e-12)

    def test_constant_integrand_exact(self):
        sys_ = library.make_system("ou", theta=0.0, sigma=0.0, x0=0.7)
        grid = TimeGrid(0.0, 1.0, 16)
        ens = simulate_projected(sys_, grid, 4, NoiseSource(0))
        costs = CostField(lambda x, u: np.abs(x[..., 0]), lambda x: 0.0 * x[..., 0],
                          1.0)
        est, _ = cost(ens, None, costs)
        assert est == pytest.approx(0.7, abs=1e-12)

    def test_linearity_in_costs(self):
        prob = library.make_control_problem("two_control")
        grid = TimeGrid(0.0, 1.0, 64)
        ens = simulate_projected(prob.system, grid, 16, NoiseSource(1),
                                 control=np.full(65, -1.0))
        base, _ = cost(ens, np.full(65, -1.0), prob.costs)
        doubled = CostField(
            lambda x, u: 2.0 * x[..., 0], lambda x: 2.0 * x[..., 0], 2.0,
            control_probe=-1.0,
        )
        twice, _ = cost(ens, np.full(65, -1.0), doubled)
        assert twice == pytest.approx(2.0 * base, rel=1e-14)


class TestValue:
    def test_singleton_equals_cost(self):
        prob = library.make_control_problem("two_control", controls=(-1.0,))
        cfg = SimConfig(steps=128, particles=32, replications=4, seed=2)
        est = value(prob, cfg)
        assert est.minimizer.values == (-1.0,)
        assert est.value == pytest.approx(est.per_control[(-1.0,)])

    def test_deterministic_two_control_oracle(self):
        prob = deterministic_problem()
        cfg = SimConfig(steps=2048, particles=1, replications=1, seed=3)
        est = value(prob, cfg)
        assert est.minimizer.values == (-1.0,)
        oracle = ode_cost_oracle(0.5, -1.0)
        assert est.value == pytest.approx(oracle, abs=5e-3)

    def test_superset_value_not_larger(self):
        base = library.make_control_problem("two_control", controls=(-1.0, 1.0))
        wider = library.make_control_problem("two_control", controls=(-1.0, 0.0, 1.0))
        cfg = SimConfig(steps=256, particles=64, replications=6, seed=4)
        v_base = value(base, cfg).value
        v_wide = value(wider, cfg).value
        assert v_wide <= v_base + 1e-12

    def test_argmin_invariant_under_cost_scaling(self):
        prob = library.make_control_problem("two_control")
        scaled_costs = CostField(lambda x, u: 7.0 * x[..., 0],
                                 lambda x: 7.0 * x[..., 0], 7.0,
                                 control_probe=-1.0)
        scaled = ControlProblem(prob.system, scaled_costs, prob.control_set,
                                prob.horizon)
        cfg = SimConfig(steps=256, particles=64, replications=6, seed=5)
        a = value(prob, cfg)
        b = value(scaled, cfg)
        assert a.minimizer.values == b.minimizer.values
        assert b.value == pytest.approx(7.0 * a.value, rel=1e-12)

    def test_nonpositive_level_rejected(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=8, particles=2, replications=2, seed=2)
        with pytest.raises(ValueError, match="must be positive"):
            value(prob, cfg, eps=0.0)

    def test_state_dependent_oblique_rejected(self):
        sys_ = library.make_system("ou")
        coeffs = CoefficientField(lambda x, mu, u: -x, lambda x, mu, u: np.array([[0.3]]),
                                  1.0, 1, 1, controlled=True, uses_measure=False,
                                  normalized=False)
        bad = System(coeffs, sys_.oblique, sys_.constraint, [0.5])
        costs = CostField(lambda x, u: x[..., 0], lambda x: x[..., 0], 1.0,
                          control_probe=0.0)
        with pytest.raises(ConfigurationError):
            ControlProblem(bad, costs, (0.0,), (0.0, 1.0))


class TestDPP:
    def test_singleton_zero_running_cost(self):
        prob = library.make_control_problem("two_control", controls=(-1.0,))
        terminal_only = CostField(lambda x, u: 0.0 * x[..., 0],
                                  lambda x: x[..., 0], 1.0, control_probe=-1.0)
        prob = ControlProblem(prob.system, terminal_only, prob.control_set,
                              prob.horizon)
        cfg = SimConfig(steps=256, particles=64, replications=12, seed=6,
                        inner_replications=8, clusters=6)
        res, se = dpp_residual(prob, 0.5, cfg)
        assert res <= 3 * se + 5.0 / 256

    def test_tau_at_start_is_exact(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=16, replications=2, seed=7)
        res, _ = dpp_residual(prob, 0.0, cfg)
        assert res == 0.0

    def test_deterministic_dpp(self):
        prob = deterministic_problem()
        cfg = SimConfig(steps=1024, particles=1, replications=1, seed=8,
                        inner_replications=1, clusters=2)
        res, se = dpp_residual(prob, 0.5, cfg)
        assert res <= 5.0 / 1024 + 1e-6

    def test_budget_guard(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=2, seed=9,
                        inner_replications=100, clusters=8, nested_budget=100)
        with pytest.raises(BudgetError):
            dpp_residual(prob, 0.5, cfg)

    def test_tau_outside_horizon_rejected(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=2, seed=10)
        with pytest.raises(ConfigurationError):
            dpp_residual(prob, 1.5, cfg)

    def test_off_lattice_tau_rejected(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=8, particles=4, replications=2, seed=10,
                        clusters=2, inner_replications=2)
        with pytest.raises(ConfigurationError) as err:
            dpp_residual(prob, 0.3, cfg)
        message = str(err.value)
        assert all(part in message for part in ("tau = 0.3", "0.125", "0.25", "0.375"))

    def test_tau_within_rounding_of_a_node_runs_at_the_node(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=8, particles=4, replications=2, seed=10,
                        clusters=2, inner_replications=2)
        exact = dpp_residual(prob, 0.25, cfg)
        assert dpp_residual(prob, 0.25 + 1e-12, cfg) == exact
        assert dpp_residual(prob, 0.25 - 1e-12, cfg) == exact


class TestNestedBatch:
    """The nested values of the DPP residual as one batch, against one
    ``value`` call per first control and cluster, bit for bit."""

    def _assert_matches_oracle(self, monkeypatch, prob, cfg, eps=None, counts=None):
        calls, found = [], []
        real_value, real_kmeans = control.value, control._kmeans

        def counted_value(*args, **kwargs):
            calls.append(1)
            return real_value(*args, **kwargs)

        def recorded_kmeans(*args):
            centers, labels = real_kmeans(*args)
            found.append(centers.shape[0])
            return centers, labels

        monkeypatch.setattr(control, "value", counted_value)
        monkeypatch.setattr(control, "_kmeans", recorded_kmeans)
        batched = dpp_residual(prob, 0.5, cfg, eps=eps)
        assert len(calls) == 1                  # the left side only
        if counts is not None:
            assert found == counts
        monkeypatch.undo()
        assert batched == oracle_dpp_residual(prob, 0.5, cfg, eps=eps)

    @pytest.mark.parametrize("scheme", [dict(eps=None), dict(eps=0.05)])
    def test_schemes(self, monkeypatch, scheme):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=3, seed=21,
                        clusters=3, inner_replications=2)
        self._assert_matches_oracle(monkeypatch, prob, cfg, scheme["eps"], counts=[3, 3])

    def test_first_controls_with_different_cluster_counts(self, monkeypatch):
        cfg = SimConfig(steps=64, particles=6, replications=2, seed=22,
                        clusters=4, inner_replications=3)
        self._assert_matches_oracle(monkeypatch, noiseless_under_low_control(), cfg,
                                    counts=[1, 4])

    def test_nested_batch_in_several_chunks(self, monkeypatch):
        # 3 (cluster, replication) slots a chunk: chunks cut across clusters
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=2, seed=23,
                        clusters=3, inner_replications=2)
        slot_bytes = 8 * cfg.particles * 32 * prob.system.noise_dim
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 3 * slot_bytes)
        chunks = recorded_chunks(monkeypatch)
        batched = dpp_residual(prob, 0.5, cfg)
        # the left side's 64-step draws go one per batch, the head leg's two
        # replications in one, the nested leg's 6 slots in two
        assert chunks == [1, 1, 2, 3, 3]
        assert batched == oracle_dpp_residual(prob, 0.5, cfg)
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 32 * 2**20)
        assert dpp_residual(prob, 0.5, cfg) == batched

    def test_many_inner_replications(self, monkeypatch):
        # from 8 replications on numpy sums pairwise, so the nested means
        # must be taken over the same layout as ``value``'s
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=3, seed=25,
                        clusters=2, inner_replications=20)
        self._assert_matches_oracle(monkeypatch, prob, cfg, counts=[2, 2])

    def test_one_inner_replication(self, monkeypatch):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=8, replications=3, seed=24,
                        clusters=2, inner_replications=1)
        self._assert_matches_oracle(monkeypatch, prob, cfg, counts=[2, 2])


class TestCostRuns:
    """Every (variant, control, stream) group of the cost runs, batched by
    ``_stream_batches``, against a ``_simulate`` run of that group alone,
    bit for bit."""

    @pytest.mark.parametrize("variants", ["levels", "starts"])
    def test_groups_match_solo_runs(self, monkeypatch, variants):
        prob = library.make_control_problem("two_control")
        N, S = 4, 5
        grid, draw = TimeGrid(0.0, 1.0, 48), TimeGrid(0.0, 1.0, 64)
        streams = [NoiseSource(31).child(s % 2, s) for s in range(S)]
        u_nodes = np.array([ControlPath((-1.0, 1.0), (0.5,)).per_step(grid),
                            np.full(grid.steps + 1, 1.0)])
        if variants == "levels":
            eps, x0 = [0.2, 0.05], None
        else:
            eps = None
            x0 = np.random.default_rng(3).uniform(0.0, 1.0, (2, S, 1))
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 2 * 8 * N * draw.steps)
        chunks = recorded_chunks(monkeypatch)
        integral, ends = _cost_runs(prob, eps, grid, N, streams, u_nodes, x0=x0, draw=draw)
        assert chunks == [2, 2, 1]
        assert integral.shape == (2, 2, S, N) and ends.shape == (2, 2, S, N, 1)
        for v, f, s in itertools.product(range(2), range(2), range(S)):
            inc = streams[s].brownian(N, draw.steps, 1, draw.h)[:, draw.steps - grid.steps:]
            solo = mvsolver._simulate(
                prob.system, grid, N, None,
                eps=None if eps is None else eps[v], control=u_nodes[f],
                increments=inc, x0=None if x0 is None else x0[v, s][None],
                observer=_CostStream(prob.costs.running, u_nodes[f][None], grid.h),
            )
            np.testing.assert_array_equal(integral[v, f, s], solo.integral)
            np.testing.assert_array_equal(ends[v, f, s], solo.X)


class TestProbes:
    def test_rate_probe_needs_three_levels(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=128, particles=8, replications=2, seed=11)
        with pytest.raises(ConfigurationError):
            penalization_rate_probe(prob, ControlPath((-1.0,)), [0.1, 0.05], cfg)

    def test_rate_probe_degenerate_without_reflection(self):
        # start deep inside with reverting drift: the constraint never binds
        sys_ = library.make_system("ou", theta=0.0, sigma=0.05, x0=5.0)
        cfg = SimConfig(steps=256, particles=16, replications=2, seed=12)
        report = penalization_rate_probe(sys_, None, [0.1, 0.05, 0.025], cfg,
                                         horizon=(0.0, 1.0))
        assert report.degenerate

    def test_rate_probe_on_reflected_ou(self):
        sys_ = library.make_system("ou")
        cfg = SimConfig(steps=1024, particles=64, replications=6, seed=13)
        ladder = [2**-3, 2**-4, 2**-5, 2**-6]
        report = penalization_rate_probe(sys_, None, ladder, cfg,
                                         horizon=(0.0, 1.0))
        assert not report.degenerate
        # distances grow with the pair sum (xs are sorted ascending)
        assert all(a < b for a, b in zip(report.ys, report.ys[1:]))
        assert "sup_slope" in report.extras

    def test_value_rate_probe_smoke(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=512, particles=64, replications=6, seed=14)
        report = value_rate_probe(prob, [2**-3, 2**-4, 2**-5], cfg)
        assert report.slope > 0
        assert len(report.ys) == 3

    def test_value_rate_probe_rejects_a_repeated_level(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=64, particles=4, replications=2, seed=14)
        with pytest.raises(ConfigurationError, match="repeats the level 0.125"):
            value_rate_probe(prob, [0.125, 0.0625, 0.125], cfg)

    def test_regularity_zero_perturbation(self):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=128, particles=16, replications=3, seed=15)
        report = value_regularity_probe(prob, [(0.0, [0.0], 0.0)], cfg)
        assert report.probes[0].dv == 0.0
        assert report.probes[0].ratio == 0.0

    def test_regularity_deterministic_linear(self):
        # no noise and singleton control: V is smooth in x0, so the ratio is
        # scale-stable
        prob = deterministic_problem(controls=(-1.0,))
        cfg = SimConfig(steps=1024, particles=1, replications=1, seed=16)
        report = value_regularity_probe(
            prob, [(0.1, [0.1], 0.0), (0.01, [0.01], 0.0)], cfg
        )
        r1, r2 = (p.ratio for p in report.probes)
        assert r2 <= 3 * r1 and r1 <= 3 * r2


class TestStreamingObservers:
    """Streamed reductions of the batched loop against recorded paths."""

    @pytest.mark.parametrize("scheme", [dict(eps=None), dict(eps=0.05)])
    def test_value_costs_match_recorded_paths(self, scheme):
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=128, particles=16, replications=3, seed=5)
        family = control_family(prob, 1)
        noise = NoiseSource(5).child(1)
        tables, grid = _value_costs(prob, scheme["eps"], cfg, noise, family)
        table = tables[0]
        assert table.shape == (3, len(family))
        for r in range(3):
            rep_noise = noise.for_replication(r)
            inc = rep_noise.brownian(16, 128, 1, grid.h)
            for i, ctrl in enumerate(family):
                u = ctrl.per_step(grid)
                if scheme["eps"] is None:
                    ens = simulate_projected(prob.system, grid, 16, rep_noise, control=u,
                                             increments=inc)
                else:
                    ens = simulate_penalized(prob.system, scheme["eps"], grid, 16, rep_noise,
                                             control=u, increments=inc)
                assert np.any(ens.variation > 0)
                assert table[r, i] == pytest.approx(cost(ens, u, prob.costs)[0],
                                                    rel=1e-12, abs=0)

    def test_shifted_start_consumes_the_increment_tail(self):
        # value_regularity_probe's shifted runs: 96 of 128 base steps, driven
        # by the last 96 increments of each replication's base draw
        prob = library.make_control_problem("two_control")
        cfg = SimConfig(steps=128, particles=16, replications=2, seed=6)
        base = TimeGrid(0.0, 1.0, 128)
        sub = prob.restarted(base.times[32], [0.3])
        family = control_family(sub, 0)
        noise = NoiseSource(6).child(5)
        tables, grid = _value_costs(sub, None, cfg, noise, family, skip=32, draw=base)
        table = tables[0]
        assert grid.steps == 96
        for r in range(2):
            rep_noise = noise.for_replication(r)
            inc = rep_noise.brownian(16, 128, 1, base.h)[:, 32:, :]
            for i, ctrl in enumerate(family):
                u = ctrl.per_step(grid)
                ens = simulate_projected(sub.system, grid, 16, rep_noise, control=u,
                                         increments=inc)
                assert table[r, i] == pytest.approx(cost(ens, u, prob.costs)[0],
                                                    rel=1e-12, abs=0)

    def test_dpp_head_matches_recorded_paths(self):
        prob = library.make_control_problem("two_control")
        grid = TimeGrid(0.0, 0.5, 64)
        controls = prob.control_set
        u_nodes = np.repeat(np.asarray(controls)[:, None], 65, axis=1)
        noise = NoiseSource(9).child(1)
        integral, end_states = _cost_runs(prob, None, grid, 16,
                                          [noise.for_replication(r) for r in range(3)],
                                          u_nodes)
        running, ends = integral[0], end_states[0]
        for i, u1 in enumerate(controls):
            for r in range(3):
                rep_noise = noise.for_replication(r)
                ens = simulate_projected(prob.system, grid, 16, rep_noise,
                                         control=np.full(65, float(u1)),
                                         increments=rep_noise.brownian(16, 64, 1, grid.h))
                z = np.stack([prob.costs.running(ens.states[:, k, :], u1)
                              for k in range(65)], axis=1)
                np.testing.assert_allclose(running[i, r], np.trapezoid(z, dx=grid.h, axis=1),
                                           rtol=1e-12, atol=0)
                np.testing.assert_array_equal(ends[i, r], ens.states[:, -1, :])

    def test_replication_chunks_do_not_change_results(self, monkeypatch):
        # every estimate is per replication, so splitting the replications
        # into batches of one changes no bit; 40 replications are enough for
        # a pairwise sum over them to differ from a sequential one
        prob = library.make_control_problem("two_control")
        ou = library.make_system("ou")

        def estimates(cfg):
            rate = penalization_rate_probe(ou, None, [0.1, 0.05, 0.025], cfg,
                                           horizon=(0.0, 1.0))
            est = value(prob, cfg)
            return (est.value, est.mc_stderr, est.rep_costs.tolist(),
                    dpp_residual(prob, 0.5, cfg), rate.ys, rate.extras["sup_distances"],
                    value_rate_probe(prob, [0.2, 0.1, 0.05], cfg).ys)

        for replications, inner in [(3, 2), (40, 20)]:
            cfg = SimConfig(steps=64, particles=8, replications=replications, seed=17,
                            clusters=2, inner_replications=inner)
            whole = estimates(cfg)
            monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 1)
            chunks = recorded_chunks(monkeypatch)
            assert estimates(cfg) == whole
            assert len(chunks) > replications and set(chunks) == {1}
            monkeypatch.undo()
