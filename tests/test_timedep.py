import numpy as np
import pytest

from oblique_mv import library, mvsolver, timedep
from oblique_mv.convexcore import Box, ConvexConstraint
from oblique_mv.dynamics import (
    CoefficientField,
    ObliqueField,
    _inverses_spd,
    inverse_spd,
    validate_lipschitz,
    validate_oblique,
)
from oblique_mv.errors import ConfigurationError, ReductionError
from oblique_mv.measures import EmpiricalMeasure, dirac, sq_norms
from oblique_mv.mvsolver import NoiseSource, TimeGrid, simulate_projected
from oblique_mv.timedep import (
    MovingConstraintProblem,
    equivalence_check,
    lift_solution,
    reduce_time_dependent,
    simulate_moving_interval,
)


def make_problem(hmat, hderiv, a_h, b_h, drift, diffusion, x0, lipschitz=1.0,
                 base=None, dim=1):
    coeffs = CoefficientField(drift, diffusion, lipschitz, dim, 1,
                              uses_measure=False, normalized=False)
    hfield = ObliqueField(hmat, a_h, b_h, dim, time_dependent=True,
                          derivative=hderiv)
    base = base or ConvexConstraint.box([0.0], [1.0])
    return MovingConstraintProblem(base, hfield, coeffs, x0, (0.0, 1.0))


class TestReduction:
    def test_identity_matrix_is_identity_reduction(self):
        prob = make_problem(
            lambda t: np.eye(1), lambda t: np.zeros((1, 1)), 1.0, 1.0,
            lambda x, mu: -0.5 * x, lambda x, mu: np.array([[0.3]]), [0.5],
        )
        reduced = reduce_time_dependent(prob)
        mu = dirac([0.4])
        x = np.array([[0.4]])
        np.testing.assert_allclose(reduced.coeffs.drift(x, mu, None, 0.3),
                                   [[-0.2]], atol=1e-14)
        np.testing.assert_allclose(reduced.oblique(t=0.3), [1.0], atol=1e-14)
        np.testing.assert_allclose(reduced.x0, [0.5])

    def test_growing_ball_hand_reduction(self):
        # H(t) = (1+t) I on the unit ball with f = g = 0:
        # oblique matrix (1+t)^{-2} I, drift -(or +) xbar/(1+t)
        prob = make_problem(
            lambda t: (1.0 + t) * np.eye(2), lambda t: np.eye(2), 1.0, 2.0,
            lambda x, mu: 0.0 * x, lambda x, mu: np.zeros((2, 1)),
            [0.3, 0.0], base=ConvexConstraint.ball([0.0, 0.0], 1.0), dim=2,
        )
        xbar = np.array([[0.2, -0.1]])
        mu = dirac([0.2, -0.1])
        t = 0.5
        chain = reduce_time_dependent(prob, correction="chain-rule")
        np.testing.assert_allclose(chain.oblique(t=t), np.eye(2) / (1 + t) ** 2,
                                   atol=1e-12)
        np.testing.assert_allclose(chain.coeffs.drift(xbar, mu, None, t),
                                   -xbar / (1 + t), atol=1e-12)
        printed = reduce_time_dependent(prob, correction="as-printed")
        np.testing.assert_allclose(printed.coeffs.drift(xbar, mu, None, t),
                                   xbar / (1 + t), atol=1e-12)

    def test_exponential_scalar_reduction(self):
        # H(t) = e^t: drift is e^{-t} f(e^t xbar) + sign * xbar
        prob = make_problem(
            lambda t: np.array([[np.exp(t)]]), lambda t: np.array([[np.exp(t)]]),
            1.0, np.e,
            lambda x, mu: np.sin(x), lambda x, mu: np.zeros((1, 1)), [0.5],
        )
        xbar = np.array([[0.3]])
        mu = dirac([0.3])
        t = 0.7
        chain = reduce_time_dependent(prob, correction="chain-rule")
        expect = np.exp(-t) * np.sin(np.exp(t) * 0.3) - 0.3
        np.testing.assert_allclose(chain.coeffs.drift(xbar, mu, None, t),
                                   [[expect]], atol=1e-12)
        printed = reduce_time_dependent(prob, correction="as-printed")
        expect_p = np.exp(-t) * np.sin(np.exp(t) * 0.3) + 0.3
        np.testing.assert_allclose(printed.coeffs.drift(xbar, mu, None, t),
                                   [[expect_p]], atol=1e-12)

    def test_reduced_system_passes_validators(self):
        prob = library.make_moving_problem("moving_interval")
        reduced = reduce_time_dependent(prob)
        ob = validate_oblique(reduced.oblique, samples=300, seed=0, horizon=(0.0, 1.0))
        assert ob.passed, ob.details
        lip = validate_lipschitz(reduced.coeffs, pairs=400, seed=0)
        assert lip.passed, (lip.estimate, lip.declared)

    def test_infeasible_start_rejected(self):
        with pytest.raises(ConfigurationError):
            make_problem(
                lambda t: np.eye(1), lambda t: np.zeros((1, 1)), 1.0, 1.0,
                lambda x, mu: 0.0 * x, lambda x, mu: np.zeros((1, 1)), [3.0],
            )

    def test_a_smooth_base_set_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^the base set must be an indicator constraint$"):
            make_problem(
                lambda t: np.eye(1), lambda t: np.zeros((1, 1)), 1.0, 1.0,
                lambda x, mu: 0.0 * x, lambda x, mu: np.zeros((1, 1)), [0.5],
                base=ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 1),
            )

    def test_a_matrix_path_outside_its_band_is_a_reduction_error(self):
        # H(t) = 1 + 2t nears 3 at the sampled times, above the declared b_H = 1.5
        with pytest.raises(ReductionError,
                           match=r"^matrix path violates the ellipticity/symmetry assumptions: "
                                 r"\{.*'rayleigh_max': 2\.99.*'b_h': 1\.5\}$"):
            make_problem(
                lambda t: (1.0 + 2.0 * t) * np.eye(1), lambda t: 2.0 * np.eye(1), 1.0, 1.5,
                lambda x, mu: 0.0 * x, lambda x, mu: np.zeros((1, 1)), [0.5],
            )

    def test_direct_simulation_only_on_an_interval(self):
        prob = make_problem(
            lambda t: (1.0 + t) * np.eye(2), lambda t: np.eye(2), 1.0, 2.0,
            lambda x, mu: 0.0 * x, lambda x, mu: np.zeros((2, 1)),
            [0.3, 0.0], base=ConvexConstraint.ball([0.0, 0.0], 1.0), dim=2,
        )
        with pytest.raises(ConfigurationError,
                           match="^direct moving-set simulation supports 1-d intervals$"):
            simulate_moving_interval(prob, TimeGrid(0.0, 1.0, 4), 2, NoiseSource(0))

    def test_unknown_correction_rejected(self):
        prob = library.make_moving_problem("moving_interval")
        with pytest.raises(ConfigurationError):
            reduce_time_dependent(prob, correction="bogus")


def formula_reduction(prob, correction):
    """The reduced matrix, its derivative, drift and diffusion, each computing
    ``H(t)``, its inverse and ``H'(t)`` afresh on every call."""
    hf, base, span = prob.hfield, prob.coeffs, prob.horizon[1] - prob.horizon[0]
    sign = -1.0 if correction == "chain-rule" else 1.0

    def matrix(t):
        hi = inverse_spd(hf(t=t))
        return hi @ hi

    def matrix_derivative(t):
        hi = inverse_spd(hf(t=t))
        hih = hi @ hf.derivative_at(t, span) @ hi
        return -(hih @ hi + hi @ hih)

    def drift(xbar, mu, u, t):
        h = hf(t=t)
        x = xbar @ h.T
        inner = base.drift(x, mu, u, t) + sign * (xbar @ hf.derivative_at(t, span).T)
        return inner @ inverse_spd(h).T

    def diffusion(xbar, mu, u, t):
        h = hf(t=t)
        g = base.diffusion(xbar @ h.T, mu, u, t)
        if correction == "as-printed":
            g = g + (xbar @ hf.derivative_at(t, span).T)[..., None]
        hi = inverse_spd(h)
        return hi @ g if g.ndim == 2 else np.einsum("ij,njd->nid", hi, g)

    return matrix, matrix_derivative, drift, diffusion


def tilted_problem(analytic):
    """A 2-d non-diagonal H(t) on the unit ball, with a per-particle diffusion."""
    return make_problem(
        lambda t: np.array([[2.0 + np.sin(t), 0.3 * t], [0.3 * t, 1.5 + t * t]]),
        (lambda t: np.array([[np.cos(t), 0.3], [0.3, 2.0 * t]])) if analytic else None,
        0.5, 4.0,
        lambda x, mu: np.stack([-0.5 * x[..., 0] + x[..., 1] ** 2, np.sin(x[..., 0])],
                               axis=-1),
        lambda x, mu: (0.2 + 0.1 * np.abs(x))[..., None],
        [0.3, 0.1], base=ConvexConstraint.ball([0.0, 0.0], 1.0), dim=2,
    )


class TestFrame:
    """The reduced fields share one (H, H^{-1}, H') frame per time; each value
    must equal the formulas evaluated afresh, whatever the call order."""

    @pytest.mark.parametrize("correction", ["chain-rule", "as-printed"])
    @pytest.mark.parametrize("analytic", [True, False])
    def test_frame_matches_fresh_formulas(self, analytic, correction):
        prob = tilted_problem(analytic)
        reduced = reduce_time_dependent(prob, correction=correction)
        matrix, matrix_derivative, drift, diffusion = formula_reduction(prob, correction)
        xbar = np.array([[0.2, -0.1], [0.05, 0.4], [-0.3, 0.0]])
        mu = EmpiricalMeasure(xbar)
        fields = {
            "matrix": (lambda t: reduced.oblique(t=t), matrix),
            "drift": (lambda t: reduced.coeffs.drift(xbar, mu, None, t),
                      lambda t: drift(xbar, mu, None, t)),
            "diffusion": (lambda t: reduced.coeffs.diffusion(xbar, mu, None, t),
                          lambda t: diffusion(xbar, mu, None, t)),
        }
        if analytic:
            fields["derivative"] = (lambda t: reduced.oblique.derivative_at(t),
                                    matrix_derivative)
        else:       # the reduced field's own central difference, around two frames
            fields["derivative"] = (
                lambda t: reduced.oblique.derivative_at(t),
                lambda t: (matrix(t + 1e-6) - matrix(t - 1e-6)) / 2e-6)
        names = sorted(fields)
        # repeated, interleaved and out-of-order times, each field in turn
        calls = [(t, names[(i + k) % len(names)])
                 for i, t in enumerate([0.3, 0.3, 0.7, 0.0, 0.3, 1.0, 0.7, 0.5, 0.5, 0.0])
                 for k in range(len(names) + 1)]
        for t, name in calls:
            got, want = fields[name]
            np.testing.assert_array_equal(got(t), want(t), err_msg=f"{name} at t={t}")
        assert not np.allclose(fields["drift"][0](0.3), fields["drift"][0](0.7))


    @pytest.mark.parametrize("correction", ["chain-rule", "as-printed"])
    @pytest.mark.parametrize("name", ["moving_interval", "negated state"])
    def test_one_d_products_match_the_matmul_form(self, name, correction):
        # in 1-d the reduction scales by H(t)[0, 0] and adds 0.0 in place of the
        # 1x1 matrix products and the einsum: the same bytes, signed zeros,
        # subnormals and infinities included.  The negated state (drift -x, a
        # per-particle diffusion -x) carries a zero's sign through to the output,
        # so a product without the + 0.0 leaves -0.0 where the matmul gives +0.0
        prob = library.make_moving_problem("moving_interval") if name == "moving_interval" \
            else make_problem(lambda t: np.array([[1.0 + t]]), lambda t: np.array([[1.0]]),
                              1.0, 2.0, lambda x, mu: -x, lambda x, mu: -x[..., None], [0.5])
        reduced = reduce_time_dependent(prob, correction=correction)
        matrix, _, drift, diffusion = formula_reduction(prob, correction)
        rng = np.random.default_rng(31)
        xbar = rng.standard_normal((128, 1)) * 10.0 ** rng.integers(-310, 2, (128, 1))
        xbar[:6, 0] = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]
        mu = EmpiricalMeasure(xbar[6:])
        for t in (0.0, 0.3, 1.0):
            with np.errstate(invalid="ignore"):         # inf * 0.0
                got = [reduced.oblique(t=t), reduced.coeffs.drift(xbar, mu, None, t),
                       reduced.coeffs.diffusion(xbar, mu, None, t)]
                want = [matrix(t).reshape(1), drift(xbar, mu, None, t),
                        diffusion(xbar, mu, None, t)]
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("correction", ["chain-rule", "as-printed"])
    def test_an_array_diffusion_is_handed_on_without_a_call(self, monkeypatch, correction):
        # moving_interval's diffusion is an array, which reads no state: the
        # reduction neither forms H(t) xbar for it nor calls the base field
        prob = library.make_moving_problem("moving_interval")
        reduced = reduce_time_dependent(prob, correction=correction)
        xbar = np.linspace(0.0, 1.0, 4)[:, None]
        want = reduced.coeffs.diffusion(xbar, None, None, 0.5)
        monkeypatch.setattr(prob.coeffs, "diffusion", None)
        assert reduced.coeffs.diffusion(xbar, None, None, 0.5).tobytes() == want.tobytes()


class TestLift:
    def test_identity(self):
        hfield = ObliqueField(lambda t: np.eye(1), 1.0, 1.0, 1, time_dependent=True)
        states = np.random.default_rng(0).standard_normal((3, 5, 1))
        times = np.linspace(0, 1, 5)
        np.testing.assert_array_equal(lift_solution(states, hfield, times), states)

    def test_zero_paths(self):
        hfield = ObliqueField(lambda t: np.array([[1 + t]]), 1.0, 2.0, 1,
                              time_dependent=True)
        states = np.zeros((2, 4, 1))
        assert np.all(lift_solution(states, hfield, np.linspace(0, 1, 4)) == 0.0)

    def test_linear_growth(self):
        hfield = ObliqueField(lambda t: np.array([[1 + t]]), 1.0, 2.0, 1,
                              time_dependent=True)
        times = np.linspace(0, 1, 9)
        states = np.ones((1, 9, 1))
        lifted = lift_solution(states, hfield, times)
        np.testing.assert_allclose(lifted[0, :, 0], 1 + times)

    def test_grid_mismatch_rejected(self):
        hfield = ObliqueField(lambda t: np.eye(1), 1.0, 1.0, 1, time_dependent=True)
        with pytest.raises(ConfigurationError):
            lift_solution(np.zeros((1, 5, 1)), hfield, np.linspace(0, 1, 4))


def rotating_hfield(m):
    """A dense, exactly symmetric ``H(t)`` in ``m`` dimensions, eigenvalues
    ``1 + t + i`` on axes turning with ``t``; its bounds hold on [0, 2]."""
    def matrix(t):
        q = np.eye(m)
        for i in range(m - 1):
            c, s = np.cos((i + 1) * t), np.sin((i + 1) * t)
            turn = np.eye(m)
            turn[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
            q = q @ turn
        a = (q * (1.0 + t + np.arange(m))) @ q.T
        return (a + a.T) / 2
    return ObliqueField(matrix, 1.0, m + 2.0, m, time_dependent=True)


def signed_zero_states(rng, shape):
    """Normal draws with about a fifth of the entries +0.0 and a fifth -0.0."""
    x = rng.standard_normal(shape)
    draw = rng.random(shape)
    x[draw < 0.2] = 0.0
    x[draw > 0.8] = -0.0
    return x


def per_node_gaps(states, hfield, times, base_set):
    """The moving-set distance of every node's states, one node at a time."""
    out = []
    for j, t in enumerate(times):
        h, x = hfield(t=t), states[..., j, :]
        if base_set.dim == 1 and isinstance(base_set.geometry, Box):
            lo, hi = base_set.geometry.lower[0] * h[0, 0], base_set.geometry.upper[0] * h[0, 0]
            out.append(np.maximum(np.maximum(lo - x[..., 0], x[..., 0] - hi), 0.0))
        else:
            out.append(base_set.distance(x @ inverse_spd(h).T) * hfield.b_h)
    return np.stack(out, axis=-1)


class TestArrayPasses:
    """The check's stacked frames, lift and gaps equal the per-node loops, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("particles", [1, 5])
    def test_lift_equals_per_node_products(self, m, particles):
        hfield, times = rotating_hfield(m), np.linspace(0.0, 2.0, 9)
        rng = np.random.default_rng(10 * m + particles)
        recorded = signed_zero_states(rng, (times.size, particles, m))   # node-major
        for states in (recorded.transpose(1, 0, 2), recorded.transpose(1, 0, 2).copy(),
                       recorded[:, 0], signed_zero_states(rng, (2, particles, times.size, m))):
            want = np.empty_like(states)
            for j, t in enumerate(times):
                want[..., j, :] = states[..., j, :] @ hfield(t=t).T
            got = lift_solution(states, hfield, times)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stacked_frames_equal_inverses_one_at_a_time(self, m):
        hfield = rotating_hfield(m)
        hs = np.array([hfield(t=t) for t in TimeGrid(0.0, 2.0, 64).times])
        for h, hi in zip(hs, _inverses_spd(hs)):
            assert hi.tobytes() == inverse_spd(h).tobytes()

    @pytest.mark.parametrize("prob", [library.make_moving_problem("moving_interval"),
                                      tilted_problem(True)], ids=["interval", "tilted"])
    def test_gaps_equal_per_node_distances(self, prob):
        times, m = TimeGrid(0.0, 1.0, 32).times, prob.hfield.dim
        states = 1.5 * signed_zero_states(np.random.default_rng(m), (16, times.size, m))
        states[0] = prob.hfield(t=0.0)[0, 0]      # on the moving boundary and beyond
        hs = np.array([prob.hfield(t=t) for t in times])
        got = timedep._moving_gaps(states, hs, _inverses_spd(hs), prob.base_set,
                                   prob.hfield.b_h)
        want = per_node_gaps(states, prob.hfield, times, prob.base_set)
        assert got.tobytes() == want.tobytes() and np.any(want > 0) and np.any(want == 0)
        for j, t in enumerate(times):
            one = timedep.moving_set_distance(states[:, j], prob.hfield, t, prob.base_set)
            assert one.tobytes() == want[:, j].tobytes()

    def test_two_d_check_equals_per_node_oracle(self):
        # the general bound: each level's gap is the largest per-node distance
        # of runs through the public entries
        prob = tilted_problem(True)
        noise = NoiseSource(4)
        rep = equivalence_check(prob, [16, 32], 8, noise)
        assert rep.sup_distances == {"chain-rule": [], "as-printed": []}
        fine = noise.brownian(8, 32, 1, 1 / 32)
        for i, steps in enumerate([16, 32]):
            grid = TimeGrid(0.0, 1.0, steps)
            inc = fine.reshape(8, steps, 32 // steps, 1).sum(axis=2)
            for c in ("chain-rule", "as-printed"):
                ens = simulate_projected(reduce_time_dependent(prob, c), grid, 8, noise,
                                         increments=inc)
                want = per_node_gaps(lift_solution(ens.states, prob.hfield, grid.times),
                                     prob.hfield, grid.times, prob.base_set)
                assert rep.feasibility[c][i] == float(np.max(want))


class TestEquivalence:
    def test_identity_matrix_bitwise_equality(self):
        # fixed interval: reduce -> simulate -> lift must equal the direct
        # moving-set run exactly under shared increments
        prob = make_problem(
            lambda t: np.eye(1), lambda t: np.zeros((1, 1)), 1.0, 1.0,
            lambda x, mu: -0.5 * x + 1.0, lambda x, mu: np.array([[0.4]]), [0.5],
        )
        grid = TimeGrid(0.0, 1.0, 128)
        noise = NoiseSource(3)
        inc = noise.brownian(16, grid.steps, 1, grid.h)
        reduced = reduce_time_dependent(prob)
        ens = simulate_projected(reduced, grid, 16, noise, increments=inc)
        lifted = lift_solution(ens.states, prob.hfield, grid.times)
        direct = simulate_moving_interval(prob, grid, 16, noise, increments=inc)
        np.testing.assert_array_equal(lifted, direct.states)

    def test_direct_run_is_the_clip_recursion(self):
        # by hand: an Euler step fed the law of x / H(t_k), then a clip to
        # [0, H(t_{k+1})]; the reflection sums what the clips removed
        prob = library.make_moving_problem("moving_interval")
        grid = TimeGrid(0.0, 1.0, 4)
        inc = NoiseSource(2).brownian(3, grid.steps, 1, grid.h)
        direct = simulate_moving_interval(prob, grid, 3, None, increments=inc)
        x, k_total = np.full((3, 1), 0.5), np.zeros((3, 1))
        for k, t in enumerate(grid.times[:-1]):
            mu = EmpiricalMeasure(x / prob.hfield(t=t)[0, 0])
            y = x + grid.h * prob.coeffs.drift(x, mu, None, t) \
                + inc[:, k, :] @ prob.coeffs.diffusion(x, mu, None, t).T
            x = np.clip(y, 0.0, prob.hfield(t=grid.times[k + 1])[0, 0])
            k_total = k_total + (y - x)
            np.testing.assert_array_equal(direct.states[:, k + 1], x)
            np.testing.assert_array_equal(direct.reflection[:, k + 1], k_total)
        assert np.any(direct.reflection > 0)

    def test_reduced_runs_record_states_only(self, monkeypatch):
        # each of its solves allocates the states and no other path buffer; the
        # direct reference logs dk on the rows a step corrects, the reduced runs,
        # of which only the states are read, log none; and the distances equal
        # those of runs through the public entries
        prob = library.make_moving_problem("moving_interval")
        noise = NoiseSource(8)

        start = mvsolver._StateRecorder.start
        recorders = []

        def recorded(self, X):
            start(self, X)
            recorders.append(self)

        monkeypatch.setattr(mvsolver._StateRecorder, "start", recorded)
        rep = equivalence_check(prob, [32, 64], 16, noise)
        assert [(type(r).__name__, {name: arr.shape for name, arr in vars(r).items()
                                    if isinstance(arr, np.ndarray)}) for r in recorders] \
            == [(kind, {"states": (s + 1, 16, 1)}) for s in (32, 64)
                for kind in ("_PathRecorder", "_StateRecorder", "_StateRecorder")]
        assert all(hasattr(r, "log") == (type(r) is mvsolver._PathRecorder) for r in recorders)
        monkeypatch.undo()
        grid = TimeGrid(0.0, 1.0, 64)
        inc = noise.brownian(16, 64, 1, grid.h)
        direct = simulate_moving_interval(prob, grid, 16, noise, increments=inc)
        for c in ("chain-rule", "as-printed"):
            ens = simulate_projected(reduce_time_dependent(prob, c), grid, 16, noise,
                                     increments=inc)
            lifted = lift_solution(ens.states, prob.hfield, grid.times)
            diff = np.sqrt(np.max(sq_norms(lifted - direct.states), axis=1))
            assert rep.sup_distances[c][-1] == float(np.mean(diff))

    def test_frames_once_per_time(self, monkeypatch):
        # one stack of frames per check: the ladder's times (the finest
        # grid's 65 nodes, the coarse nodes among them) inverted by one
        # batched call that both corrections, the direct reference, the lift
        # and the gaps share, and no inverse one at a time; a second check
        # builds its own stack
        prob = library.make_moving_problem("moving_interval")
        stacks, singles = [], []
        monkeypatch.setattr(timedep, "_inverses_spd",
                            lambda hs: stacks.append(hs.shape) or _inverses_spd(hs))
        monkeypatch.setattr(timedep, "inverse_spd", lambda h: singles.append(1) or inverse_spd(h))
        equivalence_check(prob, [32, 64], 16, NoiseSource(8))
        assert stacks == [(65, 1, 1)] and not singles
        equivalence_check(prob, [32, 64], 16, NoiseSource(8))
        assert stacks == [(65, 1, 1)] * 2 and not singles

    def test_matrix_once_per_time(self):
        # the transform-demo ladder: H(t) is read once for each of the 1,025
        # grid times of the finest level, whose coarse nodes are among them
        prob = library.make_moving_problem("moving_interval")
        times, real = [], prob.hfield.matrix
        prob.hfield.matrix = lambda t: times.append(t) or real(t)
        equivalence_check(prob, [256, 512, 1024], 8, NoiseSource(8))
        assert len(times) == len(set(times)) == 1025

    def test_diagonal_matrix_path_rejected(self):
        with pytest.raises(ConfigurationError, match="dense"):
            MovingConstraintProblem(
                ConvexConstraint.box([0.0], [1.0]),
                ObliqueField(lambda t: np.ones(1), 1.0, 1.0, 1, time_dependent=True,
                             diagonal=True),
                CoefficientField(lambda x, mu: 0.0 * x, lambda x, mu: np.ones((1, 1)), 1.0,
                                 1, 1, uses_measure=False, normalized=False),
                [0.5], (0.0, 1.0))

    def test_moving_interval_convergence(self):
        prob = library.make_moving_problem("moving_interval")
        report = equivalence_check(prob, [128, 256, 512], 64, NoiseSource(5))
        dists = report.sup_distances["chain-rule"]
        assert report.monotone("chain-rule"), dists
        assert dists[-1] <= 10 * np.sqrt(report.step_sizes[-1])
        assert max(report.feasibility["chain-rule"]) <= 1e-8

    def test_as_printed_reduction_diverges_from_direct(self):
        prob = library.make_moving_problem("moving_interval")
        report = equivalence_check(prob, [128, 256], 32, NoiseSource(7))
        assert min(report.sup_distances["as-printed"]) > 0.05

    def test_ladder_must_nest(self):
        prob = library.make_moving_problem("moving_interval")
        with pytest.raises(ConfigurationError):
            equivalence_check(prob, [100, 256], 8, NoiseSource(0))

    @pytest.mark.parametrize("ladder, bad", [
        ([4, 8.5], "8.5"), ([0, 8], "0"), ([8, -4], "-4"), ([4, "8"], "'8'"),
        ([4, float("nan")], "nan"), ([4, float("inf")], "inf")])
    def test_ladder_levels_must_be_integers(self, ladder, bad):
        prob = library.make_moving_problem("moving_interval")
        with pytest.raises(ConfigurationError, match=rf"integers of at least 1: \[{bad}\]"):
            equivalence_check(prob, ladder, 8, NoiseSource(0))

    def test_integral_float_levels_run_as_integers(self):
        prob = library.make_moving_problem("moving_interval")
        got = equivalence_check(prob, [16.0, np.int64(32)], 8, NoiseSource(0))
        assert got == equivalence_check(prob, [16, 32], 8, NoiseSource(0))
