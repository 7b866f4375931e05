import itertools
import math
import tracemalloc
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_mv import control, convexcore, library, measures, mvsolver, timedep
from oblique_mv.control import SimConfig, penalization_rate_probe
from oblique_mv.convexcore import (
    ConvexConstraint,
    InteriorCertificate,
    normal_cone_residual,
    project,
)
from oblique_mv.dynamics import CoefficientField, ObliqueField
from oblique_mv.errors import ConfigurationError, DivergenceError, StepError
from oblique_mv.measures import EmpiricalMeasure, second_moment_sup
from oblique_mv.mvsolver import (
    NoiseSource,
    System,
    TimeGrid,
    euler_iteration,
    interior_reflection_margin,
    oblique_skorohod_step,
    residual_report,
    simulate_penalized,
    simulate_projected,
)


def free_system(x0, state_dim=1):
    """Zero drift and diffusion on the half-line (or a ball in 2-d)."""
    coeffs = CoefficientField(
        lambda x, mu: 0.0 * x,
        lambda x, mu: np.zeros((state_dim, 1)),
        1e-9, state_dim, 1, uses_measure=False, normalized=True,
    )
    constraint = ConvexConstraint.half_line() if state_dim == 1 \
        else ConvexConstraint.ball(np.zeros(state_dim), 1.0)
    return System(coeffs, ObliqueField.identity(state_dim), constraint, x0)


class TestTimeGrid:
    def test_dyadic_snap_frozen(self):
        grid = TimeGrid(0.0, 1.0, 8)
        assert grid.dyadic_snap(0.7, 2) == 0.5

    def test_snap_bracket_property(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(0.0, 1.0, 16)
        for t in rng.uniform(0, 1, 200):
            s = grid.dyadic_snap(t, 3)
            assert s <= t < s + 2.0**-3 + 1e-12

    def test_grid_nodes_uniform(self):
        grid = TimeGrid(0.5, 1.5, 4)
        np.testing.assert_allclose(grid.times, [0.5, 0.75, 1.0, 1.25, 1.5])
        assert grid.h == pytest.approx(0.25)

    def test_last_node_is_end(self):
        # the last node is end, which start + h * k can miss by an ulp; the
        # interior keeps the bits of start + h * k
        missed = 0
        for start, end, steps in [(0.0, 0.9, 100), (0.25, 1.7, 7), (-1.0, 3.3, 1000),
                                  (0.0, 1.0, 2048), (0.1, 0.5, 3)]:
            grid = TimeGrid(start, end, steps)
            old = start + grid.h * np.arange(steps + 1)
            assert grid.times[-1] == end and grid.times.shape == (steps + 1,)
            assert grid.times[:-1].tobytes() == old[:-1].tobytes()
            missed += old[-1] != end
        assert missed

    def test_invalid_grids(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 1.0, 0)


class TestNoiseSource:
    def test_stream_reproducibility(self):
        n = NoiseSource(42).for_replication(3)
        a = n.gaussians(7, 100, 2)
        b = n.gaussians(7, 100, 2)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        n = NoiseSource(42)
        assert not np.allclose(n.gaussians(0, 50, 1), n.gaussians(1, 50, 1))
        assert not np.allclose(
            n.for_replication(0).gaussians(0, 50, 1),
            n.for_replication(1).gaussians(0, 50, 1),
        )

    def test_brownian_scaling(self):
        inc = NoiseSource(1).brownian(64, 256, 1, h=0.01)
        assert inc.shape == (64, 256, 1)
        assert np.var(inc) == pytest.approx(0.01, rel=0.05)

    def test_brownian_is_a_time_major_view(self):
        noise = NoiseSource(5).for_replication(2)
        inc = noise.brownian(7, 33, 2, h=0.01)
        assert inc.shape == (7, 33, 2)
        assert not inc.flags.c_contiguous and np.swapaxes(inc, 0, 1).flags.c_contiguous
        for i in range(7):
            np.testing.assert_array_equal(inc[i], noise.gaussians(i, 33, 2) * math.sqrt(0.01))

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**130 + 7])
    @pytest.mark.parametrize("path", [(), (3,), (2**32 + 9,), (2**32, 0, 5, 2**40 + 1, 7, 2**64)])
    def test_keys_are_seed_sequence_states(self, seed, path):
        """``brownian``'s one-pass keys against numpy's SeedSequence, stream by stream."""
        index = np.array([0, 1, 4095, 2**32 - 1])
        got = mvsolver._philox_keys(seed, path, index)
        ref = [np.random.SeedSequence(seed, spawn_key=path + (int(i),))
               .generate_state(2, np.uint64) for i in index]
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("seed, path", [(-1, ()), (3, (2, -1))])
    def test_negative_seed_or_tag_raises_as_numpy(self, seed, path):
        with pytest.raises(ValueError) as ours:
            NoiseSource(seed, path).brownian(2, 3, 1, 0.1)
        with pytest.raises(ValueError) as numpys:
            NoiseSource(seed, path).gaussians(0, 3, 1)
        assert str(ours.value) == str(numpys.value)

    @pytest.mark.parametrize("index", [2**32, 2**40 + 3, -1])
    def test_index_outside_32_bits_rejected(self, index):
        with pytest.raises(ValueError, match=r"particle index outside \[0, 2\*\*32\)"):
            mvsolver._philox_keys(0, (), np.array([0, index]))


class TestSystemChecks:
    def test_every_part_must_have_the_state_dimension(self):
        ou = library.make_system("ou")
        # each error names what it compared: the part's shape or dimension, and the state's
        with pytest.raises(ConfigurationError,
                           match=r"^initial state of shape \(2,\), not \(1,\)$"):
            System(ou.coeffs, ou.oblique, ou.constraint, [0.0, 0.0])
        with pytest.raises(ConfigurationError, match="^constraint of dimension 2, not 1$"):
            System(ou.coeffs, ou.oblique, ConvexConstraint.ball(np.zeros(2), 1.0), [0.0])
        with pytest.raises(ConfigurationError, match="^oblique field of dimension 3, not 1$"):
            System(ou.coeffs, ObliqueField.identity(3), ou.constraint, [0.0])


class TestSkorohodStep:
    def test_a_smooth_constraint_has_no_skorohod_step(self):
        quad = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 2)
        with pytest.raises(ConfigurationError,
                           match="^Skorohod steps require an indicator constraint$"):
            oblique_skorohod_step(quad, np.eye(2), np.array([1.0, 0.0]))

    def test_identity_matrix_reduces_to_projection(self):
        hs = ConvexConstraint.half_space([1.0, 0.0])
        x, dk = oblique_skorohod_step(hs, np.eye(2), np.array([-2.0, 3.0]))
        np.testing.assert_allclose(x, [0.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(dk, [-2.0, 0.0], atol=1e-14)

    def test_oblique_halfspace_hand_case(self):
        hs = ConvexConstraint.half_space([1.0, 0.0])
        x, dk = oblique_skorohod_step(hs, np.diag([2.0, 1.0]), np.array([-2.0, 3.0]))
        np.testing.assert_allclose(x, [0.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(dk, [-1.0, 0.0], atol=1e-14)

    def test_interior_point_untouched(self):
        ball = ConvexConstraint.ball([0.0, 0.0], 1.0)
        y = np.array([0.2, -0.1])
        x, dk = oblique_skorohod_step(ball, np.diag([2.0, 3.0]), y)
        np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(dk, 0.0)

    @pytest.mark.parametrize("geometry", ["half-space", "box", "ball", "intersection"])
    def test_postconditions_random(self, geometry):
        # the step on H + s I, as the penalized scheme takes it with s = eps/h
        # (s = 0: the projected step), shared or one shift per row, for H
        # dense or diagonal, shared or one per row: z is feasible, Y - z =
        # (s I + H) dk with dk in the normal cone at z, and z + s dk is Y - H dk
        rng = np.random.default_rng(5)
        cases = itertools.product(["dense", "dense-rows", "diagonal", "diagonal-rows"],
                                  [0.0, 0.1, 30.0], range(40))   # about 140 rows each
        for form, shift, _ in cases:
            diagonal = form.startswith("diagonal")
            m = int(rng.integers(2, 4))
            if geometry == "half-space":
                n = rng.standard_normal(m)
                c = ConvexConstraint.half_space(n, -abs(rng.normal()))
            elif geometry == "box":
                lo = -rng.uniform(0.2, 2.0, m)
                hi = rng.uniform(0.2, 2.0, m)
                c = ConvexConstraint.box(lo, hi)
            elif geometry == "ball":
                c = ConvexConstraint.ball(np.zeros(m), rng.uniform(0.5, 2.0))
            else:
                k = int(rng.integers(2, 5))
                c = ConvexConstraint.half_space_intersection(
                    rng.standard_normal((k, m)), -rng.uniform(0.1, 1.0, k)
                )
            rows = int(rng.integers(1, 7))
            Y = 3 * rng.standard_normal((rows, m))
            eigs = np.exp(rng.uniform(0, np.log(100), (rows, m)))
            if diagonal:
                H = eigs
            else:
                q = np.linalg.qr(rng.standard_normal((rows, m, m)))[0]
                H = (q * eigs[:, None]) @ q.transpose(0, 2, 1)
            H = H if form.endswith("rows") else H[0]
            s = shift * rng.uniform(0.5, 2.0, (rows, 1)) if rng.random() < 0.5 else shift
            Hs = H if shift == 0 else mvsolver._shifted(H, s, diagonal)
            Z, dK, _ = c.geometry.oblique_step(Hs, Y, diagonal)
            Hd = as_dense(H) if diagonal else H
            for i, (z, dk, y) in enumerate(zip(Z, dK, Y)):
                Hi = np.broadcast_to(Hd, (rows, m, m))[i]
                si = float(np.broadcast_to(s, (rows, 1))[i, 0])
                scale = max(1, np.linalg.norm(y))
                assert float(c.distance(z)) <= 1e-10
                assert np.linalg.norm(z + (si * np.eye(m) + Hi) @ dk - y) <= 1e-10 * scale
                probes = project(c, rng.standard_normal((64, m)))
                assert normal_cone_residual(c, z, dk, probes) <= 1e-8
                assert np.linalg.norm(z + si * dk - (y - Hi @ dk)) <= 1e-10 * scale

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_is_diagonal_keeps_nan_and_inf_semantics(self):
        # against the subtract-the-diagonal form it replaced
        def two_eyes(H):
            off = H - np.einsum("...ii->...i", H)[..., None] * np.eye(H.shape[-1])
            return float(np.max(np.abs(off * (1 - np.eye(H.shape[-1]))))) <= 1e-14

        rng = np.random.default_rng(2)
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-15, 1e-13]
        for _ in range(2000):
            m = int(rng.integers(1, 4))
            H = np.diag(rng.uniform(0.5, 2.0, m))
            for _ in range(int(rng.integers(0, 3))):
                H[tuple(rng.integers(0, m, 2))] = specials[rng.integers(len(specials))]
            assert convexcore._is_diagonal(H) == two_eyes(H)

    def test_box_oblique_step_leaves_inside_rows_at_positive_zero(self):
        box = ConvexConstraint.box([0.0, -1.0], [1.0, 1.0]).geometry
        Y = np.array([[-0.0, 0.5], [0.3, -0.0], [2.0, 0.5], [-0.5, 3.0]])
        for H in (np.diag([2.0, 3.0]), np.stack([np.diag([2.0, 3.0 + i]) for i in range(4)])):
            X, dK, _ = box.oblique_step(H, Y)
            np.testing.assert_array_equal(X, [[-0.0, 0.5], [0.3, -0.0], [1.0, 0.5], [0.0, 1.0]])
            assert not np.any(np.signbit(dK[:2]))
            np.testing.assert_array_equal(dK[:2], 0.0)
            diag = np.einsum("...ii->...i", H)
            np.testing.assert_array_equal(dK[2:], (Y[2:] - X[2:]) / (diag[2:] if H.ndim == 3
                                                                     else diag))

    def test_hexagon_skips_singular_active_set(self):
        # Rows 1 and 4 of the hexagon are antiparallel, so their reduced
        # matrix is singular; solving it anyway yielded an interior point
        # with a nonzero correction for this y and H.
        angles = 2.0 * np.pi * np.arange(6) / 6
        hexagon = ConvexConstraint.half_space_intersection(
            np.column_stack([np.cos(angles), np.sin(angles)]), -np.ones(6))
        H = np.array([[28.12814385143604, 0.07079310112555688],
                      [0.07079310112555687, 14.134437328840546]])
        y = np.array([4.132943433090703, -2.932586339178288])
        x, dk = oblique_skorohod_step(hexagon, H, y)
        assert float(hexagon.distance(x)) <= 1e-10
        assert np.linalg.norm(x + H @ dk - y) <= 1e-10 * np.linalg.norm(y)
        probes = project(hexagon, 3 * np.random.default_rng(0).standard_normal((64, 2)))
        assert normal_cone_residual(hexagon, x, dk, probes) <= 1e-8

    def test_sixteen_gon_point(self):
        # Alternating projections stopped short of the projection here and
        # left a cone residual of 9e-3.
        angles = 2.0 * np.pi * np.arange(16) / 16
        gon = ConvexConstraint.half_space_intersection(
            np.column_stack([np.cos(angles), np.sin(angles)]), -np.ones(16))
        H = np.array([[91.17081007447165, -24.40400148652318],
                      [-24.40400148652318, 7.614699386593139]])
        y = np.array([-3.1470157286898726, -3.733186324532751])
        x, dk = oblique_skorohod_step(gon, H, y)
        assert float(gon.distance(x)) <= 1e-10
        assert np.linalg.norm(x + H @ dk - y) <= 1e-10 * np.linalg.norm(y)
        probes = project(gon, 3 * np.random.default_rng(0).standard_normal((64, 2)))
        assert normal_cone_residual(gon, x, dk, probes) <= 1e-8


def _ball_bisection_oracle(center, radius, H, y):
    """Reference ball step state: bracket doubling, then 110 bisections."""
    d, Q = np.linalg.eigh(H)
    w = Q.T @ (y - center)

    def excess(lam):
        return np.sum(w**2 / (1 + lam * d) ** 2) - radius**2

    lo, hi = 0.0, 1.0 / np.max(d)
    while excess(hi) > 0:
        hi *= 2.0
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    lam = 0.5 * (lo + hi)
    return center + Q @ (w / (1 + lam * d))


@st.composite
def ball_cases(draw):
    """Ball, SPD H (cond <= 1e4, diagonal or rotated) and a point outside."""
    m = draw(st.sampled_from([2, 3, 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    radius = draw(st.floats(0.1, 10.0))
    log_eigs = draw(st.lists(st.floats(0.0, math.log(1e4)), min_size=m, max_size=m))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    rotated = draw(st.booleans())
    excess = 10.0 ** draw(st.floats(-13.0, 6.0))
    rng = np.random.default_rng(seed)
    center = rng.uniform(-0.5, 0.5, m) * radius / math.sqrt(m)
    H = np.diag(scale * np.exp(log_eigs))
    if rotated:
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        H = q @ H @ q.T
    u = rng.standard_normal(m)
    y = center + u / np.linalg.norm(u) * radius * (1.0 + excess)
    return ConvexConstraint.ball(center, radius), H, y


class TestBallStep:
    """The ball step against the one-step contract and a bisection oracle."""

    @settings(max_examples=300)
    @given(ball_cases())
    def test_contract_and_oracle(self, case):
        ball, H, y = case
        geom = ball.geometry
        x, dk = oblique_skorohod_step(ball, H, y)
        assert float(ball.distance(x)) <= 1e-10
        assert np.linalg.norm(x + H @ dk - y) <= 1e-10 * max(1.0, np.linalg.norm(y))
        probes = project(ball, geom.center + 2 * geom.radius
                         * np.random.default_rng(1).standard_normal((64, y.size)))
        assert normal_cone_residual(ball, x, dk, probes) <= 1e-8
        x_ref = _ball_bisection_oracle(geom.center, geom.radius, H, y)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * geom.radius

    def test_iteration_cap_raises_step_error(self, monkeypatch):
        monkeypatch.setattr(convexcore, "BALL_NEWTON_MAX_ITER", 1)
        ball = ConvexConstraint.ball([0.0, 0.0], 1.0)
        with pytest.raises(StepError) as err:
            oblique_skorohod_step(ball, np.diag([1.0, 100.0]), np.array([300.0, 400.0]))
        assert math.isfinite(err.value.residual) and err.value.residual > 0
        with pytest.raises(StepError, match=r"^step \d+: ") as err:
            simulate_projected(library.make_system("example31"),
                               TimeGrid(0.0, 0.25, 64), 32, NoiseSource(3))
        assert math.isfinite(err.value.residual) and err.value.residual > 0


def head_ball_multiplier(w, d, r):
    """The ball Newton loop on row-major ``(k, m)`` arrays: the reference for
    the column-major ``convexcore._ball_multiplier``.

    Each iterate broadcasts ``(k, 1)`` columns against ``(k, m)`` rows and
    sums over the short axis with ``einsum``.  Returns ``lam`` and ``s``
    with one row per point.
    """
    tol = 4 * (d.shape[1] + 1) * np.finfo(float).eps * r
    lam = np.zeros(w.shape[0])
    for step in range(convexcore.BALL_NEWTON_MAX_ITER + 1):
        q = 1.0 + lam[:, None] * d
        s = w / q
        norm = np.sqrt(np.einsum("ki,ki->k", s, s))
        gap = norm - r
        open_rows = np.abs(gap) > tol
        if not open_rows.any():
            return lam, s
        if step == convexcore.BALL_NEWTON_MAX_ITER:
            raise StepError("ball Newton solve did not converge",
                            residual=float(np.max(np.abs(gap))))
        slope = np.einsum("ki,ki->k", d * s, s / q)
        lam = np.where(open_rows, lam + gap * norm**2 / (r * slope), lam)


def head_ball_oblique_step(geom, H, Y, diagonal=False):
    """The ball step with row norms reduced by numpy and the row-major Newton loop.

    A declared diagonal ``H`` is expanded to the dense matrices the step took
    before, and a function of rows is read on all of them."""
    if callable(H):
        H = H(slice(None))
    c, r = geom.center, geom.radius
    rel = Y - c
    dist = np.linalg.norm(rel, axis=1)
    X = Y.copy()
    dK = np.zeros_like(Y)
    mask = dist > r
    idx = np.flatnonzero(mask)
    if not np.any(mask):
        return X, dK, idx
    if diagonal:
        H = H[..., None] * np.eye(Y.shape[1])
    Hs = np.broadcast_to(H, (Y.shape[0],) + H.shape[-2:]) if H.ndim == 2 else H
    Hsub = np.ascontiguousarray(Hs[idx])
    relsub = rel[idx]
    if convexcore._is_diagonal(Hsub):
        d, w, back = np.einsum("kii->ki", Hsub), relsub, None
    else:
        d, back = np.linalg.eigh(Hsub)
        w = np.einsum("kji,kj->ki", back, relsub)
    lam, scaled = head_ball_multiplier(w, d, r)
    relsol = scaled if back is None else np.einsum("kij,kj->ki", back, scaled)
    X[idx] = c + relsol
    dK[idx] = lam[:, None] * relsol
    return X, dK, idx


@st.composite
def multiplier_cases(draw):
    """``k`` points outside a ball of radius ``r`` and per-point SPD spectra (cond <= 1e4)."""
    m = draw(st.sampled_from([1, 2, 3, 5]))
    k = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.floats(0.1, 10.0))
    d = 10.0 ** draw(st.floats(-3.0, 3.0)) * np.exp(rng.uniform(0.0, math.log(1e4), (k, m)))
    u = rng.standard_normal((k, m))
    excess = 10.0 ** rng.uniform(-13.0, 6.0, k)
    w = u / np.linalg.norm(u, axis=1)[:, None] * (r * (1.0 + excess))[:, None]
    return m, w, d, r


class TestBallMultiplier:
    """The column-major Newton loop against the row-major one it replaced."""

    @settings(max_examples=200)
    @given(multiplier_cases())
    def test_matches_row_major_loop(self, case):
        m, w, d, r = case
        lam, s = convexcore._ball_multiplier(np.ascontiguousarray(w.T),
                                             np.ascontiguousarray(d.T), r)
        lam_ref, s_ref = head_ball_multiplier(w, d, r)
        assert s.shape == (m, w.shape[0])
        if m <= 2:
            # two terms add in the same order either way
            np.testing.assert_array_equal(lam, lam_ref)
            np.testing.assert_array_equal(s.T, s_ref)
            return
        # from three terms the column sums may round differently than einsum;
        # the step contract and TestBallStep's agreement tolerance still hold
        assert np.all(np.abs(np.linalg.norm(s, axis=0) - r) <= 1e-10)
        residual = np.linalg.norm(s.T * (1.0 + lam[:, None] * d) - w, axis=1)
        assert np.all(residual <= 1e-10 * np.maximum(1.0, np.linalg.norm(w, axis=1)))
        assert np.all(np.linalg.norm(s.T - s_ref, axis=1) <= 1e-12 * r)


SQ_NORM_MODULES = (control, convexcore, library, measures, mvsolver, timedep)


def patch_row_reductions(monkeypatch):
    """Put numpy's per-row reductions (the ladder's squared gaps among them)
    and the row-major ball step back in."""
    for module in SQ_NORM_MODULES:
        monkeypatch.setattr(module, "sq_norms", lambda x: np.sum(x * x, axis=-1))
    monkeypatch.setattr(convexcore.Ball, "oblique_step", head_ball_oblique_step)


class TestColumnReductions:
    """Whole runs with column-by-column norms equal runs with numpy's row reductions."""

    def _runs(self):
        ex = library.make_system("example31")
        ens = simulate_projected(ex, TimeGrid(0.0, 1.0, 128), 64, NoiseSource(21))
        pen = simulate_penalized(ex, 0.05, TimeGrid(0.0, 0.25, 128), 64, NoiseSource(22))
        rep = residual_report(ens, ex, probes=[np.zeros(2)])
        probe = penalization_rate_probe(ex, None, [0.05, 0.1, 0.2],
                                        SimConfig(steps=512, particles=16, replications=3,
                                                  seed=23), horizon=(0.0, 1.0))
        arrays = {f"{label}.{name}": getattr(e, name)
                  for label, e in (("projected", ens), ("penalized", pen))
                  for name in PATH_FIELDS}
        sums = {
            "equation_residual": rep.equation_residual,
            "feasibility_gap": rep.feasibility_gap,
            "inequality_residual": rep.inequality_residual,
            "second_moment_sup": second_moment_sup(ens),
            "margin": interior_reflection_margin(ens, InteriorCertificate([0.0, 0.0], 0.9)),
            "probe.ys": probe.ys, "probe.stderrs": probe.stderrs,
            "probe.slope": probe.slope,
            "probe.sup_distances": probe.extras["sup_distances"],
        }
        return arrays, sums

    def test_bit_equal_to_row_reductions(self, monkeypatch):
        arrays, sums = self._runs()
        patch_row_reductions(monkeypatch)
        ref_arrays, ref_sums = self._runs()
        assert np.any(arrays["projected.variation"] > 0)
        assert np.any(arrays["penalized.variation"] > 0)
        assert np.all(np.asarray(sums["probe.ys"]) > 0)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, ref_arrays[name], err_msg=name)
        for name, value in sums.items():
            np.testing.assert_array_equal(value, ref_sums[name], err_msg=name)


def _rows(geom):
    """Rows ``(normals, offsets)`` of a box or half-space intersection."""
    if isinstance(geom, convexcore.Box):
        eye = np.eye(geom.lower.size)
        normals = np.vstack([eye, -eye])
        offsets = np.concatenate([geom.lower, -geom.upper])
        finite = np.isfinite(offsets)
        return normals[finite], offsets[finite]
    return geom.normals, geom.offsets


def _enumeration_oracle(normals, offsets, H, y):
    """Reference polyhedral step state by KKT active-set enumeration.

    The solution is ``x = y + H N_A' lam`` with ``lam >= 0`` on an active
    set ``A`` of at most ``m`` rows and every row feasible; subsets are
    tried by size in a fixed order.  Dependent rows (antiparallel or
    duplicate faces) make the reduced matrix singular, and ``solve`` can
    still return huge multipliers that pass the sign and feasibility
    tests, so nearly singular sets are skipped.
    """
    tol = 1e-11 * (1.0 + np.linalg.norm(y))
    if np.min(normals @ y - offsets, initial=0.0) >= 0:
        return y
    for size in range(1, min(normals.shape[0], y.size) + 1):
        for active in itertools.combinations(range(normals.shape[0]), size):
            Na = normals[list(active)]
            M = Na @ H @ Na.T
            if np.linalg.cond(M) > 1e12:
                continue
            lam = np.linalg.solve(M, offsets[list(active)] - Na @ y)
            if np.any(lam < -1e-12 * (1.0 + np.max(np.abs(lam)))):
                continue
            x = y + H @ (Na.T @ lam)
            if np.min(normals @ x - offsets) >= -tol:
                return x
    raise AssertionError("no consistent active set")


def _nnls_reference(normals, offsets, H, y):
    """Reference polyhedral step state from scipy's NNLS, one row at a time: the
    least-distance program ``min |z|``, ``(normals R) z >= gap``, ``H = R R'``."""
    gap = offsets - normals @ y
    top = float(np.max(gap))
    if top <= 0:
        return y
    E = np.vstack([(normals @ np.linalg.cholesky(H)).T, gap / top])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    u, _ = scipy.optimize.nnls(E, f)
    return y + H @ (normals.T @ (u * (top / (1.0 - E[-1] @ u))))


HEXAGON_ANGLES = np.arange(6) * np.pi / 3
POLYTOPES = {
    "triangle": ConvexConstraint.half_space_intersection(
        [[1, 0], [0, 1], [-1, -1]], [-1, -1, -1]),
    "hexagon": ConvexConstraint.half_space_intersection(
        np.column_stack([np.cos(HEXAGON_ANGLES), np.sin(HEXAGON_ANGLES)]), -np.ones(6)),
    # antiparallel faces
    "slab": ConvexConstraint.half_space_intersection([[1, 0.3], [-1, -0.3]], [-1.0, -0.5]),
    # three faces through the vertex (-1, -1)
    "vertex": ConvexConstraint.half_space_intersection(
        [[1, 0], [0, 1], [1, 1]], [-1.0, -1.0, -2.0]),
    "box": ConvexConstraint.box([-1.0, -0.5, -2.0], [1.0, 2.0, 0.5]),
}
SIMPLEX = ConvexConstraint.half_space_intersection([[1, 0], [0, 1], [-1, -1]], [0, 0, -1])


@st.composite
def polyhedral_cases(draw):
    """Box (some bounds infinite) or intersection, SPD H (cond <= 1e4), point.

    Intersections have 1 to 5 random rows, so ``k < m`` (unbounded sets)
    occurs, plus optionally a row antiparallel to or a copy of the first.
    """
    m = draw(st.sampled_from([1, 2, 3, 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    log_eigs = draw(st.lists(st.floats(0.0, math.log(1e4)), min_size=m, max_size=m))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    size = 10.0 ** draw(st.floats(-3.0, 3.0))
    reach = 10.0 ** draw(st.floats(-1.0, 3.0))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    H = (q * (scale * np.exp(log_eigs))) @ q.T
    if draw(st.booleans()):
        lo = -size * rng.uniform(0.1, 1.0, m)
        hi = size * rng.uniform(0.1, 1.0, m)
        lo[rng.random(m) < 0.25] = -np.inf
        hi[rng.random(m) < 0.25] = np.inf
        constraint = ConvexConstraint.box(lo, hi)
    else:
        k = draw(st.integers(1, 5))
        normals = rng.standard_normal((k, m))
        offsets = -size * rng.uniform(0.1, 1.0, k)
        extra = draw(st.sampled_from(["none", "antiparallel", "duplicate"]))
        if extra == "antiparallel":
            normals = np.vstack([normals, -normals[0]])
            offsets = np.append(offsets, -size * rng.uniform(0.1, 1.0))
        elif extra == "duplicate":
            normals = np.vstack([normals, normals[0]])
            offsets = np.append(offsets, offsets[0])
        constraint = ConvexConstraint.half_space_intersection(normals, offsets)
    y = size * reach * rng.standard_normal(m)
    return constraint, H, y


TRIANGLE = ConvexConstraint.half_space_intersection(
    [[1, 0], [0, 1], [-1, -1]], [-1, -1, -1])


def triangle_system():
    """Constant outward drift on the triangle, no noise: every step reflects."""
    coeffs = CoefficientField(
        lambda x, mu: np.full_like(x, -20.0), lambda x, mu: np.zeros((2, 1)),
        1e-9, 2, 1, uses_measure=False, normalized=False,
    )
    return System(coeffs, ObliqueField.identity(2), TRIANGLE, [0.0, 0.0])


class TestPolyhedralStep:
    """The box and intersection steps against the contract and an oracle."""

    @settings(max_examples=400)
    @given(polyhedral_cases())
    def test_contract_and_oracle(self, case):
        constraint, H, y = case
        normals, offsets = _rows(constraint.geometry)
        x, dk = oblique_skorohod_step(constraint, H, y)
        scale = 1.0 + np.linalg.norm(y)
        assert np.min(normals @ x - offsets, initial=0.0) >= -1e-10 * scale
        assert np.linalg.norm(x + H @ dk - y) <= 1e-10 * scale
        probes = project(constraint, scale
                         * np.random.default_rng(1).standard_normal((64, y.size)))
        pairing = np.max((probes - x) @ dk, initial=0.0)
        assert pairing <= 1e-10 * scale * (1.0 + np.linalg.norm(dk))
        if normals.shape[0] <= 6:
            x_ref = _enumeration_oracle(normals, offsets, H, y)
            assert np.linalg.norm(x - x_ref) <= 1e-10 * scale

    @pytest.mark.parametrize("name", sorted(POLYTOPES))
    @pytest.mark.parametrize("per_row", [False, True])
    def test_batched_step_matches_oracles(self, name, per_row):
        constraint = POLYTOPES[name]
        normals, offsets = _rows(constraint.geometry)
        m = constraint.dim
        rng = np.random.default_rng(len(name))
        Y = 3 * rng.standard_normal((150, m))
        A = rng.standard_normal((150, m, m))
        H = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(m)
        H = H if per_row else H[0]
        X, dK, _ = constraint.geometry.oblique_step(H, Y)
        inside = np.min(Y @ normals.T - offsets, axis=1) >= 0
        assert 0 < inside.sum() < len(Y)
        for i, y in enumerate(Y):
            Hi = H[i] if per_row else H
            scale = 1.0 + np.linalg.norm(y)
            assert np.linalg.norm(X[i] + Hi @ dK[i] - y) <= 1e-10 * scale
            assert np.min(normals @ X[i] - offsets) >= -1e-10 * scale
            assert np.linalg.norm(X[i] - _enumeration_oracle(normals, offsets, Hi, y)) \
                <= 1e-10 * scale
            assert np.linalg.norm(X[i] - _nnls_reference(normals, offsets, Hi, y)) \
                <= 1e-10 * scale

    def test_nnls_failure_raises_step_error(self, monkeypatch):
        # the NNLS iteration cap: one row inside, one projected onto an edge (one
        # face, done after one iteration), one onto the vertex (0, 0) (two faces);
        # a cap of one iteration names the vertex row, a cap of none the first
        # row outside
        Y = np.array([[0.1, 0.1], [0.5, -2.0], [-3.0, -2.0]])
        monkeypatch.setattr(convexcore, "POLYHEDRAL_MAX_ITER", 1)
        with pytest.raises(StepError, match="did not converge in 1 iterations") as err:
            SIMPLEX.geometry.oblique_step(np.eye(2), Y)
        assert err.value.row == 2
        assert math.isfinite(err.value.residual) and err.value.residual > 0
        monkeypatch.setattr(convexcore, "POLYHEDRAL_MAX_ITER", 0)
        with pytest.raises(StepError) as err:
            SIMPLEX.geometry.oblique_step(np.eye(2), Y)
        assert err.value.row == 1 and err.value.residual == 1.0
        with pytest.raises(StepError, match=r"^step \d+: ") as err:
            simulate_projected(triangle_system(), TimeGrid(0.0, 1.0, 8), 4, NoiseSource(0))
        assert math.isfinite(err.value.residual) and err.value.residual > 0

    def test_infeasible_answer_raises_step_error(self, monkeypatch):
        # every passive solve returns half its weights: the step stops short of the set
        solve = np.linalg.solve
        monkeypatch.setattr(convexcore.np.linalg, "solve", lambda A, b: 0.5 * solve(A, b))
        with pytest.raises(StepError, match="missed feasibility") as err:
            oblique_skorohod_step(TRIANGLE, np.eye(2), np.array([-3.0, -2.0]))
        assert math.isfinite(err.value.residual) and err.value.residual > 0
        with pytest.raises(StepError, match=r"^step \d+: ") as err:
            simulate_projected(triangle_system(), TimeGrid(0.0, 1.0, 8), 4, NoiseSource(0))
        assert math.isfinite(err.value.residual) and err.value.residual > 0


@st.composite
def halfspace_cases(draw):
    """Half-space, SPD H (cond <= 1e4, shared or one per point) and points.

    Every point comes with its mirror image in the boundary plane, so each
    batch holds points on both sides, plus two points just outside.
    """
    m = draw(st.sampled_from([1, 2, 3, 5]))
    seed = draw(st.integers(0, 2**32 - 1))
    per_point = draw(st.booleans())
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    size = 10.0 ** draw(st.floats(-3.0, 3.0))
    reach = 10.0 ** draw(st.floats(-1.0, 3.0))
    rng = np.random.default_rng(seed)

    def spd():
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        return (q * (scale * np.exp(rng.uniform(0.0, math.log(1e4), m)))) @ q.T

    constraint = ConvexConstraint.half_space(rng.standard_normal(m),
                                             -size * rng.uniform(0.0, 1.0))
    n, c = constraint.geometry.normal, constraint.geometry.offset
    excess = size * 10.0 ** draw(st.floats(-13.0, 0.0))
    Y = size * reach * rng.standard_normal((4, m))
    Y = np.vstack([Y, Y + 2.0 * (c - Y @ n)[:, None] * n,
                   Y[:2] + (c - excess - Y[:2] @ n)[:, None] * n])
    H = np.stack([spd() for _ in Y]) if per_point else spd()
    return constraint, H, Y


class TestHalfSpaceStep:
    """The closed-form half-space step against the one-step contract."""

    @settings(max_examples=300)
    @given(halfspace_cases())
    def test_contract(self, case):
        constraint, H, Y = case
        n, c = constraint.geometry.normal, constraint.geometry.offset
        X, dK, _ = constraint.geometry.oblique_step(H, Y)
        Hs = np.broadcast_to(H, (Y.shape[0],) + H.shape[-2:])
        for x, dk, y, h in zip(X, dK, Y, Hs):
            scale = 1.0 + np.linalg.norm(y) + np.linalg.norm(x)
            assert n @ x - c >= -1e-12 * scale
            assert np.linalg.norm(x + h @ dk - y) <= 1e-12 * scale
            # dk = -t n with t >= 0, and t > 0 only on the boundary
            t = -(dk @ n)
            assert t >= 0.0
            assert np.linalg.norm(dk + t * n) <= 1e-15 * np.linalg.norm(dk)
            if n @ y >= c:
                np.testing.assert_array_equal(x, y)
                np.testing.assert_array_equal(dk, 0.0)
            else:
                assert t > 0.0 and abs(n @ x - c) <= 1e-12 * scale

    def test_one_form_for_shared_and_per_row_matrices(self):
        # against the two branches it replaced, bit for bit, but for the one
        # change since: a lone row outside takes gemv on two copies of itself
        def two_branches(geom, H, Y):
            n, c = geom.normal, geom.offset
            gap = c - Y @ n
            mask = gap > 0
            X, dK = Y.copy(), np.zeros_like(Y)
            if H.ndim == 2:
                Hn = H @ n
                t = gap[mask] / float(n @ Hn)
            else:
                Hn = H[mask] @ n
                t = gap[mask] / (Hn @ n if len(Hn) > 1 else (np.vstack([Hn, Hn]) @ n)[:1])
            X[mask] = Y[mask] + t[:, None] * Hn
            dK[mask] = -t[:, None] * n
            return X, dK

        rng = np.random.default_rng(4)
        for case in range(600):
            m = int(rng.integers(1, 4))
            geom = ConvexConstraint.half_space(rng.standard_normal(m),
                                               -abs(rng.normal())).geometry
            spd = [(q * np.exp(rng.uniform(0.0, np.log(100), m))) @ q.T
                   for q in (np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in range(6))]
            H = spd[0] if case % 2 else np.stack(spd)
            Y = 2.0 * rng.standard_normal((6, m))
            for a, b in zip(geom.oblique_step(H, Y), two_branches(geom, H, Y)):
                assert a.tobytes() == b.tobytes()


class TestSimulators:
    def test_zero_coefficients_constant_paths(self):
        sys1 = free_system([0.5])
        grid = TimeGrid(0.0, 1.0, 64)
        for ens in (
            simulate_projected(sys1, grid, 8, NoiseSource(0)),
            simulate_penalized(sys1, 0.1, grid, 8, NoiseSource(0)),
        ):
            assert np.all(ens.states == 0.5)
            assert np.all(ens.reflection == 0.0)
            assert np.all(ens.variation == 0.0)

    def test_a_scalar_control_is_the_constant_per_node_control(self):
        prob = library.make_control_problem("two_control")
        grid = TimeGrid(0.0, 1.0, 16)
        run = simulate_projected(prob.system, grid, 4, NoiseSource(2), control=-1.0)
        nodes = simulate_projected(prob.system, grid, 4, NoiseSource(2),
                                   control=np.full(17, -1.0))
        assert run.scheme == "projected" and run.control == -1.0
        np.testing.assert_array_equal(run.states, nodes.states)
        # residual_report reads the scalar at every step as the array's entry
        assert residual_report(run, prob.system) == residual_report(nodes, prob.system)
        assert simulate_penalized(prob.system, 0.1, grid, 4, NoiseSource(2),
                                  control=-1.0).scheme == "penalized"

    def test_a_diffusion_of_the_wrong_shape_is_named(self):
        with pytest.raises(ConfigurationError,
                           match=r"^diffusion returned unexpected shape \(3,\)$"):
            mvsolver._gdb(np.ones(3), np.ones((4, 1)))
        with pytest.raises(ConfigurationError,
                           match=r"^diffusion returned unexpected shape \(1, 4, 1, 1\)$"):
            mvsolver._gdb(np.ones((1, 4, 1, 1)), np.ones((4, 1)))

    def test_penalized_scheme_needs_a_level(self):
        # None names the projected scheme in the step loop; here it is an error
        with pytest.raises(ValueError, match="must be positive, got None"):
            simulate_penalized(free_system([0.5]), None, TimeGrid(0.0, 1.0, 8), 2,
                               NoiseSource(0))

    def test_penalized_relaxation_matches_exact_ode(self):
        # with no noise and an infeasible start the smoothed flow solves
        # x' = -x/eps, so x(t) = -exp(-t/eps)
        sys1 = free_system([-1.0])
        eps = 0.5
        errs = []
        for steps in (64, 256, 1024):
            grid = TimeGrid(0.0, 1.0, steps)
            ens = simulate_penalized(sys1, eps, grid, 1, NoiseSource(0))
            exact = -np.exp(-grid.times / eps)
            errs.append(np.max(np.abs(ens.states[0, :, 0] - exact)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 5e-3

    def test_inward_drift_never_reflects(self):
        coeffs = CoefficientField(
            lambda x, mu: 2.0 + 0.0 * x, lambda x, mu: np.array([[0.2]]),
            1e-9, 1, 1, uses_measure=False, normalized=False,
        )
        sys1 = System(coeffs, ObliqueField.identity(1),
                      ConvexConstraint.half_line(), [1.0])
        ens = simulate_projected(sys1, TimeGrid(0.0, 1.0, 512), 64, NoiseSource(3))
        assert np.all(ens.variation == 0.0)

    def test_reflected_bm_mean(self):
        rbm = library.make_system("rbm")
        grid = TimeGrid(0.0, 1.0, 4096)
        ends = []
        for r in range(6):
            ens = simulate_projected(rbm, grid, 256, NoiseSource(7).for_replication(r))
            ends.append(ens.states[:, -1, 0])
        ends = np.concatenate(ends)
        target = np.sqrt(2.0 / np.pi)
        stderr = ends.std(ddof=1) / np.sqrt(ends.size)
        assert abs(ends.mean() - target) <= 3 * stderr + 0.6 * np.sqrt(grid.h)

    def test_feasibility_and_complementarity(self):
        ou = library.make_system("ou")
        ens = simulate_projected(ou, TimeGrid(0.0, 1.0, 1024), 64, NoiseSource(11))
        assert ens.feasibility_gap() <= 1e-10
        # reflection increments only at the boundary
        dk = ens.density * ens.grid.h
        moving = np.abs(dk[:, :, 0]) > 0
        assert np.max(np.abs(ens.states[:, 1:, 0][moving])) <= 1e-12
        # variation dominates the reflection displacement
        total_disp = np.linalg.norm(ens.reflection[:, -1, :], axis=1)
        assert np.all(ens.variation[:, -1] >= total_disp - 1e-12)

    def test_determinism_bitwise(self):
        ex = library.make_system("example31")
        grid = TimeGrid(0.0, 0.5, 128)
        a = simulate_projected(ex, grid, 32, NoiseSource(5).for_replication(1))
        b = simulate_projected(ex, grid, 32, NoiseSource(5).for_replication(1))
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.reflection, b.reflection)

    def test_divergence_guard_names_step(self):
        coeffs = CoefficientField(
            lambda x, mu: 50.0 * x, lambda x, mu: np.zeros((1, 1)),
            50.0, 1, 1, uses_measure=False, normalized=True,
        )
        sys1 = System(coeffs, ObliqueField.identity(1),
                      ConvexConstraint.half_line(), [1.0])
        with pytest.raises(DivergenceError) as err:
            simulate_projected(sys1, TimeGrid(0.0, 10.0, 10), 1, NoiseSource(0))
        assert err.value.step is not None

    def test_penalized_feasibility_shrinks_with_eps(self):
        ou = library.make_system("ou")
        grid = TimeGrid(0.0, 1.0, 2048)
        noise = NoiseSource(13)
        inc = noise.brownian(128, grid.steps, 1, grid.h)
        gaps = []
        for eps in (2**-3, 2**-5, 2**-7):
            ens = simulate_penalized(ou, eps, grid, 128, noise, increments=inc)
            sq = np.maximum(-ens.states[:, :, 0], 0.0) ** 2
            gaps.append(np.mean(np.max(sq, axis=1)))
        assert gaps[2] < gaps[1] < gaps[0]

    @pytest.mark.parametrize("name", sorted(library.SYSTEMS))
    def test_penalized_step_tends_to_projected_step(self, name):
        # eps -> 0 shifts H by eps/h -> 0: the projected step is the end of
        # the penalized family (linear stays positive and never reflects)
        system = library.make_system(name)
        grid = TimeGrid(0.0, 1.0, 64)
        ref = simulate_projected(system, grid, 32, NoiseSource(19))
        ens = simulate_penalized(system, 1e-12 * grid.h, grid, 32, NoiseSource(19))
        assert name == "linear" or np.any(ref.variation > 0)
        for field_name in ("states", "reflection"):
            assert np.max(np.abs(getattr(ens, field_name) - getattr(ref, field_name))) <= 1e-9

    def test_penalized_step_on_a_coarse_grid(self):
        # h/eps = 15.6: the backward step needs no bound on h/eps
        ex = library.make_system("example31")
        ens = simulate_penalized(ex, 0.001, TimeGrid(0.0, 1.0, 64), 64, NoiseSource(23))
        assert np.any(ens.variation > 0)
        rep = residual_report(ens, ex, probes=[np.zeros(2)])
        assert rep.equation_residual <= 1e-8 and rep.inequality_residual <= 1e-8

    def test_penalized_approaches_projected(self):
        ou = library.make_system("ou")
        grid = TimeGrid(0.0, 1.0, 2048)
        noise = NoiseSource(17)
        inc = noise.brownian(128, grid.steps, 1, grid.h)
        ref = simulate_projected(ou, grid, 128, noise, increments=inc)
        dists = []
        for eps in (2**-3, 2**-5, 2**-7):
            ens = simulate_penalized(ou, eps, grid, 128, noise, increments=inc)
            gap = np.max(np.abs(ens.states - ref.states), axis=1)
            dists.append(np.mean(gap**2))
        assert dists[2] < dists[1] < dists[0]


class TestEulerIteration:
    def test_needs_an_iteration(self):
        with pytest.raises(ConfigurationError, match="^need at least one iteration$"):
            euler_iteration(free_system([0.5]), 3, 0, TimeGrid(0.0, 1.0, 8), 2,
                            NoiseSource(19))

    def test_constant_coefficients_converge_immediately(self):
        coeffs = CoefficientField(
            lambda x, mu: np.full_like(x, -0.5), lambda x, mu: np.array([[0.3]]),
            1e-9, 1, 1, uses_measure=False, normalized=False,
        )
        sys1 = System(coeffs, ObliqueField.identity(1),
                      ConvexConstraint.half_line(), [0.5])
        iterates, dists = euler_iteration(sys1, 3, 3, TimeGrid(0.0, 1.0, 256),
                                          16, NoiseSource(19))
        np.testing.assert_array_equal(iterates[0].states, iterates[1].states)
        assert dists[0] == 0.0

    def test_cauchy_distances_decrease(self):
        ex = library.make_system("example31")
        iterates, dists = euler_iteration(ex, 4, 5, TimeGrid(0.0, 1.0, 256),
                                          64, NoiseSource(23))
        assert len(iterates) == 5 and len(dists) == 4
        for a, b in zip(dists[1:], dists[2:]):
            assert b <= a + 1e-12

    def test_time_dependent_coefficients_are_read_at_every_step(self):
        # drift t changes inside every snap window, so each step reads it at its
        # own time, whether H is I or I(t)
        seen = []
        coeffs = CoefficientField(
            lambda x, mu, t: seen.append(t) or np.full_like(x, t),
            lambda x, mu, t: np.array([[0.3]]),
            1.0, 1, 1, time_dependent=True, uses_measure=False, normalized=False,
        )
        grid = TimeGrid(0.0, 1.0, 16)
        runs = [euler_iteration(System(coeffs, oblique, ConvexConstraint.half_line(), [0.5]),
                                2, 2, grid, 8, NoiseSource(3))[0]
                for oblique in (ObliqueField.identity(1),
                                ObliqueField(lambda t: np.eye(1), 1.0, 1.0, 1,
                                             time_dependent=True))]
        assert seen == grid.times[:-1].tolist() * 4         # 2 passes of 2 runs
        for a, b in zip(*runs):
            for name in PATH_FIELDS:
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_common_noise_across_iterates(self):
        ex = library.make_system("ou")
        iterates, _ = euler_iteration(ex, 3, 2, TimeGrid(0.0, 1.0, 128),
                                      8, NoiseSource(29))
        np.testing.assert_array_equal(iterates[0].increments, iterates[1].increments)


class TestDiagnostics:
    def test_constant_feasible_path_all_zero(self):
        sys1 = free_system([0.5])
        ens = simulate_projected(sys1, TimeGrid(0.0, 1.0, 64), 4, NoiseSource(0))
        rep = residual_report(ens, sys1, probes=[np.array([1.0])])
        assert rep.equation_residual <= 1e-12
        assert rep.feasibility_gap == 0.0
        assert rep.inequality_residual <= 1e-12

    def test_projected_scheme_residuals(self):
        ou = library.make_system("ou")
        ens = simulate_projected(ou, TimeGrid(0.0, 1.0, 512), 32, NoiseSource(31))
        rep = residual_report(ens, ou, probes=[np.array([0.0]), np.array([1.0])],
                              shifts=[np.array([0.5])])
        assert rep.equation_residual <= 1e-9
        assert rep.feasibility_gap <= 1e-10
        assert rep.inequality_residual <= 1e-10

    def test_penalized_scheme_residuals(self):
        ou = library.make_system("ou")
        eps = 0.05
        ens = simulate_penalized(ou, eps, TimeGrid(0.0, 1.0, 512), 32, NoiseSource(37))
        rep = residual_report(ens, ou, probes=[np.array([0.0])])
        assert rep.equation_residual <= 1e-9
        # the inequality can overshoot by at most eps times the gradient energy
        energy = np.mean(np.sum(ens.density**2, axis=(1, 2))) * ens.grid.h
        assert rep.inequality_residual <= eps * energy * 2 + 1e-9

    def test_a_nan_residual_reads_nan(self):
        # a running max by Python's max would drop the NaN and report a pass
        ou = library.make_system("ou")
        ens = simulate_projected(ou, TimeGrid(0.0, 1.0, 16), 4, NoiseSource(0))
        nan_drift = CoefficientField(lambda x, mu: np.full(x.shape, np.nan),
                                     lambda x, mu: np.zeros(x.shape + (1,)), 1.0, 1, 1,
                                     uses_measure=False, normalized=False)
        nan_value = ConvexConstraint.sum_of(
            ou.constraint,
            ConvexConstraint.smooth(lambda z: np.nan if z.any() else 0.0, lambda z: 0.0 * z, 1))
        for system, nan_key in ((System(nan_drift, ou.oblique, ou.constraint, ou.x0),
                                 "equation_residual"),
                                (System(ou.coeffs, ou.oblique, nan_value, ou.x0),
                                 "inequality_residual")):
            rep = residual_report(ens, system, probes=[np.zeros(1)])
            assert math.isnan(getattr(rep, nan_key))
            finite = ({"equation_residual", "inequality_residual"} - {nan_key}).pop()
            assert getattr(rep, finite) == getattr(residual_report(ens, ou, probes=[np.zeros(1)]),
                                                   finite)

    def test_interior_margin_zero_reflection(self):
        sys1 = free_system([0.5])
        ens = simulate_projected(sys1, TimeGrid(0.0, 1.0, 64), 4, NoiseSource(0))
        cert = InteriorCertificate([1.0], 1.0)
        assert interior_reflection_margin(ens, cert) == 0.0

    def test_interior_margin_reflected_bm(self):
        rbm = library.make_system("rbm")
        ens = simulate_projected(rbm, TimeGrid(0.0, 1.0, 1024), 64, NoiseSource(41))
        cert = InteriorCertificate([1.0], 1.0)
        assert interior_reflection_margin(ens, cert) >= -1e-8

    def test_interior_margin_ball(self):
        ex = library.make_system("example31")
        ens = simulate_projected(ex, TimeGrid(0.0, 1.0, 512), 64, NoiseSource(43))
        cert = InteriorCertificate([0.0, 0.0], 0.9)
        assert interior_reflection_margin(ens, cert) >= -1e-8

    def test_second_moment_sup_grid_stability(self):
        ex = library.make_system("example31")
        vals = []
        for steps in (256, 512):
            ens = simulate_projected(ex, TimeGrid(0.0, 1.0, steps), 128,
                                     NoiseSource(47))
            vals.append(second_moment_sup(ens))
        assert abs(vals[1] - vals[0]) <= 0.1 * max(vals)


def _particle_major_simulate(system, grid, particles, noise, *, eps=None, control=None,
                             increments=None, frozen_from=None, frozen_level=None):
    """Reference step loop: the engine's arithmetic with particle-major storage.

    Every array is allocated ``(N, steps+1, ...)`` and written one strided
    column per step; the arithmetic is the engine's, so its paths must
    match the time-major engine's bit for bit.  The cumulative reflection,
    its variation and the density are accumulated here step by step, so
    they check the engine's derivation of them from ``dk``.
    """
    coeffs = system.coeffs
    m, d = system.state_dim, system.noise_dim
    steps, h = grid.steps, grid.h
    times = grid.times
    N = int(particles)
    if increments is None:
        increments = noise.brownian(N, steps, d, h)
    oblique = system.oblique
    need_mu = coeffs.uses_measure or (
        not oblique.time_dependent and getattr(oblique, "uses_measure", True)
    )
    X = np.tile(system.x0, (N, 1))
    states = np.empty((N, steps + 1, m))
    dk = np.empty((N, steps, m))
    reflection = np.zeros((N, steps + 1, m))
    variation = np.zeros((N, steps + 1))
    density = np.empty((N, steps, m))
    states[:, 0] = X
    for k in range(steps):
        tk = times[k]
        uk = mvsolver._control_value(control, k)
        # frozen: the coefficients read at the previous iterate's snapped states
        Xe = X if frozen_from is None else \
            frozen_from.states[:, grid.snap_index(tk, frozen_level), :]
        mu = EmpiricalMeasure(Xe) if need_mu else None
        fk = coeffs.drift(Xe, mu, uk, tk)
        gk = coeffs.diffusion(Xe, mu, uk, tk)
        Hk = oblique(t=tk) if oblique.time_dependent else oblique(Xe, mu)
        Y = X + h * fk + mvsolver._gdb(gk, increments[:, k, :])
        # penalized: the backward step in (eps/h) I + H, then x = z + (eps/h) dk
        Hs = Hk if eps is None else Hk + eps / h * (1.0 if oblique.diagonal else np.eye(m))
        Z, dk_step, _ = convexcore.backward_step(system.constraint, h, Hs, Y, oblique.diagonal)
        X = Z if eps is None else Z + eps / h * dk_step
        if not np.all(np.isfinite(X)) or np.max(np.abs(X)) > mvsolver.BLOWUP_GUARD:
            raise DivergenceError("oracle diverged", step=k)
        states[:, k + 1] = X
        dk[:, k] = dk_step
        reflection[:, k + 1] = reflection[:, k] + dk_step
        variation[:, k + 1] = variation[:, k] + np.linalg.norm(dk_step, axis=1)
        density[:, k] = dk_step / h
    return SimpleNamespace(
        grid=grid, states=states, dk=dk, reflection=reflection, variation=variation,
        density=density, increments=increments, system=system,
        scheme="projected" if eps is None else "penalized", eps=eps,
        control=None if control is None else np.asarray(control),
    )


def _particle_major_iteration(system, level, iterations, grid, particles, noise):
    """Reference frozen iteration: each pass is one ``_particle_major_simulate`` run."""
    N = int(particles)
    increments = noise.brownian(N, grid.steps, system.noise_dim, grid.h)
    prev = SimpleNamespace(states=np.tile(system.x0, (N, grid.steps + 1, 1)))
    iterates = []
    for _ in range(iterations):
        prev = _particle_major_simulate(system, grid, N, noise, increments=increments,
                                        frozen_from=prev, frozen_level=level)
        iterates.append(prev)
    return iterates


PATH_FIELDS = ("states", "dk", "reflection", "variation", "density")


def half_space_system():
    """A unit drift into the half-space x_1 >= 0 with identity H: its
    reflected rows carry -0.0 in their tangential dk."""
    coeffs = CoefficientField(lambda x, mu: np.full_like(x, -1.0),
                              lambda x, mu: np.eye(2), 1.0, 2, 2,
                              uses_measure=False, normalized=False)
    return System(coeffs, ObliqueField.identity(2),
                  ConvexConstraint.half_space([1.0, 0.0]), [0.1, 0.0])


def controlled_planar_system():
    """example31's oblique field and ball with a control- and mean-dependent drift."""
    ex = library.make_system("example31")
    coeffs = CoefficientField(
        lambda x, mu, u: u * (x - mu.mean()) + 1.5,
        lambda x, mu, u: np.array([[0.4], [0.7]]),
        3.0, 2, 1, controlled=True, uses_measure=True, normalized=False,
    )
    return System(coeffs, ex.oblique, ex.constraint, ex.x0)


def dense_varying_field():
    """A dense SPD oblique field that depends on the state and the measure
    (eigenvalues in [0.5, 4.5]): no declared structure, every row its own matrix."""
    def matrix(x, mu):
        w = min(measures.w2_to_origin(mu), 1.0)
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = 2.0 + np.sin(x[..., 0]) + w
        out[..., 1, 1] = 3.0 + np.cos(x[..., 1]) * w
        out[..., 0, 1] = out[..., 1, 0] = 0.5 * np.cos(x[..., 0] - x[..., 1])
        return out

    return ObliqueField(matrix, a_h=0.5, b_h=4.5, dim=2)


def _storage_runs():
    """(label, call, reference) triples; each call runs one engine entry on a small grid.

    Without a reference the call itself is rerun with the particle-major
    oracle as its step loop, which reads the oblique matrix on every row
    where the engine reads it on the rows its Skorohod step corrects.  The
    frozen iterations are compared with ``_particle_major_iteration``,
    which keeps its own frozen arithmetic.
    ``frozen-m1-mean`` freezes coefficients that call
    ``EmpiricalMeasure.mean`` on a stored time slice, strided in the
    particle-major layout and contiguous in the time-major one; it matches
    because the measure stores its atoms in C order.
    """
    grid = TimeGrid(0.0, 1.0, 96)
    two = library.make_control_problem("two_control").system
    ctrl = np.where(np.arange(grid.steps) < 40, -1.0, 1.0)
    ex, linear = library.make_system("example31"), library.make_system("linear", b=-2.0)
    planar = controlled_planar_system()
    dense_ball = System(ex.coeffs, dense_varying_field(), ex.constraint, ex.x0)
    dense_triangle = System(ex.coeffs, dense_varying_field(), TRIANGLE, ex.x0)
    frozen = [("frozen-m1", library.make_system("ou"), 7), ("frozen-m2", ex, 8),
              ("frozen-m1-mean", linear, 9)]
    return [
        ("projected-m1", lambda: simulate_projected(linear, grid, 33, NoiseSource(1)), None),
        ("projected-m2", lambda: simulate_projected(ex, grid, 33, NoiseSource(2)), None),
        ("penalized-m1", lambda: simulate_penalized(linear, 0.05, grid, 33, NoiseSource(3)),
         None),
        ("penalized-m2", lambda: simulate_penalized(ex, 0.05, grid, 33, NoiseSource(4)), None),
        ("controlled-m1", lambda: simulate_projected(two, grid, 33, NoiseSource(5),
                                                     control=ctrl), None),
        ("controlled-m2", lambda: simulate_penalized(planar, 0.1, grid, 33, NoiseSource(6),
                                                     control=ctrl), None),
        ("dense-ball-m2", lambda: simulate_projected(dense_ball, grid, 33, NoiseSource(10)),
         None),
        ("dense-triangle-m2",
         lambda: simulate_projected(dense_triangle, grid, 33, NoiseSource(11)), None),
    ] + [
        (label, lambda s=system, n=seed: euler_iteration(s, 3, 3, grid, 33, NoiseSource(n))[0],
         lambda s=system, n=seed: _particle_major_iteration(s, 3, 3, grid, 33,
                                                            NoiseSource(n)))
        for label, system, seed in frozen
    ]


class TestTimeMajorStorage:
    """The time-major engine against the particle-major reference loop."""

    @pytest.mark.parametrize("index", range(11), ids=[r[0] for r in _storage_runs()])
    def test_paths_match_particle_major_oracle(self, index, monkeypatch):
        label, run, reference = _storage_runs()[index]
        if reference is None:
            monkeypatch.setattr(mvsolver, "_simulate",
                                lambda *a, **kw: [_particle_major_simulate(*a, **kw)])
            expected = run()
            monkeypatch.undo()
        else:
            expected = reference()
        got = run()
        if not isinstance(got, list):
            expected, got = [expected], [got]
        assert len(got) == len(expected)
        for ens_ref, ens in zip(expected, got):
            assert np.any(ens.variation > 0)
            for name in PATH_FIELDS:
                arr, ref = getattr(ens, name), getattr(ens_ref, name)
                # bit for bit, so a zero's sign counts too
                assert arr.shape == ref.shape and arr.tobytes() == ref.tobytes(), name
                # a particle-major view of a contiguous time-major buffer
                assert np.swapaxes(arr, 0, 1).flags.c_contiguous
                assert arr.base is not None and not arr.flags.c_contiguous

    def test_reflection_sums_from_a_positive_zero(self):
        # a half-space step leaves -0.0 in the tangential dk; summed from a
        # zero row, k holds +0.0 there, which a plain cumsum would not give
        ens = simulate_projected(half_space_system(), TimeGrid(0.0, 1.0, 64), 8, NoiseSource(1))

        def negative_zeros(a):
            return int(np.count_nonzero((a == 0) & np.signbit(a)))

        assert negative_zeros(ens.dk) == 129
        # every -0.0 sits in a logged row: the rows off the log are +0.0
        assert sum(negative_zeros(values) for _, values in ens.dk_log) == 129
        assert negative_zeros(ens.reflection) == 0
        np.testing.assert_array_equal(ens.reflection[:, 1:], np.cumsum(ens.dk, axis=1))

    def test_diagnostics_do_not_depend_on_layout(self):
        # residual_report's sums over time run in one fixed order; dk is
        # built from the log, so only the states have a layout to vary
        ou = library.make_system("ou")
        quadratic = System(ou.coeffs, ou.oblique, ConvexConstraint.sum_of(
            ConvexConstraint.half_line(),
            ConvexConstraint.smooth(lambda z: float(z @ z), lambda z: 2.0 * z, 1)), [0.5])
        grid = TimeGrid(0.0, 1.0, 128)
        for system, ens in (
            (ou, simulate_projected(ou, grid, 24, NoiseSource(9))),
            (quadratic, simulate_projected(quadratic, grid, 24, NoiseSource(9))),
            (library.make_system("example31"),
             simulate_projected(library.make_system("example31"), grid, 24, NoiseSource(9))),
        ):
            m = system.state_dim
            copy = mvsolver.PathEnsemble(**{**vars(ens),
                                            "states": np.ascontiguousarray(ens.states)})
            kwargs = dict(probes=[np.zeros(m), np.full(m, 0.25)], shifts=[np.full(m, 0.1)])
            a, b = residual_report(ens, system, **kwargs), residual_report(copy, system, **kwargs)
            assert (a.equation_residual, a.feasibility_gap, a.inequality_residual) \
                == (b.equation_residual, b.feasibility_gap, b.inequality_residual)
            # the sum constraint has no certified constants: the certificate's are given
            cert = InteriorCertificate(np.full(m, 1.0 if m == 1 else 0.0), 0.5)
            constants = (cert.radius, 0.0, 0.0)
            assert interior_reflection_margin(ens, cert, constants) \
                == interior_reflection_margin(copy, cert, constants)
            assert second_moment_sup(ens) == second_moment_sup(copy)

    def test_rate_probe_matches_particle_major_oracle(self):
        # the probe streams its sums through one batched loop; the reference
        # reduces the oracle's recorded paths one pair of levels at a time
        cfg = SimConfig(steps=256, particles=24, replications=2, seed=3)
        ou = library.make_system("ou")
        ladder = [2.0**-k for k in range(6, 2, -1)]
        rep = penalization_rate_probe(ou, None, ladder, cfg, horizon=(0.0, 1.0))
        grid = TimeGrid(0.0, 1.0, cfg.steps)
        l2s, sups = [], []
        for r in range(cfg.replications):
            noise = NoiseSource(cfg.seed).child(3).for_replication(r)
            inc = noise.brownian(cfg.particles, cfg.steps, 1, grid.h)
            paths = [_particle_major_simulate(ou, grid, cfg.particles, noise, eps=e,
                                              increments=inc).states for e in ladder]
            gaps = [np.linalg.norm(b - a, axis=2) for a, b in zip(paths, paths[1:])]
            l2s.append([np.sum(g**2, axis=1) * grid.h for g in gaps])
            sups.append([np.max(g, axis=1) ** 2 for g in gaps])
        assert np.all(np.mean(l2s, axis=(0, 2)) > 0)
        np.testing.assert_allclose(rep.ys, np.mean(l2s, axis=(0, 2)), rtol=1e-12, atol=0)
        # a running maximum is exact in any order
        np.testing.assert_array_equal(rep.extras["sup_distances"], np.mean(sups, axis=(0, 2)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("scheme", ["projected", "penalized"])
    def test_divergence_guard_catches_non_finite_states(self, bad, scheme):
        # x grows by 0.1 a step from 1 and the drift turns bad once x > 1.55,
        # so step 6 is the first to produce a non-finite state
        coeffs = CoefficientField(
            lambda x, mu: np.where(x > 1.55, bad, 1.0), lambda x, mu: np.zeros((1, 1)),
            1.0, 1, 1, uses_measure=False, normalized=False,
        )
        sys1 = System(coeffs, ObliqueField.identity(1), ConvexConstraint.half_line(), [1.0])
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(DivergenceError) as err:
            if scheme == "projected":
                simulate_projected(sys1, grid, 3, NoiseSource(0))
            else:
                simulate_penalized(sys1, 0.1, grid, 3, NoiseSource(0))
        assert err.value.step == 6


class _DenseCopy(mvsolver._PathRecorder):
    """The path recorder that also keeps a copy of every step's dense ``dk``, and
    checks that the rows the step reports hold every row with a bit set."""

    def start(self, X):
        super().start(X)
        self.dense = []

    def step(self, k, X, dk_step, rows):
        assert rows is None or np.isin(whole_width_scan(dk_step), rows).all()
        super().step(k, X, dk_step, rows)
        self.dense.append(dk_step.copy())


class TestReflectionLog:
    """The loop logs ``dk`` only on the rows a step corrects."""

    def test_any_set_bit_is_logged(self):
        # the recorder logs the rows with a set bit among the rows the step touched
        rec = mvsolver._PathRecorder(TimeGrid(0.0, 1.0, 1))
        dk = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [np.nan, 0.0],
                       [0.0, 0.0], [5e-324, 0.0], [0.0, 2.0]])
        for cols in (dk, dk[:, :1], np.asfortranarray(dk)):
            expected = np.flatnonzero(np.any(cols.view(np.uint64) != 0, axis=1))
            for touched in (np.arange(len(cols)), np.array([0, 1, 4, 5]), np.arange(0), None):
                want = expected if touched is None else np.intersect1d(expected, touched)
                rows = convexcore._set_rows(cols, touched)
                assert rows.dtype == np.int32 and np.array_equal(rows, want)
                rec.start(np.zeros(cols.shape))
                rec.step(0, np.zeros(cols.shape), cols, touched)
                (logged, values), = rec.log
                assert logged.dtype == np.int32 and np.array_equal(logged, want)
                assert values.tobytes() == np.ascontiguousarray(cols[want]).tobytes()

    @pytest.mark.parametrize("case", ["half-space", "ball", "penalized"])
    def test_log_holds_exactly_the_rows_with_a_set_bit(self, case):
        system = half_space_system() if case == "half-space" else library.make_system("example31")
        grid = TimeGrid(0.0, 1.0, 64)
        rec = mvsolver._simulate(system, grid, 48, NoiseSource(2), observer=_DenseCopy(grid),
                                 eps=0.05 if case == "penalized" else None)
        assert len(rec.log) == len(rec.dense) == grid.steps
        for (rows, values), dk in zip(rec.log, rec.dense):
            expected = np.flatnonzero(np.any(dk.view(np.uint64) != 0, axis=1))
            assert rows.dtype == np.int32 and np.array_equal(rows, expected)
            assert values.tobytes() == dk[expected].tobytes()
        assert 0 < sum(len(rows) for rows, _ in rec.log) < grid.steps * 48

    def test_loop_allocates_no_dense_dk(self):
        # the loop's traced peak stays below the states plus half of a dense
        # (steps, N, m) dk buffer
        ex = library.make_system("example31")
        grid, N = TimeGrid(0.0, 1.0, 256), 1024
        inc = NoiseSource(3).brownian(N, grid.steps, 1, grid.h)
        tracemalloc.start()
        try:
            ens = simulate_projected(ex, grid, N, None, increments=inc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense = grid.steps * N * ex.state_dim * 8
        assert ens.states.nbytes < peak < ens.states.nbytes + dense / 2

    def test_groups_log_their_own_rows(self):
        ex = library.make_system("example31")
        grid, N = TimeGrid(0.0, 1.0, 64), 24
        inc = mvsolver._stream_increments([NoiseSource(12).for_replication(r) for r in range(3)],
                                          N, grid.steps, 1, grid.h)
        batch = mvsolver._simulate(ex, grid, N, None, increments=inc, groups=3)
        for g, ens in enumerate(batch):
            alone, = mvsolver._simulate(ex, grid, N, None, increments=inc[g])
            assert ens.dk.tobytes() == alone.dk.tobytes()
            assert len(ens.dk_log) == len(alone.dk_log) == grid.steps
            for (rows, values), (solo_rows, solo_values) in zip(ens.dk_log, alone.dk_log):
                assert rows.dtype == np.int32 and np.array_equal(rows, solo_rows)
                assert values.tobytes() == solo_values.tobytes()
            assert any(len(rows) for rows, _ in ens.dk_log)

    def test_log_bytes_follow_the_reflected_rows(self):
        ex = library.make_system("example31")
        grid, N, m = TimeGrid(0.0, 1.0, 128), 256, 2
        ens = simulate_projected(ex, grid, N, NoiseSource(7))
        reflected = np.count_nonzero(np.any(ens.dk.view(np.uint64) != 0, axis=2))
        assert 0 < reflected < N * grid.steps // 4
        # int32 indices and float64 rows, plus two array objects per step
        assert len(ens.dk_log) == grid.steps
        assert sum(rows.nbytes + values.nbytes for rows, values in ens.dk_log) \
            == reflected * (4 + 8 * m)


def whole_width_scan(dk):
    """The rows of a dense ``dk`` with a bit set, found by OR-ing the bits of every
    row: how the path recorder found them before the step reported them."""
    return reduce(np.bitwise_or, dk.view(np.uint64).T).nonzero()[0]


def recorded_rows(dk, touched):
    """The rows the path recorder logs for a step's ``dk`` and the rows the step
    touched, which hold every row of the whole-width scan or are ``None``."""
    assert touched is None or np.isin(whole_width_scan(dk), touched).all()
    rec = mvsolver._PathRecorder(TimeGrid(0.0, 1.0, 1))
    rec.start(np.zeros(dk.shape))
    rec.step(0, np.zeros(dk.shape), dk, touched)
    (rows, values), = rec.log
    assert values.tobytes() == dk[rows].tobytes()
    return rows


@st.composite
def reported_rows_cases(draw):
    """A planar set or a ``sum``, a scheme, one or three groups, and ``H`` dense or
    declared diagonal, per row, of the state and the group's measure.  The drift
    pushes every group out of its set; an axis-aligned face leaves ``-0.0`` in
    the tangential ``dk``, and a box with a dense ``H`` takes the polytope step.

    Every case leaves its set: over ``T = 0.5`` the drift's component along its
    largest axis, whose cosine with a face's outward normal is at least 1/sqrt(2),
    carries a particle across the widest set (the triangle, 2.13 across; the
    half-space face is at most 0.74 from any start) and three standard deviations
    of the noise ``[0.5, 0.3] W_T`` further, so the free path ends outside."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["ball", "half-space", "triangle", "box", "ball + quadratic"]))
    dense = draw(st.booleans())
    push = rng.standard_normal(2)
    axis = np.argmax(np.abs(push))
    push *= (2.2 + 3 * math.hypot(0.5, 0.3) * math.sqrt(0.5)) / 0.5 / abs(push[axis])
    face = -np.sign(push[axis]) * np.eye(2)[axis] if rng.random() < 0.5 else -push
    constraint = {
        "ball": lambda: ConvexConstraint.ball([0.1, -0.1], 0.8),
        "half-space": lambda: ConvexConstraint.half_space(face, -0.3),
        "triangle": lambda: ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [-0.5, -0.5, -0.5]),
        "box": lambda: ConvexConstraint.box([-0.5, -0.4], [0.6, 0.5]),
        "ball + quadratic": lambda: ConvexConstraint.sum_of(
            ConvexConstraint.ball([0.1, -0.1], 0.8),
            library.constraint_from_config({"kind": "quadratic", "weights": [1, 4]})),
    }[kind]()
    H = np.array([[2.0, 0.7], [0.7, 1.0]]) if dense else np.array([2.0, 1.0])

    def matrix(x, mu):          # H times a factor in [1, 2] for each row
        scale = 1.5 + 0.5 * np.sin(x[:, :1] - 2.0 * x[:, 1:] + mu.mean()[0])
        return scale[..., None] * H if dense else scale * H

    coeffs = CoefficientField(push, [[0.5], [0.3]], 3.0, 2, 1, normalized=False)
    groups = draw(st.sampled_from([1, 3]))
    x0 = project(ConvexConstraint.ball([0.1, -0.1], 0.3), 0.5 * rng.standard_normal((groups, 2)))
    system = System(coeffs, ObliqueField(matrix, 0.5, 5.0, 2, diagonal=not dense),
                    constraint, x0[0])
    eps = rng.uniform(0.05, 0.5, groups) if draw(st.booleans()) else None
    return system, eps, draw(st.integers(1, 6)), x0


def nan_right_of(bad, poison):
    """A ball system drifting right whose drift (``bad`` = ``"state"``) or diagonal H
    (``"H"``) is NaN on the rows right of ``x_1 = 0.6``, if ``poison``."""
    def drift(x, mu):
        out = np.zeros_like(x)
        out[:, 0] = 2.0
        return np.where(poison and bad == "state" and x[:, :1] > 0.6, np.nan, out)

    def matrix(x, mu):
        H = np.tile([2.0, 1.0], (len(x), 1))
        return np.where(poison and bad == "H" and x[:, :1] > 0.6, np.nan, H)

    coeffs = CoefficientField(drift, lambda x, mu: 0.3 * np.eye(2), 2.0, 2, 2,
                              uses_measure=False, normalized=False)
    return System(coeffs, ObliqueField(matrix, 1.0, 2.0, 2, uses_measure=False, diagonal=True),
                  ConvexConstraint.ball([0.0, 0.0], 1.0), [0.0, 0.0])


class TestReportedRows:
    """The rows a step reports hold every row of its ``dk`` with a bit set, and the
    recorder logs exactly those, as the whole-width scan finds them."""

    @settings(max_examples=80)
    @given(reported_rows_cases())
    def test_rows_match_the_whole_width_scan(self, case):
        system, eps, particles, x0 = case
        grid = TimeGrid(0.0, 0.5, 12)
        rec = mvsolver._simulate(system, grid, particles, NoiseSource(3), eps=eps,
                                 groups=len(x0), x0=x0, observer=_DenseCopy(grid))
        for (rows, values), dk in zip(rec.log, rec.dense):
            expected = whole_width_scan(dk)
            assert rows.dtype == np.int32 and np.array_equal(rows, expected)
            assert values.tobytes() == dk[expected].tobytes()
        assert any(len(rows) for rows, _ in rec.log)

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_ball_rows_inside_the_newton_tolerance(self, diagonal, shift):
        # outside by an ulp: lam = 0 and dk = 0 (x - c), so (-0.0, 0.0) is logged
        # and (0.0, 0.0) is not; the outside rows unfiltered would log both
        ball = ConvexConstraint.ball([0.0, 0.0], 1.0)
        u = np.nextafter(1.0, 2.0)
        Y = np.array([[u, 0.0], [-u, 0.0], [0.5, 0.0], [3.0, 0.0], [0.0, -u]])
        H = np.array([2.0, 1.0]) if diagonal else np.array([[2.0, 0.3], [0.3, 1.0]])
        Hs = mvsolver._shifted(H, shift, diagonal) if shift else H
        X, dk, touched = convexcore.backward_step(ball, 0.1, Hs, Y, diagonal)
        rows = recorded_rows(dk, touched)
        assert rows.dtype == np.int32 and np.array_equal(rows, whole_width_scan(dk))
        assert rows.tolist() == [1, 3, 4]
        assert dk[0].tobytes() == np.zeros(2).tobytes()
        assert dk[1].tobytes() == np.array([-0.0, 0.0]).tobytes()
        assert np.abs(X[:2] - Y[:2]).max() <= 1e-15

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_nan_rows(self, diagonal):
        # a NaN row is not outside the ball: dk = 0, not logged.  An outside row
        # whose H holds a NaN gets a NaN state and dk, and is logged, also when it
        # is outside by less than the Newton tolerance
        ball = ConvexConstraint.ball([0.0, 0.0], 1.0)
        u = np.nextafter(1.0, 2.0)
        Y = np.array([[np.nan, 0.0], [u, 0.0], [3.0, 0.0], [0.0, 2.0], [0.2, 0.1]])
        H = np.array([[2.0, 1.0]] * 5) if diagonal else np.array([[[2.0, 0.3], [0.3, 1.0]]] * 5)
        H[1:3] = np.nan
        X, dk, touched = convexcore.backward_step(ball, 0.1, H, Y, diagonal)
        assert recorded_rows(dk, touched).tolist() == whole_width_scan(dk).tolist() == [1, 2, 3]
        assert np.isnan(X[:3]).any(axis=1).all() and np.isnan(dk[1:3]).all()
        assert dk[0].tobytes() == np.zeros(2).tobytes() and not np.isnan(X[3:]).any()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", ["state", "H"])
    def test_a_nan_row_stops_the_run_at_its_step(self, bad):
        # the first row right of 0.6 (for H: the first corrected one) turns NaN, and
        # the DivergenceError names its step, group and particle; every step before
        # reports the rows of the whole-width scan
        grid, N = TimeGrid(0.0, 1.0, 32), 8
        x0 = np.array([[-0.5, 0.0], [0.0, 0.3]])
        clean = mvsolver._simulate(nan_right_of(bad, False), grid, N, NoiseSource(6),
                                   groups=2, x0=x0)
        states = np.concatenate([e.states for e in clean])
        hit = states[:, :-1, 0] > 0.6                       # (G N, steps), before each step
        if bad == "H":
            hit &= np.any(np.concatenate([e.dk for e in clean]) != 0, axis=2)
        k = int(np.flatnonzero(hit.any(axis=0))[0])
        group, particle = divmod(int(np.flatnonzero(hit[:, k])[0]), N)
        rec = _DenseCopy(grid)
        with pytest.raises(DivergenceError) as err:
            mvsolver._simulate(nan_right_of(bad, True), grid, N, NoiseSource(6),
                               groups=2, x0=x0, observer=rec)
        assert (err.value.step, err.value.group, err.value.particle) == (k, group, particle)
        assert len(rec.log) == k > 0
        for (rows, _), dk in zip(rec.log, rec.dense):
            assert np.array_equal(rows, whole_width_scan(dk))

    def test_box_row_outside_by_a_subnormal_is_not_logged(self):
        # (y - x) / 2 = -2^-1075 rounds to -0.0, and the step's + 0.0 makes it +0.0
        box = ConvexConstraint.box([0.0, -1.0], [1.0, 1.0])
        Y = np.array([[-5e-324, 0.5], [-0.5, 0.5], [0.5, 0.5]])
        for H, diagonal in ((np.array([2.0, 3.0]), True), (np.diag([2.0, 3.0]), False)):
            X, dk, touched = convexcore.backward_step(box, 0.1, H, Y, diagonal)
            rows = recorded_rows(dk, touched)
            assert rows.tolist() == whole_width_scan(dk).tolist() == [1]
            assert X[0].tolist() == [0.0, 0.5] and dk[0].tobytes() == np.zeros(2).tobytes()


def array_or_lambda_system(name, arrays):
    """``rbm``, or a planar ball system with a constant drift and a two-row diffusion,
    declared as arrays or as callables that build them anew on every call (the
    zero drift as ``np.zeros_like(x)``), as the bundled systems did; the callables
    leave the measure use at its default, so groups go through the per-group path."""
    drift, diffusion = ([0.0], [[1.0]]) if name == "rbm" else ([0.7, -0.4], [[0.5], [0.3]])
    if not arrays:
        drift = (lambda x, mu: np.zeros_like(x)) if name == "rbm" \
            else (lambda x, mu, f=np.array(drift): np.tile(f, (len(x), 1)))
        diffusion = lambda x, mu, g=np.array(diffusion): np.array(g)
    m = 1 if name == "rbm" else 2
    coeffs = CoefficientField(drift, diffusion, 1.0, m, 1, normalized=False)
    assert coeffs.uses_measure is not arrays
    if name == "rbm":
        return System(coeffs, ObliqueField.identity(1), ConvexConstraint.half_line(), [0.0])
    return System(coeffs, ObliqueField(np.array([2.0, 1.0]), 1.0, 2.0, 2, diagonal=True),
                  ConvexConstraint.ball([0.0, 0.0], 0.6), [0.1, 0.0])


class TestStepPlan:
    """The step inputs planned once per run: array coefficients, one increments buffer."""

    @pytest.mark.parametrize("groups", [1, 3])
    @pytest.mark.parametrize("eps", [None, 0.05])
    @pytest.mark.parametrize("name", ["rbm", "planar"])
    def test_array_coefficients_run_as_the_callables_did(self, name, eps, groups):
        grid, N = TimeGrid(0.0, 1.0, 64), 9
        x0 = np.linspace(0.0, 0.4, groups)[:, None] * ([1.0] if name == "rbm" else [1.0, -0.5])
        runs = [mvsolver._simulate(array_or_lambda_system(name, arrays), grid, N,
                                   NoiseSource(17), eps=eps, groups=groups, x0=x0)
                for arrays in (True, False)]
        for got, want in zip(*runs):
            assert got.states.tobytes() == want.states.tobytes()
            assert [(r.tobytes(), v.tobytes()) for r, v in got.dk_log] \
                == [(r.tobytes(), v.tobytes()) for r, v in want.dk_log]
            assert any(len(r) for r, _ in got.dk_log)

    @pytest.mark.parametrize("copies", [1, 2, 6])
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("m,d,per_row", [(1, 1, False), (2, 1, False), (2, 2, False),
                                             (3, 2, False), (1, 1, True), (2, 2, True)])
    def test_noise_term_of_the_replication_rows_has_the_stacked_bits(self, m, d, per_row, n,
                                                                     copies):
        # g dB formed on the n replication rows and broadcast over the copies equals
        # the term on the copies' stacked rows, bit for bit; a shared (m, d > 1)
        # matrix is one product on the stacked rows (on one row numpy calls gemv,
        # whose bits differ from a gemm row's in about half of these draws)
        rng = np.random.default_rng([m, d, per_row, n, copies])
        for _ in range(20):
            dB = signed_zeros(rng, rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, (n, d)))
            gk = signed_zeros(rng, rng.standard_normal((copies * n, m, d) if per_row else (m, d)))
            got = np.broadcast_to(mvsolver._gdb(gk, dB, copies), (copies, n, m))
            want = mvsolver._gdb(gk, np.tile(dB, (copies, 1)))
            assert got.tobytes() == want.tobytes()


def _batch_cases():
    """name -> (system, batch keywords, keywords of each variant run alone).

    The batch runs every variant on every replication, variant-major.
    """
    grid = TimeGrid(0.0, 1.0, 96)
    reps = 3
    ou, ex = library.make_system("ou"), library.make_system("example31")
    two = library.make_control_problem("two_control").system
    planar = controlled_planar_system()
    smooth = System(ou.coeffs, ou.oblique, ConvexConstraint.sum_of(
        ConvexConstraint.half_line(),
        ConvexConstraint.smooth(lambda z: float(z @ z), lambda z: 2.0 * z, 1)), [0.5])
    eps = [0.05, 0.1]
    switch = [np.where(np.arange(grid.steps + 1) < s, -1.0, 1.0) for s in (30, 60)]
    per_control = np.repeat(switch, reps, axis=0)
    return grid, reps, {
        "ou-penalized-per-group-eps": (
            ou, dict(eps=np.repeat(eps, reps)), [dict(eps=e) for e in eps]),
        "smooth-penalized-per-group-eps": (
            smooth, dict(eps=np.repeat(eps, reps)), [dict(eps=e) for e in eps]),
        "two_control-projected-per-group-control": (
            two, dict(control=per_control), [dict(control=c) for c in switch]),
        "example31-projected-per-group-measure": (ex, dict(), [dict()]),
        "planar-penalized-per-group-measure-and-control": (
            planar, dict(eps=0.1, control=per_control),
            [dict(eps=0.1, control=c) for c in switch]),
    }


def _assert_batch_matches(name, particles=17, seed=11):
    grid, reps, cases = _batch_cases()
    system, batch_kw, variant_kws = cases[name]
    noise = NoiseSource(seed)
    d = system.noise_dim
    inc = mvsolver._stream_increments([noise.for_replication(r) for r in range(reps)],
                                      particles, grid.steps, d, grid.h)
    batch = mvsolver._simulate(system, grid, particles, noise, increments=inc,
                               groups=len(variant_kws) * reps, **batch_kw)
    assert len(batch) == len(variant_kws) * reps
    for g, ens in enumerate(batch):
        v, r = divmod(g, reps)
        rep_noise = noise.for_replication(r)
        alone = mvsolver._simulate(
            system, grid, particles, rep_noise, **variant_kws[v],
            increments=rep_noise.brownian(particles, grid.steps, d, grid.h))[0]
        assert np.any(alone.variation > 0)
        for field_name in PATH_FIELDS + ("increments",):
            np.testing.assert_array_equal(getattr(ens, field_name), getattr(alone, field_name))
        np.testing.assert_array_equal(ens.control, alone.control)
        assert ens.eps == alone.eps


def noise_system(name):
    """A system whose diffusion is a shared (1, 1) array, a user field's shared
    (2, 2) matrix, or a (rows, 2, 2) matrix per row."""
    if name == "shared (1, 1)":
        return library.make_system("ou")
    ex = library.make_system("example31")

    def per_row(x, mu):
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0], out[..., 1, 1] = 0.3 + 0.1 * np.sin(x[..., 0]), 0.4
        out[..., 0, 1], out[..., 1, 0] = -0.1 * x[..., 1], 0.05
        return out

    shared = lambda x, mu: np.array([[0.3, -0.1], [0.05, 0.4]])
    coeffs = CoefficientField(lambda x, mu: 0.8 * (mu.mean() - x) + 1.0,
                              shared if name == "shared (2, 2)" else per_row, 3.0, 2, 2,
                              normalized=False)
    return System(coeffs, ex.oblique, ex.constraint, ex.x0)


class TestBatchedEngine:
    """Groups of one batched step loop against separate runs, bit for bit."""

    @pytest.mark.parametrize("variants", [1, 2, 6])
    @pytest.mark.parametrize("name", ["shared (1, 1)", "shared (2, 2)", "per-row (2, 2)"])
    def test_variants_share_their_replication_noise_term(self, name, variants):
        # G / R variants of R replications, each its own level: the noise term is
        # formed on the R N replication rows, every group's run is its run alone
        system, grid, N, reps = noise_system(name), TimeGrid(0.0, 1.0, 48), 5, 2
        streams = [NoiseSource(31).for_replication(r) for r in range(reps)]
        inc = mvsolver._stream_increments(streams, N, grid.steps, system.noise_dim, grid.h)
        eps = np.repeat(np.linspace(0.02, 0.2, variants), reps)
        batch = mvsolver._simulate(system, grid, N, None, eps=eps, increments=inc,
                                   groups=variants * reps)
        for g, ens in enumerate(batch):
            alone = mvsolver._simulate(system, grid, N, None, eps=float(eps[g]),
                                       increments=inc[g % reps])[0]
            assert ens.states.tobytes() == alone.states.tobytes()
            assert [(r.tobytes(), v.tobytes()) for r, v in ens.dk_log] \
                == [(r.tobytes(), v.tobytes()) for r, v in alone.dk_log]
        assert any(len(r) for ens in batch for r, _ in ens.dk_log)

    @pytest.mark.parametrize("name", sorted(_batch_cases()[2]))
    def test_groups_match_separate_runs(self, name):
        # the smooth part's prox is one minimization per particle and step
        _assert_batch_matches(name, particles=6 if name.startswith("smooth") else 17)

    @pytest.mark.parametrize("name", ["example31-projected-per-group-measure",
                                      "planar-penalized-per-group-measure-and-control"])
    def test_one_measure_over_the_batch_is_caught(self, name, monkeypatch):
        # mutation: every group sees the empirical measure of the whole batch
        def one_measure(system, groups=1):
            def evaluate(X, u, t):
                mu = EmpiricalMeasure(X)
                return (system.coeffs.drift(X, mu, u, t), system.coeffs.diffusion(X, mu, u, t),
                        system.oblique(X, mu))
            return evaluate

        monkeypatch.setattr(mvsolver, "_coefficients", one_measure)
        with pytest.raises(AssertionError):
            _assert_batch_matches(name)

    @pytest.mark.parametrize("name", ["example31-projected-per-group-measure",
                                      "two_control-projected-per-group-control"])
    def test_per_group_start_points_match_runs_alone(self, name):
        grid, reps, cases = _batch_cases()
        system, batch_kw, variant_kws = cases[name]
        G, m, particles = len(variant_kws) * reps, system.state_dim, 13
        radii = np.linspace(0.1, 0.9, G)
        angles = np.linspace(0.0, 2 * np.pi, G, endpoint=False)
        starts = radii[:, None] if m == 1 else \
            radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        noise = NoiseSource(12)
        d = system.noise_dim
        inc = mvsolver._stream_increments([noise.for_replication(r) for r in range(reps)],
                                          particles, grid.steps, d, grid.h)
        batch = mvsolver._simulate(system, grid, particles, noise, increments=inc,
                                   groups=G, x0=starts, **batch_kw)
        for g, ens in enumerate(batch):
            v, r = divmod(g, reps)
            rep_noise = noise.for_replication(r)
            moved = System(system.coeffs, system.oblique, system.constraint, starts[g])
            alone = mvsolver._simulate(
                moved, grid, particles, rep_noise, **variant_kws[v],
                increments=rep_noise.brownian(particles, grid.steps, d, grid.h))[0]
            assert np.any(alone.variation > 0)
            np.testing.assert_array_equal(ens.states[:, 0], np.tile(starts[g], (particles, 1)))
            for field_name in PATH_FIELDS:
                np.testing.assert_array_equal(getattr(ens, field_name),
                                              getattr(alone, field_name))

    @pytest.mark.parametrize("shape", [(3, 1), (2,), (2, 2), (1, 2, 1)])
    def test_start_points_need_one_row_per_group(self, shape):
        ou = library.make_system("ou")
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(ConfigurationError, match="start points"):
            mvsolver._simulate(ou, grid, 4, NoiseSource(0), groups=2, x0=np.full(shape, 0.5))

    def test_single_group_is_the_public_entry(self):
        ex = library.make_system("example31")
        grid = TimeGrid(0.0, 1.0, 64)
        ens, = mvsolver._simulate(ex, grid, 9, NoiseSource(4))
        ref = simulate_projected(ex, grid, 9, NoiseSource(4))
        for name in PATH_FIELDS:
            np.testing.assert_array_equal(getattr(ens, name), getattr(ref, name))

    def test_shape_and_group_checks(self):
        ou = library.make_system("ou")
        grid = TimeGrid(0.0, 1.0, 8)
        inc = mvsolver._stream_increments([NoiseSource(0).for_replication(r) for r in range(2)],
                                          4, 8, 1, grid.h)
        with pytest.raises(ConfigurationError):        # 3 groups over 2 replications
            mvsolver._simulate(ou, grid, 4, None, increments=inc, groups=3)
        with pytest.raises(ConfigurationError):
            mvsolver._simulate(ou, grid, 5, None, increments=inc, groups=2)
        with pytest.raises(ValueError):
            mvsolver._simulate(ou, grid, 4, None, eps=[0.1, 0.0], increments=inc, groups=2)


@st.composite
def loop_cases(draw):
    """A planar constraint, a scheme and a split of one ``_simulate`` batch into groups.

    The constraint is a set, a set plus ``quadratic(1, 4)`` or that quadratic
    alone.  The drift ``u (x - mean) + v``, with ``|v| = 3``, pushes every
    group out of its set, and each group has its own start point, control
    row and, for the penalized scheme, ``eps``.  ``H`` is constant, or a
    constant matrix scaled per row by a function of the state and the
    group's measure, so a batch reads it group by group; it is dense and
    non-diagonal for the box, so its polytope fallback runs in the loop,
    and dense or declared diagonal for the other sets.  A group may have a
    single particle: a one-row matrix product takes another BLAS kernel than
    a taller one, so the loop's row products take a lone row as a pair.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["half-space", "box", "ball", "triangle", "ball + quadratic",
                                 "triangle + quadratic", "quadratic"]))
    scheme = draw(st.sampled_from(["projected", "penalized"]))
    reps = draw(st.integers(1, 2))
    groups = reps * draw(st.integers(1, 2))
    particles = draw(st.integers(1, 5))
    push = rng.standard_normal(2)
    push *= 3.0 / np.linalg.norm(push)
    sets = {
        "half-space": lambda: ConvexConstraint.half_space(-push, -0.3),
        "box": lambda: ConvexConstraint.box([-0.5, -0.4], [0.6, np.inf]),
        "ball": lambda: ConvexConstraint.ball([0.1, -0.1], 0.8),
        "triangle": lambda: ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [-0.5, -0.5, -0.5]),
    }
    quadratic = library.constraint_from_config({"kind": "quadratic", "weights": [1, 4]})
    set_kind = kind.split(" + ")[0]
    if kind == "quadratic":
        constraint = quadratic
    elif set_kind == kind:
        constraint = sets[kind]()
    else:
        constraint = ConvexConstraint.sum_of(sets[set_kind](), quadratic)
    H = np.array([[2.0, 0.7], [0.7, 1.0]])
    dense = kind == "box" or draw(st.booleans())
    if draw(st.booleans()):
        def varying(x, mu):     # H times a factor in [1, 2] for each row
            scale = 1.5 + 0.5 * np.sin(x[:, :1] - 2.0 * x[:, 1:] + mu.mean()[0])
            return scale[..., None] * H if dense else scale * np.diag(H)

        oblique = ObliqueField(varying, 0.5, 5.0, 2, diagonal=not dense)
    else:
        oblique = ObliqueField(lambda x, mu: H if dense else np.diag(H), 0.5, 2.5, 2,
                               uses_measure=False, diagonal=not dense)
    coeffs = CoefficientField(lambda x, mu, u: u * (x - mu.mean()) + push,
                              lambda x, mu, u: np.array([[0.5], [0.3]]),
                              3.0, 2, 1, controlled=True, normalized=False)
    x0 = 0.6 * rng.standard_normal((groups, 2))
    x0 = project(constraint, x0) if constraint.has_indicator() else x0
    system = System(coeffs, oblique, constraint, x0[0])
    eps = rng.uniform(0.2, 0.5, groups) if scheme == "penalized" else None
    return system, scheme, particles, reps, eps, rng.uniform(-1.0, 1.0, (groups, 24)), x0


class TestEngineProperties:
    """The whole step loop on drawn sets, schemes and group splits."""

    @settings(max_examples=100)
    @given(loop_cases())
    def test_groups_match_solo_runs_and_meet_the_contract(self, case):
        system, scheme, N, reps, eps, control, x0 = case
        grid = TimeGrid(0.0, 0.5, 24)
        noise = NoiseSource(5)
        inc = mvsolver._stream_increments([noise.for_replication(r) for r in range(reps)],
                                          N, grid.steps, 1, grid.h)
        batch = mvsolver._simulate(system, grid, N, None, eps=eps, control=control,
                                   increments=inc, groups=len(x0), x0=x0)
        for g, ens in enumerate(batch):
            moved = System(system.coeffs, system.oblique, system.constraint, x0[g])
            alone, = mvsolver._simulate(moved, grid, N, None,
                                        eps=None if eps is None else eps[g],
                                        control=control[g], increments=inc[g % reps])
            for name in PATH_FIELDS:
                assert getattr(ens, name).tobytes() == getattr(alone, name).tobytes(), name
            rep = residual_report(ens, system, probes=[np.zeros(2)])
            assert rep.equation_residual <= 1e-8
            if scheme == "projected":
                assert rep.feasibility_gap <= 1e-10 and rep.inequality_residual <= 1e-8


def ou_with(constraint):
    ou = library.make_system("ou")
    return System(ou.coeffs, ou.oblique, constraint, ou.x0)


def half_line_plus(value, gradient):
    """The half-line plus the smooth function ``value`` with its ``gradient``."""
    return ConvexConstraint.sum_of(ConvexConstraint.half_line(),
                                   ConvexConstraint.smooth(value, gradient, 1))


class TestBackwardStep:
    """One backward step for every constraint kind, in both schemes."""

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("eps", [None, 0.05])
    def test_quadratic_closed_form(self, eps, diagonal):
        # phi = quadratic(w): z = (I + h Hs diag(w))^-1 y, dk = Hs^-1 (y - z), and
        # the penalized state is z + (eps/h) dk, with Hs = H + (eps/h) I
        w, H = np.array([1.0, 4.0]), np.array([[2.0, 0.7], [0.7, 1.0]])
        if diagonal:
            H = np.diag(np.diag(H))
        coeffs = CoefficientField(lambda x, mu: -x, lambda x, mu: np.array([[0.5], [0.3]]),
                                  1.0, 2, 1, uses_measure=False, normalized=False)
        oblique = ObliqueField(lambda x, mu: np.diag(H) if diagonal else H, 0.5, 2.5, 2,
                               uses_measure=False, diagonal=diagonal)
        quadratic = library.constraint_from_config({"kind": "quadratic", "weights": list(w)})
        system = System(coeffs, oblique, quadratic, [0.8, -0.6])
        grid = TimeGrid(0.0, 0.5, 16)
        h, shift = grid.h, 0.0 if eps is None else eps / grid.h
        ens = mvsolver._simulate(system, grid, 6, NoiseSource(2), eps=eps)[0]
        X, dk = ens.states, ens.dk
        Y = X[:, :-1] * (1.0 - h) + ens.increments * [0.5, 0.3]
        Hs = H + shift * np.eye(2)
        z = np.linalg.solve(np.eye(2) + h * Hs * w, Y[..., None])[..., 0]
        np.testing.assert_allclose(X[:, 1:] - shift * dk, z, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dk, np.linalg.solve(Hs, (Y - z)[..., None])[..., 0],
                                   rtol=0, atol=1e-10)
        assert np.all(np.abs(dk) > 0)

    def test_penalized_smooth_step_stays_bounded(self):
        # at h/eps = 15.6 the explicit step this replaced reached max |x| = 4.28
        system = ou_with(half_line_plus(lambda z: float(z @ z), lambda z: 2.0 * z))
        grid = TimeGrid(0.0, 1.0, 64)
        ens = simulate_penalized(system, 0.001, grid, 16, NoiseSource(1))
        assert np.max(np.abs(ens.states)) <= 1.25
        assert residual_report(ens, system, probes=[np.zeros(1)]).equation_residual <= 1e-8

    @pytest.mark.parametrize("kind", ["smooth", "sum"])
    def test_penalized_tends_to_projected(self, kind):
        value, gradient = (lambda z: 12.5 * float(z @ z)), (lambda z: 25.0 * z)
        system = ou_with(ConvexConstraint.smooth(value, gradient, 1) if kind == "smooth"
                         else half_line_plus(value, gradient))
        grid = TimeGrid(0.0, 1.0, 64)
        projected = simulate_projected(system, grid, 16, NoiseSource(5))
        penalized = simulate_penalized(system, 1e-12 * grid.h, grid, 16, NoiseSource(5))
        assert np.max(np.abs(penalized.states - projected.states)) <= 1e-9
        assert np.max(np.abs(penalized.dk - projected.dk)) <= 1e-9

    def test_projected_sum_keeps_its_smooth_part(self):
        system = ou_with(half_line_plus(lambda z: 12.5 * float(z @ z), lambda z: 25.0 * z))
        grid = TimeGrid(0.0, 1.0, 64)
        ens = simulate_projected(system, grid, 16, NoiseSource(5))
        alone = simulate_projected(library.make_system("ou"), grid, 16, NoiseSource(5))
        assert np.max(np.abs(ens.states - alone.states)) > 0.1
        rep = residual_report(ens, system, probes=[np.zeros(1)], shifts=[np.full(1, 0.1)])
        assert rep.equation_residual <= 1e-8 and rep.feasibility_gap <= 1e-10
        assert rep.inequality_residual <= 1e-8


class TestRowsTheStepCorrects:
    """A state- and measure-dependent ``H`` is read only on the rows the
    Skorohod step corrects."""

    @staticmethod
    def run_recording(groups, batched):
        """example31 on ``groups`` groups with its matrix declared ``batched`` or not:
        the row count of every matrix call, and the reflected rows ``(G N, steps)``."""
        ex = library.make_system("example31")
        field, seen = ex.oblique.matrix, []

        def recording(x, mu):
            seen.append(len(x))
            return field(x, mu)

        ex.oblique.matrix, ex.oblique.batched = recording, batched
        grid = TimeGrid(0.0, 1.0, 128)
        inc = mvsolver._stream_increments([NoiseSource(21).for_replication(r)
                                           for r in range(groups)], 64, grid.steps, 1, grid.h)
        runs = mvsolver._simulate(ex, grid, 64, None, increments=inc, groups=groups)
        reflected = np.concatenate([np.any(e.dk != 0, axis=2) for e in runs])  # (G N, steps)
        assert 0 < np.count_nonzero(np.count_nonzero(reflected, axis=0)) < grid.steps
        return seen, reflected

    @pytest.mark.parametrize("groups", [1, 2])
    def test_example31_matrix_sees_only_reflected_rows(self, groups):
        seen, reflected = self.run_recording(groups, batched=True)
        # one call per step with a reflection in any group: none on a step without one
        assert sum(seen) == reflected.sum()
        assert len(seen) == np.count_nonzero(np.any(reflected, axis=0))

    def test_a_matrix_not_batched_is_called_once_per_reflecting_group(self):
        seen, reflected = self.run_recording(2, batched=False)
        calls = sum(np.count_nonzero(np.any(block, axis=0)) for block in np.split(reflected, 2))
        assert sum(seen) == reflected.sum() and len(seen) == calls


class TestErrorsNameTheParticle:
    """A failed step and a divergence name the step, group and particle."""

    def test_ball_newton_cap(self, monkeypatch):
        # group 0 starts at the centre, group 1 near the boundary; identity H,
        # so at the first reflecting step the worst Newton residual is the
        # row of Y = x + dk farthest from the centre
        coeffs = CoefficientField(lambda x, mu: np.zeros_like(x),
                                  lambda x, mu: 0.3 * np.eye(2), 1.0, 2, 2,
                                  uses_measure=False, normalized=False)
        system = System(coeffs, ObliqueField.identity(2),
                        ConvexConstraint.ball([0.0, 0.0], 1.0), [0.0, 0.0])
        grid, N = TimeGrid(0.0, 1.0, 32), 16
        x0 = np.array([[0.0, 0.0], [0.85, 0.0]])
        inc = mvsolver._stream_increments([NoiseSource(4).for_replication(r) for r in range(2)],
                                          N, grid.steps, 2, grid.h)
        runs = mvsolver._simulate(system, grid, N, None, increments=inc, groups=2, x0=x0)
        dk = np.concatenate([e.dk for e in runs])
        Y = np.concatenate([e.states for e in runs])[:, 1:] + dk
        k = int(np.flatnonzero(np.any(dk != 0, axis=(0, 2)))[0])
        row = int(np.argmax(np.linalg.norm(Y[:, k], axis=1)))
        group, particle = divmod(row, N)
        assert group == 1 and particle > 0

        monkeypatch.setattr(convexcore, "BALL_NEWTON_MAX_ITER", 0)
        with pytest.raises(StepError, match=rf"^step {k}: Ball, group 1, particle "
                                            rf"{particle}: ball Newton") as err:
            mvsolver._simulate(system, grid, N, None, increments=inc, groups=2, x0=x0)
        e = err.value
        assert e.row == row
        assert math.isfinite(e.residual) and e.residual > 0

    def test_penalized_prox_failure(self):
        # the smooth part's gradient is NaN right of 0.4, and the prox reads it near
        # y = x + h f + g dB: group 0 starts at (-2.5, 0), outside the ball, and its
        # first y stays left of 0.4, so the sum prox converges; group 1 starts at
        # 0.5, where it cannot
        ex = library.make_system("example31")
        broken = ConvexConstraint.sum_of(ConvexConstraint.ball([0.0, 0.0], 1.0),
                                         ConvexConstraint.smooth(
                                             lambda z: float(z @ z),
                                             lambda z: np.where(z[:, :1] > 0.4, np.nan, 2 * z), 2))
        system = System(ex.coeffs, ex.oblique, broken, [0.0, 0.0])
        with pytest.raises(StepError, match=r"^step 0: Ball \+ smooth, group 1, particle 0: "
                                            r"sum prox: distance bound nan") as err:
            mvsolver._simulate(system, TimeGrid(0.0, 1.0, 8), 2, NoiseSource(3), eps=1.0,
                               groups=2, x0=np.array([[-2.5, 0.0], [0.5, 0.0]]))
        assert err.value.row == 2
        assert math.isnan(err.value.residual)

    def test_triangle_step_failure(self, monkeypatch):
        # half the weights from every passive solve: each row stops short of the set
        solve = np.linalg.solve
        monkeypatch.setattr(convexcore.np.linalg, "solve", lambda A, b: 0.5 * solve(A, b))
        with pytest.raises(StepError, match=r"^step 0: HalfSpaceIntersection, group 0, "
                                            r"particle 0: polyhedral step") as err:
            simulate_projected(triangle_system(), TimeGrid(0.0, 1.0, 8), 4, NoiseSource(0))
        assert err.value.row == 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_divergence(self):
        # the drift turns NaN above 1.55; group 1 starts at 1.0, group 0 far
        # below, so the rows that diverge first are those of group 1 above
        # 1.55, and the error names the first of them
        coeffs = CoefficientField(lambda x, mu: np.where(x > 1.55, np.nan, 1.0),
                                  lambda x, mu: np.array([[0.3]]), 1.0, 1, 1,
                                  uses_measure=False, normalized=False)
        system = System(coeffs, ObliqueField.identity(1), ConvexConstraint.half_line(), [0.0])
        grid, N = TimeGrid(0.0, 1.0, 8), 8
        last = SimpleNamespace()
        last.start = lambda X: setattr(last, "X", X)
        last.step = lambda k, X, dk, rows: last.start(X)
        with pytest.raises(DivergenceError) as err:
            mvsolver._simulate(system, grid, N, NoiseSource(7), groups=2, observer=last,
                               x0=np.array([[0.0], [1.0]]))
        rows = np.flatnonzero(last.X[:, 0] > 1.55)
        group, particle = divmod(int(rows[0]), N)
        e = err.value
        assert len(rows) > 1 and group == 1 and particle > 0
        assert (e.group, e.particle) == (1, particle)
        assert str(e).endswith(f"at step {e.step}, group 1, particle {particle}")


class TestStreamBatches:
    """The one ensemble runner: chunks that cut across the streams, and every
    (variant, stream) group against its solo ``_simulate`` run, bit for bit."""

    @pytest.mark.parametrize("scheme", ["penalized", "projected"])
    def test_groups_match_solo_runs(self, monkeypatch, scheme):
        system = controlled_planar_system()
        N, S, V, d = 5, 5, 3, system.noise_dim
        grid, draw = TimeGrid(0.0, 0.75, 24), TimeGrid(0.0, 1.0, 32)
        streams = [NoiseSource(41).child(s % 2, s) for s in range(S)]
        eps = [0.2, 0.1, 0.05] if scheme == "penalized" else None
        control = np.array([np.where(np.arange(grid.steps) < 8 * (v + 1), -1.0, 1.0)
                            for v in range(V)])
        rng = np.random.default_rng(4)
        x0 = 0.5 * rng.uniform(-1.0, 1.0, (V, S, 2))
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 2 * 8 * N * draw.steps * d)
        batches = list(mvsolver._stream_batches(
            system, grid, N, streams, variants=V, eps=eps, control=control, x0=x0, draw=draw))
        assert [c for c, _ in batches] == [slice(0, 2), slice(2, 4), slice(4, 5)]
        for chunk, run in batches:
            C = chunk.stop - chunk.start
            assert len(run) == V * C
            for g, ens in enumerate(run):
                v, s = divmod(g, C)
                s += chunk.start
                moved = System(system.coeffs, system.oblique, system.constraint, x0[v, s])
                inc = streams[s].brownian(N, draw.steps, d, draw.h)[:, draw.steps - grid.steps:]
                alone, = mvsolver._simulate(
                    moved, grid, N, None,
                    eps=None if eps is None else eps[v], control=control[v], increments=inc)
                assert np.any(alone.variation > 0)
                for field_name in PATH_FIELDS + ("increments",):
                    np.testing.assert_array_equal(getattr(ens, field_name),
                                                  getattr(alone, field_name))
                np.testing.assert_array_equal(ens.control, control[v])
                assert ens.eps == alone.eps

    def test_observer_is_built_per_batch(self, monkeypatch):
        ou = library.make_system("ou")
        grid = TimeGrid(0.0, 1.0, 16)
        monkeypatch.setattr(mvsolver, "BATCH_NOISE_BYTES", 1)
        built = []

        def observer():
            built.append(mvsolver._PathRecorder(grid))
            return built[-1]

        runs = [run for _, run in mvsolver._stream_batches(
            ou, grid, 4, [NoiseSource(2).for_replication(r) for r in range(3)],
            variants=2, observer=observer)]
        assert runs == built and len({id(r) for r in runs}) == 3
        assert all(r.states.shape == (17, 8, 1) and len(r.log) == 16 for r in runs)


def dense_twin(system):
    """``system`` with its declared-diagonal oblique field turned into one that
    declares nothing and returns the ``np.diag``-style dense matrices."""
    fld = system.oblique

    def matrix(*args):
        diag = fld.matrix if fld.constant else fld.matrix(*args)
        out = np.zeros(np.shape(diag) + (fld.dim,))
        np.einsum("...ii->...i", out)[...] = diag
        return out

    twin = ObliqueField(matrix, fld.a_h, fld.b_h, fld.dim, time_dependent=fld.time_dependent,
                        lipschitz=fld.lipschitz, uses_measure=fld.uses_measure)
    assert fld.diagonal and not twin.diagonal
    return System(system.coeffs, twin, system.constraint, system.x0)


def as_dense(d):
    """The dense matrices of a shared ``(m,)`` or per-row ``(k, m)`` diagonal."""
    return np.diag(d) if d.ndim == 1 else np.stack([np.diag(row) for row in d])


def signed_zeros(rng, a, share=0.3):
    """``a`` with about ``share`` of its entries set to 0.0 or -0.0."""
    a = a.copy()
    hit = rng.random(a.shape) < share
    a[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    return a


@st.composite
def diagonal_cases(draw):
    """A positive diagonal (shared or one per point) and points holding signed zeros."""
    m = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    per_point = draw(st.booleans())
    d = np.exp(rng.uniform(-3.0, 3.0, (k, m) if per_point else m))
    Y = signed_zeros(rng, 2.0 * rng.standard_normal((k, m)))
    return rng, d, Y


def same_bits(a, b):
    return all(x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(a, b))


class TestDeclaredDiagonal:
    """Kernels and runs on a declared diagonal against the dense path on its
    ``np.diag`` matrices, bit for bit (signed zeros included)."""

    @settings(max_examples=200)
    @given(diagonal_cases())
    def test_kernels_match_dense_path(self, case):
        rng, d, Y = case
        m = Y.shape[1]
        dense = as_dense(d)
        normal = rng.standard_normal(m)
        if m > 1:
            normal[rng.integers(m)] = -0.0
        geoms = [
            ConvexConstraint.ball(signed_zeros(rng, 0.1 * rng.standard_normal(m)), 1.0),
            ConvexConstraint.box(np.full(m, -0.5), np.where(rng.random(m) < 0.5, 0.0, 1.0)),
            ConvexConstraint.half_space(normal, -0.3 * rng.random()),
            ConvexConstraint.half_space_intersection(np.vstack([np.eye(m), -np.eye(m)]),
                                                     np.full(2 * m, -1.0)),
        ]
        for constraint in geoms:
            got = constraint.geometry.oblique_step(d, Y, diagonal=True)[:2]
            assert same_bits(got, constraint.geometry.oblique_step(dense, Y)[:2]), \
                type(constraint.geometry).__name__
        if m <= 2:      # and the row-major ball step it replaced, on the dense matrices
            ball = geoms[0].geometry
            assert same_bits(ball.oblique_step(d, Y, diagonal=True),
                             head_ball_oblique_step(ball, dense, Y))
        U = signed_zeros(rng, rng.standard_normal(Y.shape), share=0.5)
        U[rng.random(U.shape) < 0.2] = 5e-324        # d * U may round to zero
        assert same_bits([convexcore._times(d, U, diagonal=True)], [convexcore._times(dense, U)])

    @pytest.mark.parametrize("run", [
        lambda s: simulate_projected(s, TimeGrid(0.0, 1.0, 96), 40, NoiseSource(31)),
        lambda s: simulate_penalized(s, 0.05, TimeGrid(0.0, 0.25, 96), 40, NoiseSource(32)),
        lambda s: mvsolver._simulate(
            s, TimeGrid(0.0, 1.0, 64), 12, NoiseSource(33), groups=3,
            increments=mvsolver._stream_increments(
                [NoiseSource(33).for_replication(r) for r in range(3)], 12, 64, 1, 1 / 64)),
        lambda s: euler_iteration(s, 3, 2, TimeGrid(0.0, 1.0, 64), 16, NoiseSource(34))[0],
    ], ids=["projected", "penalized", "groups", "euler"])
    @pytest.mark.parametrize("name", ["example31", "ou", "rbm", "triangle"])
    def test_runs_match_dense_twin(self, name, run):
        system = triangle_system() if name == "triangle" else library.make_system(name)
        got, ref = run(system), run(dense_twin(system))
        got, ref = (got, ref) if isinstance(got, list) else ([got], [ref])
        assert any(np.any(e.variation > 0) for e in got)
        for ens, ens_ref in zip(got, ref):
            for field_name in PATH_FIELDS:
                assert getattr(ens, field_name).tobytes() == getattr(ens_ref, field_name).tobytes()
        probes = [np.zeros(system.state_dim)]
        a, b = residual_report(got[0], system, probes=probes), \
            residual_report(ref[0], ref[0].system, probes=probes)
        assert (a.equation_residual, a.feasibility_gap, a.inequality_residual) \
            == (b.equation_residual, b.feasibility_gap, b.inequality_residual)

    @pytest.mark.parametrize("rows", [None, 1, 2, 33])
    def test_example31_columns_match_broadcasts(self, rows):
        # the column-filled coefficients against the broadcasts and the dense
        # H they replaced
        ex = library.make_system("example31")
        rng = np.random.default_rng(5)
        atoms = signed_zeros(rng, rng.standard_normal((33, 2)))
        x = atoms[0] if rows is None else atoms[:rows]
        mu = EmpiricalMeasure(atoms)
        w = measures.w2_to_origin(mu)
        s = np.sqrt(np.sum(np.square(x), axis=-1) + 5.0) + w
        c = np.exp(np.minimum(1.0, np.linalg.norm(x, axis=-1))) + math.sin(w)
        H = np.zeros(x.shape[:-1] + (2, 2))
        H[..., 0, 0] = np.sin(x[..., 0]) + 5.0 + math.cos(w)
        H[..., 1, 1] = np.exp(np.cos(x[..., 1])) + 4.0 + min(w, 1.0)
        assert same_bits(
            [ex.coeffs.drift(x, mu), ex.coeffs.diffusion(x, mu), ex.oblique(x, mu)],
            [s[..., None] * np.ones(2), c[..., None, None] * np.ones((2, 1)),
             np.einsum("...ii->...i", H)])

    def test_per_row_matrices_from_a_declared_diagonal_raise(self):
        # caught by the construction probe on m + 1 = 3 rows
        with pytest.raises(ConfigurationError, match=r"shape \(3, 2, 2\)"):
            ObliqueField(lambda x, mu: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)),
                         1.0, 1.0, 2, diagonal=True)

    def test_dense_matrix_from_a_declared_diagonal_raises(self):
        # on m = 2 rows a dense (2, 2) return has the shape of two diagonals;
        # the probe's m + 1 rows tell them apart before any run
        ex = library.make_system("example31")
        with pytest.raises(ConfigurationError, match=r"shape \(2, 2\)"):
            dense = ObliqueField(lambda x, mu: np.array([[4.0, 0.5], [0.5, 5.0]]),
                                 3.0, 6.0, 2, diagonal=True)
            simulate_projected(System(ex.coeffs, dense, ex.constraint, ex.x0),
                               TimeGrid(0.0, 1.0, 4), 2, NoiseSource(0))


class TestDiffusionColumns:
    """``_gdb``'s column loop against ``einsum``."""

    @settings(max_examples=150)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_against_einsum(self, m, d, n, seed):
        rng = np.random.default_rng(seed)
        gk = signed_zeros(rng, rng.standard_normal((n, m, d))
                          * 10.0 ** rng.uniform(-3.0, 3.0, (n, m, d)))
        dB = signed_zeros(rng, rng.standard_normal((n, d)))
        got, ref = mvsolver._gdb(gk, dB), np.einsum("nmd,nd->nm", gk, dB)
        if d == 1:
            assert got.tobytes() == ref.tobytes()
        else:
            # the columns add left to right, einsum in its own order
            scale = np.einsum("nmd,nd->nm", np.abs(gk), np.abs(dB))
            assert np.all(np.abs(got - ref) <= 1e-15 * scale)

    @settings(max_examples=150)
    @given(st.integers(1, 3), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_shared_column_has_the_matrix_product_bits(self, m, n, seed):
        # a shared (m, 1) diffusion is one product per entry, as in dB @ gk.T
        rng = np.random.default_rng(seed)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan]
        gk, dB = (np.where(rng.random(shape) < 0.4, rng.choice(special, shape),
                           rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape))
                  for shape in ((m, 1), (n, 1)))
        with np.errstate(invalid="ignore"):       # 0 * inf
            got, ref = mvsolver._gdb(gk, dB), dB @ gk.T
        assert got.tobytes() == ref.tobytes()


class TestLoopSetup:
    """What is the same at every step is set up once per run, every bit kept."""

    def test_rows_are_scanned_only_where_paths_are_recorded(self, monkeypatch):
        scan, calls = convexcore._set_rows, []
        monkeypatch.setattr(convexcore, "_set_rows",
                            lambda dk, rows=None: calls.append(rows) or scan(dk, rows))
        ou, prob = library.make_system("ou"), library.make_control_problem("two_control")
        grid = TimeGrid(0.0, 1.0, 32)
        penalization_rate_probe(ou, None, [0.25, 0.125, 0.0625],
                                SimConfig(steps=32, particles=8, replications=2, seed=5),
                                horizon=(0.0, 1.0))
        control._cost_runs(prob, [0.1, 0.05], grid, 8,
                           [NoiseSource(4).for_replication(r) for r in range(2)],
                           np.full((2, grid.steps + 1), 1.0))
        assert calls == []
        simulate_penalized(ou, 0.1, grid, 8, NoiseSource(4))
        simulate_projected(library.make_system("example31"), grid, 8, NoiseSource(4))
        assert len(calls) == 2 * grid.steps

    @pytest.mark.parametrize("groups", [1, 3])
    def test_constant_field_is_shifted_once_and_never_called(self, monkeypatch, groups):
        ou = library.make_system("ou")
        twin = System(ou.coeffs, ObliqueField(lambda x, mu: np.ones(1), 1.0, 1.0, 1,
                                              uses_measure=False, diagonal=True),
                      ou.constraint, ou.x0)
        grid, N = TimeGrid(0.0, 1.0, 48), 6
        streams = [NoiseSource(8).for_replication(r) for r in range(groups)]
        inc = mvsolver._stream_increments(streams, N, grid.steps, 1, grid.h)
        eps = [0.1, 0.05, 0.02][:groups]

        def run(system):
            return mvsolver._simulate(system, grid, N, None, eps=eps if groups > 1 else eps[0],
                                      increments=inc, groups=groups)
        ref = run(twin)
        calls, shifted = [], mvsolver._shifted
        monkeypatch.setattr(ObliqueField, "__call__", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(mvsolver, "_shifted", lambda *a: calls.append(a[0]) or shifted(*a))
        got = run(ou)
        assert len(calls) == 1 and calls[0] is ou.oblique.matrix
        for ens, ens_ref in zip(got, ref):
            assert ens.states.tobytes() == ens_ref.states.tobytes()
            assert ens.dk.tobytes() == ens_ref.dk.tobytes()
        assert any(len(rows) for ens in got for rows, _ in ens.dk_log)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 7, 4096])
    def test_one_column_noise_has_the_broadcast_bits(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        dB = signed_zeros(rng, rng.standard_normal((n, 1)))
        for g in (rng.standard_normal((m, 1)), rng.standard_normal((n, m, 1))):
            g = signed_zeros(rng, g)
            assert mvsolver._gdb(g, dB).tobytes() == (dB * g[..., 0] + 0.0).tobytes()

    @pytest.mark.parametrize("eps", [None, 0.05, [0.1, 0.02]], ids=["projected", "penalized",
                                                                    "levels"])
    @pytest.mark.parametrize("name", ["two_control", "moving_interval"])
    def test_one_d_time_fields_match_a_dense_copy(self, name, eps):
        # the declared diagonal of H(t) against the 1 x 1 matrices it replaced
        if name == "two_control":
            system = library.make_control_problem(name).system
        else:
            system = timedep.reduce_time_dependent(library.make_moving_problem(name))
        grid = TimeGrid(0.0, 1.0, 64)
        u = np.where(np.arange(grid.steps + 1) < 30, -1.0, 1.0) if name == "two_control" else None
        got, ref = (mvsolver._simulate(s, grid, 16, NoiseSource(21), eps=eps, control=u,
                                       groups=np.size(eps))
                    for s in (system, dense_twin(system)))
        for ens, ens_ref in zip(got, ref):
            assert ens.states.tobytes() == ens_ref.states.tobytes()
            assert len(ens.dk_log) == len(ens_ref.dk_log) == grid.steps
            for (rows, values), (ref_rows, ref_values) in zip(ens.dk_log, ens_ref.dk_log):
                assert rows.tobytes() == ref_rows.tobytes()
                assert values.tobytes() == ref_values.tobytes()
        assert any(len(rows) for ens in got for rows, _ in ens.dk_log)


def per_particle_brownian(noise, particles, steps, dim, h):
    """``NoiseSource.brownian`` as one strided write per stream."""
    out = np.empty((steps, particles, dim))
    for i in range(particles):
        out[:, i, :] = noise.gaussians(i, steps, dim)
    out *= math.sqrt(h)
    return out.transpose(1, 0, 2)


class TestBlockedNoise:
    """The blocked noise fill against the per-stream loop, byte for byte."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("particles", [1, 5, mvsolver.NOISE_BLOCK - 1, mvsolver.NOISE_BLOCK,
                                           mvsolver.NOISE_BLOCK + 1, 2 * mvsolver.NOISE_BLOCK + 7])
    def test_matches_per_stream_loop(self, particles, dim):
        noise = NoiseSource(9).for_replication(1)
        ref = per_particle_brownian(noise, particles, 17, dim, 0.03)
        got = noise.brownian(particles, 17, dim, 0.03)
        assert got.shape == ref.shape and np.swapaxes(got, 0, 1).flags.c_contiguous
        assert np.swapaxes(got, 0, 1).tobytes() == np.swapaxes(ref, 0, 1).tobytes()

    def test_stream_slabs_match(self):
        sources = [NoiseSource(3).for_replication(r) for r in range(3)]
        particles = mvsolver.NOISE_BLOCK + 6
        got = mvsolver._stream_increments(sources, particles, 9, 2, 0.1)
        for slab, source in zip(got, sources):
            ref = per_particle_brownian(source, particles, 9, 2, 0.1)
            assert np.swapaxes(slab, 0, 1).tobytes() == np.swapaxes(ref, 0, 1).tobytes()
