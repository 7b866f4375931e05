import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
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


class TestSkorohodStep:
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
        rng = np.random.default_rng(5)
        for _ in range(120):
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
            q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            H = (q * np.exp(rng.uniform(0, np.log(100), m))) @ q.T
            y = 3 * rng.standard_normal(m)
            x, dk = oblique_skorohod_step(c, H, y)
            assert float(c.distance(x)) <= 1e-10
            assert np.linalg.norm(x + H @ dk - y) <= 1e-10 * max(1, np.linalg.norm(y))
            probes = project(c, rng.standard_normal((64, m)))
            assert normal_cone_residual(c, x, dk, probes) <= 1e-8

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
            X, dK = box.oblique_step(H, Y)
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

    A declared diagonal ``H`` is expanded to the dense matrices the step took before."""
    c, r = geom.center, geom.radius
    rel = Y - c
    dist = np.linalg.norm(rel, axis=1)
    X = Y.copy()
    dK = np.zeros_like(Y)
    mask = dist > r
    if not np.any(mask):
        return X, dK
    idx = np.flatnonzero(mask)
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
    return X, dK


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


def head_ladder_step(self, k, X, dk_step):
    """``control._LadderGaps.step`` with numpy's row norm."""
    Xl = X.reshape(self.levels, -1, X.shape[1])
    gap = np.linalg.norm(Xl[1:] - Xl[:-1], axis=2)
    self.sq_sum += gap**2
    np.maximum(self.sup, gap, out=self.sup)


def patch_row_reductions(monkeypatch):
    """Put numpy's per-row reductions, the step observer that used them and
    the row-major ball step back in."""
    for module in SQ_NORM_MODULES:
        monkeypatch.setattr(module, "sq_norms", lambda x: np.sum(x * x, axis=-1))
    monkeypatch.setattr(control._LadderGaps, "step", head_ladder_step)
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

    def test_nnls_failure_raises_step_error(self, monkeypatch):
        def capped(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(convexcore, "nnls", capped)
        with pytest.raises(StepError):
            oblique_skorohod_step(TRIANGLE, np.eye(2), np.array([-3.0, -2.0]))
        with pytest.raises(StepError, match=r"^step \d+: "):
            simulate_projected(triangle_system(), TimeGrid(0.0, 1.0, 8), 4, NoiseSource(0))

    def test_infeasible_answer_raises_step_error(self, monkeypatch):
        monkeypatch.setattr(convexcore, "nnls",
                            lambda A, b: (np.zeros(A.shape[1]), float(np.linalg.norm(b))))
        with pytest.raises(StepError) as err:
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
        X, dK = constraint.geometry.oblique_step(H, Y)
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
        # against the two branches it replaced, bit for bit
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
                t = gap[mask] / (Hn @ n)
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

    def test_window_reuse_needs_time_independent_coefficients(self):
        # drift t changes inside every snap window, so no window may reuse
        # the coefficients of its first step, whether H is I or I(t)
        coeffs = CoefficientField(
            lambda x, mu, t: np.full_like(x, t), lambda x, mu, t: np.array([[0.3]]),
            1.0, 1, 1, time_dependent=True, uses_measure=False, normalized=False,
        )
        grid = TimeGrid(0.0, 1.0, 16)
        runs = [euler_iteration(System(coeffs, oblique, ConvexConstraint.half_line(), [0.5]),
                                2, 2, grid, 8, NoiseSource(3))[0]
                for oblique in (ObliqueField.identity(1),
                                ObliqueField(lambda t: np.eye(1), 1.0, 1.0, 1,
                                             time_dependent=True))]
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
    frozen_cache = (None, None)
    for k in range(steps):
        tk = times[k]
        uk = mvsolver._control_value(control, k)
        if frozen_from is not None:
            j = grid.snap_index(tk, frozen_level)
            if frozen_cache[0] == j and control is None \
                    and not (coeffs.time_dependent or oblique.time_dependent):
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
        gdB = mvsolver._gdb(gk, increments[:, k, :])
        if eps is not None:
            U = (X - convexcore.project(system.constraint, X)) / eps \
                if system.constraint.kind == "indicator" \
                else convexcore.yosida_gradient(system.constraint, eps, X)
            X = X + h * (fk - mvsolver._hu(Hk, U, oblique.diagonal)) + gdB
            dk_step = U * h
        else:
            Y = X + h * fk + gdB
            X, dk_step = system.constraint.geometry.oblique_step(Hk, Y, oblique.diagonal)
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


def controlled_planar_system():
    """example31's oblique field and ball with a control- and mean-dependent drift."""
    ex = library.make_system("example31")
    coeffs = CoefficientField(
        lambda x, mu, u: u * (x - mu.mean()) + 1.5,
        lambda x, mu, u: np.array([[0.4], [0.7]]),
        3.0, 2, 1, controlled=True, uses_measure=True, normalized=False,
    )
    return System(coeffs, ex.oblique, ex.constraint, ex.x0)


def _storage_runs():
    """(label, call, reference) triples; each call runs one engine entry on a small grid.

    Without a reference the call itself is rerun with the particle-major
    oracle as its step loop.  The frozen iterations are compared with
    ``_particle_major_iteration``, which keeps its own frozen arithmetic.
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
    ] + [
        (label, lambda s=system, n=seed: euler_iteration(s, 3, 3, grid, 33, NoiseSource(n))[0],
         lambda s=system, n=seed: _particle_major_iteration(s, 3, 3, grid, 33,
                                                            NoiseSource(n)))
        for label, system, seed in frozen
    ]


class TestTimeMajorStorage:
    """The time-major engine against the particle-major reference loop."""

    @pytest.mark.parametrize("index", range(9), ids=[r[0] for r in _storage_runs()])
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
        coeffs = CoefficientField(lambda x, mu: np.full_like(x, -1.0),
                                  lambda x, mu: np.eye(2), 1.0, 2, 2,
                                  uses_measure=False, normalized=False)
        system = System(coeffs, ObliqueField.identity(2),
                        ConvexConstraint.half_space([1.0, 0.0]), [0.1, 0.0])
        ens = simulate_projected(system, TimeGrid(0.0, 1.0, 64), 8, NoiseSource(1))

        def negative_zeros(a):
            return int(np.count_nonzero((a == 0) & np.signbit(a)))

        assert negative_zeros(ens.dk) == 129
        assert negative_zeros(ens.reflection) == 0
        np.testing.assert_array_equal(ens.reflection[:, 1:], np.cumsum(ens.dk, axis=1))

    def test_diagnostics_do_not_depend_on_layout(self):
        # residual_report's sums over time run in one fixed order
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
            copy = mvsolver.PathEnsemble(**{
                **vars(ens), **{f: np.ascontiguousarray(getattr(ens, f))
                                for f in ("states", "dk")}})
            kwargs = dict(probes=[np.zeros(m), np.full(m, 0.25)], shifts=[np.full(m, 0.1)])
            a, b = residual_report(ens, system, **kwargs), residual_report(copy, system, **kwargs)
            assert (a.equation_residual, a.feasibility_gap, a.inequality_residual) \
                == (b.equation_residual, b.feasibility_gap, b.inequality_residual)
            cert = InteriorCertificate(np.full(m, 1.0 if m == 1 else 0.0), 0.5)
            assert interior_reflection_margin(ens, cert) == interior_reflection_margin(copy, cert)
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


class TestBatchedEngine:
    """Groups of one batched step loop against separate runs, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_batch_cases()[2]))
    def test_groups_match_separate_runs(self, name):
        # the smooth part's prox is one minimization per particle and step
        _assert_batch_matches(name, particles=6 if name.startswith("smooth") else 17)

    @pytest.mark.parametrize("name", ["example31-projected-per-group-measure",
                                      "planar-penalized-per-group-measure-and-control"])
    def test_one_measure_over_the_batch_is_caught(self, name, monkeypatch):
        # mutation: every group sees the empirical measure of the whole batch
        def one_measure(system, X, u, t, groups=1):
            mu = EmpiricalMeasure(X)
            u = mvsolver._per_row(u, X.shape[0] // groups)
            return (system.coeffs.drift(X, mu, u, t), system.coeffs.diffusion(X, mu, u, t),
                    system.oblique(X, mu))

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
    """A planar set, a scheme and a split of one ``_simulate`` batch into groups.

    The drift ``u (x - mean) + v``, with ``|v| = 3``, pushes every group
    out of its set, and each group has its own start point, control row
    and, for the penalized scheme, ``eps``.  ``H`` is constant: dense and
    non-diagonal for the box, so its polytope fallback runs in the loop,
    and dense or declared diagonal for the other sets.  Groups have at
    least two particles: a one-row matrix product takes another BLAS kernel
    than a taller one, so a one-particle run alone can differ in the last
    bits from its group in a batch (the half-space step's ``Y @ n`` and the
    dense penalized term).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["half-space", "box", "ball", "triangle"]))
    scheme = draw(st.sampled_from(["projected", "penalized"]))
    reps = draw(st.integers(1, 2))
    groups = reps * draw(st.integers(1, 2))
    particles = draw(st.integers(2, 5))
    push = rng.standard_normal(2)
    push *= 3.0 / np.linalg.norm(push)
    constraint = {
        "half-space": lambda: ConvexConstraint.half_space(-push, -0.3),
        "box": lambda: ConvexConstraint.box([-0.5, -0.4], [0.6, np.inf]),
        "ball": lambda: ConvexConstraint.ball([0.1, -0.1], 0.8),
        "triangle": lambda: ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [-0.5, -0.5, -0.5]),
    }[kind]()
    H = np.array([[2.0, 0.7], [0.7, 1.0]])
    oblique = ObliqueField(lambda x, mu: H, 0.5, 2.5, 2, uses_measure=False) \
        if kind == "box" or draw(st.booleans()) else \
        ObliqueField(lambda x, mu: np.diag(H), 0.5, 2.5, 2, uses_measure=False, diagonal=True)
    coeffs = CoefficientField(lambda x, mu, u: u * (x - mu.mean()) + push,
                              lambda x, mu, u: np.array([[0.5], [0.3]]),
                              3.0, 2, 1, controlled=True, normalized=False)
    x0 = project(constraint, 0.6 * rng.standard_normal((groups, 2)))
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
            if scheme == "projected":
                rep = residual_report(ens, system, probes=[np.zeros(2)])
                assert rep.equation_residual <= 1e-8 and rep.feasibility_gap <= 1e-10


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
        assert all(r.states.shape == (17, 8, 1) and r.dk.shape == (16, 8, 1) for r in runs)


def dense_twin(system):
    """``system`` with its declared-diagonal oblique field turned into one that
    declares nothing and returns the ``np.diag``-style dense matrices."""
    fld = system.oblique

    def matrix(*args):
        diag = fld.matrix(*args)
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
            got = constraint.geometry.oblique_step(d, Y, diagonal=True)
            assert same_bits(got, constraint.geometry.oblique_step(dense, Y)), \
                type(constraint.geometry).__name__
        if m <= 2:      # and the row-major ball step it replaced, on the dense matrices
            ball = geoms[0].geometry
            assert same_bits(ball.oblique_step(d, Y, diagonal=True),
                             head_ball_oblique_step(ball, dense, Y))
        U = signed_zeros(rng, rng.standard_normal(Y.shape), share=0.5)
        U[rng.random(U.shape) < 0.2] = 5e-324        # d * U may round to zero
        assert same_bits([mvsolver._hu(d, U, diagonal=True)], [mvsolver._hu(dense, U)])

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
    def test_matches_per_stream_loop(self, particles, dim, monkeypatch):
        noise = NoiseSource(9).for_replication(1)
        ref = per_particle_brownian(noise, particles, 17, dim, 0.03)
        streams = []
        draw = NoiseSource.gaussians
        monkeypatch.setattr(NoiseSource, "gaussians",
                            lambda self, i, steps, d: streams.append(i) or draw(self, i, steps, d))
        got = noise.brownian(particles, 17, dim, 0.03)
        assert streams == list(range(particles))       # one call per stream
        assert got.shape == ref.shape and np.swapaxes(got, 0, 1).flags.c_contiguous
        assert np.swapaxes(got, 0, 1).tobytes() == np.swapaxes(ref, 0, 1).tobytes()

    def test_stream_slabs_match(self):
        sources = [NoiseSource(3).for_replication(r) for r in range(3)]
        particles = mvsolver.NOISE_BLOCK + 6
        got = mvsolver._stream_increments(sources, particles, 9, 2, 0.1)
        for slab, source in zip(got, sources):
            ref = per_particle_brownian(source, particles, 9, 2, 0.1)
            assert np.swapaxes(slab, 0, 1).tobytes() == np.swapaxes(ref, 0, 1).tobytes()
