import numpy as np
import pytest

from oblique_mv.convexcore import (
    ConvexConstraint,
    InteriorCertificate,
    check_yosida_properties,
    interior_constants,
    interior_margin,
    normal_cone_residual,
    polyhedral_step,
    project,
    resolvent,
    yosida_gradient,
    yosida_value,
)
from oblique_mv.errors import CertificateError, ConfigurationError, InfeasibleSetError


# -- independent oracles -----------------------------------------------------

def grid_moreau_value(constraint, eps, x, lo=-3.0, hi=3.0, step=1e-4):
    """Brute-force the infimum defining the envelope on a 1-d/2-d grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 1:
        zs = np.arange(lo, hi + step, step)[:, None]
    else:
        side = np.arange(lo, hi + step, step)
        zs = np.stack(np.meshgrid(side, side), axis=-1).reshape(-1, 2)
    vals = np.sum((zs - x) ** 2, axis=1) / (2 * eps) + np.asarray(
        constraint.value(zs, feasibility_band=step)
    )
    return float(np.min(vals))


def quadratic_prox_oracle(eps, x):
    # minimizer of |z-x|^2/(2 eps) + |z|^2/2 is x/(1+eps)
    return np.asarray(x) / (1.0 + eps)


HALF_LINE = ConvexConstraint.half_line()
HALF_SPACE = ConvexConstraint.half_space([1.0, 0.0])
BOX2 = ConvexConstraint.box([-1.0, -0.5], [1.0, 2.0])
BALL2 = ConvexConstraint.ball([0.0, 0.0], 1.0)
QUAD = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 2)


class TestProjection:
    def test_half_space_orthogonal_drop(self):
        np.testing.assert_allclose(project(HALF_SPACE, np.array([-2.0, 3.0])), [0.0, 3.0])

    def test_ball_radial_scaling(self):
        np.testing.assert_allclose(project(BALL2, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_identity_inside(self):
        x = np.array([0.3, 0.2])
        np.testing.assert_array_equal(project(BALL2, x), x)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for c in (HALF_SPACE, BOX2, BALL2):
            pts = 3 * rng.standard_normal((50, 2))
            once = project(c, pts)
            np.testing.assert_allclose(project(c, once), once, atol=1e-12)

    def test_intersection_matches_enumeration_oracle(self):
        # triangle x1 >= 0, x2 >= 0, x1 + x2 <= 1.5
        tri = ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [0.0, 0.0, -1.5]
        )
        rng = np.random.default_rng(1)
        normals = np.array([[1, 0], [0, 1], [-1, -1]], dtype=float)
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = np.array([0.0, 0.0, -1.5 / np.sqrt(2)])
        verts = np.array([[0, 0], [1.5, 0], [0, 1.5]])
        for _ in range(100):
            y = 3 * rng.standard_normal(2)
            # oracle: best among face projections and vertices that are feasible
            cands = [y]
            for n, c in zip(normals, offsets):
                cands.append(y + (c - y @ n) * n)
            cands.extend(verts)
            feas = [z for z in cands if np.min(normals @ z - offsets) >= -1e-12]
            oracle = min(feas, key=lambda z: np.linalg.norm(z - y))
            np.testing.assert_allclose(project(tri, y), oracle, atol=1e-9)

    @pytest.mark.parametrize("per_row", [False, True])
    def test_oblique_step_matches_one_step_per_row(self, per_row):
        tri = ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [0.0, 0.0, -1.5]).geometry
        rng = np.random.default_rng(2)
        Y = 2 * rng.standard_normal((40, 2))
        A = rng.standard_normal((40, 2, 2))
        H = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(2)
        H = H if per_row else H[0]
        X, dK = tri.oblique_step(H, Y)
        inside = np.min(Y @ tri.normals.T - tri.offsets, axis=1) >= 0
        assert 0 < inside.sum() < len(Y)
        for i, y in enumerate(Y):
            x, dk = (y, np.zeros(2)) if inside[i] else \
                polyhedral_step(tri.normals, tri.offsets, H[i] if per_row else H, y)
            assert X[i].tobytes() == x.tobytes() and dK[i].tobytes() == dk.tobytes()

    def test_origin_excluding_geometries_rejected(self):
        with pytest.raises(InfeasibleSetError):
            ConvexConstraint.half_space([1.0], 0.5)
        with pytest.raises(InfeasibleSetError):
            ConvexConstraint.box([1.0], [2.0])
        with pytest.raises(InfeasibleSetError):
            ConvexConstraint.ball([5.0, 0.0], 1.0)
        with pytest.raises(InfeasibleSetError):
            ConvexConstraint.half_space_intersection([[1, 0]], [1.0])

    def test_project_requires_indicator(self):
        with pytest.raises(ConfigurationError):
            project(QUAD, np.zeros(2))
        with pytest.raises(ConfigurationError):
            interior_margin(QUAD, np.zeros(2))

    def test_unknown_geometry_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unsupported geometry"):
            ConvexConstraint("indicator", 2, geometry=object())


class TestMoreauEnvelope:
    def test_half_line_value_frozen(self):
        # dist^2 / (2 eps) at x=-1, eps=0.5 is exactly 1.0
        val = yosida_value(HALF_LINE, 0.5, np.array([-1.0]))
        assert val == pytest.approx(1.0, abs=1e-12)
        oracle = grid_moreau_value(HALF_LINE, 0.5, [-1.0])
        assert abs(val - oracle) <= 2e-4

    def test_value_zero_inside(self):
        assert yosida_value(HALF_LINE, 0.1, np.array([2.0])) == 0.0

    def test_quadratic_value_analytic(self):
        # min over z of |z-x|^2/2 + z^2/2 at x=2: value x^2/(2(1+eps)) = 1.0
        q1 = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 1)
        val = yosida_value(q1, 1.0, np.array([2.0]))
        assert val == pytest.approx(1.0, abs=1e-8)
        oracle = grid_moreau_value(q1, 1.0, [2.0])
        assert abs(val - oracle) <= 2e-4

    def test_gradient_half_line_frozen(self):
        g = yosida_gradient(HALF_LINE, 0.5, np.array([-1.0]))
        np.testing.assert_allclose(g, [-2.0], atol=1e-12)
        assert np.all(yosida_gradient(HALF_LINE, 0.5, np.array([0.7])) == 0.0)

    def test_gradient_quadratic_analytic(self):
        q1 = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 1)
        g = yosida_gradient(q1, 1.0, np.array([2.0]))
        np.testing.assert_allclose(g, [1.0], atol=1e-8)

    def test_resolvent_is_projection_for_indicator(self):
        rng = np.random.default_rng(2)
        pts = 2 * rng.standard_normal((40, 2))
        np.testing.assert_allclose(
            resolvent(BALL2, 0.3, pts), project(BALL2, pts), atol=1e-12
        )

    def test_resolvent_quadratic(self):
        q1 = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 1)
        r = resolvent(q1, 1.0, np.array([2.0]))
        np.testing.assert_allclose(r, quadratic_prox_oracle(1.0, [2.0]), atol=1e-8)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            yosida_value(HALF_LINE, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            yosida_gradient(HALF_LINE, -0.5, np.array([1.0]))

    @pytest.mark.parametrize("entry", [resolvent, yosida_gradient, yosida_value])
    def test_missing_eps_rejected(self, entry):
        with pytest.raises(ValueError, match="must be positive, got None"):
            entry(HALF_LINE, None, np.array([1.0]))

    def test_value_agrees_with_grid_oracle_2d(self):
        # grid resolution error scales with dist/eps, so probe points sit
        # within unit distance of the sets
        rng = np.random.default_rng(3)
        step = 2e-3
        for c in (BALL2, BOX2):
            for _ in range(3):
                x = rng.uniform(-1.4, 1.4, 2)
                v = yosida_value(c, 0.5, x)
                oracle = grid_moreau_value(c, 0.5, x, lo=-1.7, hi=1.7, step=step)
                assert abs(v - oracle) <= 2 * step


class TestYosidaProperties:
    def test_half_space_suite_passes(self):
        rng = np.random.default_rng(4)
        pts = 2 * rng.standard_normal((200, 2))
        report = check_yosida_properties(HALF_SPACE, [0.1, 0.01], pts)
        assert report.passed, report.failing()

    def test_smooth_suite_passes(self):
        rng = np.random.default_rng(5)
        pts = 1.5 * rng.standard_normal((60, 2))
        report = check_yosida_properties(QUAD, [0.1, 0.01], pts)
        assert report.passed, report.failing()

    def test_triangle_suite_passes(self):
        # The triangle of the CLI properties mode; an alternating-projection
        # solver stopped on step size missed (b) by about 2e-7 here.
        tri = ConvexConstraint.half_space_intersection(
            [[1, 0], [0, 1], [-1, -1]], [-1, -1, -1])
        pts = 2.0 * np.random.default_rng(0).standard_normal((200, 2))
        report = check_yosida_properties(tri, [0.1, 0.01, 0.001], pts)
        assert report.passed, report.failing()

    def test_exact_trivial_cases(self):
        # monotonicity on an identical pair and the sandwich at the origin
        # hold with zero slack
        g = yosida_gradient(HALF_LINE, 0.1, np.array([-1.0]))
        assert float((g - g) @ np.array([0.0])) == 0.0
        assert yosida_value(HALF_LINE, 0.1, np.zeros(1)) == 0.0
        assert np.all(yosida_gradient(HALF_LINE, 0.1, np.zeros(1)) == 0.0)

    def test_invariant_bounds_random(self):
        rng = np.random.default_rng(6)
        pts = 2 * rng.standard_normal((120, 2))
        for c in (HALF_SPACE, BOX2, BALL2):
            for eps in (0.1, 0.01):
                r = resolvent(c, eps, pts)
                g = (pts - r) / eps
                # nonexpansiveness
                dr = np.linalg.norm(r[:, None] - r[None, :], axis=-1)
                dx = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
                assert np.max(dr - dx) <= 1e-10
                # decomposition (a) for indicators
                v = np.atleast_1d(yosida_value(c, eps, pts))
                assert np.max(np.abs(v - 0.5 * eps * np.sum(g * g, -1))) <= 1e-8


class TestNormalCone:
    def test_exterior_normal_on_boundary(self):
        x = np.array([0.0, 1.0])
        u = np.array([-3.0, 0.0])
        probes = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0], [0.0, 5.0]])
        assert normal_cone_residual(HALF_SPACE, x, u, probes) == 0.0

    def test_zero_vector_interior(self):
        x = np.array([1.0, 0.0])
        assert normal_cone_residual(HALF_SPACE, x, np.zeros(2), [[0.0, 0.0]]) == 0.0

    def test_nonzero_interior_vector_flagged(self):
        x = np.array([1.0, 0.0])
        u = np.array([0.5, 0.5])
        probes = [x + 0.1 * u]
        assert normal_cone_residual(HALF_SPACE, x, u, probes) > 0.0

    def test_infeasible_point_reports_infinity(self):
        assert normal_cone_residual(HALF_SPACE, [-1.0, 0.0], [1.0, 0.0], [[0.0, 0.0]]) == np.inf


class TestInteriorConstants:
    def test_ball_certificate(self):
        assert interior_constants(BALL2, InteriorCertificate([0.0, 0.0], 0.9)) == (0.9, 0.0, 0.0)

    def test_half_space_certificate(self):
        hs = ConvexConstraint.half_space([1.0, 0.0])
        assert interior_constants(hs, InteriorCertificate([1.0, 0.0], 1.0)) == (1.0, 0.0, 0.0)

    def test_degenerate_radius_limit(self):
        out = interior_constants(BALL2, InteriorCertificate([0.0, 0.0], 1e-12))
        assert out[0] == pytest.approx(0.0, abs=1e-11)

    def test_violating_certificate_rejected(self):
        with pytest.raises(CertificateError):
            interior_constants(BALL2, InteriorCertificate([0.5, 0.0], 0.9))
        with pytest.raises(CertificateError):
            InteriorCertificate([0.0, 0.0], -1.0)

    def test_margin_matches_boundary_probing(self):
        rng = np.random.default_rng(7)
        for c in (BALL2, BOX2, HALF_SPACE):
            a = project(c, 0.3 * rng.standard_normal(2))
            margin = interior_margin(c, a)
            # probe: the nearest infeasible direction cannot be closer than margin
            dirs = rng.standard_normal((200, 2))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            for r in (margin * 0.99,):
                if r > 0:
                    assert np.all(c.distance(a + r * dirs) <= 1e-9)

    def test_smooth_rejected(self):
        with pytest.raises(ConfigurationError):
            interior_constants(QUAD, InteriorCertificate([0.0, 0.0], 0.5))


class TestSmoothConstruction:
    def test_shifted_to_zero(self):
        c = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z) + 3.0, lambda z: z.copy(), 1)
        assert c.value(np.zeros(1)) == 0.0

    def test_nonvanishing_gradient_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvexConstraint.smooth(lambda z: float(z[0]), lambda z: np.ones(1), 1)

    def test_sum_kind_resolvent_feasible(self):
        c = ConvexConstraint.sum_of(HALF_LINE,
                                    ConvexConstraint.smooth(
                                        lambda z: 0.5 * float(z @ z),
                                        lambda z: z.copy(), 1))
        r = resolvent(c, 0.5, np.array([-2.0]))
        assert c.distance(r) <= 1e-9
        # prox of indicator+quadratic at x=-2 is the projection of the
        # unconstrained prox: max(0, x/(1+eps)) = 0
        np.testing.assert_allclose(r, [0.0], atol=1e-9)
