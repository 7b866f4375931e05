import math
import tracemalloc

import numpy as np
import pytest

from oblique_mv import convexcore, library
from oblique_mv.convexcore import (
    ConvexConstraint,
    InteriorCertificate,
    check_yosida_properties,
    interior_constants,
    interior_margin,
    normal_cone_residual,
    project,
    resolvent,
    yosida_gradient,
    yosida_value,
)
from oblique_mv.errors import (BudgetError, CertificateError, ConfigurationError,
                               InfeasibleSetError, StepError)


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


def pair_bytes(n, m):
    """``check_yosida_properties``' estimate: the pairs i < j of ``n`` points in
    ``R^m`` hold 3 m + 5 words each at most, and three (n, n) arrays."""
    return 8 * max(n * (n - 1) // 2 * (3 * m + 5), 3 * n * n)


def quadratic_prox_oracle(eps, x):
    # minimizer of |z-x|^2/(2 eps) + |z|^2/2 is x/(1+eps)
    return np.asarray(x) / (1.0 + eps)


HALF_LINE = ConvexConstraint.half_line()
HALF_SPACE = ConvexConstraint.half_space([1.0, 0.0])
BOX2 = ConvexConstraint.box([-1.0, -0.5], [1.0, 2.0])
BALL2 = ConvexConstraint.ball([0.0, 0.0], 1.0)
QUAD = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z), lambda z: z.copy(), 2)
TRIANGLE = ConvexConstraint.half_space_intersection([[1, 0], [0, 1], [-1, -1]], [-1, -1, -1])


class TestProjection:
    def test_half_space_orthogonal_drop(self):
        np.testing.assert_allclose(project(HALF_SPACE, np.array([-2.0, 3.0])), [0.0, 3.0])

    def test_ball_radial_scaling(self):
        np.testing.assert_allclose(project(BALL2, np.array([3.0, 4.0])), [0.6, 0.8])

    def test_identity_inside(self):
        x = np.array([0.3, 0.2])
        np.testing.assert_array_equal(project(BALL2, x), x)

    def test_an_empty_box_range_is_infeasible(self):
        with pytest.raises(InfeasibleSetError, match="^box has empty coordinate range$"):
            ConvexConstraint.box([-1.0, 0.5], [1.0, -0.5])

    def test_contains_is_within_the_tolerance(self):
        assert BALL2.contains([0.6, 0.8]) and BALL2.contains([[0.0, 0.0], [0.0, -1.0]])
        assert not BALL2.contains([[0.0, 0.0], [0.0, 1.0 + 1e-6]])
        assert BALL2.contains([0.0, 1.0 + 1e-6], tol=1e-5)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for c in (HALF_SPACE, BOX2, BALL2):
            pts = 3 * rng.standard_normal((50, 2))
            once = project(c, pts)
            np.testing.assert_allclose(project(c, once), once, atol=1e-12)

    def test_off_center_ball_projects_only_outside_rows(self):
        ball = ConvexConstraint.ball([0.3, -0.2], 1.0).geometry
        rng = np.random.default_rng(3)
        pts = 2 * rng.standard_normal((64, 2))
        got = ball.project(pts)
        rel = pts - ball.center
        dist = np.linalg.norm(rel, axis=1)
        far = dist > 1.0
        assert 0 < far.sum() < len(pts)
        np.testing.assert_array_equal(got[~far], pts[~far])
        np.testing.assert_array_equal(got[far], ball.center + rel[far] * (1.0 / dist[far, None]))
        np.testing.assert_array_equal(ball.project(pts[0]), got[0])

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
        X, dK, _ = tri.oblique_step(H, Y)
        inside = np.min(Y @ tri.normals.T - tri.offsets, axis=1) >= 0
        assert 0 < inside.sum() < len(Y)
        for i, y in enumerate(Y):
            x, dk = (y[None], np.zeros((1, 2))) if inside[i] else \
                tri.oblique_step(H[i] if per_row else H, y[None])[:2]
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

    @pytest.mark.parametrize("build,argument", [
        (lambda: ConvexConstraint.half_space([[1, 0]]), "half-space normal"),
        (lambda: ConvexConstraint.half_space("ab"), "half-space normal"),
        (lambda: ConvexConstraint.half_space([1.0, math.inf]), "half-space normal"),
        (lambda: ConvexConstraint.ball([[0]], 1), "ball center"),
        (lambda: ConvexConstraint.ball([0.0], [1.0]), "ball radius"),
        (lambda: ConvexConstraint.ball([0.0], None), "ball radius"),
        (lambda: ConvexConstraint.ball([0.0], math.nan), "ball radius"),
        (lambda: ConvexConstraint.ball([0.0], math.inf), "ball radius"),
        (lambda: ConvexConstraint.ball([0.0], 0.0), "ball radius"),
        (lambda: ConvexConstraint.box(5, [1.0]), "box lower"),
        (lambda: ConvexConstraint.box([-1.0], [math.nan]), "box upper"),
        (lambda: ConvexConstraint.box([-1.0], [1.0, 2.0]), "box lower and upper"),
        (lambda: ConvexConstraint.half_space_intersection([[1, 0], [1]], [0, 0]),
         "intersection normals"),
        (lambda: ConvexConstraint.half_space_intersection([[1, 0]], [0, 0]),
         "intersection offsets"),
        # finite entries whose norm overflows
        (lambda: ConvexConstraint.half_space([1e308, 1e308]), "half-space normal"),
        (lambda: ConvexConstraint.half_space_intersection([[0, 1], [1e200, 0]], [0, 0]),
         "intersection normals"),
    ])
    def test_malformed_arguments_rejected_by_name(self, build, argument):
        with pytest.raises(ConfigurationError, match=f"^{argument} must"):
            build()

    @pytest.mark.parametrize("normal", [[3.0, 4.0], [1e153, -1e153], [1e-100, 2e-100], [0.1]])
    def test_finite_norm_normals_keep_their_bits(self, normal):
        n = np.array(normal)
        unit = n / np.linalg.norm(n)
        assert ConvexConstraint.half_space(normal, -1.0).geometry.normal.tobytes() \
            == unit.tobytes()
        rows = ConvexConstraint.half_space_intersection([normal, normal], [-1.0, 0.0])
        assert rows.geometry.normals.tobytes() == np.vstack([unit, unit]).tobytes()

    def test_tiny_normals_are_scaled_before_the_norm(self):
        # unscaled, the squares underflow: the first norm is 0, the second normal 1.0000056 long
        unit = np.array([1.0, 2.0]) / math.sqrt(5.0)
        np.testing.assert_allclose(ConvexConstraint.half_space([1e-300, 2e-300]).geometry.normal,
                                   unit, rtol=1e-15)
        assert ConvexConstraint.half_space([1e-160, 0.0]).geometry.normal.tolist() == [1.0, 0.0]
        rows = ConvexConstraint.half_space_intersection([[0.0, 1.0], [1e-300, 2e-300]],
                                                        [-1.0, -1e-300]).geometry
        np.testing.assert_allclose(rows.normals, [[0.0, 1.0], unit], rtol=1e-15)
        np.testing.assert_allclose(rows.offsets, [-1.0, -1.0 / math.sqrt(5.0)], rtol=1e-15)
        # the scaled offset overflows to +inf: the set excludes the origin, with no warning
        with pytest.raises(InfeasibleSetError, match="offset inf"):
            ConvexConstraint.half_space([2.225073858507203e-309], 0.4375)
        with pytest.raises(InfeasibleSetError):
            ConvexConstraint.half_space_intersection([[1.0, 0.0], [0.0, 1e-320]], [0.0, 1.0])

    def test_offsets_overflowing_to_minus_inf_rejected(self):
        # -1e300 over a normal of norm 1e-10 is -inf: a half-space that excludes nothing
        with pytest.raises(ConfigurationError, match="^half-space offset over"):
            ConvexConstraint.half_space([1e-10], -1e300)
        with pytest.raises(ConfigurationError, match="^intersection offset over"):
            ConvexConstraint.half_space_intersection([[1.0, 0.0], [0.0, 1e-10]], [0.0, -1e300])

    def test_drawn_ordinary_normals_keep_their_bits(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 3, 5):
            ns = rng.standard_normal((300, m)) * 10.0 ** rng.uniform(-100, 100, (300, m))
            cs = -np.abs(rng.standard_normal(300)) * 10.0 ** rng.uniform(-100, 100, 300)
            norms = np.linalg.norm(ns, axis=1)
            rows = ConvexConstraint.half_space_intersection(ns, cs).geometry
            assert rows.normals.tobytes() == (ns / norms[:, None]).tobytes()
            assert rows.offsets.tobytes() == (cs / norms).tobytes()
            for n, c in zip(ns[:50], cs[:50]):
                one = ConvexConstraint.half_space(n, c).geometry
                norm = np.linalg.norm(n)
                assert one.normal.tobytes() == (n / norm).tobytes()
                assert one.offset == c / norm

    def test_project_requires_indicator(self):
        with pytest.raises(ConfigurationError):
            project(QUAD, np.zeros(2))
        with pytest.raises(ConfigurationError):
            interior_margin(QUAD, np.zeros(2))

    def test_unknown_geometry_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unsupported geometry"):
            ConvexConstraint("indicator", 2, geometry=object())


class TestBoxClip:
    """``Box.oblique_step`` clips through numpy's ``clip`` ufunc directly: the
    bytes of the ``np.clip`` step it replaced, signed zeros at a bound of 0, NaN
    rows, infinite bounds and subnormals included.  A numpy release that changes
    the ufunc fails here."""

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_same_bytes_as_the_np_clip_step(self, diagonal, per_row):
        box = convexcore.Box(np.array([0.0, -np.inf, -1.0]), np.array([np.inf, 0.0, 5e-324]))
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((64, 3)) * 10.0 ** rng.integers(-320, 3, (64, 3))
        hit = rng.random(Y.shape) < 0.3
        Y[hit] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310],
                            size=int(hit.sum()))
        Y[:3] = [[-0.0, -0.0, -0.0], [np.nan] * 3, [-5e-324, 5e-324, 1e-310]]
        d = rng.uniform(0.5, 2.0, (64, 3)) if per_row else np.array([2.0, 0.5, 3.0])
        H = d if diagonal else d[..., None] * np.eye(3)
        with np.errstate(invalid="ignore"):
            X, dK, rows = box.oblique_step(H, Y, diagonal)
            want = np.clip(Y, box.lower, box.upper)
            dk_want = (Y - want) / d
        dk_want += 0.0
        assert rows is None
        assert X.tobytes() == want.tobytes() and dK.tobytes() == dk_want.tobytes()

    @pytest.mark.parametrize("rows", [1, 5, 64])
    def test_half_line_keeps_a_negative_zero(self, rows):
        # the loop's one bound: np.maximum(-0.0, 0.0) would give +0.0
        half_line = convexcore.Box(np.array([0.0]), np.array([np.inf]))
        X, dK, _ = half_line.oblique_step(np.ones(1), np.full((rows, 1), -0.0), True)
        assert np.signbit(X).all() and not np.signbit(np.maximum(-0.0, 0.0))
        assert X.tobytes() == np.clip(np.full((rows, 1), -0.0), 0.0, np.inf).tobytes()
        assert dK.tobytes() == np.zeros((rows, 1)).tobytes()


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

    def test_pair_arrays_over_the_budget_raise_before_any_exists(self, monkeypatch):
        # 30 points in the plane: 8 * 435 * (3 * 2 + 5) bytes of pair arrays
        pts = 2.0 * np.random.default_rng(1).standard_normal((30, 2))
        need = pair_bytes(30, 2)
        assert need == 8 * 435 * 11
        monkeypatch.setattr(convexcore, "PROPERTY_PAIR_BYTES", need - 1)
        # a resolvent that fails would show the check ran past the estimate
        monkeypatch.setattr(convexcore, "resolvent", None)
        with pytest.raises(BudgetError, match=f"30 points in dimension 2 needs about {need} "
                                              f"bytes .* PROPERTY_PAIR_BYTES = {need - 1}"):
            check_yosida_properties(HALF_SPACE, [0.1, 0.01], pts)
        monkeypatch.undo()
        monkeypatch.setattr(convexcore, "PROPERTY_PAIR_BYTES", need)
        assert check_yosida_properties(HALF_SPACE, [0.1, 0.01], pts).passed

    @pytest.mark.parametrize("constraint", [
        TRIANGLE,
        ConvexConstraint.ball(np.zeros(3), 1.0),
        ConvexConstraint.half_space(np.eye(5)[0], 0.0),
    ], ids=["triangle", "ball_3d", "half_space_5d"])
    def test_the_pair_estimate_bounds_the_peak(self, constraint):
        n, m = 150, constraint.dim
        pts = 2.0 * np.random.default_rng(2).standard_normal((n, m))
        tracemalloc.start()
        try:
            check_yosida_properties(constraint, [0.1, 0.01], pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pair_bytes(n, m)

    @pytest.mark.parametrize("name", ["triangle", "ball", "quadratic"])
    def test_pairs_i_below_j_give_the_full_square_bits(self, name):
        # (c) and (d) on the pairs i < j equal their maxima over every ordered pair,
        # the zero diagonal included, by repr; some points lie inside the set, where
        # the gradients vanish and the products are signed zeros
        constraint = {"triangle": TRIANGLE, "ball": ConvexConstraint.ball(np.zeros(2), 1.0),
                      "quadratic": QUAD14}[name]
        pts = np.random.default_rng(4).standard_normal((80, 2)) * np.repeat([0.2, 2.0], 40)[:, None]
        eps_list = [0.1, 0.01, 0.001]
        got = check_yosida_properties(constraint, eps_list, pts).violations
        dx = pts[:, None, :] - pts[None, :, :]
        dist_x = np.linalg.norm(dx, axis=-1)
        want = {"c": 0.0, "d": 0.0}
        for e in eps_list:
            G = (pts - convexcore.resolvent(constraint, e, pts)) / e
            dg = G[:, None, :] - G[None, :, :]
            d = np.max(-np.sum(dg * dx, axis=-1), initial=0.0)
            c = np.max(np.sqrt(np.add.reduce(dg * dg, axis=-1)) - dist_x / e)
            want = {"c": float(np.maximum(c, want["c"])), "d": float(np.maximum(d, want["d"]))}
        assert {k: repr(got[k]) for k in "cd"} == {k: repr(v) for k, v in want.items()}

    def test_a_nan_violation_reads_nan_and_fails(self):
        # points near 1e200 overflow the pair arrays: (c) is inf - inf there
        ball = ConvexConstraint.ball(np.zeros(2), 1.0)
        pts = np.array([[1e200, 0.0], [0.0, 1e200], [0.3, 0.2], [-0.5, 0.1]])
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_yosida_properties(ball, [0.1], pts)
        assert math.isnan(report.violations["c"])
        assert not report.passed
        failing = report.failing()
        assert "c" in failing and set(failing) == {
            k for k, v in report.violations.items() if not v <= report.tolerance}
        assert report.violations["d"] == 0.0 and "d" not in failing

    def test_failing_lists_what_passed_rejects(self):
        report = convexcore.PropertyReport({"a": 0.0, "b": 2e-8, "c": math.nan, "d": 1e-8},
                                           1e-8, 4, (0.1,))
        assert report.failing() == {"b": 2e-8, "c": report.violations["c"]}
        assert not report.passed
        assert convexcore.PropertyReport({"a": 1e-8}, 1e-8, 1, (0.1,)).passed

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

    def test_smooth_constraint_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="^normal cone checks require an indicator constraint$"):
            normal_cone_residual(QUAD, [0.0, 0.0], [0.0, 0.0], [[0.0, 0.0]])


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
        for c in (BALL2, BOX2, HALF_SPACE, TRIANGLE):
            a = project(c, 0.3 * rng.standard_normal(2))
            margin = interior_margin(c, a)
            # probe: the nearest infeasible direction cannot be closer than margin
            dirs = rng.standard_normal((200, 2))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            for r in (margin * 0.99,):
                if r > 0:
                    assert np.all(c.distance(a + r * dirs) <= 1e-9)

    def test_polytope_margin_is_the_nearest_face(self):
        # unit normals (1, 0), (0, 1), -(1, 1)/sqrt 2, offsets -1, -1, -1/sqrt 2
        assert interior_margin(TRIANGLE, [0.0, 0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert interior_margin(TRIANGLE, [0.25, -0.5]) == pytest.approx(0.5, abs=1e-15)
        assert interior_margin(TRIANGLE, [0.0, -2.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_smooth_rejected(self):
        with pytest.raises(ConfigurationError):
            interior_constants(QUAD, InteriorCertificate([0.0, 0.0], 0.5))

    def test_sum_rejected(self):
        # the certificate's (r, 0, 0) do not bound the smooth part's share of dk:
        # with them, penalized ou runs on this sum (256 steps, 64 particles, eps
        # 0.1 to 0.01) gave interior margins of -2.3 to -4.1
        c = ConvexConstraint.sum_of(HALF_LINE, ConvexConstraint.smooth(
            lambda z: 25.0 * float(z @ z), lambda z: 50.0 * z, 1))
        with pytest.raises(ConfigurationError, match="only certified for indicator"):
            interior_constants(c, InteriorCertificate([1.0], 0.5))


class TestSmoothConstruction:
    def test_sum_of_needs_an_indicator_and_a_smooth_part_on_one_space(self):
        with pytest.raises(ConfigurationError, match=r"^sum_of expects \(indicator, smooth\)$"):
            ConvexConstraint.sum_of(QUAD, BALL2)
        with pytest.raises(ConfigurationError, match="^dimension mismatch in sum constraint$"):
            ConvexConstraint.sum_of(HALF_LINE, QUAD)

    def test_shifted_to_zero(self):
        c = ConvexConstraint.smooth(lambda z: 0.5 * float(z @ z) + 3.0, lambda z: z.copy(), 1)
        assert c.value(np.zeros(1)) == 0.0

    def test_nonvanishing_gradient_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvexConstraint.smooth(lambda z: float(z[0]), lambda z: np.ones_like(z), 1)

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


STIFF = ConvexConstraint.sum_of(BALL2, ConvexConstraint.smooth(
    lambda z: 25.0 * float(z @ z), lambda z: 50.0 * z, 2))
QUAD14 = library.constraint_from_config({"kind": "quadratic", "weights": [1, 4]})
HALF_SUM = ConvexConstraint.sum_of(ConvexConstraint.half_space([1.0, -0.7], -0.2), QUAD14)


class TestProxConvergence:
    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.001])
    def test_quadratic_is_exact(self, eps):
        x = 2 * np.random.default_rng(12).standard_normal((200, 2))
        exact = x / (1.0 + eps * np.array([1.0, 4.0]))
        assert np.max(np.abs(resolvent(QUAD14, eps, x) - exact)) <= 1e-10

    def test_stiff_sum_is_exact(self):
        """Past 3/eps the former fixed-step projected gradient diverged; the
        backtracking one finds x/51, inside the ball."""
        x = np.array([0.5, 0.3])
        np.testing.assert_allclose(resolvent(STIFF, 1.0, x), x / 51, rtol=0, atol=1e-10)

    def test_sum_inside_the_ball_is_the_smooth_prox(self):
        c = ConvexConstraint.sum_of(BALL2, QUAD14)
        np.testing.assert_allclose(resolvent(c, 1.0, np.array([0.2, -0.1])), [0.1, -0.02],
                                   rtol=0, atol=1e-10)

    def test_sum_outside_the_ball_is_on_the_sphere(self):
        # f = |z|^2/2 is radial: the prox is the projection of x/(1 + eps)
        c = ConvexConstraint.sum_of(BALL2, QUAD)
        x = np.array([[3.0, 4.0], [-6.0, 0.5]])
        np.testing.assert_allclose(resolvent(c, 0.5, x), BALL2.geometry.project(x / 1.5),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("constraint", [QUAD14, ConvexConstraint.sum_of(BALL2, QUAD14), STIFF,
                                            HALF_SUM])
    def test_rows_are_the_same_in_a_batch_as_alone(self, constraint):
        rng = np.random.default_rng(13)
        x = 2 * rng.standard_normal((300, 2))
        eps = 10.0 ** rng.uniform(-3, 0.5, (300, 1))
        batch = resolvent(constraint, eps, x)
        for i in range(len(x)):
            assert batch[i].tobytes() == resolvent(constraint, eps[i, 0], x[i]).tobytes()

    def test_half_space_rows_are_the_same_in_a_batch_as_alone(self):
        # a lone row's x @ normal rounds as a batch row's, not as numpy's dot
        half = HALF_SUM.geometry
        rng = np.random.default_rng(13)
        x = 2 * rng.standard_normal((300, 2))
        H = np.array([[2.0, 0.3], [0.3, 1.0]])
        batch, (X, dK, _) = half.project(x), half.oblique_step(H, x)
        for i in range(len(x)):
            assert batch[i].tobytes() == half.project(x[i:i + 1])[0].tobytes()
            Xi, dKi, _ = half.oblique_step(H, x[i:i + 1])
            assert (Xi.tobytes(), dKi.tobytes()) == (X[i:i + 1].tobytes(), dK[i:i + 1].tobytes())

    @pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-9])
    def test_a_row_stops_once_its_distance_bound_is_met(self, rtol, monkeypatch):
        """A row is returned as soon as 3 eps |G| <= rtol (1 + |x|), and that
        bound holds: the answer is within it, and at a loose rtol short of exact."""
        monkeypatch.setattr(convexcore, "PROX_RTOL", rtol)
        x = 2 * np.random.default_rng(14).standard_normal((200, 2))
        err = np.linalg.norm(resolvent(QUAD14, 1.0, x) - x / [2.0, 5.0], axis=1)
        assert np.all(err <= rtol * (1 + np.linalg.norm(x, axis=1)))
        assert np.max(err) > 1e-3 * rtol

    def test_the_iteration_cap_names_the_worst_row(self, monkeypatch):
        # the origin is its own prox at once; the other rows are still open at the cap
        monkeypatch.setattr(convexcore, "PROX_MAX_ITER", 3)
        with pytest.raises(StepError, match="^sum prox: distance bound .* at iteration 3 of "
                                            "at most 3") as err:
            resolvent(STIFF, 1.0, np.array([[0.0, 0.0], [0.05, 0.03], [0.5, 0.3]]))
        assert err.value.row == 2
        assert math.isfinite(err.value.residual) and err.value.residual > 1e-12

    def test_a_non_finite_row_raises_at_once(self):
        # the gradient is NaN right of 0.4: row 1 cannot converge, row 0 converges at once
        c = ConvexConstraint.sum_of(BALL2, ConvexConstraint.smooth(
            lambda z: float(z @ z), lambda z: np.where(z[:, :1] > 0.4, np.nan, 2.0 * z), 2))
        with pytest.raises(StepError, match="^sum prox: distance bound nan at iteration 1 ") \
                as err:
            resolvent(c, np.array([[1.0], [1.0], [1.0]]),
                      np.array([[0.0, 0.0], [0.5, 0.3], [0.5, 0.3]]))
        assert err.value.row == 1 and math.isnan(err.value.residual)

    @pytest.mark.parametrize("gradient", [
        lambda z: np.array([z[0], z[1], z[2]]),         # one point: fails on rows
        lambda z: np.zeros(3),                          # a single row for any input
        lambda z: z.ravel(),
    ])
    def test_a_gradient_must_map_rows_to_rows(self, gradient):
        with pytest.raises(ConfigurationError, match="^smooth gradient"):
            ConvexConstraint.smooth(lambda z: float(z @ z), gradient, 3)
