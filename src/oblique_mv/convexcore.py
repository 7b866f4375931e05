"""Convex constraint functions, projections, and Moreau-Yosida smoothing.

A constraint is a proper l.s.c. convex function that vanishes at the origin.
Two concrete kinds are supported: the indicator of a closed convex set with
simple geometry (half-space, box, ball, intersection of half-spaces) and a
smooth convex function given by value/gradient callables, plus their sum.
All evaluation routines accept single points of shape ``(m,)`` or batches of
shape ``(n, m)``.

Each geometry carries what depends on its shape: the Euclidean projection
``project(x)``, the interior margin ``margin(a)`` and ``oblique_step(H, Y,
diagonal=False)``, the one-step Skorohod problem ``x + H dk = y`` for each
row ``y`` of ``Y``, with ``x`` in the set, ``dk`` in the exterior normal
cone at ``x`` and ``H`` dense or, if ``diagonal``, its diagonal.  It is
solved exactly as the metric projection of ``y`` onto the set in the norm
induced by ``H^{-1}``: its variational inequality is precisely feasibility,
the linear relation, and the normal-cone inclusion of ``dk = H^{-1}(y - x)``.

Polyhedral sets have one exact projection, ``polyhedral_step``: the
projection onto ``{x : N x >= c}`` in the ``H^{-1}`` norm, solved as a
least-distance program by one NNLS call.  Row by row, it is the Euclidean
projection onto a half-space intersection (``H = I``) and the oblique step
of intersections and of boxes with non-diagonal ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize
from scipy.optimize import nnls

from .errors import (
    CertificateError,
    ConfigurationError,
    InfeasibleSetError,
    StepError,
)
from .measures import sq_norms

# Global tolerance hierarchy: arithmetic identities, geometric identities,
# composite identities, grid/numerically minimized estimates.
TOL_ARITH = 1e-12
TOL_GEOM = 1e-10
TOL_COMPOSITE = 1e-8
TOL_GRID = 1e-5

BALL_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class HalfSpace:
    """Set {x : <normal, x> >= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def project(self, x):
        gap = self.offset - x @ self.normal
        return x + np.maximum(gap, 0.0)[..., None] * self.normal

    def margin(self, a):
        return float(a @ self.normal - self.offset)

    def oblique_step(self, H, Y, diagonal=False):
        n, c = self.normal, self.offset
        gap = c - Y @ n
        mask = gap > 0
        X = Y.copy()
        dK = np.zeros_like(Y)
        if not np.any(mask):
            return X, dK
        Hm = H if H.ndim == (1 if diagonal else 2) else H[mask]   # shared, or rows outside
        Hn = Hm * n + 0.0 if diagonal else Hm @ n     # + 0.0: a zero is +0.0, as from H @ n
        t = gap[mask] / (Hn @ n)
        X[mask] = Y[mask] + t[:, None] * Hn
        dK[mask] = -t[:, None] * n
        return X, dK


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; bounds may be infinite."""

    lower: np.ndarray
    upper: np.ndarray

    def project(self, x):
        return np.clip(x, self.lower, self.upper)

    def margin(self, a):
        return float(min(np.min(a - self.lower), np.min(self.upper - a)))

    def oblique_step(self, H, Y, diagonal=False):
        X = np.clip(Y, self.lower, self.upper)
        if diagonal or _is_diagonal(H):
            dK = (Y - X) / (H if diagonal else np.einsum("...ii->...i", H))
            dK += 0.0       # unclipped rows get +0.0, also where -0.0 met a bound at 0.0
            return X, dK
        eye = np.eye(Y.shape[1])
        offsets = np.concatenate([self.lower, -self.upper])
        finite = np.isfinite(offsets)
        rows = HalfSpaceIntersection(np.vstack([eye, -eye])[finite], offsets[finite])
        return rows.oblique_step(H, Y)


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def project(self, x):
        rel = x - self.center
        dist = np.sqrt(sq_norms(rel))
        scale = np.where(dist > self.radius, self.radius / np.maximum(dist, 1e-300), 1.0)
        return self.center + rel * scale[..., None]

    def margin(self, a):
        return float(self.radius - np.linalg.norm(a - self.center))

    def oblique_step(self, H, Y, diagonal=False):
        c, r = self.center, self.radius
        rel = Y - c
        dist = np.sqrt(sq_norms(rel))
        X = Y.copy()
        dK = np.zeros_like(Y)
        mask = dist > r
        if not np.any(mask):
            return X, dK
        idx = np.flatnonzero(mask)
        relsub = rel[idx]
        Hsub = np.broadcast_to(H, Y.shape[:1] + H.shape[-1 if diagonal else -2:])[idx]
        if not diagonal and _is_diagonal(Hsub):
            Hsub, diagonal = np.einsum("kii->ki", Hsub), True
        if diagonal:
            d, w, back = Hsub, relsub, None
        else:
            d, back = np.linalg.eigh(Hsub)
            w = np.einsum("kji,kj->ki", back, relsub)
        lam, scaled = _ball_multiplier(np.ascontiguousarray(w.T), np.ascontiguousarray(d.T), r)
        relsol = scaled.T if back is None else np.einsum("kij,kj->ki", back, scaled.T)
        X[idx] = c + relsol
        dK[idx] = lam[:, None] * relsol
        return X, dK


@dataclass(frozen=True)
class HalfSpaceIntersection:
    """Intersection of finitely many half-spaces {x : <n_i, x> >= c_i}."""

    normals: np.ndarray
    offsets: np.ndarray

    def project(self, x):
        pts = x.reshape(-1, x.shape[-1])
        return self.oblique_step(np.eye(x.shape[-1]), pts)[0].reshape(x.shape)

    def margin(self, a):
        return float(np.min(self.normals @ a - self.offsets))

    def oblique_step(self, H, Y, diagonal=False):
        """``polyhedral_step`` on each row of ``Y`` outside the polytope; rows
        inside get ``dk = 0``."""
        if diagonal:
            H = H[..., None] * np.eye(Y.shape[1])
        X = Y.copy()
        dK = np.zeros_like(Y)
        outside = np.min(Y @ self.normals.T - self.offsets, axis=1) < 0
        for i in np.flatnonzero(outside):
            X[i], dK[i] = polyhedral_step(self.normals, self.offsets,
                                          H if H.ndim == 2 else H[i], Y[i])
        return X, dK


Geometry = HalfSpace | Box | Ball | HalfSpaceIntersection


@dataclass(frozen=True)
class ConvexConstraint:
    """A convex function with projection/resolvent capability.

    ``kind`` is one of ``"indicator"``, ``"smooth"``, ``"sum"``.  Indicator
    constraints carry a geometry; smooth ones carry value/gradient callables
    normalized so the function vanishes (and is minimal) at the origin.
    """

    kind: str
    dim: int
    geometry: Geometry | None = None
    smooth_value: Callable[[np.ndarray], float] | None = None
    smooth_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = ""
    _smooth_shift: float = field(default=0.0, repr=False)

    def __post_init__(self):
        if self.geometry is not None and not isinstance(self.geometry, Geometry):
            raise ConfigurationError(f"unsupported geometry {type(self.geometry).__name__}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def half_space(normal, offset=0.0, label="half-space"):
        n = np.asarray(normal, dtype=float)
        norm = np.linalg.norm(n)
        if norm <= 0:
            raise ConfigurationError("half-space normal must be nonzero")
        n = n / norm
        c = float(offset) / norm
        if c > TOL_ARITH:
            raise InfeasibleSetError(
                "half-space excludes the origin (offset %g > 0)" % c
            )
        return ConvexConstraint(
            "indicator", n.size, geometry=HalfSpace(n, c), label=label
        )

    @staticmethod
    def box(lower, upper, label="box"):
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise InfeasibleSetError("box has empty coordinate range")
        if np.any(lo > TOL_ARITH) or np.any(hi < -TOL_ARITH):
            raise InfeasibleSetError("box excludes the origin")
        return ConvexConstraint("indicator", lo.size, geometry=Box(lo, hi), label=label)

    @staticmethod
    def half_line(label="half-line"):
        """The set [0, inf) in one dimension."""
        return ConvexConstraint.box([0.0], [np.inf], label=label)

    @staticmethod
    def ball(center, radius, label="ball"):
        c = np.asarray(center, dtype=float)
        r = float(radius)
        if r <= 0:
            raise ConfigurationError("ball radius must be positive")
        if np.linalg.norm(c) > r + TOL_ARITH:
            raise InfeasibleSetError("ball excludes the origin")
        return ConvexConstraint("indicator", c.size, geometry=Ball(c, r), label=label)

    @staticmethod
    def half_space_intersection(normals, offsets, label="polytope"):
        ns = np.asarray(normals, dtype=float)
        cs = np.asarray(offsets, dtype=float)
        if ns.ndim != 2 or cs.shape != (ns.shape[0],):
            raise ConfigurationError("need (k, m) normals and (k,) offsets")
        norms = np.linalg.norm(ns, axis=1)
        if np.any(norms <= 0):
            raise ConfigurationError("half-space normals must be nonzero")
        ns = ns / norms[:, None]
        cs = cs / norms
        if np.any(cs > TOL_ARITH):
            raise InfeasibleSetError("intersection excludes the origin")
        return ConvexConstraint(
            "indicator", ns.shape[1], geometry=HalfSpaceIntersection(ns, cs), label=label
        )

    @staticmethod
    def smooth(value, gradient, dim, label="smooth"):
        """Smooth convex function; shifted so it vanishes at the origin.

        The origin must be the minimizer (gradient ~ 0 there), otherwise the
        standing convention ``value >= value(0) = 0`` cannot hold.
        """
        zero = np.zeros(dim)
        shift = float(value(zero))
        g0 = np.asarray(gradient(zero), dtype=float)
        if np.linalg.norm(g0) > 1e-9:
            raise ConfigurationError(
                "smooth constraint must have vanishing gradient at the origin"
            )
        return ConvexConstraint(
            "smooth",
            dim,
            smooth_value=value,
            smooth_gradient=gradient,
            label=label,
            _smooth_shift=shift,
        )

    @staticmethod
    def sum_of(indicator, smooth, label="sum"):
        """Indicator plus smooth part on the same space."""
        if indicator.kind != "indicator" or smooth.kind != "smooth":
            raise ConfigurationError("sum_of expects (indicator, smooth)")
        if indicator.dim != smooth.dim:
            raise ConfigurationError("dimension mismatch in sum constraint")
        return ConvexConstraint(
            "sum",
            indicator.dim,
            geometry=indicator.geometry,
            smooth_value=smooth.smooth_value,
            smooth_gradient=smooth.smooth_gradient,
            label=label,
            _smooth_shift=smooth._smooth_shift,
        )

    # -- basic queries ---------------------------------------------------

    def has_indicator(self):
        return self.geometry is not None

    def distance(self, x):
        """Euclidean distance to the indicator set (0 for pure smooth)."""
        x = np.asarray(x, dtype=float)
        if self.geometry is None:
            return np.zeros(x.shape[:-1])
        return np.sqrt(sq_norms(x - self.geometry.project(x)))

    def contains(self, x, tol=TOL_GEOM):
        return np.all(self.distance(x) <= tol)

    def smooth_part(self, x):
        x = np.asarray(x, dtype=float)
        if self.smooth_value is None:
            return np.zeros(x.shape[:-1])
        if x.ndim == 1:
            return float(self.smooth_value(x)) - self._smooth_shift
        return np.array([self.smooth_value(p) for p in x]) - self._smooth_shift

    def value(self, x, feasibility_band=0.0):
        """Function value; +inf outside the indicator set (beyond the band)."""
        x = np.asarray(x, dtype=float)
        val = np.asarray(self.smooth_part(x), dtype=float)
        if self.geometry is not None:
            val = np.where(self.distance(x) <= feasibility_band + TOL_GEOM, val, np.inf)
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class InteriorCertificate:
    """A point and radius with the closed ball inside the constraint domain."""

    anchor: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        if self.radius <= 0:
            raise CertificateError("certificate radius must be positive")


# ---------------------------------------------------------------------------
# Projections


def _is_diagonal(H):
    if H.shape[-1] == 1:        # no off-diagonal; a non-finite H is still not diagonal
        return bool(np.isfinite(H).all())
    return float(np.max(np.abs(H * (1 - np.eye(H.shape[-1]))))) <= 1e-14


def _ball_multiplier(w, d, r):
    """Root ``lam > 0`` of the secular equation ``|w / (1 + lam d)| = r``.

    Columns of the ``(m, k)`` array ``w`` are points outside the ball in
    the eigenbasis of H and columns of ``d`` the eigenvalues; column-major,
    every broadcast runs along the long axis.  With ``s = w / (1 + lam d)``
    this is a trust-region secular equation (Hessian ``diag(1/d)``,
    gradient ``w/d``), so ``psi(lam) = 1/|s| - 1/r`` is concave and
    increasing and Newton's iterates from ``lam = 0`` rise monotonically to
    the root (Moré & Sorensen 1983).  The loop stops on the residual
    ``| |s| - r |``, whose rounding floor grows with the dimension;
    ``StepError`` reports the worst residual if it is not met within
    ``BALL_NEWTON_MAX_ITER`` steps.  Returns ``lam`` and ``s``.
    """
    tol = 4 * (d.shape[0] + 1) * np.finfo(float).eps * r
    lam = np.zeros(w.shape[1])
    for step in range(BALL_NEWTON_MAX_ITER + 1):
        q = 1.0 + lam * d
        s = w / q
        norm = np.sqrt(sq_norms(s.T))
        gap = norm - r
        open_pts = np.abs(gap) > tol
        if not open_pts.any():
            return lam, s
        if step == BALL_NEWTON_MAX_ITER:
            raise StepError(
                "ball Newton solve did not converge in %d iterations"
                % BALL_NEWTON_MAX_ITER,
                residual=float(np.max(np.abs(gap))),
            )
        slope = np.add.reduce(d * s * (s / q), axis=0)     # np.sum costs more per call
        lam = np.where(open_pts, lam + gap * norm**2 / (r * slope), lam)


def polyhedral_step(normals, offsets, H, y):
    """Projection of ``y`` onto ``{x : normals x >= offsets}`` in the ``H^{-1}`` norm.

    Returns ``(x, dk)`` with ``x + H dk = y`` and ``dk = -normals' lam``,
    ``lam >= 0``, so ``dk`` lies in the exterior normal cone at ``x``.  With
    ``H = R R'`` and ``x = y + R z`` this is the least-distance program
    ``min |z|`` subject to ``(normals R) z >= gap``, ``gap = offsets -
    normals y``, which one NNLS solve settles exactly (Lawson & Hanson
    1974, ch. 23); ``gap`` is divided by its largest entry so the NNLS
    residual is of order one.  ``StepError`` is raised when NNLS hits its
    iteration cap or its answer misses feasibility by more than
    ``TOL_GEOM (1 + |y|)``.
    """
    gap = offsets - normals @ y
    top = float(np.max(gap))
    if top <= 0:
        return y.copy(), np.zeros_like(y)
    E = np.vstack([(normals @ np.linalg.cholesky(H)).T, gap / top])
    f = np.zeros(E.shape[0])
    f[-1] = 1.0
    try:
        u, _ = nnls(E, f)
    except RuntimeError as err:
        raise StepError(f"polyhedral step: NNLS failed ({err})") from err
    lam = u * (top / (1.0 - E[-1] @ u))
    x = y + H @ (normals.T @ lam)
    miss = float(np.max(offsets - normals @ x))
    if not miss <= TOL_GEOM * (1.0 + np.linalg.norm(y)):
        raise StepError(
            "polyhedral step missed feasibility by %.3e" % miss, residual=miss
        )
    return x, -(normals.T @ lam)


def project(constraint, x):
    """Metric projection onto the indicator set of the constraint."""
    if not constraint.has_indicator():
        raise ConfigurationError("projection requires an indicator constraint")
    return constraint.geometry.project(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Moreau-Yosida approximation


def _check_eps(eps):
    if eps is None or not np.all(eps > 0):
        raise ValueError(f"smoothing parameter must be positive, got {eps}")


def _smooth_prox(constraint, eps, x):
    """Minimize |z - x|^2/(2 eps) + value(z), optionally over the set."""
    x = np.asarray(x, dtype=float)
    f = constraint.smooth_value
    grad = constraint.smooth_gradient
    shift = constraint._smooth_shift

    if constraint.kind == "smooth":
        def obj(z):
            d = z - x
            return d @ d / (2 * eps) + float(f(z)) - shift

        def jac(z):
            return (z - x) / eps + np.asarray(grad(z), dtype=float)

        res = optimize.minimize(
            obj, x, jac=jac, method="L-BFGS-B",
            options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500},
        )
        return res.x

    # sum kind: projected gradient on the strongly convex objective
    z = project(constraint, x)
    step = eps / 2.0
    for _ in range(2000):
        g = (z - x) / eps + np.asarray(grad(z), dtype=float)
        z_new = constraint.geometry.project(z - step * g)
        if np.linalg.norm(z_new - z) <= 1e-13:
            z = z_new
            break
        z = z_new
    return z


def resolvent(constraint, eps, x):
    """The proximal point J_eps x = x - eps * yosida_gradient(x); for rows
    ``x``, ``eps`` may be a ``(rows, 1)`` column of one level per row."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    if constraint.kind == "indicator":
        return project(constraint, x)
    if x.ndim == 1:
        return _smooth_prox(constraint, eps, x)
    levels = np.broadcast_to(eps, (x.shape[0], 1))[:, 0]
    return np.array([_smooth_prox(constraint, e, p) for e, p in zip(levels, x)])


def yosida_gradient(constraint, eps, x):
    """Gradient of the Moreau envelope, (x - J_eps x) / eps; ``eps`` as in ``resolvent``."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    return (x - resolvent(constraint, eps, x)) / eps


def yosida_value(constraint, eps, x):
    """Moreau envelope inf_z |z - x|^2/(2 eps) + value(z)."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    if constraint.kind == "indicator":
        d = constraint.distance(x)
        out = d * d / (2 * eps)
        return out if out.ndim else float(out)
    j = resolvent(constraint, eps, x)
    d2 = np.sum((j - x) ** 2, axis=-1)
    out = d2 / (2 * eps) + constraint.smooth_part(j)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Property report for the smoothing family


@dataclass
class PropertyReport:
    """Max violation of each Moreau-envelope property over a sample set."""

    violations: dict
    tolerance: float
    sample_count: int
    eps_list: tuple

    @property
    def passed(self):
        return all(v <= self.tolerance for v in self.violations.values())

    def failing(self):
        return {k: v for k, v in self.violations.items() if v > self.tolerance}


def check_yosida_properties(constraint, eps_list, sample_points, tolerance=None):
    """Evaluate the seven envelope properties on all sample/eps pairs.

    Properties checked, with Pi the constraint, G = grad of the envelope and
    J the resolvent:
      a: envelope(x) = eps/2 |G x|^2 + Pi(J x)
      b: G x lies in the subdifferential of Pi at J x (probed variationally)
      c: |G x - G y| <= |x - y| / eps
      d: <G x - G y, x - y> >= 0
      e: <G_e x - G_e' y, x - y> >= -(e + e') <G_e x, G_e' y>
      f: envelope(0) = 0 <= envelope(x), J 0 = 0, G 0 = 0
      g: eps/2 |G x|^2 <= envelope(x) <= <G x, x>
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    eps_list = tuple(float(e) for e in eps_list)
    for e in eps_list:
        _check_eps(e)
    if tolerance is None:
        tolerance = TOL_COMPOSITE if constraint.kind == "indicator" else TOL_GRID

    n = pts.shape[0]
    grads, vals, resos = {}, {}, {}
    for e in eps_list:
        resos[e] = resolvent(constraint, e, pts)
        grads[e] = (pts - resos[e]) / e
        vals[e] = np.atleast_1d(yosida_value(constraint, e, pts))

    # feasible probes for the subdifferential inequality in (b)
    if constraint.has_indicator():
        probes = constraint.geometry.project(pts)
    else:
        probes = pts
    probe_vals = np.atleast_1d(constraint.value(probes, feasibility_band=TOL_GEOM))

    dx = pts[:, None, :] - pts[None, :, :]
    dist_x = np.linalg.norm(dx, axis=-1)

    viol = {k: 0.0 for k in "abcdefg"}
    zero = np.zeros(constraint.dim)
    for e in eps_list:
        G, V, J = grads[e], vals[e], resos[e]
        pij = np.atleast_1d(constraint.value(J, feasibility_band=TOL_GEOM))
        pij = np.where(np.isfinite(pij), pij, 0.0)

        viol["a"] = max(viol["a"], float(np.max(np.abs(V - 0.5 * e * np.sum(G * G, -1) - pij))))

        # b: <G_i, v_p - J_i> + Pi(J_i) - Pi(v_p) <= 0
        cross = probes @ G.T - np.sum(J * G, axis=1)[None, :]
        slack = cross + pij[None, :] - probe_vals[:, None]
        viol["b"] = max(viol["b"], float(np.max(np.maximum(slack, 0.0), initial=0.0)))

        dg = G[:, None, :] - G[None, :, :]
        viol["c"] = max(
            viol["c"],
            float(np.max(np.linalg.norm(dg, axis=-1) - dist_x / e)),
        )
        mono = np.sum(dg * dx, axis=-1)
        viol["d"] = max(viol["d"], float(np.max(-mono, initial=0.0)))

        g0 = np.linalg.norm(yosida_gradient(constraint, e, zero))
        j0 = np.linalg.norm(resolvent(constraint, e, zero))
        v0 = abs(yosida_value(constraint, e, zero))
        viol["f"] = max(viol["f"], float(g0), float(j0), float(v0),
                        float(np.max(-V, initial=0.0)))

        lower = 0.5 * e * np.sum(G * G, -1) - V
        upper = V - np.sum(G * pts, -1)
        viol["g"] = max(viol["g"], float(np.max(lower)), float(np.max(upper)))

    for e1 in eps_list:
        for e2 in eps_list:
            G1, G2 = grads[e1], grads[e2]
            a1 = np.sum(G1 * pts, axis=1)
            a2 = np.sum(G2 * pts, axis=1)
            lhs = a1[:, None] - G1 @ pts.T - (G2 @ pts.T).T + a2[None, :]
            inner = G1 @ G2.T
            slack = -(lhs + (e1 + e2) * inner)
            viol["e"] = max(viol["e"], float(np.max(np.maximum(slack, 0.0))))

    return PropertyReport(viol, tolerance, n, eps_list)


# ---------------------------------------------------------------------------
# Normal-cone diagnostics and interior estimates


def normal_cone_residual(constraint, x, u, probes, feasibility_tol=TOL_COMPOSITE):
    """Residual of the variational inequality <u, v - x> <= 0 over probes.

    Returns +inf when x itself lies outside the set beyond tolerance; probes
    are expected to be feasible points.
    """
    if not constraint.has_indicator():
        raise ConfigurationError("normal cone checks require an indicator constraint")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if constraint.distance(x) > feasibility_tol:
        return np.inf
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    raw = float(np.max((probes - x) @ u, initial=0.0))
    return max(0.0, raw) / (1.0 + np.linalg.norm(u))


def interior_margin(constraint, a):
    """Distance from a to the complement of the indicator set (<=0 outside)."""
    if not constraint.has_indicator():
        raise ConfigurationError("interior margin requires an indicator constraint")
    return constraint.geometry.margin(np.asarray(a, dtype=float))


def interior_constants(constraint, cert):
    """Constants (l1, l2, l3) for the interior lower bound on reflection work.

    For indicator constraints the certificate ball gives (radius, 0, 0); the
    smooth case has no computable constants here and is rejected rather than
    guessed.
    """
    if constraint.kind == "smooth":
        raise ConfigurationError(
            "interior constants are only certified for indicator constraints"
        )
    margin = interior_margin(constraint, cert.anchor)
    if margin + TOL_ARITH < cert.radius:
        raise CertificateError(
            f"ball of radius {cert.radius} around the anchor leaves the set "
            f"(interior margin {margin:.3e})"
        )
    return (float(cert.radius), 0.0, 0.0)
