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
cone at ``x`` and ``H`` dense or, if ``diagonal``, its diagonal: shared,
one per row, or ``H(rows)``, read on the rows the step corrects.  It is
solved exactly as the metric projection of ``y`` onto the set in the norm
induced by ``H^{-1}``: its variational inequality is precisely feasibility,
the linear relation, and the normal-cone inclusion of ``dk = H^{-1}(y - x)``;
it returns ``x``, ``dk`` and the sorted rows it corrected (``None``: all).

Polyhedral sets have one exact projection onto ``{x : N x >= c}`` in the
``H^{-1}`` norm: ``HalfSpaceIntersection.oblique_step`` solves it for all rows
at once as a least-distance program.  It is the Euclidean projection onto a
half-space intersection (``H = I``) and the oblique step of intersections and
of boxes with non-diagonal ``H``.

``backward_step`` is the step of both schemes: ``z = argmin s phi(z) + |Y -
z|^2_{H^-1} / 2``, ``dk = H^-1 (Y - z)``; the ``oblique_step`` on an indicator,
else one accelerated projected gradient in the ``H^-1`` metric on all rows at
once, and ``resolvent`` in the identity metric.  A smooth part's gradient is
called on rows ``(n, m)``, its value only on single points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .errors import (
    BudgetError,
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
EPS = np.finfo(float).eps

BALL_NEWTON_MAX_ITER = 50
POLYHEDRAL_MAX_ITER = 50
PROX_MAX_ITER = 2000
# Bytes of the pair arrays (i < j) and (n, n) arrays check_yosida_properties may hold
PROPERTY_PAIR_BYTES = 2**30
# A prox row is done when its distance bound 3 eps |G| is at most this times 1 + |x|.
PROX_RTOL = 1e-12


def _row_dots(x, v):
    """``x @ v``, with a lone row of ``x`` taken as the first of two: numpy's
    product of one row rounds unlike that of more, so a row keeps its batch bits."""
    return (np.repeat(x, 2, axis=0) @ v)[:1] if x.ndim == 2 and len(x) == 1 else x @ v


@dataclass(frozen=True)
class HalfSpace:
    """Set {x : <normal, x> >= offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def project(self, x):
        gap = self.offset - _row_dots(x, self.normal)
        return x + np.maximum(gap, 0.0)[..., None] * self.normal

    def margin(self, a):
        return float(a @ self.normal - self.offset)

    def oblique_step(self, H, Y, diagonal=False):
        n, c = self.normal, self.offset
        gap = c - _row_dots(Y, n)
        rows = np.flatnonzero(gap > 0)
        X, dK = Y.copy(), np.zeros_like(Y)
        if not rows.size:
            return X, dK, rows
        Hm = _rows_of(H, rows, diagonal)                # shared, or rows outside
        Hn = Hm * n + 0.0 if diagonal else Hm @ n     # + 0.0: a zero is +0.0, as from H @ n
        t = gap[rows] / _row_dots(Hn, n)
        X[rows] = Y[rows] + t[:, None] * Hn
        dK[rows] = -t[:, None] * n
        return X, dK, rows


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
        X = np._core.umath.clip(Y, self.lower, self.upper)     # np.clip less its wrappers
        H = _rows_of(H, slice(None), diagonal)
        if diagonal or _is_diagonal(H):
            dK = (Y - X) / (H if diagonal else np.einsum("...ii->...i", H))
            dK += 0.0       # unclipped rows get +0.0, also where -0.0 met a bound at 0.0
            return X, dK, None
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

    def _outside(self, x):
        """Which rows of ``x`` lie outside, the squared distance summed a column at a
        time: ``x - center`` would broadcast the short center over every row."""
        c = self.center
        d2 = (x[..., 0] - c[0]) ** 2
        for j in range(1, c.size):
            d2 = d2 + (x[..., j] - c[j]) ** 2
        return np.sqrt(d2) > self.radius

    def project(self, x):
        far = self._outside(x)
        out = x.copy()
        rel = x[far] - self.center
        out[far] = self.center + rel * (self.radius / np.sqrt(sq_norms(rel)))[:, None]
        return out

    def margin(self, a):
        return float(self.radius - np.linalg.norm(a - self.center))

    def oblique_step(self, H, Y, diagonal=False):
        c, r = self.center, self.radius
        X, dK = Y.copy(), np.zeros_like(Y)
        idx = np.flatnonzero(self._outside(Y))
        if not idx.size:
            return X, dK, idx
        relsub = Y[idx] - c
        Hsub = _rows_of(H, idx, diagonal)
        if Hsub.ndim == (1 if diagonal else 2):         # shared: one per row
            Hsub = np.broadcast_to(Hsub, idx.shape + Hsub.shape)
        if not diagonal and _is_diagonal(Hsub):
            Hsub, diagonal = np.einsum("kii->ki", Hsub), True
        if diagonal:
            d, w, back = Hsub, relsub, None
        else:
            d, back = np.linalg.eigh(Hsub)
            w = np.einsum("kji,kj->ki", back, relsub)
        lam, scaled = _ball_multiplier(np.ascontiguousarray(w.T), np.ascontiguousarray(d.T), r, idx)
        relsol = scaled.T if back is None else np.einsum("kij,kj->ki", back, scaled.T)
        X[idx] = c + relsol
        dK[idx] = lam[:, None] * relsol
        return X, dK, idx


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
        """The step of all rows of ``Y`` outside the polytope at once: Lawson and
        Hanson's NNLS (1974, ch. 23) on the least-distance system ``E = [(N R)';
        g']``, ``H = R R'``, ``g = gap / max(gap)``, gives ``dk = -N' lam``, ``lam =
        max(gap) u / (1 - g'u)``.  Each iteration adds a face to every row not
        stepping back and solves all rows' ``E'E = N H N' + g g'`` on their passive
        faces in one call; finished rows are fixed points, and products are stacks
        of per-row products, so a row's bits do not depend on the batch."""
        N, X, dK = self.normals, Y.copy(), np.zeros_like(Y)
        gap = self.offsets - (Y[:, None] @ N.T)[:, 0]
        rows = np.flatnonzero(np.max(gap, axis=1, initial=0.0) > 0)
        if not rows.size:
            return X, dK, rows
        H = _rows_of(H, rows, diagonal)
        H = H[..., None] * np.eye(Y.shape[1]) if diagonal else H
        top = np.max(gap[rows], axis=1)
        g = gap[rows] / top[:, None]
        G = N @ H @ N.T + g[..., None] * g[:, None]            # E'E
        u, P, back = np.zeros_like(g), np.zeros(g.shape, dtype=bool), np.zeros(len(g), dtype=bool)
        for it in range(POLYHEDRAL_MAX_ITER + 1):
            w = g - (G @ u[..., None])[..., 0]
            free = ~P & (w > 64 * len(N) * EPS * (abs(g) + (abs(G) @ u[..., None])[..., 0]))
            adding = ~back & free.any(axis=1)
            if not (adding | back).any():
                break
            if it == POLYHEDRAL_MAX_ITER:       # name the row of the worst KKT residual
                kkt = np.where(adding | back, np.max(abs(np.minimum(u, -w)), axis=1), -1.0)
                raise StepError("polyhedral step: NNLS did not converge in %d iterations" % it,
                                residual=float(kkt.max()), row=int(rows[kkt.argmax()]))
            P[adding, np.argmax(np.where(free, w, -np.inf), axis=1)[adding]] = True
            z = np.linalg.solve(np.where(P[..., None] & P[:, None], G, np.eye(len(N))),
                                np.where(P, g, 0.0)[..., None])[..., 0]
            neg = P & ~(z > 0)          # these leave, after a step back to the boundary
            ratio = np.where(neg, np.divide(u, u - z, out=np.zeros_like(u), where=u > z), np.inf)
            back = neg.any(axis=1)
            u = np.where(back[:, None], u + np.min(ratio, axis=1, initial=1.0)[:, None] * (z - u),
                         np.where(P, z, 0.0))
            u[back, np.argmin(ratio, axis=1)[back]] = 0.0
            P &= u > 0
        lam = u * (top / (1.0 - (g[:, None] @ u[..., None])[:, 0, 0]))[:, None]
        dK[rows] = -(lam[:, None] @ N)[:, 0]
        X[rows] = Y[rows] - (H @ dK[rows][..., None])[..., 0]
        miss = np.max(self.offsets - (X[rows][:, None] @ N.T)[:, 0], axis=1)
        bad = ~(miss <= TOL_GEOM * (1.0 + np.sqrt(sq_norms(Y[rows]))))
        if bad.any():
            k = int(np.argmax(np.where(bad, miss, -np.inf)))
            raise StepError("polyhedral step missed feasibility by %.3e" % miss[k],
                            residual=float(miss[k]), row=int(rows[k]))
        return X, dK, rows


Geometry = HalfSpace | Box | Ball | HalfSpaceIntersection


def _floats(what, value, ndim, finite=True):
    """``value`` as a non-empty float array with ``ndim`` axes and finite entries
    (only non-NaN ones unless ``finite``); a ConfigurationError naming ``what`` if not."""
    try:
        a = np.asarray(value)
    except ValueError:                  # ragged nested lists
        a = np.empty(0)
    if a.dtype.kind not in "iuf" or a.ndim != ndim or a.size == 0 \
            or not np.all(np.isfinite(a) if finite else ~np.isnan(a)):
        what_it_is = ("a finite number", "a non-empty list of numbers",
                      "a non-empty list of equal-length lists of numbers")[ndim]
        raise ConfigurationError(f"{what} must be {what_it_is}, got {value!r}")
    return a.astype(float)


def _unit_normals(kind, normals, offsets):
    """``{x : <n, x> >= c}`` with unit normals: one normal ``(m,)`` and its offset, or
    rows ``(k, m)`` and ``(k,)``.  Each normal is first scaled by a power of two (exact),
    so a tiny normal's norm does not underflow.  A zero normal, an overflowing norm or
    an offset that overflows to ``-inf`` over its norm is a ConfigurationError naming
    the ``kind``; a set without the origin (``+inf`` too) is an InfeasibleSetError."""
    axis = None if normals.ndim == 1 else 1         # a vector's norm is its dot product
    with np.errstate(over="ignore"):        # an overflowing norm is rejected below
        norms = np.linalg.norm(normals, axis=axis)
    if not (np.all(np.any(normals, axis=-1)) and np.all(np.isfinite(norms))):
        raise ConfigurationError(f"{kind} normal{'s' * (normals.ndim - 1)} must be nonzero "
                                 "with a finite norm")
    e = -np.frexp(np.max(np.abs(normals), axis=-1))[1]
    normals = np.ldexp(normals, e[..., None])
    norms = np.linalg.norm(normals, axis=axis)
    with np.errstate(over="ignore"):
        offsets = np.ldexp(offsets, e) / norms
    if np.any(offsets > TOL_ARITH):
        raise InfeasibleSetError("%s excludes the origin (offset %g > 0)"
                                 % (kind, np.max(offsets)))
    if not np.all(np.isfinite(offsets)):
        raise ConfigurationError(f"{kind} offset over its normal's norm overflows to -inf")
    return normals / norms[..., None], offsets


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
        n, c = _unit_normals("half-space", _floats("half-space normal", normal, 1),
                             float(offset))
        return ConvexConstraint(
            "indicator", n.size, geometry=HalfSpace(n, float(c)), label=label
        )

    @staticmethod
    def box(lower, upper, label="box"):
        lo = _floats("box lower", lower, 1, finite=False)
        hi = _floats("box upper", upper, 1, finite=False)
        if lo.shape != hi.shape:
            raise ConfigurationError("box lower and upper must have equal length")
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
        c = _floats("ball center", center, 1)
        r = float(_floats("ball radius", radius, 0))
        if not r > 0:
            raise ConfigurationError(f"ball radius must be positive, got {radius!r}")
        if np.linalg.norm(c) > r + TOL_ARITH:
            raise InfeasibleSetError("ball excludes the origin")
        return ConvexConstraint("indicator", c.size, geometry=Ball(c, r), label=label)

    @staticmethod
    def half_space_intersection(normals, offsets, label="polytope"):
        ns = _floats("intersection normals", normals, 2)
        cs = _floats("intersection offsets", offsets, 1)
        if cs.shape != (ns.shape[0],):
            raise ConfigurationError("intersection offsets must have one entry per normal")
        ns, cs = _unit_normals("intersection", ns, cs)
        return ConvexConstraint(
            "indicator", ns.shape[1], geometry=HalfSpaceIntersection(ns, cs), label=label
        )

    @staticmethod
    def smooth(value, gradient, dim, label="smooth"):
        """Smooth convex function; shifted so it vanishes at the origin.

        ``value`` maps one point ``(m,)`` to a number; ``gradient`` maps rows
        ``(n, m)`` to rows ``(n, m)``, as the prox runs on all rows at once
        (checked on two rows).  The origin must be the minimizer (gradient ~ 0
        there), otherwise the standing convention ``value >= value(0) = 0``
        cannot hold.
        """
        shift = float(value(np.zeros(dim)))
        try:
            g0 = np.asarray(gradient(np.zeros((2, dim))), dtype=float)
        except (ValueError, TypeError, IndexError) as err:
            raise ConfigurationError(f"smooth gradient failed on rows (2, {dim}): {err}") from err
        if g0.shape != (2, dim):
            raise ConfigurationError(
                f"smooth gradient must map rows (2, {dim}) to (2, {dim}), gave {g0.shape}")
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


def _rows_of(H, rows, diagonal=False):
    """``H`` on ``rows`` of the step (index array, mask or slice): shared or one per row."""
    if callable(H):
        return H(rows)
    return H if H.ndim == (1 if diagonal else 2) else H[rows]


def _is_diagonal(H):
    if H.shape[-1] == 1:        # no off-diagonal; a non-finite H is still not diagonal
        return bool(np.isfinite(H).all())
    return float(np.max(np.abs(H * (1 - np.eye(H.shape[-1]))))) <= 1e-14


def _ball_multiplier(w, d, r, rows=None):
    """Root ``lam > 0`` of the secular equation ``|w / (1 + lam d)| = r``.

    Columns of the ``(m, k)`` array ``w`` are points outside the ball in
    the eigenbasis of H and columns of ``d`` the eigenvalues; column-major,
    every broadcast runs along the long axis.  With ``s = w / (1 + lam d)``
    this is a trust-region secular equation (Hessian ``diag(1/d)``,
    gradient ``w/d``), so ``psi(lam) = 1/|s| - 1/r`` is concave and
    increasing and Newton's iterates from ``lam = 0`` rise monotonically to
    the root (Moré & Sorensen 1983).  The loop stops on the residual
    ``| |s| - r |``, whose rounding floor grows with the dimension;
    ``StepError`` reports the worst residual and its column (its entry of
    ``rows``, if given) if it is not met within ``BALL_NEWTON_MAX_ITER``
    steps.  Returns ``lam`` and ``s``.
    """
    tol = 4 * (d.shape[0] + 1) * EPS * r
    lam, q, s = np.zeros(w.shape[1]), None, w       # at lam = 0, q = 1 + lam d is 1.0
    for step in range(BALL_NEWTON_MAX_ITER + 1):
        norm = np.sqrt(sq_norms(s.T))
        gap = norm - r
        open_pts = np.abs(gap) > tol
        if not open_pts.any():      # w / q at lam = 0: a non-finite d still makes s NaN
            return lam, s if step else w / (1.0 + lam * d)
        if step == BALL_NEWTON_MAX_ITER:
            worst = int(np.argmax(np.abs(gap)))
            raise StepError("ball Newton solve did not converge in %d iterations"
                            % BALL_NEWTON_MAX_ITER, residual=float(abs(gap[worst])),
                            row=worst if rows is None else int(rows[worst]))
        slope = np.add.reduce(d * s * (s if q is None else s / q), axis=0)  # np.sum costs more
        lam = np.where(open_pts, lam + gap * norm**2 / (r * slope), lam)
        q = 1.0 + lam * d
        s = w / q


def _set_rows(dk, rows=None):
    """Sorted ``int32`` rows with a bit of ``dk`` set (``-0.0``, NaN) among ``rows``, or all."""
    hit = reduce(np.bitwise_or, (dk if rows is None else dk[rows]).view(np.uint64).T)
    return (hit.nonzero()[0] if rows is None else rows[hit != 0]).astype(np.int32)


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


def _times(H, U, diagonal=False):
    """``H`` times each row of ``U``, ``H`` in any form ``oblique_step`` takes."""
    H = _rows_of(H, slice(None), diagonal)
    if diagonal:
        return U * H + 0.0    # + 0.0: a zero is +0.0, as from the dense product
    if H.ndim == 2:           # a lone row as a pair: the bits it has in a taller batch
        return _row_dots(U, H.T)
    return np.einsum("nij,nj->ni", H, U)


def backward_step(constraint, s, H, Y, diagonal=False):
    """``z = argmin s phi(z) + |Y - z|^2_{H^-1} / 2`` and ``dk = H^-1 (Y - z)`` for the
    rows of ``Y``, so ``z + H dk = Y`` with ``dk`` in ``s`` times the subdifferential at
    ``z``; ``H`` as ``oblique_step`` takes it, ``s`` shared or a ``(rows, 1)`` column.
    The third return holds every row whose ``dk`` may have a bit set, or is ``None``.

    An indicator is its geometry's ``oblique_step``.  A smooth part ``f`` takes FISTA
    (Beck & Teboulle 2009) in the ``H^-1`` inner product on all rows at once, ``P``
    the geometry's ``oblique_step(H, .)`` for ``sum``: ``z+ = P((L y + Y - s H grad
    f(y)) / (L + 1))``, ``L`` from 1 doubled until ``s <grad f(z+) - grad f(y), z+ -
    y> <= L/2 |z+ - y|^2_{H^-1}``, momentum ``(1 - sqrt q)/(1 + sqrt q)``, ``q = 1/(1
    + L)``.  Carried as ``u = H^-1 (Y - z)``, it never solves with ``H``, and ``z+ - y
    = -H du`` keeps the rounding of ``z`` out of the test.  A row is done when its
    strong-convexity bound ``3 (L + 1) |y - z+|`` on ``|z+ - z*|`` is at most
    ``PROX_RTOL (1 + |Y|)``.  ``H`` is copied out to one per row, so a row's bits do
    not depend on the batch if the gradient's do not.  ``StepError`` names the worst
    row if a bound is not finite or ``PROX_MAX_ITER`` is reached."""
    geometry, grad = constraint.geometry, constraint.smooth_gradient
    if constraint.kind == "indicator":
        return geometry.oblique_step(H, Y, diagonal)
    H = _rows_of(H, slice(None), diagonal)
    H = np.array(np.broadcast_to(H, Y.shape[:1] + H.shape[-1 if diagonal else -2:]))
    open_rows = np.arange(len(Y))
    tol = PROX_RTOL * (1.0 + np.sqrt(sq_norms(Y)))
    s = np.broadcast_to(np.asarray(s, dtype=float), (len(Y), 1))
    L = np.ones((len(Y), 1))
    u = u_old = np.zeros_like(Y)
    out = np.empty_like(Y), np.empty_like(Y)
    for it in range(1, PROX_MAX_ITER + 1):
        root = np.sqrt(1.0 / (1.0 + L))
        u_y = u + (1.0 - root) / (1.0 + root) * (u - u_old)
        y = Y - _times(H, u_y, diagonal)
        gy = np.asarray(grad(y), dtype=float)
        z_new, u_new, d2 = np.empty_like(y), np.empty_like(y), np.empty(len(y))
        todo = np.arange(len(y))
        while todo.size:                                # backtrack the rows that fail
            Lt, Ht = L[todo], H[todo]
            v = (Lt * u_y[todo] + s[todo] * gy[todo]) / (Lt + 1.0)
            z = Y[todo] - _times(Ht, v, diagonal)
            if geometry is not None:                    # z = P(z), u += its dk
                z, dv, _ = geometry.oblique_step(Ht, z, diagonal)
                v = v + dv
            z_new[todo], u_new[todo] = z, v
            du = v - u_y[todo]
            Hdu = _times(Ht, du, diagonal)              # y - z+
            d2[todo] = np.add.reduce(du * Hdu, axis=1)
            curv = s[todo, 0] * np.add.reduce(
                (gy[todo] - np.asarray(grad(z), dtype=float)) * Hdu, axis=1)
            steep = curv > Lt[:, 0] / 2 * d2[todo]
            L[todo[steep]] *= 2.0
            todo = todo[steep]
        bound = 3 * (1.0 + L[:, 0]) * np.sqrt(d2)
        done = bound <= tol
        failed = ~np.isfinite(bound) if it < PROX_MAX_ITER else ~done
        if failed.any():
            k = int(np.argmax(np.where(failed, np.nan_to_num(bound, nan=np.inf), -np.inf)))
            raise StepError("%s prox: distance bound %.3e at iteration %d of at most %d"
                            % (constraint.kind, bound[k], it, PROX_MAX_ITER),
                            residual=float(bound[k]), row=int(open_rows[k]))
        out[0][open_rows[done]], out[1][open_rows[done]] = z_new[done], u_new[done]
        keep = ~done
        if not keep.any():
            return (*out, None)
        open_rows, Y, H, s, L, tol = (a[keep] for a in (open_rows, Y, H, s, L, tol))
        u, u_old = u_new[keep], u[keep]


def resolvent(constraint, eps, x):
    """The proximal point J_eps x = x - eps * yosida_gradient(x); for rows ``x``,
    ``eps`` may be a ``(rows, 1)`` column of one level per row.  With a smooth part
    it is ``backward_step`` in the identity metric on all rows at once: each row is
    within ``PROX_RTOL (1 + |x|)`` of the exact point, its bits the same in a batch as
    alone, and ``StepError`` names the row that does not converge."""
    _check_eps(eps)
    x = np.asarray(x, dtype=float)
    if constraint.kind == "indicator":
        return project(constraint, x)
    rows = np.atleast_2d(x)
    return backward_step(constraint, eps, np.ones(x.shape[-1]), rows, True)[0].reshape(x.shape)


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
        return not self.failing()

    def failing(self):
        """The violations above the tolerance, and the NaN ones."""
        return {k: v for k, v in self.violations.items() if not v <= self.tolerance}


def check_yosida_properties(constraint, eps_list, sample_points):
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

    A violation is the largest over the pairs, NaN if any is NaN; the tolerance
    is TOL_COMPOSITE for an indicator constraint, TOL_GRID otherwise.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    eps_list = tuple(float(e) for e in eps_list)
    for e in eps_list:
        _check_eps(e)
    tolerance = TOL_COMPOSITE if constraint.kind == "indicator" else TOL_GRID

    n, m = pts.shape
    # at most two pair indices, three (pairs, m) and two (pairs,) arrays, or three (n, n)
    need = 8 * max(n * (n - 1) // 2 * (3 * m + 5), 3 * n * n)
    if need > PROPERTY_PAIR_BYTES:
        raise BudgetError(f"the properties check on {n} points in dimension {m} needs about "
                          f"{need} bytes of pair arrays, above PROPERTY_PAIR_BYTES = "
                          f"{PROPERTY_PAIR_BYTES}; use fewer samples")
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

    viol = {k: 0.0 for k in "abcdefg"}

    def worse(k, *found):       # max(viol[k], *found), but a NaN is kept
        for v in found:
            viol[k] = float(np.maximum(v, viol[k]))

    zero = np.zeros(constraint.dim)
    for e in eps_list:
        G, V, J = grads[e], vals[e], resos[e]
        pij = np.atleast_1d(constraint.value(J, feasibility_band=TOL_GEOM))
        pij = np.where(np.isfinite(pij), pij, 0.0)

        worse("a", np.max(np.abs(V - 0.5 * e * np.sum(G * G, -1) - pij)))

        # b: <G_i, v_p - J_i> + Pi(J_i) - Pi(v_p) <= 0
        worse("b", np.max(np.maximum(probes @ G.T - np.sum(J * G, axis=1)[None, :]
                                     + pij[None, :] - probe_vals[:, None], 0.0), initial=0.0))

        g0 = np.linalg.norm(yosida_gradient(constraint, e, zero))
        j0 = np.linalg.norm(resolvent(constraint, e, zero))
        v0 = abs(yosida_value(constraint, e, zero))
        worse("f", g0, j0, v0, np.max(-V, initial=0.0))

        lower = 0.5 * e * np.sum(G * G, -1) - V
        upper = V - np.sum(G * pts, -1)
        worse("g", np.max(lower), np.max(upper))

    # c and d on the pairs i < j: both are symmetric in (i, j) and zero on i == j
    i, j = np.triu_indices(n, 1)
    dx = pts[i] - pts[j]
    dist_x = np.linalg.norm(dx, axis=-1)
    dg = np.empty_like(dx)      # G_i - G_j, reused: (d) reads dg * dx, then (c) dg * dg
    for e, G in grads.items():
        np.subtract(np.take(G, i, axis=0, out=dg), G[j], out=dg)
        worse("d", np.max(-np.sum(np.multiply(dg, dx, out=dg), axis=-1), initial=0.0))
        np.subtract(np.take(G, i, axis=0, out=dg), G[j], out=dg)
        gap = np.sqrt(np.add.reduce(np.square(dg, out=dg), axis=-1))   # as np.linalg.norm
        worse("c", np.max(np.subtract(gap, dist_x / e, out=gap), initial=0.0))
        del gap
    del i, j, dx, dist_x, dg

    for e1 in eps_list:
        for e2 in eps_list:
            G1, G2 = grads[e1], grads[e2]
            a1 = np.sum(G1 * pts, axis=1)
            a2 = np.sum(G2 * pts, axis=1)
            lhs = a1[:, None] - G1 @ pts.T - (G2 @ pts.T).T + a2[None, :]
            lhs += (e1 + e2) * (G1 @ G2.T)
            worse("e", np.max(np.maximum(-lhs, 0.0)))

    return PropertyReport(viol, tolerance, n, eps_list)


# ---------------------------------------------------------------------------
# Normal-cone diagnostics and interior estimates


def normal_cone_residual(constraint, x, u, probes):
    """Residual of the variational inequality <u, v - x> <= 0 over probes.

    Returns +inf when x itself lies outside the set beyond TOL_COMPOSITE; probes
    are expected to be feasible points.
    """
    if not constraint.has_indicator():
        raise ConfigurationError("normal cone checks require an indicator constraint")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if constraint.distance(x) > TOL_COMPOSITE:
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

    For indicator constraints the certificate ball gives (radius, 0, 0).  It
    does not bound the share of ``dk`` that a smooth part adds, so ``smooth``
    and ``sum`` constraints are rejected rather than guessed.
    """
    if constraint.kind != "indicator":
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
