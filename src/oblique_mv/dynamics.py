"""Coefficient fields, the oblique matrix field, and assumption validators.

Coefficients are callables over (state, measure[, control][, time]) and are
expected to be numpy-vectorized over a leading particle axis.  The control
is a scalar, or a ``(n, 1)`` column with one value per state row when the
simulation engine runs groups under different controls through one
evaluation; the bundled controlled fields and the reduced field of
:mod:`oblique_mv.timedep` broadcast either.  Validators
probe declared Lipschitz constants and ellipticity bounds statistically;
declared constants are user inputs that are cross-checked, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SpectralError
from .measures import EmpiricalMeasure, MeasureBatch, dirac, wasserstein2


def inverse_spd(A):
    """Inverse of a symmetric positive-definite matrix."""
    return _inverses_spd(np.asarray(A, dtype=float)[None])[0]


def _inverses_spd(As):
    """Inverses of a stack of symmetric positive-definite matrices, by one
    batched ``eigh``; the first matrix that is not one raises ``SpectralError``."""
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise SpectralError(f"expected a square matrix, got shape {As.shape[1:]}")
    scale = np.maximum(1.0, np.max(np.abs(As), axis=(1, 2)))
    asym = np.max(np.abs(As - As.transpose(0, 2, 1)), axis=(1, 2))
    vals, vecs = np.linalg.eigh(As)
    tol = 1e-14 * np.maximum(np.abs(vals[:, -1]), 1.0)
    bad = (asym > 1e-10 * scale) | (vals[:, 0] <= tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        if asym[i] > 1e-10 * scale[i]:
            raise SpectralError(f"matrix is not symmetric (residual {asym[i]:.3e})")
        kind = "not positive definite" if vals[i, 0] < -tol[i] else "numerically singular"
        raise SpectralError(f"matrix is {kind} (eigenvalue {vals[i, 0]:.3e})")
    return (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1)


def _norms(a):
    """``np.linalg.norm`` of each row of ``a``, bit for bit: ``math.sqrt(v @ v)`` of each."""
    v = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt(np.vecdot(v, v))


def _constant(a, shape, what):
    """``a`` as a read-only float array of ``shape``, as every step of a run shares it."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    if a.shape != shape:
        raise ConfigurationError(f"constant {what} of shape {a.shape}, not {shape}")
    return a


def _evaluate(fn, batched, shape, x, mu, u=None, t=None):
    """``fn(x, mu, u, t)`` as an array, ``shape`` per row.  A field not declared ``batched``
    takes a ``MeasureBatch`` (any field an object array of measures) once per cloud, in
    order, as a run of that cloud alone would; the results are shared if all agree."""
    batch = isinstance(mu, MeasureBatch)
    if batch and batched or not (batch or isinstance(mu, np.ndarray)):
        return np.asarray(fn(x, mu, u, t), dtype=float)
    lone = not batch or mu.cloud is None
    clouds = mu.clouds() if batch else mu
    ends = np.arange(len(clouds) + 1)
    ends = ends if lone else np.searchsorted(mu.cloud, ends)
    column = np.ndim(u) > 0
    parts = [(b - a, np.asarray(fn(x[a] if lone else x[a:b], cloud, u[a, 0] if column else u, t),
                                dtype=float)) for cloud, a, b in zip(clouds, ends, ends[1:]) if b > a]
    if not parts:               # no clouds, no rows
        return np.empty((0,) + shape)
    if all(p.shape == shape and np.array_equal(p, parts[0][1]) for _, p in parts):
        return parts[0][1]
    return np.concatenate([np.broadcast_to(p, (n,) + shape) for n, p in parts])


def _canonical(fn, controlled, time_dependent, shape):
    """Wrap a user callable into the uniform (x, mu, u, t) signature; keep an array."""
    if not callable(fn):
        return _constant(fn, shape, "coefficient")
    if controlled and time_dependent:
        return fn
    if controlled:
        return lambda x, mu, u, t: fn(x, mu, u)
    if time_dependent:
        return lambda x, mu, u, t: fn(x, mu, t)
    return lambda x, mu, u, t: fn(x, mu)


class CoefficientField:
    """Drift/diffusion pair with a declared joint Lipschitz constant.

    ``drift`` maps states (n, m) to (n, m); ``diffusion`` maps to (n, m, d).
    Either may be a constant array, ``(m,)`` or ``(m, d)``, read-only and returned as is.
    Normalized fields vanish at (0, delta_0) (``vanishes``): checked at construction,
    or if ``controlled`` by its ``ControlProblem`` under each control; switched off
    for fields that break the convention (several bundled examples do).  ``batched``
    as in ``ObliqueField``.
    """

    def __init__(self, drift, diffusion, lipschitz, state_dim, noise_dim,
                 controlled=False, time_dependent=False, uses_measure=True,
                 normalized=True, batched=False):
        self.lipschitz = float(lipschitz)
        self.batched = batched
        self.state_dim = int(state_dim)
        self.noise_dim = int(noise_dim)
        self.controlled = controlled
        self.time_dependent = time_dependent
        self.normalized = normalized
        self._drift = _canonical(drift, controlled, time_dependent, (self.state_dim,))
        self._diffusion = _canonical(diffusion, controlled, time_dependent,
                                     (self.state_dim, self.noise_dim))
        self.uses_measure = uses_measure and (callable(drift) or callable(diffusion))
        if normalized and not controlled:
            self.vanishes()

    def vanishes(self, u=None):
        """Raise ``ConfigurationError`` unless drift and diffusion vanish at (0, delta_0)
        under the control ``u`` at time 0; the message names a control given."""
        zero = np.zeros(self.state_dim)
        f0, g0 = (np.linalg.norm(np.asarray(c(zero, dirac(zero), u, 0.0)))
                  for c in (self.drift, self.diffusion))
        if not (f0 <= 1e-12 and g0 <= 1e-12):     # a NaN fails too
            under = "" if u is None else f" under control {u!r}"
            raise ConfigurationError(f"coefficients do not vanish at (0, delta_0){under}: "
                                     f"|f|={f0:.3e}, |g|={g0:.3e}")

    def drift(self, x, mu, u=None, t=None):
        f, shape = self._drift, (self.state_dim,)
        return f if isinstance(f, np.ndarray) else _evaluate(f, self.batched, shape, x, mu, u, t)

    def diffusion(self, x, mu, u=None, t=None):
        g, shape = self._diffusion, (self.state_dim, self.noise_dim)
        return g if isinstance(g, np.ndarray) else _evaluate(g, self.batched, shape, x, mu, u, t)


class ObliqueField:
    """Symmetric matrix field distorting the reflection direction.

    Either state/measure dependent, ``H(x, mu)``, or deterministic in time,
    ``H(t)``.  ``a_h`` and ``b_h`` are the declared ellipticity bounds; an
    analytic time derivative can be supplied for the time-dependent case and
    a central difference is used as a flagged fallback.  A ``diagonal`` field
    gives only the diagonal of ``H``, ``(m,)`` or ``(rows, m)`` (other shapes
    raise), in its calls and in the simulation engine's step inputs alike.
    A state-dependent one is called once at construction on ``m + 1`` rows
    at the origin, so a dense ``(m, m)`` return cannot pass for ``m`` rows.
    A projected step calls it only on the rows it corrects, with the whole
    ensemble's measure: a row's matrix may depend only on that row and the measure.
    An array ``matrix`` is ``constant``: read-only, as every step shares it.  A ``batched``
    field takes a ``MeasureBatch`` with the rows of all its clouds and reads it only by
    per-row statistics, a scalar function of one by ``mu.each``; any other is called once
    per cloud (``_evaluate``).
    """

    def __init__(self, matrix, a_h, b_h, dim, time_dependent=False, derivative=None,
                 lipschitz=None, uses_measure=True, diagonal=False, batched=False):
        self.a_h = float(a_h)
        self.b_h = float(b_h)
        self.dim = int(dim)
        self.constant = not callable(matrix)
        if self.constant:
            matrix = _constant(matrix, (self.dim,) * (2 - diagonal), "oblique matrix")
        self.matrix = matrix
        self.time_dependent = time_dependent
        self._derivative = derivative
        self.derivative_is_analytic = derivative is not None
        self.lipschitz = lipschitz
        self.uses_measure = uses_measure and not self.constant
        self.diagonal = diagonal
        self.batched = batched
        if self.a_h <= 0 or self.b_h < self.a_h:
            raise ConfigurationError("need 0 < a_h <= b_h")
        if diagonal and not time_dependent:
            rows = np.zeros((self.dim + 1, self.dim))
            self(rows, EmpiricalMeasure(rows))

    @staticmethod
    def identity(dim):
        return ObliqueField(np.ones(dim), 1.0, 1.0, dim, diagonal=True)

    def __call__(self, x=None, mu=None, t=None):
        H = np.asarray(self.matrix if self.constant else self.matrix(t) if self.time_dependent
                       else _evaluate(lambda x, mu, u, t: self.matrix(x, mu), self.batched,
                                      (self.dim,) * (2 - self.diagonal), x, mu), dtype=float)
        if self.diagonal and H.shape != (self.dim,) and H.shape != np.shape(x)[:-1] + (self.dim,):
            raise ConfigurationError(f"diagonal oblique field returned shape {H.shape}, "
                                     f"not ({self.dim},) or (rows, {self.dim})")
        return H

    def derivative_at(self, t, span=1.0):
        if not self.time_dependent:
            raise ConfigurationError("time derivative only defined for H(t)")
        if self._derivative is not None:
            return np.asarray(self._derivative(t), dtype=float)
        h = 1e-6 * span
        return (self(t=t + h) - self(t=t - h)) / (2 * h)

    def max_derivative_norm(self, t0, t1):
        """Sampled bound on sup |dH/dt| over [t0, t1], from 256 times."""
        ts = np.linspace(t0, t1, 256)
        span = max(t1 - t0, 1e-12)
        return max(float(np.linalg.norm(self.derivative_at(t, span))) for t in ts)


class CostField:
    """Running and terminal costs with a declared Lipschitz constant.  Normalized
    costs vanish at the origin; their ``ControlProblem`` checks it under each control."""

    def __init__(self, running, terminal, lipschitz, normalized=True):
        self.running = running
        self.terminal = terminal
        self.lipschitz = float(lipschitz)
        self.normalized = normalized


# ---------------------------------------------------------------------------
# Validators


@dataclass
class ValidationReport:
    """Outcome of a statistical assumption check."""

    name: str
    passed: bool
    estimate: float
    declared: float | None = None
    details: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)


SAMPLER_SCALE, SAMPLER_ATOMS = 2.0, 8        # default_sampler's, and its draw in _samples
# the slack on symmetry, on the Rayleigh band and (relative) on a declared Lipschitz constant
SYMMETRY_TOL, BAND_TOL, LIPSCHITZ_RTOL = 1e-10, 1e-9, 1e-9


def default_sampler(state_dim):
    """Random (state, measure) pairs for validator probing: normal, times ``SAMPLER_SCALE``."""

    def sample(rng):
        x = SAMPLER_SCALE * rng.standard_normal(state_dim)
        mu = EmpiricalMeasure(SAMPLER_SCALE * rng.standard_normal((SAMPLER_ATOMS, state_dim)))
        return x, mu

    return sample


def _samples(sampler, m, count, rng, probe=False):
    """``count`` samples, with ``probe`` each followed by a direction, in the validators'
    order: states, measures and directions.  ``default_sampler``'s draws are one call and
    its clouds one ``MeasureBatch``; a user sampler's measures are its own, an object array."""
    if sampler is None:         # per sample: the state, the atoms and the direction
        z = rng.standard_normal((count, 1 + SAMPLER_ATOMS + probe, m))
        x, mus = SAMPLER_SCALE * z[:, 0], MeasureBatch(SAMPLER_SCALE * z[:, 1:1 + SAMPLER_ATOMS])
        return x, mus, z[:, 1 + SAMPLER_ATOMS:].reshape(count, m * probe)
    draws = [(*sampler(rng), rng.standard_normal(m * probe)) for _ in range(count)]
    mus = np.array([d[1] for d in draws], dtype=object)
    return (np.reshape([d[0] for d in draws], (count, m)), mus,
            np.reshape([d[2] for d in draws], (count, m * probe)))


def validate_lipschitz(fld, sampler=None, pairs=10_000, seed=0, control=None):
    """Empirical joint Lipschitz estimate against the declared constant.

    The pairs are drawn first (``_samples``), then each field is called once on
    all states and the W2 distances are solved as one batch."""
    X, mus, _ = _samples(sampler, fld.state_dim, 2 * pairs, np.random.default_rng(seed))
    den = _norms(X[0::2] - X[1::2]) + wasserstein2(mus[0::2], mus[1::2])
    df, dg = (_norms(F[0::2] - F[1::2]) for F in (
        np.broadcast_to(fld.drift(X, mus, control, 0.0), X.shape),
        np.broadcast_to(fld.diffusion(X, mus, control, 0.0), X.shape + (fld.noise_dim,))))
    ks = np.flatnonzero(~(den < 1e-12))
    ratios = (df[ks] + dg[ks]) / den[ks]
    violations = [(r, X[2 * k].copy(), X[2 * k + 1].copy()) for k, r in zip(ks, ratios)
                  if not r <= fld.lipschitz * (1 + LIPSCHITZ_RTOL)]
    return ValidationReport(
        name="lipschitz",
        passed=not violations,
        estimate=np.max(ratios, initial=0.0),       # a NaN estimate stays NaN, and fails
        declared=fld.lipschitz,
        details={"pairs": pairs},
        violations=violations[:16],
    )


def validate_oblique(fld, sampler=None, samples=2000, seed=0, horizon=None):
    """Check symmetry, the Rayleigh-quotient band, and Lipschitz continuity; each
    verdict is in ``details["checks"]`` under the name of its ``validate`` mode row.

    The samples are drawn first (``_samples``), then a state field is called once
    on all of them; the W2 distances of consecutive samples are solved as one batch."""
    m, shape = fld.dim, (samples,) + (fld.dim,) * (2 - fld.diagonal)
    rng = np.random.default_rng(seed)
    if fld.time_dependent:
        t0, t1 = horizon if horizon is not None else (0.0, 1.0)
        draws = [(rng.uniform(t0, t1), rng.standard_normal(m)) for _ in range(samples)]
        keys, U = np.array([t for t, _ in draws]), [u for _, u in draws]
        Hs = np.reshape([fld(t=t) for t in keys.tolist()], shape)
    else:
        X, mus, U = _samples(sampler, m, samples, rng, probe=True)
        Hs = np.broadcast_to(fld(X, mus), shape)
    U = np.reshape(U, (samples, m))
    U = U / _norms(U)[:, None]
    # u @ diag(H) @ u and u @ H @ u, each the bits of its own product
    q = np.vecdot(U * Hs if fld.diagonal else (U[:, None] @ Hs)[:, 0], U)
    lo, hi = float(np.min(q, initial=np.inf)), float(np.max(q, initial=-np.inf))  # NaN stays
    if fld.diagonal:            # np.diag of each, all at once (+ 0.0: no -0.0 off the diagonal)
        Hs = Hs[:, None] * np.eye(m) + 0.0
    # the symmetry residual so far, as each sample met it
    so_far = np.maximum.accumulate(np.max(np.abs(Hs - Hs.transpose(0, 2, 1)), axis=(1, 2)))
    asym = float(so_far[-1]) if samples else 0.0
    symmetric = so_far <= SYMMETRY_TOL * np.maximum(1.0, np.max(np.abs(Hs), axis=(1, 2)))
    # Lipschitz pairs: each sample with the one before it, while all are symmetric
    later = np.flatnonzero(symmetric[1:]) + 1
    if fld.time_dependent:
        dens = np.abs(keys[later] - keys[later - 1])
    else:
        dens = _norms(X[later] - X[later - 1]) + wasserstein2(mus[later], mus[later - 1])
    ks, dens = later[dens > 1e-12], dens[dens > 1e-12]
    # each sample of a pair once, in the order a loop over the pairs meets them
    order = list(dict.fromkeys(j for k in ks.tolist() for j in (k, k - 1)))
    inverses = np.empty_like(Hs)
    inverses[order] = _inverses_spd(Hs[order])
    ratios = (_norms(Hs[ks] - Hs[ks - 1]) + _norms(inverses[ks] - inverses[ks - 1])) / dens
    lip = float(np.max(ratios, initial=0.0))
    checks = {"oblique_symmetry": asym <= SYMMETRY_TOL,
              "oblique_band_low": lo >= fld.a_h - BAND_TOL,
              "oblique_band_high": hi <= fld.b_h + BAND_TOL,
              "oblique_lipschitz": (fld.lipschitz is None
                                    or lip <= fld.lipschitz * (1 + LIPSCHITZ_RTOL))}
    return ValidationReport(
        name="oblique",
        passed=all(checks.values()),
        estimate=lip,
        declared=fld.lipschitz,
        details={
            "checks": checks,
            "rayleigh_min": lo,
            "rayleigh_max": hi,
            "symmetry_residual": asym,
            "a_h": fld.a_h,
            "b_h": fld.b_h,
        },
    )
