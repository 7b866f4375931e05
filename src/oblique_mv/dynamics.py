"""Coefficient fields, the oblique matrix field, and assumption validators.

Coefficients are callables over (state, measure[, control][, time]) and are
expected to be numpy-vectorized over a leading particle axis.  The control
is a scalar, or a ``(n, 1)`` column with one value per state row when the
simulation engine runs groups under different controls through one
measure-free evaluation; the bundled controlled fields and the reduced
field of :mod:`oblique_mv.timedep` broadcast either.  Validators
probe declared Lipschitz constants and ellipticity bounds statistically;
declared constants are user inputs that are cross-checked, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SpectralError
from .measures import EmpiricalMeasure, dirac, wasserstein2


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


def _norm(a):
    """``np.linalg.norm(a)``, bit for bit: the root of the raveled array's dot with itself."""
    v = a.ravel()
    return math.sqrt(v @ v)


def _constant(a, shape, what):
    """``a`` as a read-only float array of ``shape``, as every step of a run shares it."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    if a.shape != shape:
        raise ConfigurationError(f"constant {what} of shape {a.shape}, not {shape}")
    return a


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
    Normalized fields vanish at (0, delta_0); this is asserted once at
    construction and can be switched off for fields that break the
    convention (several bundled examples do).
    """

    def __init__(self, drift, diffusion, lipschitz, state_dim, noise_dim,
                 controlled=False, time_dependent=False, uses_measure=True,
                 normalized=True, control_probe=None):
        self.lipschitz = float(lipschitz)
        self.state_dim = int(state_dim)
        self.noise_dim = int(noise_dim)
        self.controlled = controlled
        self.time_dependent = time_dependent
        self.normalized = normalized
        self._drift = _canonical(drift, controlled, time_dependent, (self.state_dim,))
        self._diffusion = _canonical(diffusion, controlled, time_dependent,
                                     (self.state_dim, self.noise_dim))
        self.uses_measure = uses_measure and (callable(drift) or callable(diffusion))
        if normalized:
            zero = np.zeros(state_dim)
            mu0 = dirac(zero)
            u = control_probe
            t = 0.0
            f0 = np.linalg.norm(np.asarray(self.drift(zero, mu0, u, t)))
            g0 = np.linalg.norm(np.asarray(self.diffusion(zero, mu0, u, t)))
            if f0 > 1e-12 or g0 > 1e-12:
                raise ConfigurationError(
                    f"coefficients do not vanish at (0, delta_0): |f|={f0:.3e}, |g|={g0:.3e}"
                )

    def drift(self, x, mu, u=None, t=None):
        f = self._drift
        return f if isinstance(f, np.ndarray) else np.asarray(f(x, mu, u, t), dtype=float)

    def diffusion(self, x, mu, u=None, t=None):
        g = self._diffusion
        return g if isinstance(g, np.ndarray) else np.asarray(g(x, mu, u, t), dtype=float)


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
    An array ``matrix`` is ``constant``: read-only, as every step shares it.
    """

    def __init__(self, matrix, a_h, b_h, dim, time_dependent=False,
                 derivative=None, lipschitz=None, uses_measure=True, diagonal=False):
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
                       else self.matrix(x, mu), dtype=float)
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
    """Running and terminal costs with a declared Lipschitz constant."""

    def __init__(self, running, terminal, lipschitz, control_probe=None,
                 normalized=True):
        self.running = running
        self.terminal = terminal
        self.lipschitz = float(lipschitz)
        if normalized:
            b0 = abs(float(np.max(np.atleast_1d(running(np.zeros(1), control_probe)))))
            a0 = abs(float(np.max(np.atleast_1d(terminal(np.zeros(1))))))
            if b0 > 1e-12 or a0 > 1e-12:
                raise ConfigurationError(
                    f"costs do not vanish at the origin: b={b0:.3e}, alpha={a0:.3e}"
                )


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


def default_sampler(state_dim):
    """Random (state, measure) pairs for validator probing: 8 atoms, normal, scale 2."""

    def sample(rng):
        x = 2.0 * rng.standard_normal(state_dim)
        mu = EmpiricalMeasure(2.0 * rng.standard_normal((8, state_dim)))
        return x, mu

    return sample


def validate_lipschitz(fld, sampler=None, pairs=10_000, seed=0, control=None):
    """Empirical joint Lipschitz estimate against the declared constant.

    The pairs are drawn first, in the order the sampler and ``rng`` have
    always been called, and their W2 distances solved as one batch."""
    if sampler is None:
        sampler = default_sampler(fld.state_dim)
    rng = np.random.default_rng(seed)
    draws = [(sampler(rng), sampler(rng)) for _ in range(pairs)]
    w2 = wasserstein2([mu for (_, mu), _ in draws], [nu for _, (_, nu) in draws])
    worst = 0.0
    violations = []
    for ((x, mu), (y, nu)), w in zip(draws, w2):
        den = _norm(x - y) + w
        if den < 1e-12:
            continue
        df = _norm(fld.drift(x, mu, control, 0.0) - fld.drift(y, nu, control, 0.0))
        dg = _norm(fld.diffusion(x, mu, control, 0.0) - fld.diffusion(y, nu, control, 0.0))
        ratio = (df + dg) / den
        if ratio > worst or math.isnan(ratio):      # a NaN estimate stays NaN, and fails
            worst = ratio
        if not ratio <= fld.lipschitz * (1 + 1e-9):
            violations.append((ratio, x.copy(), y.copy()))
    return ValidationReport(
        name="lipschitz",
        passed=not violations,
        estimate=worst,
        declared=fld.lipschitz,
        details={"pairs": pairs},
        violations=violations[:16],
    )


def validate_oblique(fld, sampler=None, samples=2000, seed=0, horizon=None):
    """Check symmetry, the Rayleigh-quotient band, and Lipschitz continuity.

    The samples are drawn and evaluated first, in the order the sampler,
    ``rng`` and the field have always been called; the W2 distances of
    consecutive state samples are then solved as one batch."""
    if sampler is None:
        sampler = default_sampler(fld.dim)
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    Hs, keys = [], []
    for _ in range(samples):
        if fld.time_dependent:
            t0, t1 = horizon if horizon is not None else (0.0, 1.0)
            t = rng.uniform(t0, t1)
            H = fld(t=t)
            key = t
        else:
            x, mu = sampler(rng)
            H = fld(x, mu)
            key = (x, mu)
        u = rng.standard_normal(fld.dim)
        u /= _norm(u)
        q = float((u * H if fld.diagonal else u @ H) @ u)   # u @ diag(H): the same bits
        lo, hi = float(np.minimum(q, lo)), float(np.maximum(q, hi))    # min and max, but NaN stays
        Hs.append(H)
        keys.append(key)
    if fld.diagonal:            # np.diag of each, all at once (+ 0.0: no -0.0 off the diagonal)
        Hs = np.reshape(Hs, (samples, 1, fld.dim)) * np.eye(fld.dim) + 0.0
    Hs = np.reshape(Hs, (samples, fld.dim, fld.dim))
    # the symmetry residual so far, as each sample met it
    so_far = np.maximum.accumulate(np.max(np.abs(Hs - Hs.transpose(0, 2, 1)), axis=(1, 2)))
    asym = float(so_far[-1]) if samples else 0.0
    symmetric = so_far <= 1e-10 * np.maximum(1.0, np.max(np.abs(Hs), axis=(1, 2)))
    # Lipschitz pairs: each sample with the one before it, while all are symmetric
    later = [k for k in range(1, samples) if symmetric[k]]
    if fld.time_dependent:
        dens = [abs(keys[k] - keys[k - 1]) for k in later]
    else:
        w2 = wasserstein2([keys[k][1] for k in later], [keys[k - 1][1] for k in later])
        dens = [_norm(keys[k][0] - keys[k - 1][0]) + w for k, w in zip(later, w2)]
    pairs = [(k, den) for k, den in zip(later, dens) if den > 1e-12]
    # each sample of a pair once, in the order a loop over the pairs meets them
    order = list(dict.fromkeys(j for k, _ in pairs for j in (k, k - 1)))
    inverses = dict(zip(order, _inverses_spd(Hs[order])))
    lip = 0.0
    for k, den in pairs:
        dH = _norm(Hs[k] - Hs[k - 1])
        dHinv = _norm(inverses[k] - inverses[k - 1])
        lip = float(np.maximum((dH + dHinv) / den, lip))
    passed = (
        asym <= 1e-10
        and lo >= fld.a_h - 1e-9
        and hi <= fld.b_h + 1e-9
        and (fld.lipschitz is None or lip <= fld.lipschitz * (1 + 1e-9))
    )
    return ValidationReport(
        name="oblique",
        passed=passed,
        estimate=lip,
        declared=fld.lipschitz,
        details={
            "rayleigh_min": lo,
            "rayleigh_max": hi,
            "symmetry_residual": asym,
            "a_h": fld.a_h,
            "b_h": fld.b_h,
        },
    )
