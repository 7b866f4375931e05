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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SpectralError
from .measures import EmpiricalMeasure, dirac, wasserstein2

_SPD_TOL = 1e-9


def _require_symmetric(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.max(np.abs(A))))
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-10 * scale:
        raise SpectralError(f"matrix is not symmetric (residual {asym:.3e})")
    return A


def sqrt_spd(A):
    """Symmetric square root of a symmetric positive-definite matrix."""
    A = _require_symmetric(A)
    vals, vecs = np.linalg.eigh(A)
    if vals[0] <= 0:
        raise SpectralError(f"matrix is not positive definite (eigenvalue {vals[0]:.3e})")
    return (vecs * np.sqrt(vals)) @ vecs.T


def inverse_spd(A):
    """Inverse of a symmetric positive-definite matrix."""
    A = _require_symmetric(A)
    vals, vecs = np.linalg.eigh(A)
    if vals[0] <= 1e-14 * max(abs(vals[-1]), 1.0):
        raise SpectralError(f"matrix is numerically singular (eigenvalue {vals[0]:.3e})")
    return (vecs / vals) @ vecs.T


def _canonical(fn, controlled, time_dependent):
    """Wrap a user callable into the uniform (x, mu, u, t) signature."""
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
        self.uses_measure = uses_measure
        self.normalized = normalized
        self._drift = _canonical(drift, controlled, time_dependent)
        self._diffusion = _canonical(diffusion, controlled, time_dependent)
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
        return np.asarray(self._drift(x, mu, u, t), dtype=float)

    def diffusion(self, x, mu, u=None, t=None):
        return np.asarray(self._diffusion(x, mu, u, t), dtype=float)


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
    """

    def __init__(self, matrix, a_h, b_h, dim, time_dependent=False,
                 derivative=None, lipschitz=None, uses_measure=True, diagonal=False):
        self.matrix = matrix
        self.a_h = float(a_h)
        self.b_h = float(b_h)
        self.dim = int(dim)
        self.time_dependent = time_dependent
        self._derivative = derivative
        self.derivative_is_analytic = derivative is not None
        self.lipschitz = lipschitz
        self.uses_measure = uses_measure
        self.diagonal = diagonal
        if self.a_h <= 0 or self.b_h < self.a_h:
            raise ConfigurationError("need 0 < a_h <= b_h")
        if diagonal and not time_dependent:
            rows = np.zeros((self.dim + 1, self.dim))
            self(rows, EmpiricalMeasure(rows))

    @staticmethod
    def identity(dim):
        return ObliqueField(lambda x, mu, ones=np.ones(dim): ones, 1.0, 1.0, dim,
                            uses_measure=False, diagonal=True)

    def __call__(self, x=None, mu=None, t=None):
        H = np.asarray(self.matrix(t) if self.time_dependent else self.matrix(x, mu),
                       dtype=float)
        if self.diagonal and H.shape not in ((self.dim,), np.shape(x)[:-1] + (self.dim,)):
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

    def max_derivative_norm(self, t0, t1, samples=256):
        """Sampled bound on sup |dH/dt| over [t0, t1]."""
        ts = np.linspace(t0, t1, samples)
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


def default_sampler(state_dim, scale=2.0, atoms=8):
    """Random (state, measure) pairs for validator probing."""

    def sample(rng):
        x = scale * rng.standard_normal(state_dim)
        mu = EmpiricalMeasure(scale * rng.standard_normal((atoms, state_dim)))
        return x, mu

    return sample


def validate_lipschitz(fld, sampler=None, pairs=10_000, seed=0, control=None):
    """Empirical joint Lipschitz estimate against the declared constant."""
    if sampler is None:
        sampler = default_sampler(fld.state_dim)
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = []
    for _ in range(pairs):
        x, mu = sampler(rng)
        y, nu = sampler(rng)
        den = np.linalg.norm(x - y) + wasserstein2(mu, nu)
        if den < 1e-12:
            continue
        df = np.linalg.norm(fld.drift(x, mu, control, 0.0) - fld.drift(y, nu, control, 0.0))
        dg = np.linalg.norm(
            fld.diffusion(x, mu, control, 0.0) - fld.diffusion(y, nu, control, 0.0)
        )
        ratio = (df + dg) / den
        if ratio > worst:
            worst = ratio
        if ratio > fld.lipschitz * (1 + 1e-9):
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
    """Check symmetry, the Rayleigh-quotient band, and Lipschitz continuity."""
    if sampler is None:
        sampler = default_sampler(fld.dim)
    rng = np.random.default_rng(seed)
    lo, hi, asym, lip = np.inf, -np.inf, 0.0, 0.0
    prev = None     # (H, key, inverse of H or None) of the previous sample
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
        H = np.diag(H) if fld.diagonal else H
        asym = max(asym, float(np.max(np.abs(H - H.T))))
        u = rng.standard_normal(fld.dim)
        u /= np.linalg.norm(u)
        q = float(u @ H @ u)
        lo, hi = min(lo, q), max(hi, q)
        symmetric = asym <= 1e-10 * max(1.0, float(np.max(np.abs(H))))
        inv = None
        if prev is not None and symmetric:
            Hp, keyp, inv_p = prev
            if fld.time_dependent:
                den = abs(key - keyp)
            else:
                den = np.linalg.norm(key[0] - keyp[0]) + wasserstein2(key[1], keyp[1])
            if den > 1e-12:
                inv = inverse_spd(H)
                if inv_p is None:
                    inv_p = inverse_spd(Hp)
                dH = np.linalg.norm(H - Hp)
                dHinv = np.linalg.norm(inv - inv_p)
                lip = max(lip, (dH + dHinv) / den)
        prev = (H, key, inv)
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
