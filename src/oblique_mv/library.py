"""Named example systems selectable from configs and tests.

Each builder returns fully wired objects; declared constants (Lipschitz
bounds, ellipticity band) are part of the definition and are cross-checked
by the validators in :mod:`oblique_mv.dynamics`.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from .control import ControlProblem
from .convexcore import ConvexConstraint
from .dynamics import CoefficientField, CostField, ObliqueField
from .errors import ConfigurationError
from .measures import sq_norms, w2_to_origin
from .mvsolver import System
from .timedep import MovingConstraintProblem


def _finite_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _param_error(default, value):
    """Why ``value`` cannot stand in for a builder default, or None if it can.

    A number default takes a finite number, a tuple default a non-empty
    list of finite numbers, a string default a string."""
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    if isinstance(default, tuple):
        ok = isinstance(value, (list, tuple, np.ndarray)) and len(value) > 0 \
            and all(_finite_number(v) for v in value)
        return None if ok else "a non-empty list of finite numbers"
    return None if _finite_number(value) else "a finite number"


def _build(kind, name, builders, params):
    """Call the builder named ``name`` after checking ``params`` against it.

    Unknown or ill-typed parameters, and values the builder rejects with a
    ``ValueError``, are configuration errors."""
    if name not in builders:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {', '.join(builders)}"
        )
    accepted = inspect.signature(builders[name]).parameters
    unknown = [key for key in params if key not in accepted]
    if unknown:
        raise ConfigurationError(
            f"{kind} {name!r}: unknown parameter {unknown[0]!r}; "
            f"accepted: {', '.join(accepted)}"
        )
    for key, value in params.items():
        expected = _param_error(accepted[key].default, value)
        if expected:
            raise ConfigurationError(
                f"{kind} {name!r}: parameter {key!r} must be {expected}, got {value!r}"
            )
    try:
        return builders[name](**params)
    except ValueError as err:
        raise ConfigurationError(f"{kind} {name!r}: {err}") from err


def make_system(name, **params):
    return _build("system", name, {"example31": _example31, "ou": _reflected_ou,
                                   "linear": _linear, "rbm": _reflected_bm}, params)


def _example31(x0=(0.2, 0.0), radius=1.0):
    """Planar mean-field system with an oscillating diagonal oblique matrix.

    The matrix entries are ``sin(x1) + 5 + cos(w)`` and
    ``exp(cos(x2)) + 4 + min(w, 1)`` with ``w`` the root second moment of
    the ensemble; drift and diffusion are the scalar fields
    ``sqrt(|x|^2 + 5) + w`` and ``exp(min(1, |x|)) + sin(w)`` applied to
    every coordinate.  Constrained to a centered ball, the outward drift
    keeps the reflection active.
    """

    # filled column by column: a broadcast over the short state axis loops per row
    def drift(x, mu):
        w = w2_to_origin(mu)
        out = np.empty(x.shape)
        out[..., 0] = out[..., 1] = np.sqrt(sq_norms(x) + 5.0) + w
        return out

    def diffusion(x, mu):
        w = w2_to_origin(mu)
        c = np.exp(np.minimum(1.0, np.sqrt(sq_norms(x)))) + math.sin(w)
        out = np.empty(x.shape + (1,))
        out[..., 0, 0] = out[..., 1, 0] = c
        return out

    def matrix(x, mu):
        w = w2_to_origin(mu)
        out = np.empty(x.shape)
        out[..., 0] = np.sin(x[..., 0]) + 5.0 + math.cos(w)
        out[..., 1] = np.exp(np.cos(x[..., 1])) + 4.0 + min(w, 1.0)
        return out

    coeffs = CoefficientField(
        drift, diffusion, lipschitz=5.3, state_dim=2, noise_dim=1,
        uses_measure=True, normalized=False,
    )
    oblique = ObliqueField(matrix, a_h=3.0, b_h=5.0 + math.e, dim=2,
                           lipschitz=4.5, diagonal=True)
    constraint = ConvexConstraint.ball(np.zeros(2), radius)
    return System(coeffs, oblique, constraint, np.asarray(x0, dtype=float),
                  label="example31")


def _reflected_ou(theta=1.0, sigma=1.0, x0=0.5):
    """One-dimensional mean-reverting diffusion reflected at the origin."""
    coeffs = CoefficientField(
        lambda x, mu: -theta * x,
        lambda x, mu: np.array([[sigma]]),
        lipschitz=theta, state_dim=1, noise_dim=1,
        uses_measure=False, normalized=False,
    )
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="ou")


def _linear(a=-1.0, b=0.5, c=0.5, x0=1.0):
    """Mean-field linear dynamics: drift couples to the ensemble mean."""
    coeffs = CoefficientField(
        lambda x, mu: a * x + b * mu.mean(),
        lambda x, mu: c * x[..., None],
        lipschitz=abs(a) + abs(b) + abs(c), state_dim=1, noise_dim=1,
        uses_measure=True, normalized=True,
    )
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="linear")


def _reflected_bm(sigma=1.0, x0=0.0):
    """Brownian motion reflected at the origin."""
    coeffs = CoefficientField(
        lambda x, mu: np.zeros_like(x),
        lambda x, mu: np.array([[sigma]]),
        lipschitz=1e-12, state_dim=1, noise_dim=1,
        uses_measure=False, normalized=False,
    )
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="rbm")


def make_control_problem(name, **params):
    return _build("control problem", name, {"two_control": _two_control}, params)


def _two_control(theta=0.5, sigma=0.6, x0=0.4, horizon=(0.0, 1.0),
                 controls=(-1.0, 1.0), ramp=0.25, control_mode="scale",
                 cost_shape="linear"):
    """Two-action steering of a reflected 1-d diffusion.

    In the default ``scale`` mode the control multiplies the state,
    ``drift = (u - theta) x``, so the drift vanishes at the reflecting
    barrier and the smoothing error of the penalized scheme is a clean
    boundary-layer displacement.  ``shift`` mode uses the additive drift
    ``-theta x + u`` instead.  Costs are linear (equal to |x| on the
    constraint set) unless ``cost_shape="abs"``.  The minimizing action
    holds the state near the barrier, keeping the reflection active.
    """
    if control_mode == "scale":
        drift = lambda x, mu, u: (u - theta) * x
        lip = theta + max(abs(c) for c in controls)
    elif control_mode == "shift":
        drift = lambda x, mu, u: -theta * x + u
        lip = theta
    else:
        raise ConfigurationError(f"unknown control_mode {control_mode!r}")
    coeffs = CoefficientField(
        drift,
        lambda x, mu, u: np.array([[sigma]]),
        lipschitz=lip, state_dim=1, noise_dim=1,
        controlled=True, uses_measure=False, normalized=False,
    )
    t0, t1 = horizon
    oblique = ObliqueField(
        lambda t: np.array([[1.0 + ramp * (t - t0)]]),
        a_h=1.0, b_h=1.0 + ramp * (t1 - t0), dim=1,
        time_dependent=True,
        derivative=lambda t: np.array([[ramp]]),
    )
    constraint = ConvexConstraint.half_line()
    system = System(coeffs, oblique, constraint, [x0], label="two_control")
    if cost_shape == "linear":
        running = lambda x, u: x[..., 0]
        terminal = lambda x: x[..., 0]
    elif cost_shape == "abs":
        running = lambda x, u: np.abs(x[..., 0])
        terminal = lambda x: np.abs(x[..., 0])
    else:
        raise ConfigurationError(f"unknown cost_shape {cost_shape!r}")
    costs = CostField(running, terminal, lipschitz=1.0,
                      control_probe=controls[0])
    return ControlProblem(system, costs, tuple(controls), tuple(horizon))


def make_moving_problem(name, **params):
    return _build("moving problem", name, {"moving_interval": _moving_interval}, params)


def _moving_interval(outward=2.0, sigma=0.5, coupling=0.25, x0=0.5,
                     horizon=(0.0, 1.0), growth=1.0):
    """Outward-drifting diffusion on the widening interval [0, 1 + t]."""
    coeffs = CoefficientField(
        lambda x, mu: outward + coupling * w2_to_origin(mu) + 0.0 * x,
        lambda x, mu: np.array([[sigma]]),
        lipschitz=max(coupling, 1e-9), state_dim=1, noise_dim=1,
        uses_measure=True, normalized=False,
    )
    t0, t1 = horizon
    hfield = ObliqueField(
        lambda t: np.array([[1.0 + growth * (t - t0)]]),
        a_h=1.0, b_h=1.0 + growth * (t1 - t0), dim=1,
        time_dependent=True,
        derivative=lambda t: np.array([[growth]]),
    )
    base = ConvexConstraint.box([0.0], [1.0])
    return MovingConstraintProblem(base, hfield, coeffs, [x0], tuple(horizon))


def constraint_from_config(cfg):
    """Build a constraint from a config mapping (see the CLI schema)."""
    kind = cfg.get("kind")

    def key(name):
        if name not in cfg:
            raise ConfigurationError(f"constraint: kind {kind!r} requires key {name!r}")
        return cfg[name]

    if kind == "half-space":
        return ConvexConstraint.half_space(key("normal"), cfg.get("offset", 0.0))
    if kind == "box":
        lower = [-math.inf if v is None else v for v in key("lower")]
        upper = [math.inf if v is None else v for v in key("upper")]
        return ConvexConstraint.box(lower, upper)
    if kind == "ball":
        return ConvexConstraint.ball(key("center"), key("radius"))
    if kind == "intersection":
        return ConvexConstraint.half_space_intersection(key("normals"), key("offsets"))
    if kind == "quadratic":
        weights = np.asarray(cfg.get("weights", [1.0]), dtype=float)
        return ConvexConstraint.smooth(
            lambda z: 0.5 * float(np.sum(weights * z * z)),
            lambda z: weights * z,
            dim=weights.size,
            label="quadratic",
        )
    raise ConfigurationError(f"unknown constraint kind {kind!r}")


_DESCRIPTIONS = {
    "example31": (
        "Planar mean-field system on a centered ball.  The oblique matrix is "
        "diagonal with entries sin(x1)+5+cos(w) and exp(cos(x2))+4+min(w,1), "
        "where w is the ensemble's root second moment; drift and diffusion "
        "apply sqrt(|x|^2+5)+w and exp(min(1,|x|))+sin(w) to each coordinate. "
        "Declared constants: L=5.3, a_H=3, b_H=5+e."
    ),
    "ou": (
        "One-dimensional mean-reverting diffusion (rate theta, volatility "
        "sigma) reflected at the origin with identity oblique matrix. "
        "Declared constants: L=theta, a_H=b_H=1."
    ),
    "linear": (
        "One-dimensional linear mean-field system: drift a*x + b*mean(mu), "
        "diffusion c*x, reflected at the origin.  Coefficients vanish at "
        "(0, delta_0).  Declared constants: L=|a|+|b|+|c|, a_H=b_H=1."
    ),
    "rbm": (
        "Brownian motion reflected at the origin (zero drift, unit "
        "volatility, identity matrix)."
    ),
    "two_control": (
        "Two-action control of a reflected 1-d diffusion: drift (u-theta)*x "
        "with u in {-1, +1}, constant volatility sigma, oblique factor "
        "1+ramp*t, linear running and terminal costs (|x| on the constraint "
        "set).  The optimal action rides the reflecting barrier."
    ),
    "moving_interval": (
        "Outward-drifting diffusion constrained to the widening interval "
        "[0, 1+t]; reduces to a fixed-interval problem with oblique factor "
        "(1+t)^{-2}."
    ),
}


def describe(name):
    if name not in _DESCRIPTIONS:
        known = ", ".join(sorted(_DESCRIPTIONS))
        raise ConfigurationError(f"unknown system {name!r}; available: {known}")
    return f"{name}: {_DESCRIPTIONS[name]}"
