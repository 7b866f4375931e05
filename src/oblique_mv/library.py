"""Named example systems, problems and constraints selectable from configs.

Four tables map a config name to its builder: ``SYSTEMS``,
``CONTROL_PROBLEMS``, ``MOVING_PROBLEMS`` and ``CONSTRAINTS`` (one builder
per constraint ``kind``).  ``_build`` is the one path from a name and its
parameters to an object; ``_checked``, which walks the CLI config too, checks
them.  A problem builder's docstring is its description (``describe``).
Declared constants (Lipschitz bounds, ellipticity band) are part of the
definition and are cross-checked by the validators in
:mod:`oblique_mv.dynamics`.
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

# The schema's types: their Python types, and how an error names each.  From Python,
# a tuple or a numpy array (not 0-d) is a list too, and a numpy number a number.
_TYPES = {"object": (dict, "an object"), "array": ((list, tuple, np.ndarray), "a list"),
          "string": (str, "a string"), "number": (numbers.Real, "a number"),
          "integer": (numbers.Integral, "an integer")}


def _checked(value, schema, path=()):
    """``value`` checked against ``schema``, a JSON Schema with the keywords of
    ``cli.CONFIG_SCHEMA``; returned with every integral float on an integer key
    made an ``int``.

    As under JSON Schema, a bool is never a number and ``2.0`` is an integer; a
    number key also rejects NaN and infinity.  A ConfigurationError names the key
    path, such as ``grid/steps``, and a stray key's lists the keys accepted there.
    """
    kind, need = schema.get("type"), None
    if kind == "integer" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if kind and (isinstance(value, bool) or not isinstance(value, _TYPES[kind][0])
                 or isinstance(value, np.ndarray) and value.ndim == 0):
        need = _TYPES[kind][1]
    elif "enum" in schema and value not in schema["enum"]:
        need = f"one of {schema['enum']}"
    elif kind == "number" and not isinstance(value, numbers.Integral) and not math.isfinite(value):
        need = "a finite number"
    elif "minimum" in schema and value < schema["minimum"]:
        need = f"at least {schema['minimum']}"
    elif "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        need = f"greater than {schema['exclusiveMinimum']}"
    elif kind == "array" and len(value) < schema.get("minItems", 0):
        need = f"a list of {schema['minItems']} or more items"
    if need:
        raise ConfigurationError(f"{'/'.join(path) or 'the config'} must be {need}, got {value!r}")
    if kind == "array":
        return [_checked(v, schema["items"], path + (str(i),)) for i, v in enumerate(value)]
    if kind != "object":
        return value
    props, closed = schema.get("properties", {}), schema.get("additionalProperties") is False
    missing = [key for key in schema.get("required", ()) if key not in value]
    stray = [key for key in value if closed and key not in props]
    if missing or stray:
        why = "is required" if missing else f"is not an accepted key; accepted: {', '.join(props)}"
        raise ConfigurationError(f"{'/'.join(path + ((missing + stray)[0],))} {why}")
    return {k: _checked(v, props[k], path + (k,)) if k in props else v for k, v in value.items()}


# A builder parameter's schema by the type of its default; any other default is a number.
_PARAM_TYPES = {str: {"type": "string"},
                tuple: {"type": "array", "minItems": 1, "items": {"type": "number"}}}


def _param_schema(builder):
    """The schema of ``builder``'s parameters, read off its defaults; a parameter
    without a default is required, and its builder checks its value."""
    params = inspect.signature(builder).parameters
    return {"type": "object", "additionalProperties": False,
            "required": [k for k, p in params.items() if p.default is p.empty],
            "properties": {k: {} if p.default is p.empty else
                           _PARAM_TYPES.get(type(p.default), {"type": "number"})
                           for k, p in params.items()}}


def _lookup(kind, name, builders):
    if not isinstance(name, str) or name not in builders:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; available: {', '.join(builders)}"
        )
    return builders[name]


def _build(kind, name, builders, params):
    """Call the builder named ``name`` after checking ``params`` against it.

    Unknown, missing or ill-typed parameters, and values the builder rejects
    with a ``ValueError`` or ``TypeError``, are configuration errors."""
    builder = _lookup(kind, name, builders)
    try:
        _checked(params, _param_schema(builder))
    except ConfigurationError as err:
        raise ConfigurationError(f"{kind} {name!r}: {err}") from None
    try:
        return builder(**params)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{kind} {name!r}: {err}") from err


def make_system(name, /, **params):
    return _build("system", name, SYSTEMS, params)


def make_control_problem(name, /, **params):
    return _build("control problem", name, CONTROL_PROBLEMS, params)


def make_moving_problem(name, /, **params):
    return _build("moving problem", name, MOVING_PROBLEMS, params)


def constraint_from_config(cfg):
    """Build a constraint from a config mapping: ``kind`` names its builder
    in ``CONSTRAINTS`` and every other key is a parameter of that builder."""
    params = dict(cfg)
    return _build("constraint", params.pop("kind", None), CONSTRAINTS, params)


def describe(name):
    """The docstring of the system or problem builder named ``name``."""
    return inspect.getdoc(_lookup("system", name,
                                  {**SYSTEMS, **CONTROL_PROBLEMS, **MOVING_PROBLEMS}))


def _example31(x0=(0.2, 0.0), radius=1.0):
    """Planar mean-field system on a centered ball with a diagonal oblique matrix.

    The matrix entries are ``sin(x1) + 5 + cos(w)`` and
    ``exp(cos(x2)) + 4 + min(w, 1)`` with ``w`` the root second moment of
    the ensemble; drift and diffusion are the scalar fields
    ``sqrt(|x|^2 + 5) + w`` and ``exp(min(1, |x|)) + sin(w)`` applied to
    every coordinate.  The outward drift keeps the reflection active.

    Declared constants: L=5.3, a_H=3, b_H=5+e, L_H=4.5."""

    # filled column by column: a broadcast over the short state axis loops per row
    def drift(x, mu):
        w = w2_to_origin(mu)
        out = np.empty(x.shape)
        out[..., 0] = out[..., 1] = np.sqrt(sq_norms(x) + 5.0) + w
        return out

    def diffusion(x, mu):
        c = np.exp(np.minimum(1.0, np.sqrt(sq_norms(x)))) + mu.each(math.sin, w2_to_origin)
        out = np.empty(x.shape + (1,))
        out[..., 0, 0] = out[..., 1, 0] = c
        return out

    def matrix(x, mu):
        out = np.empty(x.shape)
        out[..., 0] = np.sin(x[..., 0]) + 5.0 + mu.each(math.cos, w2_to_origin)
        out[..., 1] = np.exp(np.cos(x[..., 1])) + 4.0 + mu.each(lambda w: min(w, 1.0), w2_to_origin)
        return out

    coeffs = CoefficientField(
        drift, diffusion, lipschitz=5.3, state_dim=2, noise_dim=1,
        uses_measure=True, normalized=False, batched=True,
    )
    oblique = ObliqueField(matrix, a_h=3.0, b_h=5.0 + math.e, dim=2,
                           lipschitz=4.5, diagonal=True, batched=True)
    constraint = ConvexConstraint.ball(np.zeros(2), radius)
    return System(coeffs, oblique, constraint, np.asarray(x0, dtype=float),
                  label="example31")


def _reflected_ou(theta=1.0, sigma=1.0, x0=0.5):
    """Mean-reverting diffusion (drift ``-theta x``, volatility ``sigma``) reflected at 0.

    Declared constants: L=theta, a_H=b_H=1."""
    coeffs = CoefficientField(
        lambda x, mu: -theta * x, [[sigma]], lipschitz=theta, state_dim=1, noise_dim=1,
        uses_measure=False, normalized=False,
    )
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="ou")


def _linear(a=-1.0, b=0.5, c=0.5, x0=1.0):
    """Linear mean-field system reflected at 0: drift ``a x + b mean(mu)``, diffusion ``c x``.

    Declared constants: L=|a|+|b|+|c|, a_H=b_H=1.  The coefficients vanish at (0, delta_0)."""
    coeffs = CoefficientField(
        lambda x, mu: a * x + b * mu.mean(),
        lambda x, mu: c * x[..., None],
        lipschitz=abs(a) + abs(b) + abs(c), state_dim=1, noise_dim=1,
        uses_measure=True, normalized=True, batched=True,
    )
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="linear")


def _reflected_bm(sigma=1.0, x0=0.0):
    """Brownian motion with volatility ``sigma`` reflected at the origin.

    Declared constants: L=1e-12 (zero drift), a_H=b_H=1."""
    coeffs = CoefficientField([0.0], [[sigma]], lipschitz=1e-12, state_dim=1, noise_dim=1,
                              normalized=False)
    oblique = ObliqueField.identity(1)
    constraint = ConvexConstraint.half_line()
    return System(coeffs, oblique, constraint, [x0], label="rbm")


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
    holds the state near the barrier, keeping the reflection active.  The
    oblique factor is ``1 + ramp (t - t0)`` on the horizon ``[t0, t1]``.

    Declared constants: L=theta+max|u| (scale) or theta (shift), a_H=1,
    b_H=1+ramp*(t1-t0), cost L=1."""
    if control_mode == "scale":
        drift = lambda x, mu, u: (u - theta) * x
        lip = theta + max(abs(c) for c in controls)
    elif control_mode == "shift":
        drift = lambda x, mu, u: -theta * x + u
        lip = theta
    else:
        raise ConfigurationError(f"unknown control_mode {control_mode!r}")
    coeffs = CoefficientField(
        drift, [[sigma]], lipschitz=lip, state_dim=1, noise_dim=1,
        controlled=True, uses_measure=False, normalized=False,
    )
    t0, t1 = horizon
    oblique = ObliqueField(
        lambda t: np.array([1.0 + ramp * (t - t0)]),
        a_h=1.0, b_h=1.0 + ramp * (t1 - t0), dim=1,
        time_dependent=True, diagonal=True,
        derivative=lambda t: np.array([ramp]),
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
    costs = CostField(running, terminal, lipschitz=1.0)
    return ControlProblem(system, costs, tuple(controls), tuple(horizon))


def _moving_interval(outward=2.0, sigma=0.5, coupling=0.25, x0=0.5,
                     horizon=(0.0, 1.0), growth=1.0):
    """Outward-drifting diffusion on the widening interval [0, 1 + growth (t - t0)].

    The drift is ``outward + coupling w``, with ``w`` the ensemble's root second
    moment.  It reduces to [0, 1] with oblique factor ``(1 + growth (t - t0))^-2``.

    Declared constants: L=max(coupling, 1e-9), a_H=1, b_H=1+growth*(t1-t0)."""
    coeffs = CoefficientField(
        lambda x, mu: (outward + coupling * w2_to_origin(mu) + 0.0 * x[..., 0])[..., None],
        [[sigma]], lipschitz=max(coupling, 1e-9), state_dim=1, noise_dim=1,
        uses_measure=True, normalized=False, batched=True,
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


def _half_space(normal, offset=0.0):
    """The half-space ``{x : <normal, x> >= offset}``; ``offset <= 0``."""
    return ConvexConstraint.half_space(normal, offset)


def _box(lower, upper):
    """The box ``{lower <= x <= upper}``; a null bound is infinite."""
    if isinstance(lower, list):
        lower = [-math.inf if v is None else v for v in lower]
    if isinstance(upper, list):
        upper = [math.inf if v is None else v for v in upper]
    return ConvexConstraint.box(lower, upper)


def _ball(center, radius):
    """The closed ball of ``radius`` about ``center``; it must contain the origin."""
    return ConvexConstraint.ball(center, radius)


def _intersection(normals, offsets):
    """The polytope ``{x : <normals[i], x> >= offsets[i] for all i}``; ``offsets <= 0``."""
    return ConvexConstraint.half_space_intersection(normals, offsets)


def _quadratic(weights=(1.0,)):
    """The smooth function ``sum(weights * z**2) / 2``; ``weights >= 0``."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {list(weights)}")
    return ConvexConstraint.smooth(
        lambda z: 0.5 * float(np.sum(w * z * z)), lambda z: w * z, dim=w.size, label="quadratic"
    )


SYSTEMS = {"example31": _example31, "ou": _reflected_ou, "linear": _linear,
           "rbm": _reflected_bm}
CONTROL_PROBLEMS = {"two_control": _two_control}
MOVING_PROBLEMS = {"moving_interval": _moving_interval}
CONSTRAINTS = {"half-space": _half_space, "box": _box, "ball": _ball,
               "intersection": _intersection, "quadratic": _quadratic}
