"""Particle schemes for mean-field SDEs with obliquely reflected constraints.

Two discretizations of ``f dt + g dB in dx + H dphi(x) dt`` for any convex
``phi`` take one backward step from ``y = x + h f + g dB`` in the metric ``W``
(``convexcore.backward_step``), ``H`` frozen at the step's left endpoint:

* ``simulate_projected``: ``W = H``, ``x = z``: on an indicator, the one-step
  discrete Skorohod correction ``x + H dk = y``, ``dk`` in the normal cone.
* ``simulate_penalized``: Euler on the equation smoothed at level ``eps``,
  backward: ``W = (eps/h) I + H`` gives ``z = J_eps x``, ``x = z + (eps/h) dk``.

``euler_iteration`` repeats the projected scheme with coefficients frozen at
the previous iterate's states, sampled on a dyadic lattice.

All of them run through one step loop, ``_simulate``, whose level ``eps``
names the scheme (``None``: projected, positive: penalized).  It asks an
``inputs(k, X, u)`` callable for each step's coefficients and the set the
step ends in: by default the coefficients at the current states and the
fixed constraint, the frozen ones in ``euler_iteration``, and a moving
interval in :func:`oblique_mv.timedep.simulate_moving_interval`.  On an
indicator the backward step is the ``oblique_step`` of the set's geometry
(:mod:`oblique_mv.convexcore`).  The loop records the states and logs each
step's reflection increment ``dk`` on the rows with a bit set, among
those the step touched; ``PathEnsemble`` derives ``dk`` and the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import convexcore
from .convexcore import ConvexConstraint, interior_constants
from .dynamics import CoefficientField, ObliqueField
from .errors import ConfigurationError, DivergenceError, StepError
from .measures import EmpiricalMeasure, MeasureBatch, sq_norms

BLOWUP_GUARD = 1e8
BATCH_NOISE_BYTES = 32 * 2**20      # increments one batch of replications holds
NOISE_BLOCK = 64                    # streams drawn particle-major before one transposed copy
# numpy's SeedSequence hash (bit_generator.pyx): pool of 4 uint32 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Time grid and noise


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [start, end]."""

    start: float
    end: float
    steps: int

    def __post_init__(self):
        if not self.end > self.start:
            raise ConfigurationError("time grid needs start < end")
        if self.steps < 1:
            raise ConfigurationError("time grid needs at least one step")

    @property
    def h(self):
        return (self.end - self.start) / self.steps

    @property
    def times(self):
        return np.linspace(self.start, self.end, self.steps + 1)

    def dyadic_snap(self, t, level):
        """Largest lattice point 2^-level * k not exceeding t."""
        scale = 2.0**level
        return math.floor(t * scale + 1e-12) / scale

    def snap_index(self, t, level):
        """Index of the last grid node at or before the dyadic snap of t."""
        s = self.dyadic_snap(t, level)
        idx = int(math.floor((s - self.start) / self.h + 1e-9))
        return min(max(idx, 0), self.steps)


def _philox_keys(seed, path, index):
    """``SeedSequence(seed, spawn_key=path + (i,)).generate_state(2, np.uint64)``
    for each ``i`` of ``index`` (below 2**32: one word) as ``(len(index), 2)``;
    numpy's pool of the words before ``i`` mixes in all ``i`` at once.
    """
    index = np.asarray(index)
    if index.size and not 0 <= index.min() <= index.max() <= _MASK32:
        raise ValueError("particle index outside [0, 2**32)")
    size = [max(1, -(-int(n).bit_length() // 32)) for n in (seed, *path)]  # uint32 words
    head = np.random.SeedSequence([seed] + [0] * (4 - size[0]) + list(path))  # seed padded
    pool = np.repeat(head.pool[:, None], index.size, axis=1)
    hashes = 4 * (max(4, size[0]) + sum(size[1:]))       # one hashmix per word and pool slot
    const = _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32
    last = index.astype(np.uint32)
    for row in pool:                 # mix_entropy: hashmix i into every slot
        word = (last ^ const) * (const := const * _MULT_A & _MASK32)
        row[:] = _MIX_MULT_L * row - _MIX_MULT_R * (word ^ word >> 16)
        row ^= row >> 16
    const = _INIT_B
    for row in pool:                 # generate_state
        row ^= const
        row *= (const := const * _MULT_B & _MASK32)
        row ^= row >> 16
    return np.ascontiguousarray(pool.T).astype("<u4").view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based Gaussian streams keyed by (seed, stream path, particle).

    Draws are reproducible regardless of evaluation order or thread
    schedule: particle ``i`` draws the Philox stream of ``SeedSequence(seed,
    spawn_key=path + (i,))``; ``gaussians``, one stream, is ``brownian``'s reference.
    """

    seed: int
    path: tuple = ()

    def for_replication(self, r):
        return NoiseSource(self.seed, self.path + (int(r),))

    def child(self, *tags):
        return NoiseSource(self.seed, self.path + tuple(int(t) for t in tags))

    def gaussians(self, particle, steps, dim):
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=self.path + (int(particle),)
        )
        gen = np.random.Generator(np.random.Philox(ss))
        return gen.standard_normal((steps, dim))

    def brownian(self, particles, steps, dim, h, out=None):
        """Brownian increments, sqrt(h)-scaled, for a whole ensemble.

        Filled into a time-major ``(steps, N, d)`` buffer, ``out`` if given;
        the result is its ``(N, steps, d)`` view, so one step's increments
        are a contiguous row.  One ``Philox``, reset to each stream's fresh
        state (its key, a zero counter, an empty buffer), draws into the rows of
        a particle-major ``NOISE_BLOCK`` block scaled in one transposed copy.
        """
        keys = _philox_keys(self.seed, self.path, np.arange(particles))
        if out is None:
            out = np.empty((steps, particles, dim))
        bits = np.random.Philox(0)
        gen, state = np.random.Generator(bits), bits.state
        block = np.empty((min(NOISE_BLOCK, particles), steps, dim))
        for start in range(0, particles, NOISE_BLOCK):
            n = min(NOISE_BLOCK, particles - start)
            for j in range(n):
                state["state"]["key"] = keys[start + j]
                bits.state = state
                gen.standard_normal(out=block[j])
            np.multiply(block[:n].transpose(1, 0, 2), math.sqrt(h), out=out[:, start:start + n])
        return out.transpose(1, 0, 2)


def _stream_increments(sources, particles, steps, dim, h):
    """Increments of the streams ``sources`` as one ``(S, N, steps, d)`` array.

    A view of a time-major ``(S, steps, N, d)`` buffer that each source's
    draws fill in place: a step's rows of all the streams form one
    ``(S, N, d)`` slab.
    """
    out = np.empty((len(sources), steps, particles, dim))
    for slab, source in zip(out, sources):
        source.brownian(particles, steps, dim, h, out=slab)
    return out.transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------------
# Paths and systems


def _running_sum(rows):
    """Sums of ``rows`` in step order from a zero row, so ``0.0 + -0.0`` is ``+0.0``."""
    out = np.zeros((len(rows) + 1,) + rows.shape[1:])
    for k, row in enumerate(rows):
        np.add(out[k], row, out=out[k + 1])
    return out


@dataclass
class PathEnsemble:
    """Ensemble arrays for one replication of the particle system.

    The step loop records the states time-major, one contiguous row per
    step, and logs each step's reflection increment ``dk`` on the rows it
    corrects: ``dk_log[k]`` is ``(rows, dk[rows])`` for the sorted ``int32``
    indices of the rows whose ``dk`` has a bit set (so ``-0.0`` and NaN
    count); every other row of ``dk`` is ``+0.0``.  ``dk`` and the arrays
    derived from it are worked out on each access.  All the path arrays are
    particle-major views of time-major arrays (so ``reshape`` copies them).
    """

    grid: TimeGrid
    states: np.ndarray        # (N, steps+1, m)
    dk_log: list              # per step (rows, dk[rows]): the rows with a bit set
    increments: np.ndarray    # (N, steps, d)
    system: "System"
    eps: float | None = None
    control: np.ndarray | None = None

    @property
    def particles(self):
        return self.states.shape[0]

    @property
    def scheme(self):
        return "projected" if self.eps is None else "penalized"

    @property
    def dk(self):                 # (N, steps, m), reflection increment of each step
        return self._from_log().transpose(1, 0, 2)

    @property
    def reflection(self):         # (N, steps+1, m), cumulative k
        return _running_sum(self._from_log()).transpose(1, 0, 2)

    @property
    def variation(self):          # (N, steps+1), cumulative total variation
        return _running_sum(np.sqrt(sq_norms(self._from_log()))).T

    @property
    def density(self):            # (N, steps, m), dk / h
        return (self._from_log() / self.grid.h).transpose(1, 0, 2)

    def _from_log(self, fn=None, particle_major=False):
        """``dk`` time-major ``(steps, N, m)``, or particle-major and C-ordered,
        built in one zero buffer with each logged row's ``dk``, or ``fn`` of it."""
        N, _, m = self.states.shape
        out = np.zeros((N, self.grid.steps, m) if particle_major else (self.grid.steps, N, m))
        for k, (rows, values) in enumerate(self.dk_log):
            out[(rows, k) if particle_major else (k, rows)] = values if fn is None else fn(values)
        return out

    def feasibility_gap(self):
        """Largest distance of any recorded state to the constraint set."""
        flat = self.states.transpose(1, 0, 2).reshape(-1, self.states.shape[-1])
        return float(np.max(self.system.constraint.distance(flat)))


@dataclass
class System:
    """Dynamics bundle: coefficients, oblique field, constraint, start point."""

    coeffs: CoefficientField
    oblique: ObliqueField
    constraint: ConvexConstraint
    x0: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        m = self.coeffs.state_dim
        if self.x0.shape != (m,):
            raise ConfigurationError(f"initial state of shape {self.x0.shape}, not ({m},)")
        if self.constraint.dim != m:
            raise ConfigurationError(f"constraint of dimension {self.constraint.dim}, not {m}")
        if self.oblique.dim != m:
            raise ConfigurationError(f"oblique field of dimension {self.oblique.dim}, not {m}")

    @property
    def state_dim(self):
        return self.coeffs.state_dim

    @property
    def noise_dim(self):
        return self.coeffs.noise_dim


# ---------------------------------------------------------------------------
# One-step oblique Skorohod problem


def oblique_skorohod_step(constraint, H, y):
    """Solve x + H dk = y with x in the set and dk in the normal cone at x."""
    if not constraint.has_indicator():
        raise ConfigurationError("Skorohod steps require an indicator constraint")
    X, dK, _ = constraint.geometry.oblique_step(np.asarray(H, dtype=float),
                                                np.asarray(y, dtype=float)[None, :])
    return X[0], dK[0]


# ---------------------------------------------------------------------------
# Simulation engine


def _control_value(control, k):
    """Control at step ``k``: shared (a scalar) or one value per group."""
    if control is None:
        return None
    arr = np.asarray(control)
    if arr.ndim == 0:
        return control
    return arr[k] if arr.ndim == 1 else arr[:, k]


def _gdb(gk, dB, copies=1):
    """``g dB`` on ``copies`` stacked copies of the ``(n, d)`` rows ``dB``: an entrywise
    term on the ``n`` rows, ``(n, m)`` or per row ``(copies, n, m)``; a shared ``(m, d > 1)``
    matrix on all rows, as a product's bits may depend on its row count (one is a gemv)."""
    if gk.ndim not in (2, 3):   # shared (m, d) or per row (copies n, m, d)
        raise ConfigurationError(f"diffusion returned unexpected shape {gk.shape}")
    if gk.ndim == 3 and copies > 1:
        gk = gk.reshape(copies, len(dB), *gk.shape[1:])
    elif gk.shape[-1] > 1 and copies > 1:
        return (np.tile(dB, (copies, 1)) @ gk.T).reshape(copies, len(dB), -1)
    if gk.shape[-2:] == (1, 1) or gk.ndim == 2 and gk.shape[-1] > 1:   # one entry, or shared
        return dB * gk[..., 0] + 0.0 if gk.shape[-1] == 1 else dB @ gk.T
    out = np.empty(gk.shape[:-3] + (len(dB), gk.shape[-2]))   # column by column, in order
    for j in range(gk.shape[-2]):
        col = out[..., j]
        np.multiply(dB[:, 0], gk[..., j, 0], out=col)       # a shared column, or per row
        for l in range(1, gk.shape[-1]):
            col += gk[..., j, l] * dB[:, l]
    out += 0.0                # a zero sum is +0.0, as from a matrix product
    return out


def _shifted(Hk, shift, diagonal=False):
    """``H + shift I``, a function of rows for ``H(rows)``; ``shift`` shared or per row."""
    def matrix(rows):
        H = convexcore._rows_of(Hk, rows, diagonal)
        s = shift if np.ndim(shift) == 0 else shift[rows]
        return H + s if diagonal else H + np.asarray(s)[..., None] * np.eye(H.shape[-1])
    return matrix if callable(Hk) else matrix(slice(None))


def _per_row(values, rows):
    """A per-group scalar or ``(G,)`` array as a ``(G * rows, 1)`` column."""
    if values is None or np.ndim(values) == 0:
        return values
    return np.repeat(values, rows)[:, None]


def _control_rows(control, rows):
    """``at(k)``, step ``k``'s control, asked in step order: one value per group is a
    ``_per_row`` column, built anew only where some group's control changes a bit."""
    if control is None or control.ndim < 2:
        return lambda k: _control_value(control, k)
    raw = np.ascontiguousarray(control).view(np.uint8).reshape(*control.shape, -1)
    changed = np.r_[True, np.any(raw[:, 1:] != raw[:, :-1], axis=(0, 2))].tolist()
    column = None

    def at(k):
        nonlocal column
        if changed[k]:
            column = _per_row(control[:, k], rows)
        return column
    return at


def _coefficients(system, groups=1):
    """``evaluate(X, u, t)``, planned once per run from what ``system`` declares: the
    drift, diffusion and oblique matrix at time ``t`` for a batch of groups.

    ``X`` holds ``groups`` contiguous blocks of rows and ``u`` is the control,
    shared or one value per group (then a ``(rows, 1)`` column).  Each field is called
    once on the batch, with the ``EmpiricalMeasure`` of ``X`` or a ``MeasureBatch`` of
    its groups, which a field not declared ``batched`` takes once per group, exactly
    as a run of that group alone.  Array coefficients are handed on as they are; a
    constant or time-only oblique matrix is an array, any other the function
    ``H(rows)`` of row indices (array, mask or slice): the field on ``X[rows]`` under
    their group's measure, in order.
    """
    coeffs, oblique = system.coeffs, system.oblique
    need_mu = coeffs.uses_measure or (not oblique.time_dependent and oblique.uses_measure)

    def evaluate(X, u, t):
        H = oblique.matrix if oblique.constant else oblique(t=t) if oblique.time_dependent else None
        N = X.shape[0] // groups
        mu = None if not need_mu else EmpiricalMeasure(X) if groups == 1 else \
            MeasureBatch(X.reshape(groups, N, -1), N)
        return (coeffs.drift(X, mu, u, t), coeffs.diffusion(X, mu, u, t), H if H is not None else
                lambda rows: oblique(X[rows], mu.rows(rows) if isinstance(mu, MeasureBatch) else mu))
    return evaluate


class _StateRecorder:
    """A step observer that stores the states time-major, ``(steps + 1, rows, m)``."""

    def __init__(self, grid):
        self.steps = grid.steps

    def start(self, X):
        self.states = np.empty((self.steps + 1,) + X.shape)
        self.states[0] = X

    def step(self, k, X, dk_step, rows):
        self.states[k + 1] = X


class _PathRecorder(_StateRecorder):
    """The default step observer: the states, and each step's ``dk`` logged on
    the rows with a bit set (``PathEnsemble.dk_log``)."""

    def start(self, X):
        super().start(X)
        self.log = []

    def step(self, k, X, dk_step, rows):
        super().step(k, X, dk_step, rows)
        rows = convexcore._set_rows(dk_step, rows)
        self.log.append((rows, dk_step.take(rows, axis=0)))


def _group_logs(log, N, G):
    """Each group's entries of a batch's ``dk`` log, rows relative to the group."""
    if G == 1:
        return [log]
    cuts = [np.searchsorted(rows, N * np.arange(G + 1)) for rows, _ in log]
    return [[(rows[c[g]:c[g + 1]] - g * N, values[c[g]:c[g + 1]])
             for (rows, values), c in zip(log, cuts)] for g in range(G)]


def _constraint_name(c):
    """The geometry's class and any smooth part: ``Ball``, ``Ball + smooth``, ``smooth``."""
    parts = [type(c.geometry).__name__] * c.has_indicator() + ["smooth"] * (c.kind != "indicator")
    return " + ".join(parts)


def _simulate(system, grid, particles, noise, *, eps=None, control=None,
              increments=None, groups=1, observer=None, inputs=None, x0=None):
    """One step loop for ``groups`` independent ensembles of ``particles`` each.

    The groups advance together as one ``(groups * N, m)`` array, group g
    in rows ``g N .. (g+1) N``; each has its own penalization level
    (``eps``, shared or one per group; ``None`` runs the projected scheme),
    its own control (``None``, a scalar, one value per step, or one row of
    such values per group) and its own empirical measure.
    ``increments`` is ``(N, steps, d)``, shared by all groups, or
    ``(R, N, steps, d)`` with group g driven by replication ``g % R`` (a state-free
    noise term is formed once, on the ``R N`` rows, for the ``G / R`` variants).
    Every group starts at ``system.x0``, or at its own row of a ``(groups,
    m)`` array ``x0``.

    ``inputs(k, X, u)`` gives step ``k``'s drift, diffusion, oblique matrix
    (in the form ``system.oblique`` declares: dense, or its diagonal) and
    the constraint the step ends in.  The matrix is an array or ``H(rows)``,
    which the Skorohod step calls only on the rows it corrects, with the whole
    ensemble's measure: a row's matrix may depend only on that row and the
    measure.  The default evaluates
    ``_coefficients`` on ``X`` and keeps ``system.constraint``.  Frozen
    coefficients (``euler_iteration``) and moving sets
    (``timedep.simulate_moving_interval``) are other ``inputs``.

    A penalized run forms ``H + (eps/h) I`` anew only when ``H`` is not the
    previous step's object: once per run for a constant field.  Every step
    is handed to ``observer`` (``start(X)``, then ``step(k, X, dk, rows)``,
    ``rows`` the sorted rows the step touched, a superset of those where a
    bit of ``dk`` is set, or ``None`` for all), which is returned.  Without
    one the paths are recorded and returned as a list of one
    ``PathEnsemble`` per group, each with its rows of the batch's ``dk``
    log, indexed within the group.
    """
    d = system.noise_dim
    steps, h, times = grid.steps, grid.h, grid.times
    N, G = int(particles), int(groups)
    if eps is not None and not np.all(np.asarray(eps) > 0):
        raise ValueError(f"penalization parameter must be positive, got {eps}")
    if inputs is None:
        evaluate = _coefficients(system, G)

        def inputs(k, X, u):
            return (*evaluate(X, u, times[k]), system.constraint)

    if increments is None:
        increments = noise.brownian(N, steps, d, h)
    reps = 1 if increments.ndim == 3 else increments.shape[0]
    if increments.shape[-3:] != (N, steps, d) or G % reps:
        raise ConfigurationError(
            f"increments shape {increments.shape} does not match (N, steps, d) "
            f"for {G} groups"
        )
    inc, variants = increments if increments.ndim == 4 else increments[None], G // reps
    shift = None if eps is None else _per_row(eps, N) / h
    control = None if control is None else np.asarray(control)
    control_at = _control_rows(control, N)

    if x0 is None:
        X = np.tile(system.x0, (N * G, 1))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (G, system.state_dim):
            raise ConfigurationError(
                f"start points of shape {x0.shape} do not match (groups, m) = "
                f"({G}, {system.state_dim})"
            )
        X = np.repeat(x0, N, axis=0)
    watch = _PathRecorder(grid) if observer is None else observer
    watch.start(X)
    Hk = None
    for k in range(steps):
        H_last, (fk, gk, Hk, constraint) = Hk, inputs(k, X, control_at(k))
        gdb = _gdb(gk, inc[:, :, k, :].reshape(-1, d), variants)    # (R N, m) or (G/R, R N, m)
        Y = ((X + h * fk).reshape(variants, -1, X.shape[1]) + gdb).reshape(X.shape)
        if Hk is not H_last:
            Hs = Hk if eps is None else _shifted(Hk, shift, system.oblique.diagonal)
        try:
            X, dk, rows = convexcore.backward_step(constraint, h, Hs, Y, system.oblique.diagonal)
        except StepError as err:
            g, i = divmod(err.row, N)
            raise StepError(f"step {k}: {_constraint_name(constraint)}, group {g}, "
                            f"particle {i}: {err}", residual=err.residual, row=err.row) from err
        if eps is not None:
            X = X + shift * dk          # x = J_eps x + (eps/h) dk = Y - H dk

        if not (X.max() <= BLOWUP_GUARD and X.min() >= -BLOWUP_GUARD):    # also for NaN
            g, i = divmod(int(np.argmin(np.all(np.abs(X) <= BLOWUP_GUARD, axis=1))), N)
            raise DivergenceError(
                f"state magnitude exceeded {BLOWUP_GUARD:g} or is not finite "
                f"at step {k}, group {g}, particle {i}", step=k, group=g, particle=i
            )
        watch.step(k, X, dk, rows)

    if observer is not None:
        return observer
    ensembles = []
    for g, log in enumerate(_group_logs(watch.log, N, G)):
        rows = slice(g * N, (g + 1) * N)
        ensembles.append(PathEnsemble(
            grid=grid, states=watch.states[:, rows].transpose(1, 0, 2), dk_log=log,
            increments=increments if increments.ndim == 3 else increments[g % reps],
            system=system, eps=eps if np.ndim(eps) == 0 else float(eps[g]),
            control=control if control is None or control.ndim < 2 else control[g],
        ))
    return ensembles


def _stream_batches(system, grid, particles, streams, *, observer=None,
                    variants=1, eps=None, control=None, x0=None, draw=None):
    """The one runner of independent ensembles: yields ``(chunk, run)`` per batch.

    ``streams`` go in chunks (slices) whose increments on the ``draw`` grid
    (default: ``grid``) fit ``BATCH_NOISE_BYTES``.  Each chunk is drawn once
    and runs, on the last ``grid.steps`` steps of ``draw``, as one
    ``_simulate`` batch of groups ordered (variant, stream): ``eps`` shared
    or one per variant, ``control`` shared or one row per variant, ``x0``
    ``(variants, streams, m)``, and a fresh ``observer()`` if given.
    """
    S, N, d = len(streams), int(particles), system.noise_dim
    draw = grid if draw is None else draw
    per = max(1, BATCH_NOISE_BYTES // (8 * N * draw.steps * d))
    for start in range(0, S, per):
        chunk = slice(start, min(start + per, S))
        C = chunk.stop - start
        inc = _stream_increments(streams[chunk], N, draw.steps, d, draw.h)
        yield chunk, _simulate(
            system, grid, N, None,
            eps=eps if np.ndim(eps) == 0 else np.repeat(eps, C),
            control=control if np.ndim(control) < 2 else np.repeat(control, C, axis=0),
            increments=inc[:, :, draw.steps - grid.steps:], groups=variants * C,
            x0=None if x0 is None else x0[:, chunk].reshape(-1, system.state_dim),
            observer=None if observer is None else observer(),
        )


def simulate_penalized(system, eps, grid, particles, noise, control=None,
                       increments=None):
    """Penalized Euler at level eps: the backward step in the metric ``(eps/h) I + H``."""
    if eps is None:
        raise ValueError("penalization parameter must be positive, got None")
    return _simulate(system, grid, particles, noise, eps=eps, control=control,
                     increments=increments)[0]


def simulate_projected(system, grid, particles, noise, control=None,
                       increments=None):
    """Projected Euler: the backward step in the metric ``H`` (on a set, the Skorohod step)."""
    return _simulate(system, grid, particles, noise, control=control,
                     increments=increments)[0]


def euler_iteration(system, level, iterations, grid, particles, noise,
                    control=None):
    """Frozen-coefficient iteration of the projected scheme.

    Each pass re-solves the projected scheme with drift, diffusion, and the
    oblique matrix evaluated on the previous iterate at the dyadic snap
    (level ``level``) of each step's left endpoint.  The zeroth iterate is
    the constant path at the start point, so the first pass freezes
    coefficients at the initial state and its point mass.  All passes share
    one set of Brownian increments.

    Returns the list of iterates and the root-mean-square sup-distances
    between consecutive iterates.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")
    N = int(particles)
    increments = noise.brownian(N, grid.steps, system.noise_dim, grid.h)
    times = grid.times
    snaps = [grid.snap_index(t, level) for t in times[:-1]]
    prev = np.broadcast_to(system.x0, (N, grid.steps + 1, system.state_dim))
    evaluate = _coefficients(system)

    def frozen(k, X, u):
        return (*evaluate(prev[:, snaps[k], :], u, times[k]), system.constraint)

    iterates = []
    distances = []
    for _ in range(iterations):
        ens = _simulate(system, grid, N, noise, control=control, increments=increments,
                        inputs=frozen)[0]
        if iterates:
            gap = np.sqrt(np.max(sq_norms(ens.states - iterates[-1].states), axis=1))
            distances.append(float(np.sqrt(np.mean(gap**2))))
        iterates.append(ens)
        prev = ens.states
    return iterates, distances


# ---------------------------------------------------------------------------
# Solution diagnostics


@dataclass
class SolutionDiagnostics:
    """Residuals of the defining properties of a constrained solution."""

    equation_residual: float
    feasibility_gap: float
    inequality_residual: float
    details: dict = field(default_factory=dict)


def residual_report(ensemble, system, probes=(), shifts=()):
    """Check a simulated ensemble against the solution clauses.

    Reports (1) the worst subdifferential-inequality residual over constant
    probe paths and shifted copies of the path itself, (2) the worst
    distance of any state to the constraint domain, and (3) the worst
    equation residual obtained by re-integrating drift, noise, and oblique
    reflection from the recorded path.  (1) reads the constraint within
    ``max((2) * (1 + 1e-9), TOL_GEOM)`` of the set.
    """
    grid = ensemble.grid
    h = grid.h
    times = grid.times
    N, steps = ensemble.particles, grid.steps
    m = system.state_dim
    dK = ensemble._from_log(lambda v: v / h * h, particle_major=True)   # density * h

    feas = ensemble.feasibility_gap()
    band = max(feas * (1 + 1e-9), convexcore.TOL_GEOM)

    residual = np.zeros((N, m))
    eq_worst = 0.0      # np.maximum(new, old): max(old, new), but a NaN is kept
    evaluate = _coefficients(system)
    for k in range(steps):
        fk, gk, Hk = evaluate(ensemble.states[:, k, :], _control_value(ensemble.control, k),
                              times[k])
        Hdk = convexcore._times(Hk, dK[:, k, :], system.oblique.diagonal)
        residual = residual + Hdk - h * fk - _gdb(gk, ensemble.increments[:, k, :])
        node_res = ensemble.states[:, k + 1, :] - ensemble.states[:, 0, :] + residual
        eq_worst = float(np.maximum(np.max(np.sqrt(sq_norms(node_res))), eq_worst))

    # subdifferential inequality against probe paths.  The sums over time
    # run on C-ordered (N, steps, ...) arrays, so their summation order, and
    # hence every bit of the result, does not depend on the path layout.
    post = ensemble.states[:, 1:, :]
    post_tm = ensemble.states.transpose(1, 0, 2)[1:]    # no copy for time-major paths
    pi_x = np.asarray(system.constraint.value(
        post_tm.reshape(-1, m), feasibility_band=band)).reshape(steps, N)
    x_term = h * np.sum(np.ascontiguousarray(pi_x.T), axis=1)
    ineq = -np.inf
    probe_paths = [np.broadcast_to(np.asarray(p, dtype=float), (steps, m))
                   for p in probes]
    probe_paths += [post[i] + np.asarray(s, dtype=float)
                    for s in shifts for i in range(N)]
    for y in probe_paths:
        pi_y = np.asarray(system.constraint.value(
            np.asarray(y).reshape(-1, m), feasibility_band=band)).reshape(steps)
        if not np.all(np.isfinite(pi_y)):
            continue
        pairing = np.einsum("nkm,nkm->n", np.subtract(y[None, :, :], post, order="C"), dK)
        value = pairing + x_term - h * np.sum(pi_y)
        ineq = float(np.maximum(np.max(value), ineq))

    return SolutionDiagnostics(
        equation_residual=eq_worst,
        feasibility_gap=feas,
        inequality_residual=ineq,
        details={"probes": len(probe_paths), "band": band},
    )


def interior_reflection_margin(ensemble, cert, constants=None):
    """Worst-subinterval margin of the interior reflection inequality.

    For every particle and every grid subinterval the accumulated
    ``<x - a, dk>`` must dominate ``l1 * variation - l2 * int |x - a| -
    l3 * dt``; the minimum margin over all windows is returned (negative
    means a violation).
    """
    if constants is None:
        constants = interior_constants(ensemble.system.constraint, cert)
    l1, l2, l3 = constants
    a = np.asarray(cert.anchor, dtype=float)
    h = ensemble.grid.h
    post = ensemble.states[:, 1:, :] - a
    dK = ensemble._from_log(lambda v: v / h * h).transpose(1, 0, 2)     # density * h
    terms = (
        np.einsum("nkm,nkm->nk", post, dK)
        - l1 * np.sqrt(sq_norms(dK))
        + l2 * np.sqrt(sq_norms(post)) * h
        + l3 * h
    )
    prefix = np.concatenate(
        [np.zeros((terms.shape[0], 1)), np.cumsum(terms, axis=1)], axis=1
    )
    runmax = np.maximum.accumulate(prefix[:, :-1], axis=1)
    margins = prefix[:, 1:] - runmax
    return float(np.min(margins))
