"""Per-geometry timing of the public one-step oblique Skorohod solve.

Each geometry gets the same 200 points, drawn once from a fixed seed so
the table compares across runs and commits, every point strictly outside
the set (so every call does the correction), each with its own random SPD
matrix of condition number at most 100 (diagonal where the geometry's
fast path needs it).  Every solution is checked against the one-step
contract of acceptance criterion 3.
"""

from __future__ import annotations

import math
import time

import numpy as np

from oblique_mv import ConvexConstraint, oblique_skorohod_step
from oblique_mv.convexcore import project

POINTS = 200
KERNEL_SEED = 2022
MAX_COND = 100.0
FEASIBILITY_TOL = 1e-10
LINEAR_TOL = 1e-10
CONE_TOL = 1e-8


def _polygon(rows):
    angles = 2.0 * math.pi * np.arange(rows) / rows
    return ConvexConstraint.half_space_intersection(
        np.column_stack([np.cos(angles), np.sin(angles)]), -np.ones(rows))


# name -> (constraint, oblique H?).  Every set is planar.  ``box`` and
# ``ball`` take diagonal H, as the bundled systems do; ``polytope`` has 6
# rows (active-set enumeration), ``polytope_dykstra`` 16 (Dykstra path).
GEOMETRIES = {
    "half_space": (ConvexConstraint.half_space([1.0, 0.5], -0.5), True),
    "box": (ConvexConstraint.box([-1.0, -0.5], [1.0, 0.5]), False),
    "box_oblique": (ConvexConstraint.box([-1.0, -0.5], [1.0, 0.5]), True),
    "ball": (ConvexConstraint.ball([0.0, 0.0], 1.0), False),
    "ball_oblique": (ConvexConstraint.ball([0.0, 0.0], 1.0), True),
    "polytope": (_polygon(6), True),
    "polytope_dykstra": (_polygon(16), True),
}


def _spd(rng, m, oblique):
    eigs = np.exp(rng.uniform(0.0, math.log(MAX_COND), m))
    if not oblique:
        return np.diag(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (q * eigs) @ q.T


def _inputs(constraint, oblique, rng):
    m = constraint.dim
    candidates = 3.0 * rng.standard_normal((8 * POINTS, m))
    points = candidates[constraint.distance(candidates) > 1e-3][:POINTS]
    if len(points) < POINTS:
        raise RuntimeError(f"too few points outside {constraint.label}")
    matrices = np.stack([_spd(rng, m, oblique) for _ in range(POINTS)])
    probes = project(constraint, rng.standard_normal((24, m)))
    return points, matrices, probes


def kernel_table():
    """Median microseconds per call for each geometry, and contract checks.

    Returns ``({geometry: us}, {geometry: check})`` where a check holds the
    worst feasibility gap, linear-relation residual and cone residual over
    the points and the number of points that break the contract.
    """
    timings, checks = {}, {}
    for index, (name, (constraint, oblique)) in enumerate(GEOMETRIES.items()):
        rng = np.random.default_rng([KERNEL_SEED, index])
        Y, Hs, probes = _inputs(constraint, oblique, rng)
        oblique_skorohod_step(constraint, Hs[0], Y[0])        # warm-up
        X, DK = np.empty_like(Y), np.empty_like(Y)
        per_call = []
        for i in range(POINTS):
            start = time.perf_counter()
            X[i], DK[i] = oblique_skorohod_step(constraint, Hs[i], Y[i])
            per_call.append(time.perf_counter() - start)
        timings[name] = 1e6 * float(np.median(per_call))
        # The three residuals of acceptance criterion 3, for all points at
        # once; the cone residual is that of convexcore.normal_cone_residual.
        feas = constraint.distance(X)
        lin = np.linalg.norm(X + np.einsum("kij,kj->ki", Hs, DK) - Y, axis=1)
        pairing = np.max(np.einsum("pm,km->kp", probes, DK) - np.sum(X * DK, axis=1)[:, None],
                         axis=1)
        cone = np.maximum(pairing, 0.0) / (1.0 + np.linalg.norm(DK, axis=1))
        broken = (feas > FEASIBILITY_TOL) | (lin > LINEAR_TOL) | (cone > CONE_TOL)
        checks[name] = {"feasibility": float(feas.max()), "linear": float(lin.max()),
                        "cone": float(cone.max()), "failures": int(broken.sum())}
    return timings, checks
