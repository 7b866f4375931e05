"""Empirical measures and exact Wasserstein-2 distances.

The particle systems in this package approximate the law of the state by the
empirical measure of the ensemble.  Distances are exact optimal transport:
sorted quantile matching in one dimension, optimal assignment for equally
weighted clouds of equal size in higher dimension.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError


def sq_norms(x):
    """Squared Euclidean norms of ``x`` over its last axis.

    Adds ``x[..., j] * x[..., j]`` one column at a time, so every addition
    runs along the long axis; a reduction over a short last axis instead
    runs one tiny inner loop per row.  numpy's ``add.reduce`` adds fewer
    than 8 terms left to right, so up to ``m = 7`` the result equals
    ``np.sum(x * x, axis=-1)`` (and its root ``np.linalg.norm(x,
    axis=-1)``) bit for bit; from 8 on numpy sums pairwise and the last
    bits may differ.
    """
    x = np.asarray(x, dtype=float)
    out = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        out += x[..., j] * x[..., j]
    return out


class EmpiricalMeasure:
    """Weighted point cloud on R^m."""

    def __init__(self, atoms, weights=None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ConfigurationError("atoms must form a nonempty (n, m) array")
        # C order makes mean() and the moments independent of the caller's
        # layout: BLAS rounds a strided view and its copy differently
        self.atoms = np.ascontiguousarray(atoms)
        n = atoms.shape[0]
        if weights is None:
            self.weights = np.full(n, 1.0 / n)
            self.uniform = True
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,) or np.any(w < 0):
                raise ConfigurationError("weights must be nonnegative, one per atom")
            total = w.sum()
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError("weights must sum to 1")
            self.weights = w
            self.uniform = bool(np.allclose(w, 1.0 / n, atol=1e-15))

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def size(self):
        return self.atoms.shape[0]

    @cached_property
    def _second_moment(self):
        return float(self.weights @ sq_norms(self.atoms))

    def second_moment(self):
        """Weighted mean squared norm of the atoms."""
        return self._second_moment

    def mean(self):
        """Weighted barycenter of the atoms."""
        return self.weights @ self.atoms

    def translated(self, c):
        return EmpiricalMeasure(self.atoms + np.asarray(c, dtype=float),
                                None if self.uniform else self.weights)

    def to_csv(self, path):
        """One atom per row: weight, then coordinates."""
        header = "weight," + ",".join(f"x{i + 1}" for i in range(self.dim))
        rows = np.column_stack([self.weights, self.atoms])
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def dirac(x):
    """Point mass at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return EmpiricalMeasure(x[None, :])


def w2_to_origin(mu):
    """W2 distance to the point mass at the origin (root second moment)."""
    return float(np.sqrt(mu.second_moment()))


def _w2_1d(xa, wa, xb, wb):
    """Exact 1-d transport cost via the shared-quantile coupling."""
    ia, ib = np.argsort(xa), np.argsort(xb)
    xa, wa = xa[ia], wa[ia]
    xb, wb = xb[ib], wb[ib]
    cost = 0.0
    i = j = 0
    ra, rb = wa[0], wb[0]
    while True:
        delta = min(ra, rb)
        cost += delta * (xa[i] - xb[j]) ** 2
        ra -= delta
        rb -= delta
        if ra <= 1e-16:
            i += 1
            if i >= xa.size:
                break
            ra = wa[i]
        if rb <= 1e-16:
            j += 1
            if j >= xb.size:
                break
            rb = wb[j]
    return float(np.sqrt(max(cost, 0.0)))


def wasserstein2(mu, nu):
    """Exact W2 between empirical measures.

    One-dimensional inputs may carry arbitrary weights; in higher dimension
    both measures must be uniform with the same number of atoms, and the
    optimal coupling is computed by exact assignment on squared distances.
    """
    if mu.dim != nu.dim:
        raise ConfigurationError("measures live on different spaces")
    if mu.dim == 1:
        return _w2_1d(mu.atoms[:, 0], mu.weights, nu.atoms[:, 0], nu.weights)
    if not (mu.uniform and nu.uniform):
        raise ConfigurationError("weighted transport is only supported in 1-d")
    if mu.size != nu.size:
        raise ConfigurationError(
            "multi-dimensional W2 needs equally many atoms on both sides"
        )
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    cost = sq_norms(diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def second_moment_sup(ensemble):
    """Monte-Carlo estimate of E[sup_t |x(t)|^2] over a path ensemble."""
    states = getattr(ensemble, "states", None)
    if states is None:
        states = np.asarray(ensemble, dtype=float)
    if states.size == 0:
        raise ValueError("empty path ensemble")
    return float(np.mean(np.max(sq_norms(states), axis=-1)))
