"""Empirical measures and exact Wasserstein-2 distances.

The particle systems in this package approximate the law of the state by the
empirical measure of the ensemble.  Distances are exact optimal transport:
sorted quantile matching in one dimension, optimal assignment for equally
weighted clouds of equal size in higher dimension.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=64)
def _uniform_weights(n):
    """``n`` equal weights, one read-only array shared by the measures of ``n`` atoms."""
    w = np.full(n, 1.0 / n)
    w.flags.writeable = False
    return w


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
        self._m2 = None
        if weights is None:
            self.weights = _uniform_weights(n)
            self.uniform = True
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,) or np.any(w < 0):
                raise ConfigurationError("weights must be nonnegative, one per atom")
            total = w.sum()
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError("weights must sum to 1")
            self.weights = w
            self.uniform = bool(np.array_equal(w, _uniform_weights(n)))     # exact

    @property
    def dim(self):
        return self.atoms.shape[1]

    @property
    def size(self):
        return self.atoms.shape[0]

    def second_moment(self):
        """Weighted mean squared norm of the atoms, worked out on the first call."""
        if self._m2 is None:
            self._m2 = float(self.weights @ sq_norms(self.atoms))
        return self._m2

    def mean(self):
        """Weighted barycenter of the atoms."""
        return self.weights @ self.atoms

    def each(self, fn, stat):
        """``fn(stat(self))``: a scalar function of a statistic, as ``MeasureBatch.each``."""
        return fn(stat(self))


class MeasureBatch:
    """``G`` uniform clouds of ``n`` atoms as one ``(G, n, m)`` array, each the law of the
    next ``counts`` state rows (one count, or one per cloud), or of one lone state.  Each
    statistic is that of the cloud's ``EmpiricalMeasure``, bit for bit, once per state row:
    ``mean()`` is ``(rows, m)``, ``second_moment()`` and ``w2_to_origin`` ``(rows,)``."""

    def __init__(self, atoms, counts=None, *, cloud=None, stats=None):
        self.atoms = np.ascontiguousarray(atoms, dtype=float)
        self.cloud = cloud if counts is None else np.repeat(np.arange(len(atoms)), counts)
        self._stats = {} if stats is None else stats     # per cloud, shared by row selections

    def __getitem__(self, clouds):
        return MeasureBatch(self.atoms[clouds])

    def rows(self, rows):
        """The batch for the state ``rows`` (index array, mask or slice), in order."""
        return MeasureBatch(self.atoms, cloud=self.cloud[rows], stats=self._stats)

    def clouds(self):
        """Each cloud as a lone ``EmpiricalMeasure``, made once for all row selections."""
        if "clouds" not in self._stats:
            self._stats["clouds"] = [EmpiricalMeasure(a) for a in self.atoms]
        return self._stats["clouds"]

    def _per_row(self, key, per_cloud):
        if key not in self._stats:
            self._stats[key] = per_cloud(_uniform_weights(self.atoms.shape[1]))
        return self._stats[key] if self.cloud is None else self._stats[key][self.cloud]

    def second_moment(self):
        return self._per_row("m2", lambda w: np.vecdot(sq_norms(self.atoms), w))

    def mean(self):
        return self._per_row("mean", lambda w: w @ self.atoms)

    def each(self, fn, stat):
        """``fn`` of ``stat`` of each cloud, by ``fn`` itself: ``math.sin`` keeps its bits."""
        clouds = MeasureBatch(self.atoms, stats=self._stats)
        return self._per_row((fn, stat), lambda w: np.array([fn(v) for v in stat(clouds).tolist()]))


def dirac(x):
    """Point mass at x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return EmpiricalMeasure(x[None, :])


def w2_to_origin(mu):
    """W2 distance to the point mass at the origin (root second moment), per row of a batch."""
    w = np.sqrt(mu.second_moment())
    return w if isinstance(mu, MeasureBatch) else float(w)


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


# entries of the (pairs, n, n, m) difference array one chunk of a batched W2 may hold
W2_BATCH_ENTRIES = 1 << 22


def wasserstein2(mu, nu):
    """Exact W2 between empirical measures, or between the pairs of two equal-length
    sequences of them or batches of one shape: then an array, one distance per pair.

    One-dimensional inputs may carry arbitrary weights and use the sorted
    quantile coupling; in higher dimension both measures must be uniform with
    the same number of atoms, and the optimal coupling is an exact assignment
    on squared distances.  Uniform pairs of one shape are one stack (``_assignment``,
    in 1-d a column loop), so a pair's distance is the same, bit for bit, in a
    batch as alone.  A batch of thousands of small clouds costs about what
    as many scipy calls did; a batch of one costs much more.
    """
    if isinstance(mu, EmpiricalMeasure):
        return float(wasserstein2([mu], [nu])[0])
    if isinstance(mu, MeasureBatch):
        (pairs, n, m), A, B = mu.atoms.shape, mu.atoms, nu.atoms
        if A.shape != B.shape:
            raise ConfigurationError("W2 batches need clouds of one shape on both sides")
        if m == 1:      # _w2_1d of each pair, bit for bit, one column of sorted atoms a step:
            # float_power squares by the C pow, as ** 2 on a float64 does (np.power multiplies)
            A, B, cost = np.sort(A[..., 0], axis=1), np.sort(B[..., 0], axis=1), np.zeros(pairs)
            for a, b in zip(A.T, B.T):
                cost += (1.0 / n) * np.float_power(a - b, 2.0)
            return np.sqrt(np.maximum(cost, 0.0))
        out = np.empty(pairs)
        chunk = max(1, W2_BATCH_ENTRIES // (n * n * m))
        for s in range(0, pairs, chunk):
            cost = sq_norms(A[s:s + chunk, :, None, :] - B[s:s + chunk, None, :, :])
            matched = np.take_along_axis(cost, _assignment(cost)[..., None], 2)[..., 0]
            # C order: each pair's mean sums its row as one 1-d mean would
            out[s:s + chunk] = np.sqrt(np.ascontiguousarray(matched).mean(axis=1))
        return out
    if len(mu) != len(nu):
        raise ConfigurationError("W2 pairs need equally many measures on both sides")
    out = np.empty(len(mu))
    stacks = {}         # atoms shape -> indices of the pairs solved as one stack
    for k, (a, b) in enumerate(zip(mu, nu)):
        shape = a.atoms.shape
        if shape == b.atoms.shape and a.uniform and b.uniform:
            stacks.setdefault(shape, []).append(k)
        elif a.dim != b.dim:
            raise ConfigurationError("measures live on different spaces")
        elif a.dim == 1:
            out[k] = _w2_1d(a.atoms[:, 0], a.weights, b.atoms[:, 0], b.weights)
        elif not (a.uniform and b.uniform):
            raise ConfigurationError("weighted transport is only supported in 1-d")
        else:
            raise ConfigurationError(
                "multi-dimensional W2 needs equally many atoms on both sides"
            )
    for ks in stacks.values():
        out[ks] = wasserstein2(MeasureBatch([mu[k].atoms for k in ks]),
                               MeasureBatch([nu[k].atoms for k in ks]))
    return out


def _assignment(cost):
    """Optimal assignment of a stack of square cost matrices, ``(pairs, n, n)``:
    ``cols[b, i]`` is the column matched to row ``i`` of problem ``b``.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant
    1987), in the form scipy's ``linear_sum_assignment`` follows (Crouse
    2016): each row in turn starts a Dijkstra search over reduced costs
    that ends at a free column, then the potentials are updated and the
    path is augmented.  Every step runs on all problems at once, those
    whose search has ended masked out, and each problem's arithmetic is its
    own: its answer does not depend on the stack.  Among columns of equal
    path cost a free one wins.  ``ValueError`` on a non-finite cost.
    """
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains invalid numeric entries")
    B, n, _ = cost.shape
    # column-major, as in the ball's Newton solve: every broadcast runs along
    # the long axis of problems, every reduction over the short one of columns
    C = np.ascontiguousarray(cost.transpose(1, 2, 0))       # C[i, j, b]
    u, v = np.zeros((n, B)), np.zeros((n, B))
    col4row = np.full((n, B), -1)
    row4col = np.full((n, B), -1)
    every = np.arange(B)
    for cur in range(n):
        spc = np.full((n, B), np.inf)       # shortest path cost to each column
        path = np.zeros((n, B), dtype=int)  # the row each column is reached from
        SR = np.zeros((n, B), dtype=bool)   # rows and columns the search has scanned
        SC = np.zeros((n, B), dtype=bool)
        row, low, sink = np.full(B, cur), np.zeros(B), np.zeros(B, dtype=int)
        searching = np.ones(B, dtype=bool)
        while searching.any():
            SR[row, every] |= searching
            r = low + np.take_along_axis(C, row[None, None], 0)[0] - u[row, every] - v
            better = (r < spc) & ~SC & searching
            spc = np.where(better, r, spc)
            path = np.where(better, row, path)
            key = np.where(SC, np.inf, spc)
            lowest = key.min(axis=0)
            tie = key == lowest
            free = tie & (row4col < 0)
            j = np.where(free.any(axis=0), free.argmax(axis=0), tie.argmax(axis=0))
            low = np.where(searching, lowest, low)
            SC[j, every] |= searching
            nxt = row4col[j, every]
            done = searching & (nxt < 0)
            sink = np.where(done, j, sink)
            searching &= ~done
            row = np.where(searching, nxt, row)
        SR[cur] = False
        u[cur] += low
        matched = np.take_along_axis(spc, np.maximum(col4row, 0), axis=0)
        u = np.where(SR, u + (low - matched), u)
        v = np.where(SC, v - (low - spc), v)
        j, act = sink, every
        while act.size:
            i = path[j, act]
            row4col[j, act] = i
            j, col4row[i, act] = col4row[i, act], j
            keep = i != cur
            act, j = act[keep], j[keep]
    return col4row.T


def second_moment_sup(ensemble):
    """Monte-Carlo estimate of E[sup_t |x(t)|^2] over a path ensemble."""
    states = getattr(ensemble, "states", None)
    if states is None:
        states = np.asarray(ensemble, dtype=float)
    if states.size == 0:
        raise ValueError("empty path ensemble")
    return float(np.mean(np.max(sq_norms(states), axis=-1)))
