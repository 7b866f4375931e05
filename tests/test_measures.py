import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_mv import measures
from oblique_mv.errors import ConfigurationError
from oblique_mv.measures import (
    EmpiricalMeasure,
    MeasureBatch,
    _assignment,
    dirac,
    second_moment_sup,
    sq_norms,
    w2_to_origin,
    wasserstein2,
)


def brute_force_w2(a, b):
    """Minimum over all assignments; exact oracle for uniform clouds n <= 6."""
    n = a.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.sum((a - b[list(perm)]) ** 2) / n
        best = min(best, cost)
    return float(np.sqrt(best))


class TestBasics:
    def test_dirac_single_atom(self):
        m = dirac([1.0, 2.0])
        assert m.size == 1 and m.dim == 2
        np.testing.assert_array_equal(m.atoms, [[1.0, 2.0]])
        assert wasserstein2(dirac(0.0), dirac(0.0)) == 0.0

    def test_dirac_distance_is_euclidean(self):
        a, b = np.array([1.0, 2.0]), np.array([4.0, 6.0])
        assert wasserstein2(dirac(a), dirac(b)) == pytest.approx(5.0, abs=1e-14)

    def test_mean_does_not_depend_on_layout(self):
        # a particle-major slice of a time-major buffer, as the engine hands
        # stored paths around; BLAS rounds the strided view and its copy
        # differently unless the measure stores its atoms in C order
        buf = np.random.default_rng(0).standard_normal((255, 7, 2))
        view = buf[:, 3, :]
        copy = np.ascontiguousarray(view)
        a, b = EmpiricalMeasure(view), EmpiricalMeasure(copy)
        assert a.atoms.flags.c_contiguous
        np.testing.assert_array_equal(a.mean(), b.mean())
        assert a.second_moment() == b.second_moment()

    def test_w2_to_origin_examples(self):
        assert w2_to_origin(dirac([3.0, 4.0])) == pytest.approx(5.0)
        assert w2_to_origin(EmpiricalMeasure([[1.0], [-1.0]])) == pytest.approx(1.0)
        assert w2_to_origin(dirac([0.0])) == 0.0

    def test_weights_must_normalize(self):
        with pytest.raises(ConfigurationError):
            EmpiricalMeasure([[0.0], [1.0]], weights=[0.3, 0.3])
        with pytest.raises(ConfigurationError):
            EmpiricalMeasure(np.zeros((0, 1)))

    def test_weights_must_be_nonnegative_one_per_atom(self):
        for weights in ([1.5, -0.5], [1.0], [0.5, 0.25, 0.25]):
            with pytest.raises(ConfigurationError,
                               match="^weights must be nonnegative, one per atom$"):
                EmpiricalMeasure([[0.0], [1.0]], weights=weights)

    def test_a_flat_array_is_atoms_on_the_line(self):
        m = EmpiricalMeasure([0.0, 1.0, 5.0])
        assert m.atoms.shape == (3, 1) and m.dim == 1
        np.testing.assert_array_equal(m.mean(), [2.0])

    def test_mean(self):
        m = EmpiricalMeasure([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_allclose(m.mean(), [1.0, 2.0])


class TestWasserstein:
    def test_measures_on_different_spaces_rejected(self):
        with pytest.raises(ConfigurationError, match="^measures live on different spaces$"):
            wasserstein2(dirac([0.0]), dirac([0.0, 0.0]))

    def test_either_measure_may_run_out_first(self):
        # weights need only sum to 1 within 1e-12: here the second measure's
        # mass is spent while 1e-13 of the first is left, and the coupling
        # stops there
        mu = EmpiricalMeasure([[0.0]], weights=[1.0])
        nu = EmpiricalMeasure([[1.0], [2.0]], weights=[0.5, 0.5 - 1e-13])
        want = math.sqrt(0.5 * 1.0 + (0.5 - 1e-13) * 4.0)
        assert wasserstein2(mu, nu) == wasserstein2(nu, mu) == want

    def test_two_atom_frozen_case(self):
        mu = EmpiricalMeasure([[0.0], [2.0]])
        nu = EmpiricalMeasure([[1.0], [3.0]])
        a, b = mu.atoms, nu.atoms
        assert brute_force_w2(a, b) == pytest.approx(1.0, abs=1e-14)
        assert wasserstein2(mu, nu) == pytest.approx(1.0, abs=1e-14)

    def test_identity(self):
        rng = np.random.default_rng(0)
        mu = EmpiricalMeasure(rng.standard_normal((7, 2)))
        assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_assignment_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = rng.integers(1, 7)
            d = rng.integers(1, 4)
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d))
            got = wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert got == pytest.approx(brute_force_w2(a, b), abs=1e-12)

    def test_sorted_1d_matches_assignment(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = rng.integers(1, 7)
            a = rng.standard_normal((n, 1))
            b = rng.standard_normal((n, 1))
            one_d = wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert one_d == pytest.approx(brute_force_w2(a, b), abs=1e-12)

    def test_weighted_1d_against_atom_splitting(self):
        # rational weights expand into uniform clouds; costs must agree
        rng = np.random.default_rng(3)
        for _ in range(20):
            xa = rng.standard_normal(3)
            xb = rng.standard_normal(2)
            wa = np.array([2, 1, 1]) / 4
            wb = np.array([3, 1]) / 4
            mu = EmpiricalMeasure(xa[:, None], wa)
            nu = EmpiricalMeasure(xb[:, None], wb)
            ua = np.repeat(xa, [2, 1, 1])[:, None]
            ub = np.repeat(xb, [3, 1])[:, None]
            expanded = wasserstein2(EmpiricalMeasure(ua), EmpiricalMeasure(ub))
            assert wasserstein2(mu, nu) == pytest.approx(expanded, abs=1e-12)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            trio = [EmpiricalMeasure(rng.standard_normal((5, 2))) for _ in range(3)]
            mu, nu, rho = trio
            assert wasserstein2(mu, nu) == pytest.approx(wasserstein2(nu, mu), abs=1e-12)
            assert wasserstein2(mu, rho) <= (
                wasserstein2(mu, nu) + wasserstein2(nu, rho) + 1e-10
            )

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        mu = EmpiricalMeasure(rng.standard_normal((6, 2)))
        nu = EmpiricalMeasure(rng.standard_normal((6, 2)))
        c = np.array([3.0, -1.0])
        shifted = wasserstein2(EmpiricalMeasure(mu.atoms + c), EmpiricalMeasure(nu.atoms + c))
        assert shifted == pytest.approx(wasserstein2(mu, nu), abs=1e-12)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            wasserstein2(
                EmpiricalMeasure(np.zeros((3, 2))), EmpiricalMeasure(np.ones((4, 2)))
            )
        with pytest.raises(ConfigurationError):
            wasserstein2(
                EmpiricalMeasure(np.zeros((2, 2)), weights=[0.7, 0.3]),
                EmpiricalMeasure(np.ones((2, 2))),
            )


def scipy_w2(a, b):
    """W2 of two uniform clouds by scipy's assignment, summed as ``wasserstein2`` sums."""
    cost = sq_norms(a[:, None, :] - b[None, :, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean())), cols


class TestBatchedAssignment:
    """The batched shortest-augmenting-path solver against scipy and brute force."""

    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in range(1, 13):
            for d in (2, 3):
                for _ in range(8):
                    a, b = rng.standard_normal((n, d)), rng.standard_normal((n, d))
                    ref, cols = scipy_w2(a, b)
                    cost = sq_norms(a[:, None, :] - b[None, :, :])
                    np.testing.assert_array_equal(_assignment(cost[None])[0], cols)
                    assert wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b)) == ref

    def test_ties_reach_the_optimum(self):
        # duplicate atoms on both sides: many optimal assignments
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            pool = rng.standard_normal((2, 2))
            a = pool[rng.integers(0, 2, n)]
            b = np.vstack([pool[rng.integers(0, 2, n - 1)], pool[:1]])
            got = wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert got == pytest.approx(brute_force_w2(a, b), abs=1e-12)
        same = np.ones((5, 2))
        assert wasserstein2(EmpiricalMeasure(same), EmpiricalMeasure(same)) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_is_value_error(self, bad):
        cost = np.ones((2, 3, 3))
        cost[1, 2, 0] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            _assignment(cost)
        a = np.zeros((3, 2))
        a[1, 0] = bad
        with pytest.raises(ValueError):
            wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(np.ones((3, 2))))

    def test_a_pair_is_the_same_in_a_batch_as_alone(self):
        rng = np.random.default_rng(13)
        shapes = [(8, 2)] * 40 + [(5, 3)] * 7 + [(4, 1)] * 3 + [(1, 2)] * 2
        mus = [EmpiricalMeasure(rng.standard_normal(s)) for s in shapes]
        nus = [EmpiricalMeasure(rng.standard_normal(s)) for s in shapes]
        order = rng.permutation(len(shapes))
        batch = wasserstein2([mus[k] for k in order], [nus[k] for k in order])
        assert batch.shape == (len(shapes),)
        for got, k in zip(batch, order):
            assert got == wasserstein2(mus[k], nus[k])
            if shapes[k][1] > 1:
                assert got == scipy_w2(mus[k].atoms, nus[k].atoms)[0]
        assert wasserstein2([], []).shape == (0,)

    def test_batch_checks_every_pair(self):
        mu = EmpiricalMeasure(np.zeros((3, 2)))
        with pytest.raises(ConfigurationError, match="equally many measures"):
            wasserstein2([mu, mu], [mu])
        with pytest.raises(ConfigurationError, match="equally many atoms"):
            wasserstein2([mu, mu], [mu, EmpiricalMeasure(np.ones((4, 2)))])


class TestSharedWeights:
    def test_uniform_weights_are_shared_and_read_only(self):
        a, b = EmpiricalMeasure(np.zeros((5, 2))), EmpiricalMeasure(np.ones((5, 3)))
        assert a.weights is b.weights and a.uniform
        with pytest.raises(ValueError, match="read-only"):
            a.weights[0] = 1.0
        assert b.weights.tobytes() == np.full(5, 1.0 / 5).tobytes()

    def test_uniform_is_exact(self):
        atoms = np.random.default_rng(0).standard_normal((2, 3, 2))
        for w in (np.full(3, 1 / 3), np.ones(3) / 3, [1 / 3] * 3):
            assert EmpiricalMeasure(atoms[0], w).uniform
        for w in ([0.3333334, 0.3333333, 0.3333333], [0.4, 0.3, 0.3]):
            mu, nu = (EmpiricalMeasure(a, w) for a in atoms)
            assert not mu.uniform
            with pytest.raises(ConfigurationError, match="only supported in 1-d"):
                wasserstein2(mu, nu)
        equal = [EmpiricalMeasure(a, np.full(3, 1 / 3)) for a in atoms]
        assert wasserstein2(*equal) == wasserstein2(*map(EmpiricalMeasure, atoms))

    def test_second_moment_is_the_weighted_sum_worked_out_once(self, monkeypatch):
        calls = []

        def counted(x):
            calls.append(len(x))
            return sq_norms(x)

        monkeypatch.setattr(measures, "sq_norms", counted)
        rng = np.random.default_rng(8)
        for weights in (None, rng.dirichlet(np.ones(9))):
            mu = EmpiricalMeasure(rng.standard_normal((9, 3)), weights)
            calls.clear()
            first, again = mu.second_moment(), mu.second_moment()
            ref = float(mu.weights @ sq_norms(mu.atoms))
            assert np.float64(first).tobytes() == np.float64(ref).tobytes() and again == first
            assert calls == [9]
            assert w2_to_origin(mu) == np.sqrt(first) and calls == [9]


class TestSecondMomentSup:
    def test_constant_path(self):
        states = np.tile([3.0, 4.0], (1, 10, 1))
        assert second_moment_sup(states) == pytest.approx(25.0)

    def test_symmetric_pair(self):
        c = np.array([1.0, 2.0])
        states = np.stack([np.tile(c, (10, 1)), np.tile(-c, (10, 1))])
        assert second_moment_sup(states) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            second_moment_sup(np.zeros((0, 5, 1)))


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e200, -1e200]


@st.composite
def state_arrays(draw, dims):
    """``(n, m)`` rows, C-ordered or the particle-major view of a time-major buffer.

    Values mix normal draws over 40 decades with signed zeros, ``nan``,
    ``+-inf``, the smallest subnormal and ``1e200`` (whose square overflows).
    """
    m = draw(dims)
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3, m)) * 10.0 ** rng.uniform(-20, 20, (n, 3, m))
    specials = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2),
                                       st.integers(0, m - 1),
                                       st.sampled_from(SPECIAL_VALUES)), max_size=8))
    for i, k, j, v in specials:
        x[i, k, j] = v
    if draw(st.booleans()):
        return np.ascontiguousarray(x[:, draw(st.integers(0, 2)), :])
    # a (steps, N, m) buffer read particle-major, as the step loops' paths are
    return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)


class TestSqNorms:
    @settings(max_examples=300)
    @given(state_arrays(st.integers(1, 7)))
    def test_bit_equal_to_numpy_reductions_up_to_seven_columns(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got = sq_norms(x)
            np.testing.assert_array_equal(got, np.sum(x * x, axis=-1), strict=True)
            np.testing.assert_array_equal(np.sqrt(got), np.linalg.norm(x, axis=-1),
                                          strict=True)

    @settings(max_examples=100)
    @given(state_arrays(st.integers(8, 20)))
    def test_close_to_pairwise_sum_from_eight_columns(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            got, ref = sq_norms(x), np.sum(x * x, axis=-1)
        finite = np.isfinite(ref)
        np.testing.assert_array_equal(got[~finite], ref[~finite])
        np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-14, atol=0.0)

    def test_leading_axes_and_single_point(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        np.testing.assert_array_equal(sq_norms(x), np.sum(x * x, axis=-1))
        assert sq_norms(np.array([3.0, 4.0])) == 25.0


class TestMeasureBatch:
    """Each cloud's statistics are those of its lone measure, bit for bit, one per row."""

    @pytest.mark.parametrize("n, m", [(8, 1), (8, 2), (256, 2), (7, 3)])
    def test_statistics_are_the_lone_measures_per_row(self, n, m):
        atoms = 2.0 * np.random.default_rng(n * m).standard_normal((5, n, m))
        counts = [3, 0, 1, 4, 2]
        batch = MeasureBatch(atoms, counts)
        alone = [EmpiricalMeasure(a) for a in atoms]
        per_row = lambda f: np.array([f(mu) for mu, c in zip(alone, counts) for _ in range(c)])
        assert np.array_equal(batch.second_moment(), per_row(EmpiricalMeasure.second_moment))
        assert np.array_equal(batch.mean(), per_row(EmpiricalMeasure.mean))
        assert np.array_equal(w2_to_origin(batch), per_row(w2_to_origin))
        assert np.array_equal(batch.each(math.sin, w2_to_origin),
                              per_row(lambda mu: mu.each(math.sin, w2_to_origin)))
        rows = [0, 3, 4, 9]
        assert np.array_equal(batch.rows(rows).mean(), per_row(EmpiricalMeasure.mean)[rows])
        assert np.array_equal(MeasureBatch(atoms)[1:4].second_moment(),
                              [mu.second_moment() for mu in alone[1:4]])

    def test_each_calls_the_scalar_function_once_per_cloud(self):
        batch = MeasureBatch(np.ones((3, 4, 2)), 5)
        seen = []
        batch.each(lambda w: seen.append(w) or w, w2_to_origin)
        assert seen == [math.sqrt(2.0)] * 3

    @pytest.mark.parametrize("m", [1, 2])
    def test_w2_of_batches_equals_the_pairs(self, m):
        A, B = np.random.default_rng(m).standard_normal((2, 40, 6, m))
        want = wasserstein2([EmpiricalMeasure(a) for a in A], [EmpiricalMeasure(b) for b in B])
        assert np.array_equal(wasserstein2(MeasureBatch(A), MeasureBatch(B)), want)

    @settings(max_examples=150)
    @given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_1d_column_loop_has_the_pair_loop_bits(self, n, pairs, seed):
        # ties, signed zeros, equal atoms, equal clouds and magnitudes from 1e-160 to
        # 1e150 (some squares subnormal): each pair's distance is _w2_1d's, bit for bit
        rng = np.random.default_rng(seed)
        A, B = (rng.standard_normal((pairs, n)) * 10.0 ** rng.uniform(-160, 150, (pairs, n))
                for _ in range(2))
        pool = np.array([0.0, -0.0, 1.5, -2.25, 1e-200])
        for X in (A, B):
            X[rng.random(X.shape) < 0.4] = rng.choice(pool)
        B[0] = A[0]
        w = measures._uniform_weights(n)
        want = np.array([measures._w2_1d(a, w, b, w) for a, b in zip(A, B)])
        got = wasserstein2(MeasureBatch(A[..., None]), MeasureBatch(B[..., None]))
        assert got.tobytes() == want.tobytes()
        pairs_alone = [wasserstein2(EmpiricalMeasure(a), EmpiricalMeasure(b)) for a, b in zip(A, B)]
        assert np.array(pairs_alone).tobytes() == want.tobytes()

    def test_w2_of_batches_of_two_shapes_is_rejected(self):
        with pytest.raises(ConfigurationError, match="clouds of one shape"):
            wasserstein2(MeasureBatch(np.zeros((3, 4, 2))), MeasureBatch(np.zeros((3, 5, 2))))
