import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique_mv.errors import ConfigurationError
from oblique_mv.measures import (
    EmpiricalMeasure,
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

    def test_mean(self):
        m = EmpiricalMeasure([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_allclose(m.mean(), [1.0, 2.0])


class TestWasserstein:
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
        shifted = wasserstein2(mu.translated(c), nu.translated(c))
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

    def test_csv_roundtrip(self, tmp_path):
        m = EmpiricalMeasure([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "atoms.csv"
        m.to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "weight,x1,x2"
        assert len(rows) == 3


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
