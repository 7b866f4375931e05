import math
import re

import numpy as np
import pytest

from oblique_mv import library
from oblique_mv.dynamics import (
    CoefficientField,
    ObliqueField,
    ValidationReport,
    default_sampler,
    inverse_spd,
    sqrt_spd,
    validate_lipschitz,
    validate_oblique,
)
from oblique_mv.errors import ConfigurationError, SpectralError
from oblique_mv.measures import EmpiricalMeasure, dirac, wasserstein2


def random_spd(rng, n, cond=100.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(0, np.log(cond), n))
    return (q * vals) @ q.T


class TestSpectral:
    def test_sqrt_identity(self):
        np.testing.assert_array_equal(sqrt_spd(np.eye(3)), np.eye(3))

    def test_sqrt_diagonal(self):
        np.testing.assert_allclose(sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   atol=1e-12)

    def test_sqrt_multiply_back(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            A = random_spd(rng, n, cond=1e6)
            S = sqrt_spd(A)
            assert np.max(np.abs(S - S.T)) <= 1e-9 * np.max(np.abs(S))
            assert np.max(np.abs(S @ S - A)) <= 1e-9 * np.max(np.abs(A))

    def test_inverse_identity_and_diag(self):
        np.testing.assert_array_equal(inverse_spd(np.eye(2)), np.eye(2))
        np.testing.assert_allclose(inverse_spd(np.diag([2.0, 4.0])),
                                   np.diag([0.5, 0.25]), atol=1e-14)

    def test_inverse_multiply_back(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 7):
            A = random_spd(rng, n, cond=1e6)
            assert np.max(np.abs(inverse_spd(A) @ A - np.eye(n))) <= 1e-9 * 1e6

    def test_non_spd_rejected(self):
        with pytest.raises(SpectralError):
            sqrt_spd(np.diag([1.0, -2.0]))
        with pytest.raises(SpectralError):
            sqrt_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(SpectralError):
            inverse_spd(np.zeros((2, 2)))


class TestCoefficientField:
    def test_normalization_asserted(self):
        with pytest.raises(ConfigurationError):
            CoefficientField(lambda x, mu: x + 1.0, lambda x, mu: np.zeros((1, 1)),
                             1.0, 1, 1, normalized=True)
        CoefficientField(lambda x, mu: x, lambda x, mu: x[..., None],
                         1.0, 1, 1, normalized=True)

    def test_identity_field_passes_lipschitz(self):
        fld = CoefficientField(lambda x, mu: x, lambda x, mu: np.zeros(x.shape + (1,)),
                               1.0, 2, 1, normalized=True)
        report = validate_lipschitz(fld, pairs=500, seed=0)
        assert report.passed and report.estimate <= 1.0 + 1e-9

    def test_quadratic_violation_detected(self):
        fld = CoefficientField(lambda x, mu: x * x, lambda x, mu: np.zeros(x.shape + (1,)),
                               1.0, 1, 1, normalized=True)

        def sampler(rng):
            return rng.uniform(-10, 10, 1), EmpiricalMeasure(np.zeros((1, 1)))

        report = validate_lipschitz(fld, sampler=sampler, pairs=2000, seed=0)
        assert not report.passed
        assert report.estimate > 1.0
        assert report.violations

    def test_example31_passes_declared_constants(self):
        sys_ = library.make_system("example31")
        report = validate_lipschitz(sys_.coeffs, pairs=3000, seed=1)
        assert report.passed, (report.estimate, report.declared)


class TestObliqueField:
    def test_identity_band(self):
        fld = ObliqueField.identity(2)
        report = validate_oblique(fld, samples=200, seed=0)
        assert report.passed
        assert report.details["rayleigh_min"] == pytest.approx(1.0, abs=1e-12)
        assert report.details["rayleigh_max"] == pytest.approx(1.0, abs=1e-12)

    def test_example31_band(self):
        sys_ = library.make_system("example31")
        report = validate_oblique(sys_.oblique, samples=2000, seed=2)
        assert report.passed, report.details
        assert report.details["rayleigh_min"] >= 3.0 - 1e-9
        assert report.details["rayleigh_max"] <= 5.0 + math.e + 1e-9

    def test_asymmetry_flagged(self):
        fld = ObliqueField(lambda x, mu: np.array([[1.0, 0.5], [0.0, 1.0]]),
                           0.5, 2.0, 2)
        report = validate_oblique(fld, samples=50, seed=3)
        assert not report.passed
        assert report.details["symmetry_residual"] >= 0.5

    def test_time_derivative_analytic_and_fallback(self):
        fld = ObliqueField(lambda t: np.array([[1.0 + t * t]]), 1.0, 2.0, 1,
                           time_dependent=True,
                           derivative=lambda t: np.array([[2.0 * t]]))
        np.testing.assert_allclose(fld.derivative_at(0.5), [[1.0]])
        assert fld.derivative_is_analytic
        fallback = ObliqueField(lambda t: np.array([[1.0 + t * t]]), 1.0, 2.0, 1,
                                time_dependent=True)
        assert not fallback.derivative_is_analytic
        np.testing.assert_allclose(fallback.derivative_at(0.5), [[1.0]], atol=1e-6)
        assert fld.max_derivative_norm(0.0, 1.0) == pytest.approx(2.0, abs=1e-2)

    def test_declared_diagonal_forms(self):
        ex = library.make_system("example31").oblique
        assert ex.diagonal and ObliqueField.identity(3).diagonal
        x = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.5]])
        mu = EmpiricalMeasure(x)
        assert ex(x, mu).shape == (3, 2) and ex(x[0], mu).shape == (2,)
        np.testing.assert_array_equal(ex(x, mu)[1], ex(x[1], mu))
        np.testing.assert_array_equal(ObliqueField.identity(2)(x, mu), [1.0, 1.0])

    @pytest.mark.parametrize("shape,rows", [((3, 2, 2), 3), ((2, 2), 3), ((4, 2), 3),
                                            ((3,), 3), ((3, 1), 3), ((2, 2), None),
                                            ((1, 2), None)])
    def test_diagonal_of_a_wrong_shape_is_config_error(self, shape, rows):
        # a constant wrong shape is caught by the probe at construction
        x = np.zeros((rows, 2) if rows else 2)
        with pytest.raises(ConfigurationError, match=re.escape(f"shape {shape}")):
            fld = ObliqueField(lambda x, mu: np.ones(shape), 1.0, 1.0, 2, diagonal=True)
            fld(x, dirac(np.zeros(2)))

    def test_diagonal_of_a_wrong_shape_later_is_config_error(self):
        # a return that passes the probe is still checked on every call
        fld = ObliqueField(lambda x, mu: np.ones(x.shape if len(x) == 3 else (4, 2)),
                           1.0, 1.0, 2, diagonal=True)
        with pytest.raises(ConfigurationError, match=re.escape("shape (4, 2)")):
            fld(np.zeros((5, 2)), dirac(np.zeros(2)))

    def test_validate_diagonal_equals_its_dense_twin(self):
        ex = library.make_system("example31").oblique
        twin = ObliqueField(lambda x, mu: np.diag(ex.matrix(x, mu)), ex.a_h, ex.b_h, 2,
                            lipschitz=ex.lipschitz)
        a = validate_oblique(ex, samples=300, seed=4)
        b = validate_oblique(twin, samples=300, seed=4)
        assert a.passed and (a.estimate, a.details) == (b.estimate, b.details)

    def test_band_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            ObliqueField(lambda x, mu: np.eye(1), 2.0, 1.0, 1)


def oracle_validate_oblique(fld, sampler=None, samples=2000, seed=0, horizon=None):
    """``validate_oblique`` inverting both matrices of every Lipschitz pair afresh."""
    if sampler is None:
        sampler = default_sampler(fld.dim)
    rng = np.random.default_rng(seed)
    lo, hi, asym, lip = np.inf, -np.inf, 0.0, 0.0
    prev = None
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
        if fld.diagonal:
            H = np.diag(H)
        asym = max(asym, float(np.max(np.abs(H - H.T))))
        u = rng.standard_normal(fld.dim)
        u /= np.linalg.norm(u)
        q = float(u @ H @ u)
        lo, hi = min(lo, q), max(hi, q)
        symmetric = asym <= 1e-10 * max(1.0, float(np.max(np.abs(H))))
        if prev is not None and symmetric:
            Hp, keyp = prev
            if fld.time_dependent:
                den = abs(key - keyp)
            else:
                den = np.linalg.norm(key[0] - keyp[0]) + wasserstein2(key[1], keyp[1])
            if den > 1e-12:
                dH = np.linalg.norm(H - Hp)
                dHinv = np.linalg.norm(inverse_spd(H) - inverse_spd(Hp))
                lip = max(lip, (dH + dHinv) / den)
        prev = (H, key)
    passed = (
        asym <= 1e-10
        and lo >= fld.a_h - 1e-9
        and hi <= fld.b_h + 1e-9
        and (fld.lipschitz is None or lip <= fld.lipschitz * (1 + 1e-9))
    )
    return ValidationReport(
        name="oblique", passed=passed, estimate=lip, declared=fld.lipschitz,
        details={"rayleigh_min": lo, "rayleigh_max": hi, "symmetry_residual": asym,
                 "a_h": fld.a_h, "b_h": fld.b_h},
    )


def rotating_field():
    """A 2-d ``H(t)``: eigenvalues 1 + t and 2 on axes turning with t."""
    def matrix(t):
        c, s = math.cos(t), math.sin(t)
        q = np.array([[c, -s], [s, c]])
        return (q * [1.0 + t, 2.0]) @ q.T
    return ObliqueField(matrix, a_h=1.0, b_h=2.0, dim=2, time_dependent=True,
                        lipschitz=10.0)


def skew_after(k):
    """Measure-dependent ``H``, symmetric until its ``k``-th call, then skewed."""
    calls = [0]

    def matrix(x, mu):
        calls[0] += 1
        skew = 0.3 if calls[0] > k else 0.0
        a = 3.0 + math.tanh(x[0]) + 0.1 * mu.second_moment()
        return np.array([[a, 0.5 + skew], [0.5, 2.0 + math.cos(x[1])]])
    return ObliqueField(matrix, a_h=0.5, b_h=10.0, dim=2, lipschitz=5.0)


def repeating_sampler(period):
    """The default sampler, but every ``period``-th draw repeats the last one."""
    base, last, count = default_sampler(2), [None], [0]

    def sample(rng):
        count[0] += 1
        if last[0] is None or count[0] % period:
            last[0] = base(rng)
        return last[0]
    return sample


# case -> fresh (field, validator keywords); fields and samplers keep state
ORACLE_CASES = {
    "example31": lambda: (library.make_system("example31").oblique, {}),
    "moving_interval": lambda: (library.make_moving_problem("moving_interval").hfield,
                                {"horizon": (0.0, 1.0)}),
    "rotating": lambda: (rotating_field(), {"horizon": (0.0, 2.0)}),
    "skewed": lambda: (skew_after(150), {}),
    "repeated": lambda: (library.make_system("example31").oblique,
                         {"sampler": repeating_sampler(3)}),
}


class TestValidateObliqueInverses:
    """Each sample's inverse is reused as the next pair's ``H^{-1}``, same numbers."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_report_equals_fresh_inverse_loop(self, case):
        fld, kwargs = ORACLE_CASES[case]()
        got = validate_oblique(fld, samples=300, seed=5, **kwargs)
        fld, kwargs = ORACLE_CASES[case]()
        ref = oracle_validate_oblique(fld, samples=300, seed=5, **kwargs)
        assert got == ref
        assert ref.estimate > 0

    def test_one_inverse_per_sample(self, monkeypatch):
        from oblique_mv import dynamics
        calls = []
        real = dynamics.inverse_spd
        monkeypatch.setattr(dynamics, "inverse_spd", lambda A: calls.append(1) or real(A))
        validate_oblique(library.make_system("example31").oblique, samples=200, seed=1)
        assert len(calls) == 200
