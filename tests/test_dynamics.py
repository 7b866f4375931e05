import math
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from oblique_mv import library
from oblique_mv.dynamics import (
    CoefficientField,
    ObliqueField,
    ValidationReport,
    _inverses_spd,
    default_sampler,
    inverse_spd,
    validate_lipschitz,
    validate_oblique,
)
from oblique_mv.errors import ConfigurationError, SpectralError
from oblique_mv.measures import EmpiricalMeasure, MeasureBatch, dirac, sq_norms, wasserstein2
from oblique_mv.timedep import CORRECTIONS, reduce_time_dependent


def random_spd(rng, n, cond=100.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(0, np.log(cond), n))
    return (q * vals) @ q.T


class TestSpectral:
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
        with pytest.raises(SpectralError,
                           match=r"^matrix is not positive definite \(eigenvalue -2\.000e\+00\)$"):
            inverse_spd(np.diag([1.0, -2.0]))
        with pytest.raises(SpectralError, match="not symmetric"):
            inverse_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(SpectralError, match=r"^matrix is numerically singular \(eigenvalue"):
            inverse_spd(np.zeros((2, 2)))
        with pytest.raises(SpectralError, match=r"^matrix is numerically singular \(eigenvalue"):
            inverse_spd(np.diag([1.0, -1e-20]))

    def test_non_square_stack_rejected(self):
        with pytest.raises(SpectralError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            _inverses_spd(np.zeros((4, 2, 3)))
        with pytest.raises(SpectralError, match=r"^expected a square matrix, got shape \(2,\)$"):
            _inverses_spd(np.eye(2))


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

    def test_a_nan_drift_fails(self):
        # NaN where |x| > 3: a NaN ratio compares false with any bound, so the
        # check must see the NaN itself
        fld = CoefficientField(lambda x, mu: np.where(np.abs(x) > 3, np.nan, 0.5 * x),
                               lambda x, mu: np.zeros(x.shape + (1,)), 1.0, 1, 1)
        report = validate_lipschitz(fld, pairs=500, seed=0)
        assert not report.passed and math.isnan(report.estimate)
        assert report.violations and all(math.isnan(r) for r, _, _ in report.violations)
        finite = CoefficientField(lambda x, mu: 0.5 * x, lambda x, mu: np.zeros(x.shape + (1,)),
                                  1.0, 1, 1)
        assert validate_lipschitz(finite, pairs=500, seed=0).passed

    def test_coincident_pairs_are_skipped(self):
        # every draw is the same state and measure: no pair has a distance to divide by
        fld = CoefficientField(lambda x, mu: 0.5 * x, lambda x, mu: np.zeros(x.shape + (1,)),
                               1.0, 1, 1)
        report = validate_lipschitz(fld, sampler=lambda rng: (np.ones(1), dirac([1.0])),
                                    pairs=20)
        assert report.passed and report.estimate == 0.0 and not report.violations

    def test_example31_passes_declared_constants(self):
        sys_ = library.make_system("example31")
        report = validate_lipschitz(sys_.coeffs, pairs=3000, seed=1)
        assert report.passed, (report.estimate, report.declared)

    def test_array_coefficients_are_read_only_copies_returned_by_every_call(self):
        drift, diffusion = np.array([0.0, 0.7]), [[0.5], [0.3]]
        fld = CoefficientField(drift, diffusion, 1.0, 2, 1, normalized=False)
        drift[1] = 9.0                      # the field holds its own copy
        x = np.ones((4, 2))
        f, g = fld.drift(x, None), fld.diffusion(x, EmpiricalMeasure(x), 1.0, 0.5)
        assert f is fld.drift(x[:1], dirac(np.zeros(2)), -1.0, 0.0)
        assert g is fld.diffusion(x[:2], None)
        assert f.tolist() == [0.0, 0.7] and g.tolist() == diffusion
        assert not fld.uses_measure
        for arr in (f, g):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_one_array_coefficient_keeps_the_declared_measure_use(self):
        fld = CoefficientField(lambda x, mu: x - mu.mean(), [[0.5]], 1.0, 1, 1,
                               normalized=False)
        assert fld.uses_measure

    @pytest.mark.parametrize("drift, diffusion", [
        ([0.0], [[0.5], [0.3]]),                # drift (1,) for m = 2
        ([0.0, 0.0], [0.5, 0.3]),               # diffusion (2,), not (2, 1)
        (np.zeros((3, 2)), [[0.5], [0.3]]),     # one row per particle
        ([0.0, 0.0], [[0.5, 0.1], [0.3, 0.2]]),     # d = 2 for noise_dim 1
    ])
    def test_array_of_the_wrong_shape_raises_at_construction(self, drift, diffusion):
        with pytest.raises(ConfigurationError, match="constant coefficient of shape"):
            CoefficientField(drift, diffusion, 1.0, 2, 1, normalized=False)

    def test_array_coefficients_are_normalization_checked(self):
        with pytest.raises(ConfigurationError, match="do not vanish"):
            CoefficientField([0.0], [[0.5]], 1.0, 1, 1, normalized=True)
        CoefficientField([0.0], [[0.0]], 1.0, 1, 1, normalized=True)


class TestObliqueField:
    def test_identity_band(self):
        fld = ObliqueField.identity(2)
        report = validate_oblique(fld, samples=200, seed=0)
        assert report.passed
        assert report.details["rayleigh_min"] == pytest.approx(1.0, abs=1e-12)
        assert report.details["rayleigh_max"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_matrix_is_read_only(self):
        fld = ObliqueField.identity(2)
        H = fld(np.zeros((3, 2)), None)
        assert fld.constant and not fld.uses_measure and H is fld.matrix
        with pytest.raises(ValueError):
            H[0] = 2.0

    @pytest.mark.parametrize("matrix, diagonal", [
        (np.ones(3), True), (np.ones(2), False), (np.eye(2), True), (np.eye(3), False)])
    def test_constant_matrix_of_the_wrong_shape_is_rejected(self, matrix, diagonal):
        with pytest.raises(ConfigurationError, match="constant oblique matrix"):
            ObliqueField(matrix, 1.0, 1.0, 2, diagonal=diagonal)

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
        assert report.details["checks"] == {"oblique_symmetry": False, "oblique_band_low": True,
                                            "oblique_band_high": True, "oblique_lipschitz": True}

    def test_a_nan_matrix_fails(self):
        # a NaN residual poisons the running maximum, so it cannot read as symmetric
        fld = ObliqueField(lambda t: np.array([[np.nan if 0.4 < t < 0.6 else 1.0 + t]]),
                           1.0, 2.0, 1, time_dependent=True)
        report = validate_oblique(fld, samples=50, seed=3)
        assert not report.passed and np.isnan(report.details["symmetry_residual"])

    def test_a_nan_matrix_reads_nan_in_the_band(self):
        # min and max skip a NaN met after a number; the band reads it
        fld = ObliqueField(lambda x, mu: np.where(abs(x[0]) > 3, np.nan, 1.5) * np.eye(2),
                           1.0, 2.0, 2)
        report = validate_oblique(fld, samples=200, seed=0)
        assert not report.passed
        assert math.isnan(report.details["rayleigh_min"])
        assert math.isnan(report.details["rayleigh_max"])
        checks = report.details["checks"]
        assert not checks["oblique_band_low"] and not checks["oblique_band_high"]

    def test_time_derivative_of_a_state_field_rejected(self):
        fld = ObliqueField(lambda x, mu: np.eye(1), 1.0, 1.0, 1)
        with pytest.raises(ConfigurationError, match=r"^time derivative only defined for H\(t\)$"):
            fld.derivative_at(0.5)

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


def scipy_w2(mu, nu):
    """One pair's W2 by scipy's assignment (quantiles in 1-d), summed as ``wasserstein2`` sums."""
    if mu.dim == 1:
        return wasserstein2(mu, nu)
    cost = sq_norms(mu.atoms[:, None, :] - nu.atoms[None, :, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def oracle_validate_lipschitz(fld, sampler=None, pairs=10_000, seed=0, control=None):
    """``validate_lipschitz`` one pair at a time, each W2 from scipy's assignment."""
    if sampler is None:
        sampler = default_sampler(fld.state_dim)
    rng = np.random.default_rng(seed)
    worst, violations = 0.0, []
    for _ in range(pairs):
        x, mu = sampler(rng)
        y, nu = sampler(rng)
        den = np.linalg.norm(x - y) + scipy_w2(mu, nu)
        if den < 1e-12:
            continue
        df = np.linalg.norm(fld.drift(x, mu, control, 0.0) - fld.drift(y, nu, control, 0.0))
        dg = np.linalg.norm(fld.diffusion(x, mu, control, 0.0)
                            - fld.diffusion(y, nu, control, 0.0))
        ratio = (df + dg) / den
        worst = max(worst, ratio)
        if ratio > fld.lipschitz * (1 + 1e-9):
            violations.append((ratio, x.copy(), y.copy()))
    return worst, [v[0] for v in violations[:16]]


def oracle_validate_oblique(fld, sampler=None, samples=2000, seed=0, horizon=None):
    """``validate_oblique`` one pair at a time, inverting both matrices of every
    Lipschitz pair afresh, each W2 from scipy's assignment."""
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
                den = np.linalg.norm(key[0] - keyp[0]) + scipy_w2(key[1], keyp[1])
            if den > 1e-12:
                dH = np.linalg.norm(H - Hp)
                dHinv = np.linalg.norm(inverse_spd(H) - inverse_spd(Hp))
                lip = max(lip, (dH + dHinv) / den)
        prev = (H, key)
    checks = {
        "oblique_symmetry": asym <= 1e-10,
        "oblique_band_low": lo >= fld.a_h - 1e-9,
        "oblique_band_high": hi <= fld.b_h + 1e-9,
        "oblique_lipschitz": fld.lipschitz is None or lip <= fld.lipschitz * (1 + 1e-9),
    }
    return ValidationReport(
        name="oblique", passed=all(checks.values()), estimate=lip, declared=fld.lipschitz,
        details={"checks": checks, "rayleigh_min": lo, "rayleigh_max": hi,
                 "symmetry_residual": asym, "a_h": fld.a_h, "b_h": fld.b_h},
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


def five_atom_sampler(rng):
    """A user sampler: a state in the unit square and a 5-atom cloud around it."""
    x = rng.uniform(-1.0, 1.0, 2)
    return x, EmpiricalMeasure(x + 0.5 * rng.standard_normal((5, 2)))


# case -> fresh (field, validator keywords); fields and samplers keep state
ORACLE_CASES = {
    "five_atoms": lambda: (library.make_system("example31").oblique,
                           {"sampler": five_atom_sampler}),
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

    @pytest.mark.parametrize("case", ["example31", "moving_interval", "rotating"])
    def test_norm_equals_linalg_norm_on_every_drawn_direction(self, case, monkeypatch):
        # the probe directions (and the pair distances) are normalized by
        # dynamics._norms, which must give np.linalg.norm's bits on every row
        from oblique_mv import dynamics
        seen, norms = [], dynamics._norms
        monkeypatch.setattr(dynamics, "_norms", lambda a: seen.append(a.copy()) or norms(a))
        fld, kwargs = ORACLE_CASES[case]()
        validate_oblique(fld, samples=300, seed=5, **kwargs)
        assert [a.shape for a in seen].count((300, fld.dim)) == 1      # the directions
        assert all(np.array_equal(norms(a), [np.linalg.norm(row) for row in a]) for a in seen)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_report_equals_fresh_inverse_loop(self, case):
        fld, kwargs = ORACLE_CASES[case]()
        got = validate_oblique(fld, samples=300, seed=5, **kwargs)
        fld, kwargs = ORACLE_CASES[case]()
        ref = oracle_validate_oblique(fld, samples=300, seed=5, **kwargs)
        assert got == ref
        assert ref.estimate > 0

    @pytest.mark.parametrize("sampler", [None, five_atom_sampler])
    def test_lipschitz_report_equals_per_pair_oracle(self, sampler):
        coeffs = library.make_system("example31").coeffs
        got = validate_lipschitz(coeffs, sampler=sampler, pairs=400, seed=6)
        worst, ratios = oracle_validate_lipschitz(coeffs, sampler=sampler, pairs=400, seed=6)
        assert got.estimate == worst > 0
        assert [v[0] for v in got.violations] == ratios

    def test_lipschitz_violations_equal_per_pair_oracle(self):
        # a declared constant far too small: every pair is a violation
        ex = library.make_system("example31").coeffs
        tight = CoefficientField(ex._drift, ex._diffusion, 1e-3, 2, ex.noise_dim,
                                 controlled=True, time_dependent=True, normalized=False)
        got = validate_lipschitz(tight, sampler=five_atom_sampler, pairs=50, seed=2)
        worst, ratios = oracle_validate_lipschitz(tight, sampler=five_atom_sampler,
                                                  pairs=50, seed=2)
        assert not got.passed and got.estimate == worst
        assert len(ratios) == 16 and [v[0] for v in got.violations] == ratios

    def test_one_inverse_per_sample(self, monkeypatch):
        from oblique_mv import dynamics
        stacks = []
        real = dynamics._inverses_spd
        monkeypatch.setattr(dynamics, "_inverses_spd",
                            lambda As: stacks.append(As.shape) or real(As))
        validate_oblique(library.make_system("example31").oblique, samples=200, seed=1)
        assert stacks == [(200, 2, 2)]

    @pytest.mark.parametrize("period", [2, 3, 1000])
    def test_a_non_spd_sample_raises_as_the_loop_would(self, period):
        # every sample has its own negative eigenvalue; where a repeated draw
        # leaves a pair out, the loop meets sample k before sample k - 1
        def field():
            return ObliqueField(lambda x, mu: np.diag([1.0, -1.0 - x[0] ** 2]), 0.5, 10.0, 2)

        with pytest.raises(SpectralError, match="not positive definite") as got:
            validate_oblique(field(), repeating_sampler(period), samples=50, seed=3)
        with pytest.raises(SpectralError) as ref:
            oracle_validate_oblique(field(), repeating_sampler(period), samples=50, seed=3)
        assert str(got.value) == str(ref.value)


def ragged_sampler(rng):
    """A user sampler whose clouds do not stack: a 1-d state and 3 to 6 atoms."""
    return rng.uniform(-1.0, 1.0, 1), EmpiricalMeasure(rng.standard_normal((rng.integers(3, 7), 1)))


def near_uniform_sampler(rng):
    """A user sampler of 1-d 3-atom clouds whose weights are uniform only to within 2e-7."""
    atoms = 2.0 * rng.standard_normal((3, 1))
    return rng.uniform(-1.0, 1.0, 1), EmpiricalMeasure(atoms, [0.3333334, 0.3333333, 0.3333333])


def second_moment_field():
    """A 1-d measure-dependent ``H`` not declared batched."""
    return ObliqueField(lambda x, mu: np.array([[2.0 + math.tanh(x[0]) + 0.1 * mu.second_moment()]]),
                        0.5, 10.0, 1, lipschitz=5.0)


def measure_fields():
    """Every bundled measure-dependent field as ``f(x, mu)``, by name."""
    ex, lin = library.make_system("example31"), library.make_system("linear")
    prob = library.make_moving_problem("moving_interval")
    fields = {"example31.drift": ex.coeffs.drift, "example31.diffusion": ex.coeffs.diffusion,
              "example31.matrix": ex.oblique, "linear.drift": lin.coeffs.drift,
              "moving_interval.drift": prob.coeffs.drift}
    for c in CORRECTIONS:
        reduced = reduce_time_dependent(prob, c).coeffs
        assert reduced.batched
        fields[f"reduced[{c}].drift"] = lambda x, mu, r=reduced: r.drift(x, mu, None, 0.3)
    return fields


class TestMeasureBatchFields:
    """A bundled field gives the same bits on a batch of measures as on each cloud alone."""

    @pytest.mark.parametrize("name", sorted(measure_fields()))
    @pytest.mark.parametrize("groups, N", [(1, 64), (2, 48), (32, 16)])
    def test_groups_of_rows_equal_each_group_alone(self, name, groups, N):
        f = measure_fields()[name]
        m = 1 if name.startswith(("linear", "moving", "reduced")) else 2
        rng = np.random.default_rng(groups)
        X = 0.6 * rng.standard_normal((groups * N, m))
        batch = MeasureBatch(X.reshape(groups, N, m), N)
        alone = np.concatenate([f(Xg, EmpiricalMeasure(Xg)) for Xg in np.split(X, groups)])
        assert np.array_equal(f(X, batch), alone)
        # the rows a projected step corrects, across group boundaries: indices and a mask
        rows = np.union1d(np.flatnonzero(rng.random(groups * N) < 0.3), [N - 1, N % (groups * N)])
        assert np.array_equal(f(X[rows], batch.rows(rows)), alone[rows])
        mask = np.isin(np.arange(groups * N), rows)
        assert np.array_equal(f(X[mask], batch.rows(mask)), alone[mask])

    @pytest.mark.parametrize("name", sorted(measure_fields()))
    def test_one_state_per_8_atom_cloud_equals_each_alone(self, name):
        # the validators' shape: lone states, or 1-row groups, each with its own cloud
        f = measure_fields()[name]
        m = 1 if name.startswith(("linear", "moving", "reduced")) else 2
        rng = np.random.default_rng(11)
        X, atoms = 2.0 * rng.standard_normal((40, m)), 2.0 * rng.standard_normal((40, 8, m))
        lone = [f(x, EmpiricalMeasure(a)) for x, a in zip(X, atoms)]
        rows = [f(X[k:k + 1], EmpiricalMeasure(a)) for k, a in enumerate(atoms)]
        assert np.array_equal(f(X, MeasureBatch(atoms)), lone)
        assert np.array_equal(f(X, MeasureBatch(atoms, 1)), np.concatenate(rows))


class TestBatchedValidators:
    """Each field is called once on all samples; the reports keep every bit."""

    @pytest.mark.parametrize("name", ["example31", "linear", "moving_interval"])
    def test_both_validators_equal_their_oracles(self, name):
        if name == "moving_interval":
            prob = library.make_moving_problem(name)
            coeffs, oblique = prob.coeffs, prob.hfield
        else:
            system = library.make_system(name)
            coeffs, oblique = system.coeffs, system.oblique
        calls = []
        drift = coeffs._drift
        coeffs._drift = lambda *args: calls.append(len(args[0])) or drift(*args)
        got = validate_lipschitz(coeffs, pairs=300, seed=4)
        assert calls == [600]
        coeffs._drift = drift
        worst, ratios = oracle_validate_lipschitz(coeffs, pairs=300, seed=4)
        assert got.estimate == worst > 0 and [v[0] for v in got.violations] == ratios
        assert validate_oblique(oblique, samples=300, seed=4) == \
            oracle_validate_oblique(oblique, samples=300, seed=4)

    def test_a_ragged_sampler_is_called_one_sample_at_a_time(self):
        lin = library.make_system("linear").coeffs
        got = validate_lipschitz(lin, sampler=ragged_sampler, pairs=200, seed=8)
        worst, ratios = oracle_validate_lipschitz(lin, sampler=ragged_sampler, pairs=200, seed=8)
        assert got.estimate == worst > 0 and [v[0] for v in got.violations] == ratios

        assert validate_oblique(second_moment_field(), ragged_sampler, samples=200, seed=8) == \
            oracle_validate_oblique(second_moment_field(), ragged_sampler, samples=200, seed=8)

    def test_a_user_samplers_own_measures_reach_the_field_and_w2(self):
        # weights within 1e-5 of uniform are the sampler's own, not equal weights
        lin = library.make_system("linear").coeffs
        drawn, seen, drift = [], [], lin._drift

        def sampler(rng):
            drawn.append(near_uniform_sampler(rng)[1])
            return rng.uniform(-1.0, 1.0, 1), drawn[-1]
        lin._drift = lambda x, mu, u, t: seen.append(mu) or drift(x, mu, u, t)
        validate_lipschitz(lin, sampler=sampler, pairs=200, seed=8)
        assert len(seen) == 400 and all(a is b for a, b in zip(seen, drawn))
        lin._drift = drift
        worst, ratios = oracle_validate_lipschitz(lin, sampler=near_uniform_sampler,
                                                  pairs=200, seed=8)
        got = validate_lipschitz(lin, sampler=near_uniform_sampler, pairs=200, seed=8)
        assert got.estimate == worst > 0 and [v[0] for v in got.violations] == ratios
        assert validate_oblique(second_moment_field(), near_uniform_sampler, samples=200,
                                seed=8) == \
            oracle_validate_oblique(second_moment_field(), near_uniform_sampler, samples=200,
                                    seed=8)

    @pytest.mark.parametrize("sampler", [None, ragged_sampler])
    def test_no_samples_is_an_empty_passing_report(self, sampler):
        # fields not declared batched, called on no clouds at all
        ou = library.make_system("ou").coeffs
        got = validate_lipschitz(ou, sampler=sampler, pairs=0)
        assert got.passed and got.estimate == 0.0 and not got.violations
        got = validate_oblique(second_moment_field(), sampler, samples=0)
        assert got.passed and got == oracle_validate_oblique(second_moment_field(), sampler,
                                                             samples=0)

    def test_a_stateful_field_sees_the_calls_of_the_per_sample_loop(self):
        def recorded():
            fld, seen = skew_after(150), []
            matrix = fld.matrix
            fld.matrix = lambda x, mu: seen.append((x.tolist(), mu.atoms.tolist())) or matrix(x, mu)
            return fld, seen
        fld, got = recorded()
        validate_oblique(fld, samples=300, seed=5)
        fld, want = recorded()
        oracle_validate_oblique(fld, samples=300, seed=5)
        assert len(got) == 300 and got == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("probe", [False, True], ids=["lipschitz", "oblique"])
    def test_one_call_draw_equals_the_per_sample_calls(self, m, probe):
        # the default sampler's states and clouds, each followed by the oblique
        # validator's probe direction, come from one standard_normal call
        from oblique_mv import dynamics
        X, mus, U = dynamics._samples(None, m, 60, np.random.default_rng(9), probe)
        rng, sample = np.random.default_rng(9), default_sampler(m)
        for k in range(60):
            x, mu = sample(rng)
            assert np.array_equal(X[k], x) and np.array_equal(mus.atoms[k], mu.atoms)
            assert np.array_equal(U[k], rng.standard_normal(m) if probe else [])
