import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import (
    Dataset,
    enumeration_oracle,
    normal_approx_test,
    variance_report,
)
from balance_lab.errors import (
    DegenerateAssignment,
    NonNumericValue,
    TooManyAssignments,
    ZeroVariance,
)


def standardized(values):
    v = np.asarray(values, dtype=float)
    return (v - v.mean()) / v.std()


def raw_report(columns, n1):
    """``variance_report`` on the raw columns with the first n1 units treated."""
    x = np.column_stack(columns)
    z = np.zeros(x.shape[0], dtype=int)
    z[:n1] = 1
    d = Dataset(x=x, z=z, y_obs=np.zeros(x.shape[0]))
    return variance_report(d, np.ones(x.shape[1]), scale="raw")


def standardized_weights(w, x):
    """The weights ``w`` of the raw columns of ``x``, as the standardized
    weights ``w * s`` that ``variance_report`` takes."""
    return w * np.std(x, axis=0)


class TestExactVarianceDeltaJ:
    def test_standardized_small_case(self):
        # N=4, n1=n0=2, unit population variance: 16 / (3*4) = 4/3
        col = standardized([1.0, 2.0, 3.0, 4.0])
        assert np.isclose(raw_report([col], 2).var_delta_j[0], 4.0 / 3.0, rtol=1e-14)

    def test_matches_enumeration(self):
        col = standardized([1.0, 2.0, 3.0, 4.0])
        values = []
        for comb in itertools.combinations(range(4), 2):
            mask = np.zeros(4, dtype=bool)
            mask[list(comb)] = True
            values.append(col[mask].mean() - col[~mask].mean())
        assert np.isclose(np.var(values), 4.0 / 3.0, rtol=1e-12)

    def test_constant_column(self):
        assert raw_report([np.full(6, 2.0)], 3).var_delta_j[0] == 0.0

    def test_scale_equivariance(self, rng):
        col = rng.normal(size=10)
        assert np.isclose(
            raw_report([2 * col], 4).var_delta_j[0],
            4 * raw_report([col], 4).var_delta_j[0],
            rtol=1e-12,
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateAssignment):
            raw_report([np.ones(4)], 0)


class TestExactCovDelta:
    def test_self_covariance_is_variance(self, rng):
        col = rng.normal(size=8)
        assert np.isclose(
            raw_report([col, col], 3).cov_delta[0, 1],
            raw_report([col], 3).var_delta_j[0],
            rtol=1e-14,
        )

    def test_orthogonal_columns(self):
        a = standardized([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        b = standardized([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])
        b = b - (b @ a) / (a @ a) * a  # exact zero population covariance
        assert abs(raw_report([a, b], 3).cov_delta[0, 1]) < 1e-15

    def test_correlated_pair_n6(self, rng):
        # Cov = rho * 36 / (5*9); with rho = 0.5 this is 0.4
        a = rng.normal(size=6)
        b = 0.5 * a + rng.normal(size=6)
        a_std, b_std = standardized(a), standardized(b)
        rho = float(np.mean(a_std * b_std))
        formula = 36.0 / 45.0 * rho
        assert np.isclose(raw_report([a_std, b_std], 3).cov_delta[0, 1], formula, rtol=1e-12)
        oracle = enumeration_oracle(np.column_stack([a_std, b_std]), 3, "uw")
        var_uw = (
            raw_report([a_std], 3).var_delta_j[0]
            + raw_report([b_std], 3).var_delta_j[0]
            + 2 * raw_report([a_std, b_std], 3).cov_delta[0, 1]
        )
        assert np.isclose(oracle.variance, var_uw, rtol=1e-10)
        assert np.isclose(36.0 / 45.0 * 0.5, 0.4)


class TestVarianceReport:
    def make(self, x, n1, y=None):
        n = x.shape[0]
        z = np.zeros(n, dtype=int)
        z[:n1] = 1
        return Dataset(x=x, z=z, y_obs=y if y is not None else np.arange(float(n)))

    def test_perfectly_correlated_pair(self):
        col = standardized([1.0, 2.0, 3.0, 4.0])
        d = self.make(np.column_stack([col, col]), 2)
        report = variance_report(d, np.ones(2))
        assert np.isclose(report.var_delta_uw, 16.0 / 3.0, rtol=1e-12)
        oracle = enumeration_oracle(np.column_stack([col, col]), 2, "uw")
        assert np.isclose(oracle.variance, 16.0 / 3.0, rtol=1e-12)

    def test_unit_weights_reduce_to_uw(self, rng):
        d = self.make(rng.normal(size=(12, 3)), 5)
        report = variance_report(d, np.ones(3))
        assert np.isclose(report.var_delta_rw_conditional, report.var_delta_uw, rtol=1e-14)

    def test_independent_columns_approximation(self):
        g = np.random.default_rng(3)
        n, p = 2000, 4
        d = self.make(g.normal(size=(n, p)), n // 2)
        report = variance_report(d, np.ones(p))
        base = n * n / ((n - 1) * (n // 2) ** 2)
        rho_sum = report.population_cov[np.triu_indices(p, 1)].sum()
        assert abs(report.var_delta_uw - p * base) <= 2.5 * base * abs(rho_sum) + 1e-12

    def test_matrix_invariants(self, rng):
        d = self.make(rng.normal(size=(14, 4)), 6)
        w = rng.normal(size=4)
        report = variance_report(d, standardized_weights(w, d.x), scale="raw")
        np.testing.assert_allclose(report.cov_delta, report.cov_delta.T, atol=1e-14)
        np.testing.assert_allclose(np.diag(report.cov_delta), report.var_delta_j, atol=1e-14)
        ones = np.ones(4)
        assert abs(report.var_delta_uw - ones @ report.cov_delta @ ones) < 1e-12
        assert abs(report.var_delta_rw_conditional - w @ report.cov_delta @ w) < 1e-12
        assert (report.var_delta_j >= 0).all()
        assert np.linalg.eigvalsh(report.cov_delta).min() >= -1e-10


class TestEnumerationOracle:
    def test_mean_zero(self, rng):
        x = rng.normal(size=(8, 2))
        for stat, kwargs in (
            ("uw", {}),
            ("rw", {"weights": rng.normal(size=2)}),
            ("delta_j", {"j": 1}),
        ):
            res = enumeration_oracle(x, 3, stat, **kwargs)
            assert abs(res.mean) < 1e-12

    def test_variance_matches_formula_n8(self, rng):
        col = standardized(rng.normal(size=8))
        res = enumeration_oracle(col[:, None], 4, "delta_j", j=0)
        assert np.isclose(res.variance, raw_report([col], 4).var_delta_j[0], rtol=1e-12)

    def test_rw_variance_matches_quadratic_form(self, rng):
        x = rng.normal(size=(8, 3))
        w = rng.normal(size=3)
        z = np.zeros(8, dtype=int)
        z[:4] = 1
        d = Dataset(x=x, z=z, y_obs=np.arange(8.0))
        report = variance_report(d, standardized_weights(w, x), scale="raw")
        res = enumeration_oracle(x, 4, "rw", weights=w)
        assert np.isclose(res.variance, report.var_delta_rw_conditional, rtol=1e-12)

    def test_values_match_itertools(self, rng):
        x = rng.normal(size=(7, 2))
        res = enumeration_oracle(x, 3, "uw")
        scores = x.sum(axis=1)
        expected = []
        for comb in itertools.combinations(range(7), 3):
            mask = np.zeros(7, dtype=bool)
            mask[list(comb)] = True
            expected.append(scores[mask].mean() - scores[~mask].mean())
        assert np.allclose(sorted(res.values), sorted(expected), atol=1e-12)
        assert res.values.size == math.comb(7, 3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_formula_agreement_small_populations(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(4, 13))
        n1 = int(g.integers(1, n))
        p = int(g.integers(1, 5))
        x = g.normal(size=(n, p)) * g.uniform(0.5, 3.0)
        z = np.zeros(n, dtype=int)
        z[:n1] = 1
        d = Dataset(x=x, z=z, y_obs=np.arange(float(n)))
        w = g.normal(size=p)
        report = variance_report(d, standardized_weights(w, x), scale="raw")
        uw = enumeration_oracle(x, n1, "uw")
        rw = enumeration_oracle(x, n1, "rw", weights=w)
        assert np.isclose(uw.variance, report.var_delta_uw, rtol=1e-10)
        assert np.isclose(rw.variance, report.var_delta_rw_conditional, rtol=1e-10)
        for j in range(p):
            dj = enumeration_oracle(x, n1, "delta_j", j=j)
            assert np.isclose(dj.variance, report.var_delta_j[j], rtol=1e-10)

    def test_long_walk_stays_exact(self, rng):
        # 48620 assignments, a dozen index chunks: every value is summed
        # from its own treated set, so no error carries along the walk
        x = rng.normal(size=(18, 2))
        z = np.zeros(18, dtype=int)
        z[:9] = 1
        d = Dataset(x=x, z=z, y_obs=np.arange(18.0))
        res = enumeration_oracle(x, 9, "uw")
        assert res.values.size == math.comb(18, 9)
        report = variance_report(d, np.ones(2), scale="raw")
        assert abs(res.mean) < 1e-12
        assert np.isclose(res.variance, report.var_delta_uw, rtol=1e-10)

    def test_guard(self):
        with pytest.raises(TooManyAssignments):
            enumeration_oracle(np.ones((30, 1)), 15, "uw")

    def test_guard_refuses_before_allocating(self):
        # C(23, 11) = 1,352,078 sets, just past the guard: their values alone
        # would take 10.8 MB
        x = np.ones((23, 1))
        tracemalloc.start()
        try:
            with pytest.raises(TooManyAssignments, match="1352078"):
                enumeration_oracle(x, 11, "uw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), data=st.data())
    def test_values_follow_the_treated_sets_in_order(self, n, data):
        # With scores 2^i every treated set has its own sum, so each value
        # names its set: values[i] belongs to the i-th set itertools yields.
        n1 = data.draw(st.integers(1, n - 1))
        scores = 2.0 ** np.arange(n)
        res = enumeration_oracle(scores, n1, "uw")
        sets = list(itertools.combinations(range(n), n1))
        sums = np.array([sum(2.0**i for i in s) for s in sets])
        expected = sums / n1 - (scores.sum() - sums) / (n - n1)
        assert res.values.size == len(sets) == math.comb(n, n1)
        assert np.unique(res.values).size == len(sets)
        np.testing.assert_allclose(res.values, expected, rtol=0, atol=1e-9)

    def test_non_finite_covariate_refused(self):
        with pytest.raises(NonNumericValue):
            enumeration_oracle(np.array([1.0, np.nan, 2.0, 3.0]), 2)
        with pytest.raises(NonNumericValue):
            enumeration_oracle(np.array([[1.0, 2.0], [np.inf, 0.0], [2.0, 1.0], [3.0, 5.0]]), 2)

    @pytest.mark.parametrize("n1", [3.0, np.float64(3.0), True, np.True_, "3", None])
    def test_non_integer_n1_refused(self, n1):
        with pytest.raises(TypeError, match="must be integers"):
            enumeration_oracle(np.arange(6.0), n1)

    @pytest.mark.parametrize("j", [True, False, 1.0, "1"])
    def test_non_integer_j_refused(self, j):
        with pytest.raises(TypeError, match="must be integers"):
            enumeration_oracle(np.ones((6, 2)), 3, "delta_j", j=j)

    def test_numpy_integers_accepted(self):
        x = np.arange(12.0).reshape(6, 2)
        got = enumeration_oracle(x, np.int64(3), "delta_j", j=np.int32(1))
        want = enumeration_oracle(x, 3, "delta_j", j=1)
        assert got.variance == want.variance
        np.testing.assert_array_equal(got.values, want.values)

    @pytest.mark.parametrize(
        "statistic, kwargs, message",
        [
            pytest.param("rw", {}, "^statistic 'rw' requires a weight vector$", id="rw-no-weights"),
            pytest.param("delta_j", {}, r"requires a column index in \[0, 2\)$", id="delta-j-no-j"),
            pytest.param("delta_j", {"j": 2}, r"in \[0, 2\)$", id="delta-j-past-p"),
            pytest.param("delta_j", {"j": -1}, r"in \[0, 2\)$", id="delta-j-negative"),
            pytest.param("median", {}, "^unknown statistic 'median'$", id="unknown"),
        ],
    )
    def test_statistic_arguments_refused(self, statistic, kwargs, message):
        with pytest.raises(ValueError, match=message):
            enumeration_oracle(np.arange(12.0).reshape(6, 2), 3, statistic, **kwargs)

    def test_n1_beyond_n_named(self):
        message = r"^need 0 < n1 < N for two non-empty arms, got n1=5, N=4$"
        with pytest.raises(DegenerateAssignment, match=message):
            enumeration_oracle(np.arange(4.0), 5)

    def test_degenerate(self):
        with pytest.raises(DegenerateAssignment):
            enumeration_oracle(np.ones((5, 1)), 5, "uw")

    def test_vector_is_one_covariate(self):
        x = np.arange(10.0)
        vector, column = enumeration_oracle(x, n1=5), enumeration_oracle(x[:, None], n1=5)
        # N/(N-1) * 8.25 * (1/5 + 1/5)
        assert vector.variance == column.variance == pytest.approx(11 / 3)
        np.testing.assert_array_equal(vector.values, column.values)


def quadrature_two_sided_p(z: float) -> float:
    """Independent oracle: tail mass of the standard normal via Simpson."""
    grid = np.linspace(z, z + 40.0, 200001)
    pdf = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    h = grid[1] - grid[0]
    tail = h / 3.0 * (pdf[0] + pdf[-1] + 4.0 * pdf[1::2].sum() + 2.0 * pdf[2:-1:2].sum())
    return 2.0 * tail


class TestNormalApproxTest:
    def test_zero_statistic(self):
        assert normal_approx_test(0.0, 2.0) == 1.0

    def test_classic_quantile(self):
        assert abs(normal_approx_test(1.959964, 1.0) - 0.05) < 1e-6

    def test_unit_z(self):
        p = normal_approx_test(1.0, 1.0)
        assert abs(p - 0.3173105078629141) < 1e-12
        assert abs(p - quadrature_two_sided_p(1.0)) < 1e-10

    def test_matches_quadrature_oracle(self):
        for z in (0.5, 1.5, 2.5, 3.5):
            assert abs(normal_approx_test(z, 1.0) - quadrature_two_sided_p(z)) < 1e-10

    def test_variance_scaling(self):
        assert np.isclose(normal_approx_test(2.0, 4.0), normal_approx_test(1.0, 1.0))

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            normal_approx_test(1.0, 0.0)
