import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import Dataset, compute_balance_report, control_arm_weights
from balance_lab.data import scaled_covariates
from balance_lab.errors import WeightDimensionMismatch
from balance_lab.regression import RegressionFit
from conftest import random_dataset


def naive_differences(d, scale):
    """Independent re-implementation: per-group means via explicit loops."""
    out = np.empty(d.p)
    for j in range(d.p):
        col = d.x[:, j].astype(float)
        if scale == "standardized":
            sd = np.sqrt(np.mean((col - col.mean()) ** 2))
            col = (col - col.mean()) / sd if sd > 0 else np.zeros_like(col)
        treated = [col[i] for i in range(d.n) if d.z[i] == 1]
        control = [col[i] for i in range(d.n) if d.z[i] == 0]
        out[j] = sum(treated) / len(treated) - sum(control) / len(control)
    return out


def fixed_weight_fit(vector, intercept=0.0, arm="control", d=None, scale="raw"):
    """Weight container for tests; with ``d`` the intercept is chosen so the
    fitted control mean matches the observed one (the arm-fit precondition)."""
    w = np.asarray(vector, dtype=float)
    if d is not None:
        xs = scaled_covariates(d, scale)
        intercept = float(d.y_obs[d.z == 0].mean() - np.mean(xs[d.z == 0] @ w))
    return RegressionFit(
        coefficients=w,
        intercept=intercept,
        standardized_coefficients=w,
        residuals=np.zeros(0),
        fitted=np.zeros(0),
        r_squared=0.0,
        n_used=0,
        arm=arm,
    )


def pinv_hotelling(x, z):
    """Two-sample Hotelling T-squared from the per-arm pooled scatter, with
    its pseudo-inverse (directions below 1e-10 of the largest dropped)."""
    treated, control = x[z == 1], x[z == 0]
    n1, n0 = len(treated), len(control)
    scatter = sum((a - a.mean(axis=0)).T @ (a - a.mean(axis=0)) for a in (treated, control))
    diff = treated.mean(axis=0) - control.mean(axis=0)
    pooled_inverse = np.linalg.pinv(scatter / (n1 + n0 - 2), rcond=1e-10, hermitian=True)
    return n1 * n0 / (n1 + n0) * float(diff @ pooled_inverse @ diff)


def zero_weight_report(d, scale="standardized"):
    """The balance report under zero weights, so that no arm fit is needed
    (collinear covariates cannot be fit)."""
    zero = fixed_weight_fit(np.zeros(d.p), d=d, scale=scale)
    return compute_balance_report(d, scale, weights=zero)


class TestCovariateDifferences:
    def test_identical_arms_zero(self):
        block = np.array([[1.0], [2.0], [3.0]])
        x = np.vstack([block, block])
        z = np.array([1, 1, 1, 0, 0, 0])
        d = Dataset(x=x, z=z, y_obs=np.arange(6.0))
        assert zero_weight_report(d, "raw").delta[0] == 0.0

    def test_assignment_indicator_covariate(self):
        z = np.array([1, 1, 0, 0, 1, 0])
        d = Dataset(x=z[:, None].astype(float), z=z, y_obs=np.arange(6.0))
        assert zero_weight_report(d, "raw").delta[0] == 1.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            d = random_dataset(rng)
            for scale in ("raw", "standardized"):
                np.testing.assert_allclose(
                    zero_weight_report(d, scale).delta, naive_differences(d, scale), atol=1e-12
                )

    def test_constant_column_zero(self, rng):
        x = np.column_stack([np.full(8, 3.0), rng.normal(size=8)])
        d = Dataset(x=x, z=np.array([1, 0] * 4), y_obs=rng.normal(size=8))
        assert zero_weight_report(d, "standardized").delta[0] == 0.0


class TestDeltaUnweighted:
    def test_balanced_is_zero(self):
        block = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        d = Dataset(
            x=np.vstack([block, block]),
            z=np.array([1, 1, 1, 0, 0, 0]),
            y_obs=np.arange(6.0),
        )
        assert zero_weight_report(d).delta_uw == 0.0

    def test_sign_cancellation(self, rng):
        # deltas (0.3, -0.3) cancel: the statistic's known blind spot
        n = 100
        z = np.array([1, 0] * (n // 2))
        zc = (z - z.mean()) / z.std()
        x1 = 0.15 * zc + 0.1 * rng.normal(size=n)
        x2 = -x1
        d = Dataset(x=np.column_stack([x1, x2]), z=z, y_obs=rng.normal(size=n))
        deltas = zero_weight_report(d, "raw").delta
        assert deltas[0] == -deltas[1] != 0.0
        assert abs(zero_weight_report(d, "raw").delta_uw) < 1e-14

    def test_single_covariate(self, rng):
        d = random_dataset(rng, p=1)
        assert zero_weight_report(d).delta_uw == zero_weight_report(d).delta[0]

    def test_sign_flip_exact(self, rng):
        for _ in range(10):
            d = random_dataset(rng)
            flipped = Dataset(x=d.x, z=1 - d.z, y_obs=d.y_obs)
            assert np.isclose(
                zero_weight_report(d).delta_uw, -zero_weight_report(flipped).delta_uw, atol=1e-12
            )


class TestDeltaRegressionWeighted:
    def test_zero_weights(self, rng):
        d = random_dataset(rng, p=3)
        w = fixed_weight_fit([0.0, 0.0, 0.0], intercept=float(d.y_obs[d.z == 0].mean()))
        assert compute_balance_report(d, "raw", weights=w).delta_rw == 0.0

    def test_prognostic_covariate_collapses(self, rng):
        n = 60
        x = rng.normal(size=(n, 3))
        z = np.array([1, 0] * (n // 2))
        d = Dataset(x=x, z=z, y_obs=x[:, 0])
        weights = control_arm_weights(d, scale="raw")
        value = compute_balance_report(d, "raw", weights=weights).delta_rw
        assert np.isclose(value, zero_weight_report(d, "raw").delta[0], atol=1e-10)

    def test_two_paths_agree(self, rng):
        for _ in range(50):
            d = random_dataset(rng)
            for scale in ("standardized", "raw"):
                weights = control_arm_weights(d, scale=scale)
                report = compute_balance_report(d, scale=scale, weights=weights)
                assert abs(report.delta_rw - report.fitted_mean_difference) <= 1e-10 * max(
                    1.0, abs(report.delta_rw)
                )

    def test_scale_invariance_of_value(self, rng):
        # refitting weights on either scale yields the same statistic
        for _ in range(10):
            d = random_dataset(rng)
            w_std, w_raw = control_arm_weights(d, "standardized"), control_arm_weights(d, "raw")
            v_std = compute_balance_report(d, "standardized", weights=w_std).delta_rw
            v_raw = compute_balance_report(d, "raw", weights=w_raw).delta_rw
            assert np.isclose(v_std, v_raw, rtol=1e-8, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        d = random_dataset(rng, p=3)
        with pytest.raises(WeightDimensionMismatch):
            compute_balance_report(d, "raw", weights=fixed_weight_fit([1.0, 2.0]))

    def test_sign_flip_fixed_weights(self, rng):
        d = random_dataset(rng, p=2)
        w = fixed_weight_fit(rng.normal(size=2))
        flipped = Dataset(x=d.x, z=1 - d.z, y_obs=d.y_obs)
        a = float(np.asarray(w.coefficients) @ zero_weight_report(d, "raw").delta)
        b = float(np.asarray(w.coefficients) @ zero_weight_report(flipped, "raw").delta)
        assert np.isclose(a, -b, atol=1e-12)

    def test_treatment_arm_weights_path(self, rng):
        from balance_lab import treatment_arm_weights

        d = random_dataset(rng)
        weights = treatment_arm_weights(d)
        report = compute_balance_report(d, weights=weights)
        assert abs(report.delta_rw - report.fitted_mean_difference) <= 1e-10 * max(
            1.0, abs(report.delta_rw)
        )


class TestHotelling:
    def test_identical_arms_zero(self, rng):
        block = rng.normal(size=(5, 2))
        d = Dataset(
            x=np.vstack([block, block]),
            z=np.array([1] * 5 + [0] * 5),
            y_obs=rng.normal(size=10),
        )
        assert zero_weight_report(d).hotelling_t2 < 1e-18

    def test_p1_reduces_to_squared_t(self, rng):
        for _ in range(10):
            d = random_dataset(rng, p=1)
            x = d.x[:, 0]
            a, b = x[d.z == 1], x[d.z == 0]
            n1, n0 = a.size, b.size
            s2 = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
            s2 /= n1 + n0 - 2
            t = (a.mean() - b.mean()) / np.sqrt(s2 * (1 / n1 + 1 / n0))
            assert np.isclose(zero_weight_report(d).hotelling_t2, t**2, rtol=1e-10)

    def test_affine_invariance(self, rng):
        d = random_dataset(rng, p=3)
        scaled = Dataset(x=d.x * np.array([10.0, 1.0, 1.0]), z=d.z, y_obs=d.y_obs)
        t2, t2_scaled = zero_weight_report(d).hotelling_t2, zero_weight_report(scaled).hotelling_t2
        assert np.isclose(t2, t2_scaled, rtol=1e-8)

    def test_within_arm_collinearity_is_perfect_separation(self, rng):
        n = 40
        z = np.array([1, 0] * (n // 2))
        x1 = rng.normal(size=n)
        x = np.column_stack([x1, x1 + z])  # collinear within each arm
        d = Dataset(x=x, z=z, y_obs=rng.normal(size=n))
        weights = fixed_weight_fit([1.0, 1.0], d=d, scale="standardized")
        report = compute_balance_report(d, weights=weights)
        assert report.hotelling_t2 == np.inf
        assert not report.hotelling_used_pinv

    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_collinear_over_all_units_matches_pinv(self, rng, scale):
        n = 50
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:20]] = 1
        x1 = rng.normal(size=n)
        x = np.column_stack([x1, 2.0 * x1 + 3.0, np.full(n, 0.1), rng.normal(size=n)])
        d = Dataset(x=x, z=z, y_obs=rng.normal(size=n))
        report = zero_weight_report(d, scale)
        assert report.hotelling_used_pinv
        np.testing.assert_allclose(report.hotelling_t2, pinv_hotelling(x, z), rtol=1e-9)

    def test_matches_pinv_reference_when_regular(self, rng):
        for _ in range(10):
            d = random_dataset(rng)
            report = zero_weight_report(d)
            assert not report.hotelling_used_pinv
            np.testing.assert_allclose(report.hotelling_t2, pinv_hotelling(d.x, d.z), rtol=1e-9)


class TestReport:
    def test_row_order_invariance(self, rng):
        d = random_dataset(rng)
        weights = control_arm_weights(d)
        report = compute_balance_report(d, weights=weights)
        perm = rng.permutation(d.n)
        shuffled = Dataset(x=d.x[perm], z=d.z[perm], y_obs=d.y_obs[perm])
        report2 = compute_balance_report(shuffled, weights=control_arm_weights(shuffled))
        np.testing.assert_allclose(report.delta, report2.delta, atol=1e-10)
        assert np.isclose(report.delta_uw, report2.delta_uw, atol=1e-10)
        assert np.isclose(report.delta_rw, report2.delta_rw, atol=1e-9)
        assert np.isclose(report.hotelling_t2, report2.hotelling_t2, rtol=1e-8)

    def test_delta_uw_is_sum_of_deltas(self, rng):
        d = random_dataset(rng)
        report = compute_balance_report(d)
        assert abs(report.delta_uw - report.delta.sum()) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_hotelling_nonnegative(self, seed):
        d = random_dataset(np.random.default_rng(seed))
        assert zero_weight_report(d).hotelling_t2 >= 0.0
