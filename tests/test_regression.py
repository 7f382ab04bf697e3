import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import Dataset, control_arm_weights, fit_ols, treatment_arm_weights
from balance_lab.data import population_sd
from balance_lab.errors import ControlArmTooSmall, InsufficientRows, RankDeficient
from conftest import residualize


class TestFitOls:
    def test_exact_fit(self, rng):
        x = rng.normal(size=(30, 1))
        fit = fit_ols(x, x[:, 0])
        assert np.isclose(fit.coefficients[0], 1.0)
        assert np.isclose(fit.r_squared, 1.0)
        assert np.abs(fit.residuals).max() < 1e-12

    def test_recovers_known_coefficients(self, rng):
        x = rng.normal(size=(60, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 5.0
        fit = fit_ols(x, y)
        np.testing.assert_allclose(fit.coefficients, [3.0, -2.0], atol=1e-8)
        assert np.isclose(fit.intercept, 5.0, atol=1e-8)

    def test_pure_noise_r_squared_small(self):
        g = np.random.default_rng(4)
        x = g.normal(size=(10000, 3))
        y = g.normal(size=10000)
        fit = fit_ols(x, y)
        assert fit.r_squared < 0.01

    def test_residual_orthogonality(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(1, 5))
            x = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            fit = fit_ols(x, y)
            scale = max(np.abs(y).max(), 1.0)
            assert abs(fit.residuals.sum()) < 1e-8 * n * scale
            for j in range(p):
                assert abs(fit.residuals @ x[:, j]) < 1e-8 * n * scale * max(np.abs(x[:, j]).max(), 1.0)

    def test_rank_deficient_reports_columns(self, rng):
        x = rng.normal(size=(20, 2))
        x = np.column_stack([x, x[:, 0]])
        with pytest.raises(RankDeficient) as info:
            fit_ols(x, rng.normal(size=20))
        assert set(info.value.columns) & {0, 2}

    def test_insufficient_rows(self, rng):
        x = rng.normal(size=(4, 4))
        with pytest.raises(InsufficientRows):
            fit_ols(x, rng.normal(size=4))

    def test_constant_column_gets_zero_coefficient(self, rng):
        x = rng.normal(size=(25, 2))
        x_aug = np.column_stack([x[:, 0], np.full(25, 7.0), x[:, 1]])
        y = rng.normal(size=25)
        fit_aug = fit_ols(x_aug, y)
        fit_plain = fit_ols(x, y)
        assert fit_aug.coefficients[1] == 0.0
        np.testing.assert_allclose(fit_aug.coefficients[[0, 2]], fit_plain.coefficients, atol=1e-10)

    def test_standardized_coefficients_scaling(self, rng):
        x = rng.normal(size=(40, 3)) * np.array([1.0, 5.0, 0.2])
        y = x @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=40)
        fit = fit_ols(x, y)
        expected = fit.coefficients * np.std(x, axis=0) / population_sd(y)
        np.testing.assert_allclose(fit.standardized_coefficients, expected, rtol=1e-12)

    def test_row_permutation_invariance(self, rng):
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        perm = rng.permutation(50)
        a = fit_ols(x, y)
        b = fit_ols(x[perm], y[perm])
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-9, atol=1e-12)
        assert np.isclose(a.intercept, b.intercept, rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fwl_identity(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(20, 120))
        p = int(g.integers(2, 6))
        x = g.normal(size=(n, p))
        y = g.normal(size=n)
        fit = fit_ols(x, y)
        for j in range(p):
            resid = residualize(x, j)
            ratio = (y @ resid) / (resid @ resid)
            assert abs(fit.coefficients[j] - ratio) <= 1e-8 * max(1.0, abs(ratio))


class TestResidualize:
    def test_single_column_is_centered(self, rng):
        x = rng.normal(size=(15, 1)) + 4.0
        np.testing.assert_allclose(residualize(x, 0), x[:, 0] - x[:, 0].mean(), atol=1e-12)

    def test_orthogonal_columns(self, rng):
        a = rng.normal(size=40)
        a -= a.mean()
        b = rng.normal(size=40)
        b -= b.mean()
        b -= (b @ a) / (a @ a) * a
        x = np.column_stack([a, b])
        np.testing.assert_allclose(residualize(x, 0), a, atol=1e-10)

    def test_duplicated_column_raises(self, rng):
        col = rng.normal(size=20)
        x = np.column_stack([col, col, rng.normal(size=20)])
        with pytest.raises(RankDeficient):
            residualize(x, 0)


class TestArmWeights:
    def make_dataset(self, rng, n=60, p=3, y=None):
        x = rng.normal(size=(n, p))
        z = np.zeros(n, dtype=int)
        z[: n // 2] = 1
        y = rng.normal(size=n) if y is None else y(x)
        return Dataset(x=x, z=z, y_obs=y)

    def test_prognostic_covariate_collapses_weights(self, rng):
        d = self.make_dataset(rng, y=lambda x: x[:, 0])
        fit = control_arm_weights(d, scale="raw")
        np.testing.assert_allclose(fit.coefficients, [1.0, 0.0, 0.0], atol=1e-10)
        assert fit.arm == "control"
        assert fit.n_used == d.sizes.n0

    def test_noise_weights_shrink(self):
        g = np.random.default_rng(9)
        n = 8000
        x = g.normal(size=(n, 3))
        z = np.zeros(n, dtype=int)
        z[: n // 2] = 1
        d = Dataset(x=x, z=z, y_obs=g.normal(size=n))
        fit = control_arm_weights(d)
        assert np.abs(fit.standardized_coefficients).max() < 0.05

    def test_control_arm_too_small(self, rng):
        x = rng.normal(size=(10, 3))
        z = np.array([1] * 7 + [0] * 3)
        d = Dataset(x=x, z=z, y_obs=rng.normal(size=10))
        with pytest.raises(ControlArmTooSmall):
            control_arm_weights(d)

    def test_treatment_arm_symmetric(self, rng):
        d = self.make_dataset(rng)
        flipped = Dataset(x=d.x, z=1 - d.z, y_obs=d.y_obs)
        a = treatment_arm_weights(d)
        b = control_arm_weights(flipped)
        np.testing.assert_allclose(a.coefficients, b.coefficients, rtol=1e-9)
        assert a.arm == "treatment"

    def test_standardized_scale_equals_rescaled_raw(self, rng):
        d = self.make_dataset(rng, y=lambda x: x @ np.array([0.5, -1.0, 2.0]))
        raw = control_arm_weights(d, scale="raw")
        std = control_arm_weights(d, scale="standardized")
        np.testing.assert_allclose(
            std.coefficients, raw.coefficients * np.std(d.x, axis=0), rtol=1e-8
        )
        np.testing.assert_allclose(
            std.standardized_coefficients, raw.standardized_coefficients, rtol=1e-8
        )

    def test_rank_deficient_names_covariates_on_both_scales(self, rng):
        # column 0 is constant, so on the standardized scale the retained
        # columns are shifted by one against the covariates
        n = 40
        x = rng.normal(size=(n, 4))
        x[:, 0] = 2.0
        x[:, 3] = -x[:, 2]
        d = Dataset(x=x, z=np.array([1, 0] * (n // 2)), y_obs=rng.normal(size=n))
        named = {}
        for scale in ("standardized", "raw"):
            with pytest.raises(RankDeficient) as info:
                control_arm_weights(d, scale=scale)
            named[scale] = info.value.columns
            assert str(info.value.columns) in str(info.value)
        assert named["standardized"] == named["raw"] == (3,)
