import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import Dataset, balance, control_arm_weights, permutation_test, permute_assignment
from balance_lab.balance import _refit_rw_columns
from balance_lab.errors import BalanceLabError, ControlArmTooSmall
from balance_lab.permutation import permutation_pvalues
from balance_lab.regression import fit_ols
from balance_lab.rng import stream
from conftest import random_dataset


class TestPermuteAssignment:
    def test_two_arrangements_equally_likely(self):
        z = np.array([1, 0])
        g = stream(123, 0)
        hits = sum(permute_assignment(z, g)[0] for _ in range(10000))
        assert abs(hits / 10000 - 0.5) < 0.02

    def test_all_treated_identity(self):
        z = np.ones(6, dtype=int)
        assert np.array_equal(permute_assignment(z, stream(5, 0)), z)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_preserves_counts(self, seed, n):
        g = np.random.default_rng(seed)
        z = (g.random(n) < 0.4).astype(int)
        permuted = permute_assignment(z, stream(seed, 1))
        assert permuted.sum() == z.sum()
        assert sorted(permuted) == sorted(z)


class TestPermutationTest:
    def test_zero_observed_gives_p_one(self):
        x = np.array([[1.0], [2.0], [2.0], [1.0]])
        z = np.array([1, 0, 1, 0])
        d = Dataset(x=x, z=z, y_obs=np.array([0.0, 1.0, 2.0, 3.0]))
        res = permutation_test(d, "uw", b=50, seed=3)
        assert res.observed == 0.0
        assert res.p_value == 1.0

    def test_extreme_observed_boundary(self):
        # treated arm holds exactly the top-half covariate values, so the
        # observed statistic is the attainable maximum
        g = np.random.default_rng(8)
        x = np.sort(g.normal(size=16))[:, None]
        z = np.array([0] * 8 + [1] * 8)
        d = Dataset(x=x, z=z, y_obs=g.normal(size=16))
        res = permutation_test(d, "uw", b=99, seed=21)
        assert res.p_value == 0.0
        assert res.p_conservative == pytest.approx(1.0 / 100.0)

    def test_p_recomputable_from_values(self, rng):
        d = random_dataset(rng)
        res = permutation_test(d, "uw", b=173, seed=11)
        count = int(np.count_nonzero(np.abs(res.permuted_values) >= abs(res.observed)))
        assert res.p_value == count / res.b
        assert 0.0 <= res.p_value <= 1.0
        assert res.permuted_values.shape == (173,)

    def test_deterministic_and_chunk_independent(self, rng):
        d = random_dataset(rng, n=40, p=2)
        a = permutation_test(d, "rw", b=2100, seed=77)
        b = permutation_test(d, "rw", b=2100, seed=77)
        assert np.array_equal(a.permuted_values, b.permuted_values)
        assert a.p_value == b.p_value
        c = permutation_test(d, "rw", b=2100, seed=77, threads=2)
        assert np.array_equal(a.permuted_values, c.permuted_values)

    def test_statistics_share_draws(self, rng):
        d = random_dataset(rng, n=30, p=2)
        joint = permutation_pvalues(d, ("uw", "hotelling"), 64, seed=5)
        solo = permutation_test(d, "uw", 64, seed=5)
        assert np.array_equal(joint["uw"].permuted_values, solo.permuted_values)

    def test_zero_weight_covariate_leaves_rw_distribution_unchanged(self, rng):
        d = random_dataset(rng, n=40, p=2)
        w = rng.normal(size=2)
        base = permutation_test(d, "rw", b=120, seed=9, weights=w)
        augmented = Dataset(
            x=np.column_stack([d.x, rng.normal(size=d.n)]), z=d.z, y_obs=d.y_obs
        )
        extended = permutation_test(augmented, "rw", b=120, seed=9, weights=np.append(w, 0.0))
        assert np.array_equal(base.permuted_values, extended.permuted_values)
        assert base.p_value == extended.p_value

    def test_refit_policy_runs(self, rng):
        d = random_dataset(rng, n=60, p=2)
        res = permutation_test(d, "rw", b=80, seed=13, weight_policy="refit")
        assert 0.0 <= res.p_value <= 1.0
        assert res.weight_policy == "refit"
        fixed = permutation_test(d, "rw", b=80, seed=13, weight_policy="fixed")
        assert not np.array_equal(res.permuted_values, fixed.permuted_values)

    def test_refit_failure_counted_as_extreme(self, rng):
        # control arm of 3 rows cannot identify 3 covariates plus intercept
        xs = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        z_cols = np.zeros((8, 2))
        z_cols[:5, 0] = 1.0
        z_cols[:5, 1] = 1.0
        deltas = np.zeros((3, 2))
        values, failures, _ = _refit_rw_columns(xs, y, z_cols, deltas)
        assert failures == 2
        assert np.isinf(values).all()

    def test_refit_refuses_explicit_weights(self, rng):
        d = random_dataset(rng, n=40, p=2)
        with pytest.raises(ValueError, match="fixed policy only"):
            permutation_test(d, "rw", b=10, seed=1, weight_policy="refit", weights=np.ones(2))

    def test_observed_refit_failure_raises_typed_error(self):
        # 3 control units cannot identify 2 covariates plus intercept
        g = np.random.default_rng(6)
        z = np.array([1] * 7 + [0] * 3)
        d = Dataset(x=g.normal(size=(10, 2)), z=z, y_obs=g.normal(size=10))
        with pytest.raises(ControlArmTooSmall):
            permutation_test(d, "rw", b=10, seed=1, weight_policy="refit")

    def test_bad_arguments(self, rng):
        d = random_dataset(rng)
        with pytest.raises(ValueError):
            permutation_test(d, "uw", b=0, seed=1)
        with pytest.raises(ValueError):
            permutation_test(d, "nope", b=10, seed=1)
        with pytest.raises(ValueError):
            permutation_test(d, "uw", b=10, seed=1, weight_policy="sometimes")


def naive_differences(d):
    """Arm-mean difference of each standardized covariate, taken directly."""
    xs = (d.x - d.x.mean(axis=0)) / d.x.std(axis=0)
    treated = d.z == 1
    return xs[treated].mean(axis=0) - xs[~treated].mean(axis=0)


def naive_hotelling(d):
    """Two-sample T-squared: each arm centered on its own mean, scatters pooled."""
    arms = [d.x[d.z == 1], d.x[d.z == 0]]
    n1, n0 = (len(arm) for arm in arms)
    scatter = sum((arm - arm.mean(axis=0)).T @ (arm - arm.mean(axis=0)) for arm in arms)
    diff = arms[0].mean(axis=0) - arms[1].mean(axis=0)
    return n1 * n0 / (n1 + n0) * float(diff @ np.linalg.solve(scatter / (n1 + n0 - 2), diff))


class TestEngineAgainstScratch:
    def test_vectorized_values_match_recomputed_statistics(self, rng):
        # rebuild each permuted dataset and recompute every statistic the
        # slow way; the batched engine must agree
        d = random_dataset(rng, n=50, p=3)
        weights = control_arm_weights(d)
        seed, b = 31337, 16
        results = permutation_pvalues(d, ("uw", "rw", "hotelling"), b, seed, weights=weights)
        w = np.asarray(weights.coefficients)
        for i in range(b):
            z_i = permute_assignment(d.z, stream(seed, i))
            d_i = Dataset(x=d.x, z=z_i, y_obs=d.y_obs)
            deltas = naive_differences(d_i)
            assert np.isclose(results["uw"].permuted_values[i], deltas.sum(), atol=1e-12)
            assert np.isclose(results["rw"].permuted_values[i], w @ deltas, atol=1e-12)
            assert np.isclose(
                results["hotelling"].permuted_values[i], naive_hotelling(d_i), rtol=1e-9
            )

    def test_observed_values_match_recomputed_statistics(self, rng):
        d = random_dataset(rng, n=50, p=3)
        w = control_arm_weights(d).coefficients
        results = permutation_pvalues(d, ("uw", "rw", "hotelling"), 8, seed=4)
        deltas = naive_differences(d)
        assert np.isclose(results["uw"].observed, deltas.sum(), atol=1e-12)
        assert np.isclose(results["rw"].observed, w @ deltas, atol=1e-12)
        assert np.isclose(results["hotelling"].observed, naive_hotelling(d), rtol=1e-9)

    def test_refit_values_match_scratch_fits(self, rng):
        d = random_dataset(rng, n=48, p=2)
        seed, b = 2718, 12
        res = permutation_test(d, "rw", b, seed, weight_policy="refit")
        for i in range(b):
            z_i = permute_assignment(d.z, stream(seed, i))
            d_i = Dataset(x=d.x, z=z_i, y_obs=d.y_obs)
            w_i = control_arm_weights(d_i).coefficients
            expected = float(w_i @ naive_differences(d_i))
            assert np.isclose(res.permuted_values[i], expected, atol=1e-10)


def looped_refit(xs, y, z_cols, deltas):
    """One pivoted fit_ols per column, failures as +inf: the reference for
    the stacked refit kernel."""
    values = np.empty(z_cols.shape[1])
    for i in range(z_cols.shape[1]):
        control = z_cols[:, i] == 0.0
        try:
            fit = fit_ols(xs[control], y[control], include_intercept=True, arm="control")
            values[i] = fit.coefficients @ deltas[:, i]
        except BalanceLabError:
            values[i] = np.inf
    return values


def refit_design(kind, g, n, p):
    """Covariates of one kind: ``binary`` makes some control arms hold a
    constant column, ``collinear`` nearly repeats a column, ``zero`` holds
    a constant covariate as the standardized scale stores it, and
    ``offset`` is a raw column whose spread is tiny next to its level
    (fit_ols calls it rank deficient although its diagonal ratio looks
    harmless)."""
    if kind == "binary":
        return (g.random((n, p)) < 0.04).astype(float)
    x = g.normal(size=(n, p))
    if kind == "collinear" and p > 1:
        x[:, -1] = x[:, 0] + 1e-3 * g.normal(size=n)
    if kind == "zero":
        x[:, 0] = 0.0
    if kind == "offset":
        x[:, -1] = 1e3 + 1e-5 * g.normal(size=n)
    return x


class TestStackedRefit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "binary", "collinear", "zero", "offset"]),
        p=st.integers(1, 4),
        b=st.integers(1, 40),
        mixed_sizes=st.booleans(),
    )
    def test_matches_pivoted_loop(self, seed, kind, p, b, mixed_sizes):
        g = np.random.default_rng(seed)
        n = int(g.integers(2 * p + 8, 80))
        xs = refit_design(kind, g, n, p)
        y = xs @ g.normal(size=p) + g.normal(size=n)
        n1 = n // 2
        z_cols = np.zeros((n, b))
        for i in range(b):
            treated = n1 + 1 if mixed_sizes and i == b - 1 else n1
            z_cols[g.permutation(n)[:treated], i] = 1.0
        deltas = g.normal(size=(p, b))

        values, failures, fallbacks = _refit_rw_columns(xs, y, z_cols, deltas)
        expected = looped_refit(xs, y, z_cols, deltas)
        failed = np.isinf(expected)
        np.testing.assert_array_equal(np.isinf(values), failed)
        assert failures == np.count_nonzero(failed) <= fallbacks <= b
        np.testing.assert_allclose(values[~failed], expected[~failed], rtol=1e-10, atol=1e-12)
        if mixed_sizes and b > 1:
            assert fallbacks == b
        if kind == "offset":
            assert failures == b

    def test_counts_fallbacks(self, rng):
        xs = rng.normal(size=(60, 2))
        xs[:5, 1] = 1.0
        xs[5:, 1] = 0.0
        y = rng.normal(size=60)
        z_cols = np.zeros((60, 3))
        z_cols[:30, 0] = 1.0  # control arm rows 30..59: column 1 constant
        z_cols[30:, 1] = 1.0
        z_cols[::2, 2] = 1.0
        values, failures, fallbacks = _refit_rw_columns(xs, y, z_cols, np.ones((2, 3)))
        assert (failures, fallbacks) == (0, 1)
        np.testing.assert_allclose(values, looped_refit(xs, y, z_cols, np.ones((2, 3))), rtol=1e-10)

    def test_rw_independent_of_block_size_and_threads(self, rng, monkeypatch):
        # a sparse binary covariate sends some columns of every chunk to the
        # pivoted path, so both routes meet the chunk and block boundaries
        x = np.column_stack([rng.normal(size=(60, 2)), rng.random(60) < 0.06])
        d = Dataset(x=x, z=np.array([1, 0] * 30), y_obs=rng.normal(size=60))
        reference = permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit")
        assert 0 < reference.n_refit_fallback < reference.b
        runs = [permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit", threads=2)]
        for block in (1, 7):
            monkeypatch.setattr(balance, "_REFIT_BLOCK", block)
            runs.append(permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit"))
        for res in runs:
            assert np.array_equal(res.permuted_values, reference.permuted_values)
            assert res.observed == reference.observed
            assert (res.n_failed, res.n_refit_fallback) == (
                reference.n_failed,
                reference.n_refit_fallback,
            )


class TestRefitFallbackCount:
    def test_gaussian_covariates_never_fall_back(self):
        g = np.random.default_rng(301)
        x = g.standard_normal((1000, 5))
        y = x @ np.linspace(0.5, 0.05, 5) + g.standard_normal(1000)
        d = Dataset(x=x, z=g.permutation(np.repeat([1, 0], 500)), y_obs=y)
        res = permutation_test(d, "rw", b=200, seed=3, weight_policy="refit")
        assert (res.n_failed, res.n_refit_fallback) == (0, 0)

    def test_constant_covariate_stays_in_stack(self):
        g = np.random.default_rng(303)
        x = np.column_stack([g.standard_normal((100, 2)), np.full(100, 4.0)])
        d = Dataset(x=x, z=np.array([1, 0] * 50), y_obs=g.standard_normal(100))
        res = permutation_test(d, "rw", b=50, seed=3, weight_policy="refit")
        assert (res.n_failed, res.n_refit_fallback) == (0, 0)

    def test_binary_covariates_fall_back(self):
        g = np.random.default_rng(302)
        x = (g.random((80, 3)) < 0.05).astype(float)
        d = Dataset(x=x, z=np.array([1, 0] * 40), y_obs=g.standard_normal(80))
        res = permutation_test(d, "rw", b=200, seed=3, weight_policy="refit")
        assert res.n_refit_fallback > 0
        assert res.n_failed <= res.n_refit_fallback
        assert permutation_test(d, "rw", b=200, seed=3).n_refit_fallback == 0


class TestIrrelevantCovariate:
    def test_noise_covariate_barely_moves_rw_pvalue(self):
        # refitting weights with one extra pure-noise covariate should leave
        # the rw permutation p-value nearly unchanged on average
        g = np.random.default_rng(515)
        n, b = 400, 150
        gaps = []
        z = np.array([1] * (n // 2) + [0] * (n // 2))
        for r in range(200):
            x = g.normal(size=(n, 3))
            y = x @ np.array([0.8, 0.3, 0.0]) + g.normal(size=n)
            d = Dataset(x=x, z=z, y_obs=y)
            d_aug = Dataset(x=np.column_stack([x, g.normal(size=n)]), z=z, y_obs=y)
            p_base = permutation_test(d, "rw", b, seed=3000 + r).p_value
            p_aug = permutation_test(d_aug, "rw", b, seed=3000 + r).p_value
            gaps.append(abs(p_base - p_aug))
        assert np.mean(gaps) < 0.05


class TestNullCalibration:
    def test_p_values_approximately_uniform_under_null(self):
        # independent assignment: rejection at 0.05 should land in [.02, .08]
        replicates = 500
        b = 99
        hits = {"uw": 0, "rw": 0, "hotelling": 0}
        g = np.random.default_rng(2026)
        z = np.array([1] * 30 + [0] * 30)
        for r in range(replicates):
            x = g.normal(size=(60, 3))
            y = g.normal(size=60)
            d = Dataset(x=x, z=z, y_obs=y)
            results = permutation_pvalues(d, tuple(hits), b, seed=1000 + r)
            for name in hits:
                if results[name].p_value <= 0.05:
                    hits[name] += 1
        for name, count in hits.items():
            assert 0.02 <= count / replicates <= 0.08, (name, count / replicates)


class TestHotellingAffineInvariance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3),
        shifts=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    def test_per_column_affine_map(self, seed, scales, shifts):
        # The reference maps the stored covariates back, so both sides see
        # the same inputs and only the arithmetic of the statistic differs.
        g = np.random.default_rng(seed)
        d = random_dataset(g, n=60, p=3)
        a, c = np.array(scales), np.array(shifts)
        mapped = Dataset(x=d.x * a + c, z=d.z, y_obs=d.y_obs)
        back = Dataset(x=(mapped.x - c) / a, z=d.z, y_obs=d.y_obs)
        moved = permutation_test(mapped, "hotelling", b=200, seed=seed)
        base = permutation_test(back, "hotelling", b=200, seed=seed)
        np.testing.assert_allclose(moved.observed, base.observed, rtol=1e-6)
        np.testing.assert_allclose(moved.permuted_values, base.permuted_values, rtol=1e-6)
        assert moved.p_value == base.p_value

    def test_large_shift_keeps_p_value(self):
        g = np.random.default_rng(44)
        d = random_dataset(g, n=80, p=3)
        shifted = Dataset(x=d.x + 1e8, z=d.z, y_obs=d.y_obs)
        base = permutation_test(d, "hotelling", b=500, seed=17)
        moved = permutation_test(shifted, "hotelling", b=500, seed=17)
        assert moved.p_value == base.p_value


class TestHotellingSeparation:
    def test_covariate_equal_to_assignment(self, rng):
        n = 60
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[:30]] = 1
        d = Dataset(x=np.column_stack([z, rng.normal(size=n)]), z=z, y_obs=rng.normal(size=n))
        res = permutation_test(d, "hotelling", b=300, seed=5)
        assert res.observed == np.inf
        assert np.isfinite(res.permuted_values).all()
        assert res.p_value == 0.0

    def test_separating_permutation_counted_as_extreme(self, rng):
        n, b, seed = 8, 200, 11
        x1 = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        z = np.array([1, 0, 1, 0, 1, 0, 1, 0])
        d = Dataset(x=np.column_stack([x1, rng.normal(size=n)]), z=z, y_obs=rng.normal(size=n))
        drawn = np.column_stack([permute_assignment(z, stream(seed, i)) for i in range(b)])
        separating = (drawn == x1[:, None]).all(axis=0) | (drawn == 1 - x1[:, None]).all(axis=0)
        assert separating.any()
        res = permutation_test(d, "hotelling", b=b, seed=seed)
        assert np.isfinite(res.observed)
        np.testing.assert_array_equal(np.isinf(res.permuted_values), separating)
        extreme = np.count_nonzero(res.permuted_values[~separating] >= res.observed)
        assert res.p_value == (separating.sum() + extreme) / b
