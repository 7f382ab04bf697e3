import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from balance_lab import Dataset, balance, control_arm_weights, permutation, permutation_test
from balance_lab.balance import _GRAM_KAPPA, _hotelling, _observed_column, _refit_rw_columns
from balance_lab.data import RefitBasis, varying_columns
from balance_lab.errors import BalanceLabError, ControlArmTooSmall, NonNumericValue
from balance_lab.permutation import (
    _CHUNK,
    _NARROW_KEYS_MAX_N,
    STATISTIC_NAMES,
    _permuted_z,
    _select_smallest,
    permutation_pvalues,
)
from balance_lab.regression import RCOND_GATE
from balance_lab.rng import stream
from conftest import lstsq, random_dataset, stack_member


# prefix lengths on both sides of the chunk boundary at 1024
FIRST_K = (1, 5, 1024, 1030)
# every non-empty subset of the statistics, in report order
STATISTIC_SUBSETS = [
    names for k in (1, 2, 3) for names in itertools.combinations(STATISTIC_NAMES, k)
]


def chunk_draws(z, seed, b):
    """The B permuted assignments the engine evaluates, as (n, B) columns."""
    z = np.asarray(z)
    starts = range(0, b, _CHUNK)
    return np.hstack([_permuted_z(z, seed, start, min(_CHUNK, b - start)) for start in starts])


def arrangement_pvalue(drawn):
    """Chi-square p-value of (n, B) draws against all C(n, n1) arrangements."""
    n, n1 = drawn.shape[0], int(drawn[:, 0].sum())
    index = {a: k for k, a in enumerate(itertools.combinations(range(n), n1))}
    observed = np.bincount(
        [index[tuple(np.flatnonzero(col))] for col in drawn.T], minlength=len(index)
    )
    return stats.chisquare(observed)


class TestChunkDraws:
    def test_two_arrangements_equally_likely(self):
        drawn = chunk_draws([1, 0], 123, 10000)
        assert abs(drawn[0].mean() - 0.5) < 0.02

    def test_all_treated_identity(self):
        z = np.ones(6, dtype=int)
        assert (chunk_draws(z, 5, 40) == 1.0).all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), b=st.integers(1, 1100))
    def test_preserves_counts(self, seed, n, b):
        g = np.random.default_rng(seed)
        z = (g.random(n) < 0.4).astype(int)
        drawn = chunk_draws(z, seed, b)
        assert drawn.shape == (n, b)
        assert (np.sort(drawn, axis=0) == np.sort(z)[:, None]).all()

    def test_uniform_over_all_assignments(self):
        # every one of the C(6,3) = 20 assignments is equally likely; the
        # draws span four chunks
        z = np.array([1, 1, 1, 0, 0, 0])
        b = 4000
        drawn = chunk_draws(z, 2024, b)
        index = {a: k for k, a in enumerate(itertools.combinations(range(6), 3))}
        observed = np.bincount(
            [index[tuple(np.flatnonzero(col))] for col in drawn.T], minlength=20
        )
        chi2, p = stats.chisquare(observed)
        assert p > 1e-4, (chi2, observed)

    @pytest.mark.parametrize("n1", [5, 2])
    def test_uniform_for_odd_n(self, n1):
        # C(7,5) and C(7,2): an odd n leaves the last key of every row's
        # last word unused; B = 2000 spans two chunks and several blocks of
        # rows, the last one short
        z = np.array([1] * n1 + [0] * (7 - n1))
        chi2, p = arrangement_pvalue(chunk_draws(z, 77, 2000))
        assert p > 1e-4, chi2

    def test_keys_are_little_endian_quarters_of_raw_words(self):
        # n at or below the bound: four 16-bit keys per word, low quarter
        # first; the reference reads the words as integers, so it pins the
        # key layout whatever the byte order of the host
        z = np.array([1, 0, 0, 1, 0, 1, 1, 0, 0])
        n, b, seed = len(z), 300, 8
        words = stream(seed, 0).bit_generator.random_raw(b * 3).reshape(b, 3)
        expected = np.zeros((n, b))
        for i, row in enumerate(words):
            keys = [(int(w) >> shift) & 0xFFFF for w in row for shift in (0, 16, 32, 48)][:n]
            assert sorted(keys)[3] < sorted(keys)[4]  # no boundary tie, so no redraw
            expected[np.argsort(keys)[:4], i] = 1.0
        np.testing.assert_array_equal(chunk_draws(z, seed, b), expected)

    def test_keys_are_little_endian_halves_above_the_bound(self):
        # one unit more than the bound: two 32-bit keys per word, low half first
        n, b, seed = _NARROW_KEYS_MAX_N + 1, 3, 8
        z = np.zeros(n)
        z[::3] = 1.0
        n1 = int(z.sum())
        words = stream(seed, 0).bit_generator.random_raw((b, (n + 1) // 2))
        expected = np.zeros((n, b))
        for i, row in enumerate(words):
            keys = [(int(w) >> shift) & 0xFFFFFFFF for w in row for shift in (0, 32)][:n]
            assert sorted(keys)[n1 - 1] < sorted(keys)[n1]
            expected[np.argsort(keys)[:n1], i] = 1.0
        np.testing.assert_array_equal(chunk_draws(z, seed, b), expected)

    def test_tied_keys_are_redrawn_uniformly(self):
        # keys from {0, 1, 2} tie at the boundary in most rows
        z = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        b, k = 3000, 1100
        keys = np.random.default_rng(4).integers(0, 3, size=(b, 7), dtype=np.uint32)
        ordered = np.sort(keys, axis=1)
        tied = ordered[:, 1] == ordered[:, 2]
        assert tied.mean() > 0.5
        rows = np.empty((b, 7))
        _select_smallest(keys, z, 31, 0, 0, rows)
        assert (rows.sum(axis=1) == 2).all()
        np.testing.assert_array_equal(rows[~tied], keys[~tied] <= ordered[~tied, 1:2])
        chi2, p = arrangement_pvalue(rows.T)
        assert p > 1e-4, chi2
        # each redraw is keyed by its row, so the rows do not depend on how
        # many follow or on where a block of rows starts
        head, rest = np.empty((k, 7)), np.empty((b - k, 7))
        _select_smallest(keys[:k], z, 31, 0, 0, head)
        _select_smallest(keys[k:], z, 31, 0, k, rest)
        np.testing.assert_array_equal(np.vstack([head, rest]), rows)

    @pytest.mark.parametrize("n1", [1, 3, 6])
    def test_redrawn_rows_are_the_boundary_ties(self, monkeypatch, n1):
        # keys from {0, ..., 3} tie in most rows, at the boundary and away
        # from it; only a tie of the n1-th and (n1+1)-th smallest keys
        # redraws the row, on the stream keyed by its column
        z = np.array([1.0] * n1 + [0.0] * (7 - n1))
        keys = np.random.default_rng(n1).integers(0, 4, size=(300, 7), dtype=np.uint32)
        ordered = np.sort(keys, axis=1)
        tied = ordered[:, n1 - 1] == ordered[:, n1]
        assert tied.any() and not tied.all()
        redrawn = []

        def recording(seed, *key):
            redrawn.append((seed, *key))
            return stream(seed, *key)

        monkeypatch.setattr(permutation, "stream", recording)
        rows = np.empty((300, 7))
        _select_smallest(keys, z, 31, 2, 40, rows)
        assert redrawn == [(31, 2, 40 + i + 1) for i in np.flatnonzero(tied)]
        np.testing.assert_array_equal(rows[~tied], keys[~tied] <= ordered[~tied, n1 - 1 : n1])

    def test_natural_ties_of_narrow_keys_are_redrawn(self, monkeypatch):
        # below the bound the 16-bit keys of a full chunk tie at the
        # boundary by themselves, in about n / 2**17 of its rows
        n, n1, b, seed = 3000, 1000, 1024, 5
        assert n <= _NARROW_KEYS_MAX_N
        z = np.zeros(n)
        z[:n1] = 1.0
        redrawn = []

        def recording(seed, *key):
            if len(key) == 2:
                redrawn.append((seed, *key))
            return stream(seed, *key)

        monkeypatch.setattr(permutation, "stream", recording)
        drawn = _permuted_z(z, seed, 0, b)
        words = stream(seed, 0).bit_generator.random_raw((b, n // 4))
        keys = np.stack([(words >> np.uint64(s)) & np.uint64(0xFFFF) for s in (0, 16, 32, 48)], axis=2)
        ordered = np.sort(keys.reshape(b, n), axis=1)
        tied = np.flatnonzero(ordered[:, n1 - 1] == ordered[:, n1])
        assert redrawn and redrawn == [(seed, 0, i + 1) for i in tied]
        assert (drawn.sum(axis=0) == n1).all()

    @pytest.mark.parametrize("k", FIRST_K)
    def test_first_k_draws_do_not_depend_on_b(self, k):
        # the draws of B = k are the first k draws of a larger B, also
        # across the chunk boundary at 1024
        z = np.array([1, 0] * 20)
        np.testing.assert_array_equal(chunk_draws(z, 19, k), chunk_draws(z, 19, 2100)[:, :k])

    @pytest.mark.parametrize(
        "k, weight_policy",
        [(k, "fixed") for k in FIRST_K] + [(k, "refit") for k in FIRST_K],
        ids=[str(k) for k in FIRST_K] + [f"{k}-refit" for k in FIRST_K],
    )
    def test_first_k_permuted_values_do_not_depend_on_b(self, rng, k, weight_policy):
        # same draws, so the same statistics up to rounding: the last bits
        # of a BLAS product can depend on how many columns its batch holds,
        # and under refit the control Gram matrices are one such product
        d = random_dataset(rng, n=40, p=2)
        statistics = ("uw", "rw", "hotelling")
        short = permutation_pvalues(d, statistics, k, seed=19, weight_policy=weight_policy)
        long = permutation_pvalues(d, statistics, 2100, seed=19, weight_policy=weight_policy)
        for name in statistics:
            np.testing.assert_allclose(
                short[name].permuted_values, long[name].permuted_values[:k], rtol=1e-12, atol=1e-15
            )


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

    @pytest.mark.parametrize("weight_policy", ["fixed", "refit"])
    @pytest.mark.parametrize("statistics", STATISTIC_SUBSETS, ids="+".join)
    def test_statistics_share_draws(self, rng, statistics, weight_policy):
        d = random_dataset(rng, n=30, p=2)
        joint = permutation_pvalues(d, ("uw", "hotelling"), 64, seed=5)
        solo = permutation_test(d, "uw", 64, seed=5)
        assert np.array_equal(joint["uw"].permuted_values, solo.permuted_values)
        # a subset of the statistics gets what a request for all three gives it
        every = permutation_pvalues(d, STATISTIC_NAMES, 64, seed=5, weight_policy=weight_policy)
        subset = permutation_pvalues(d, statistics, 64, seed=5, weight_policy=weight_policy)
        assert list(subset) == list(statistics)
        for name in statistics:
            got, want = subset[name], every[name]
            for field in ("observed", "p_value", "p_conservative", "n_failed", "n_refit_fallback"):
                assert getattr(got, field) == getattr(want, field), (name, field)
            assert np.array_equal(got.permuted_values, want.permuted_values)

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
        values, failures, _ = _refit_rw_columns(refit_basis(xs, y), z_cols, deltas)
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

    def test_repeated_statistic_refused(self, rng):
        d = random_dataset(rng)
        with pytest.raises(ValueError, match="must not repeat"):
            permutation_pvalues(d, ("uw", "uw"), 10, 1)
        with pytest.raises(ValueError, match="must not repeat"):
            permutation_pvalues([d, d], ["rw", "hotelling", "rw"], 10, [1, 2])

    def test_statistics_string_refused(self, rng):
        d = random_dataset(rng)
        for statistics in ("uw", "rw", "hotelling"):
            with pytest.raises(ValueError, match=r"a sequence such as \('uw',\)"):
                permutation_pvalues(d, statistics, 10, 1)
            with pytest.raises(ValueError, match=r"a sequence such as \('uw',\)"):
                permutation_pvalues([d, d], statistics, 10, [1, 2])

    def test_statistics_any_iterable(self, rng):
        d = random_dataset(rng)
        names = ("uw", "hotelling")
        want = permutation_pvalues(d, names, 20, 1)
        for statistics in (list(names), (s for s in names), iter(names)):
            got = permutation_pvalues(d, statistics, 20, 1)
            assert list(got) == ["uw", "hotelling"]
            for name in got:
                assert np.array_equal(got[name].permuted_values, want[name].permuted_values)
                assert got[name].p_value == want[name].p_value
        with pytest.raises(ValueError, match="must not repeat"):
            permutation_pvalues(d, (s for s in ("rw", "rw")), 10, 1)

    @pytest.mark.parametrize("seed", [None, True, False, np.True_, -1, np.int64(-1), 1.5, 1.0, "1"])
    def test_bad_seed_refused(self, rng, seed):
        d = random_dataset(rng)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            permutation_test(d, "uw", 10, seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            permutation_pvalues(d, STATISTIC_NAMES, 10, seed, weight_policy="refit")
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            permutation_pvalues([d, d], ("uw",), 10, [1, seed])

    @pytest.mark.parametrize("seed", [1, np.int64(1), None, 1.5])
    def test_stack_needs_a_sequence_of_seeds(self, rng, seed):
        d = random_dataset(rng)
        with pytest.raises(ValueError, match="a stack needs a sequence of seeds"):
            permutation_pvalues([d, d], ("uw",), 10, seed)

    @pytest.mark.parametrize("seed", [np.uint64(1), np.int64(1), np.uint8(1)])
    def test_numpy_integer_seed_accepted(self, rng, seed):
        # b crosses a chunk boundary, so a second chunk's stream is keyed by the seed too
        d = random_dataset(rng, n=30, p=2)
        for policy in ("fixed", "refit"):
            got = permutation_pvalues(d, STATISTIC_NAMES, 1100, seed, weight_policy=policy)
            want = permutation_pvalues(d, STATISTIC_NAMES, 1100, 1, weight_policy=policy)
            stacked = permutation_pvalues([d, d], STATISTIC_NAMES, 30, [seed, 2], policy)
            plain = permutation_pvalues([d, d], STATISTIC_NAMES, 30, [1, 2], policy)
            for name in STATISTIC_NAMES:
                assert got[name].observed == want[name].observed
                assert np.array_equal(got[name].permuted_values, want[name].permuted_values)
                assert got[name].p_value == want[name].p_value
                first, second = stacked[0][name], plain[0][name]
                assert np.array_equal(first.permuted_values, second.permuted_values)

    @pytest.mark.parametrize("b", [2.5, 10.0, True, False, np.True_, "10", None])
    def test_non_integer_b_refused(self, rng, b):
        d = random_dataset(rng)
        with pytest.raises(ValueError, match="b must be an integer"):
            permutation_pvalues(d, ("uw",), b, 1)

    @pytest.mark.parametrize("b", [np.int64(37), np.int32(37), np.uint16(37)])
    def test_numpy_integer_b_accepted(self, rng, b):
        d = random_dataset(rng)
        got = permutation_test(d, "uw", b=b, seed=4)
        want = permutation_test(d, "uw", b=37, seed=4)
        assert np.array_equal(got.permuted_values, want.permuted_values)
        assert got.p_value == want.p_value


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
        drawn = chunk_draws(d.z, seed, b)
        for i in range(b):
            z_i = drawn[:, i]
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
        drawn = chunk_draws(d.z, seed, b)
        for i in range(b):
            z_i = drawn[:, i]
            d_i = Dataset(x=d.x, z=z_i, y_obs=d.y_obs)
            w_i = control_arm_weights(d_i).coefficients
            expected = float(w_i @ naive_differences(d_i))
            assert np.isclose(res.permuted_values[i], expected, atol=1e-10)


def refit_basis(xs, y):
    """The refit kernel's basis of covariates ``xs`` as given, which keeps
    those that vary, and outcome ``y``."""
    return RefitBasis(xs, y, np.flatnonzero(varying_columns(xs)))


def looped_refit(xs, y, z_cols, deltas):
    """One least-squares fit (``conftest.lstsq``) per column, failures as
    +inf: the reference for the stacked refit kernel.

    Also returns each column's error scale: a backward-stable least-squares
    solver gets the weights w (intercept included) of the design
    A = [1 | covariates varying in the arm] to within
    eps * ||w|| * (2 kappa ||y|| + kappa^2 ||r||) / ||A w||, with r the
    residuals and kappa the condition number of A (Golub and Van Loan,
    Matrix Computations, Thm 5.3.1); times ||delta|| this bounds the sum.
    """
    values = np.empty(z_cols.shape[1])
    scales = np.zeros(z_cols.shape[1])
    for i in range(z_cols.shape[1]):
        control = z_cols[:, i] == 0.0
        try:
            solution = lstsq(xs[control], y[control])
        except BalanceLabError:
            values[i] = np.inf
            continue
        values[i] = solution[1:] @ deltas[:, i]
        live = varying_columns(xs[control])
        design = np.column_stack([np.ones(np.count_nonzero(control)), xs[control][:, live]])
        singular_values = np.linalg.svd(design, compute_uv=False)
        kappa = singular_values[0] / singular_values[-1]
        w = np.linalg.norm([solution[0], *solution[1:][live]])
        fitted_values = solution[0] + xs[control] @ solution[1:]
        fitted = np.linalg.norm(fitted_values)
        residual = np.linalg.norm(y[control] - fitted_values)
        bound = w * (2 * kappa * np.linalg.norm(y[control]) + kappa**2 * residual) / fitted
        scales[i] = np.finfo(float).eps * bound * np.linalg.norm(deltas[live, i])
    return values, scales


def refit_design(kind, g, n, p):
    """Covariates of one kind: ``binary`` makes some control arms hold a
    constant column, ``collinear`` nearly repeats a column, ``zero`` holds
    a constant covariate as the standardized scale stores it, and
    ``offset`` is a raw column whose spread is tiny next to its level (the
    least-squares engine calls it rank deficient although its diagonal
    ratio looks harmless); ``constant_in_arm`` has a first column that is
    zero but on two units, so it is constant in every arm without them."""
    if kind == "binary":
        return (g.random((n, p)) < 0.04).astype(float)
    x = g.normal(size=(n, p))
    if kind == "constant_in_arm":
        x[:, 0] = 0.0
        x[g.choice(n, 2, replace=False), 0] = 1.0
    if kind == "collinear" and p > 1:
        x[:, -1] = x[:, 0] + 1e-3 * g.normal(size=n)
    if kind == "zero":
        x[:, 0] = 0.0
    if kind == "offset":
        x[:, -1] = 1e3 + 1e-5 * g.normal(size=n)
    return x


@contextlib.contextmanager
def counted_eigvalsh():
    """The number of matrices of each ``np.linalg.eigvalsh`` call in the block."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(1 if a.ndim == 2 else a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counting)
        yield seen


class TestStackedRefit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "binary", "collinear", "zero", "offset"]),
        p=st.integers(1, 4),
        b=st.integers(1, 40),
    )
    # Column 37: terms summing to 4.8 cancel to 0.053, so a bound relative
    # to the result is below rounding. Seed 131: kappa = 1e4 puts the error
    # at 2e-9 of sum |w_j delta_j|. Seed 53: a small weight puts it at 2500
    # eps of that sum at kappa = 1.25.
    @example(seed=4, kind="collinear", p=4, b=39)
    @example(seed=131, kind="collinear", p=4, b=40)
    @example(seed=53, kind="zero", p=2, b=40)
    def test_matches_pivoted_loop(self, seed, kind, p, b):
        g = np.random.default_rng(seed)
        n = int(g.integers(2 * p + 8, 80))
        xs = refit_design(kind, g, n, p)
        y = xs @ g.normal(size=p) + g.normal(size=n)
        n1 = n // 2
        z_cols = np.zeros((n, b))
        for i in range(b):
            z_cols[g.permutation(n)[:n1], i] = 1.0
        deltas = g.normal(size=(p, b))

        values, failures, fallbacks = _refit_rw_columns(refit_basis(xs, y), z_cols, deltas)
        expected, scales = looped_refit(xs, y, z_cols, deltas)
        failed = np.isinf(expected)
        np.testing.assert_array_equal(np.isinf(values), failed)
        assert failures == np.count_nonzero(failed) <= fallbacks <= b
        # within 100 times the perturbation bound of the reference fit
        error = np.abs(values[~failed] - expected[~failed])
        bound = 100 * scales[~failed]
        assert (error <= bound).all(), (error / np.where(bound > 0, bound, 1.0)).max()
        if kind == "offset":
            assert failures == b

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["binary", "constant_in_arm", "offset", "collinear"]),
        p=st.integers(1, 4),
        b=st.integers(1, 60),
    )
    def test_fallbacks_are_fit_ols_bit_for_bit(self, seed, kind, p, b):
        # One _lstsq call fits every fallback column's control arm, and each
        # gets the value _lstsq gives it alone: the same bits, or +inf
        # exactly where that fit fails.
        g = np.random.default_rng(seed)
        n = int(g.integers(p + 4, 60))
        xs = refit_design(kind, g, n, p)
        y = xs @ g.normal(size=p) + g.normal(size=n)
        n1 = int(g.integers(1, n))
        z_cols = np.zeros((n, b))
        for i in range(b):
            z_cols[g.permutation(n)[:n1], i] = 1.0
        # distinct assignments, so each member of the stack names one column
        z_cols = np.unique(z_cols, axis=1)
        deltas = g.normal(size=(p, z_cols.shape[1]))

        stacks = []
        original = balance._lstsq

        def spy(x, y):
            stacks.append(y.copy())
            return original(x, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(balance, "_lstsq", spy)
            values, failures, fallbacks = _refit_rw_columns(refit_basis(xs, y), z_cols, deltas)

        controls = [z == 0.0 for z in z_cols.T]
        if n - n1 <= p + 1:
            # every arm is too small: no fit, every column fails
            assert stacks == [] and failures == fallbacks == z_cols.shape[1]
            fallback = range(z_cols.shape[1])
        else:
            assert len(stacks) == (1 if fallbacks else 0)
            column_of = {y[control].tobytes(): i for i, control in enumerate(controls)}
            fallback = [column_of[member.tobytes()] for stack in stacks for member in stack]
            assert fallback == sorted(set(fallback)) and len(fallback) == fallbacks
        expected = []
        for i in fallback:
            try:
                solution = lstsq(xs[controls[i]], y[controls[i]])
                expected.append(float(solution[1:] @ deltas[:, i]))
            except BalanceLabError:
                expected.append(np.inf)
        assert values[list(fallback)].tolist() == expected
        assert failures == expected.count(np.inf)

    def test_counts_fallbacks(self, rng):
        xs = rng.normal(size=(60, 2))
        xs[:5, 1] = 1.0
        xs[5:, 1] = 0.0
        y = rng.normal(size=60)
        z_cols = np.zeros((60, 3))
        z_cols[:30, 0] = 1.0  # control arm rows 30..59: column 1 constant
        z_cols[30:, 1] = 1.0
        z_cols[::2, 2] = 1.0
        values, failures, fallbacks = _refit_rw_columns(refit_basis(xs, y), z_cols, np.ones((2, 3)))
        assert (failures, fallbacks) == (0, 1)
        expected, _ = looped_refit(xs, y, z_cols, np.ones((2, 3)))
        np.testing.assert_allclose(values, expected, rtol=1e-10)

    def test_gate_matches_direct_condition_number(self):
        # Raw scale: an age-like covariate next to one with mean 2.3e4 and
        # SD 640 gives the full design a condition number of 8e5, so the
        # control designs straddle the 1e6 gate, and the cheap bound
        # sqrt(kappa(G)) kappa(R11) leaves about half of them uncertified:
        # the gate must then match the singular values of each design.
        g = np.random.default_rng(11)
        n, b = 200, 200
        xs = np.column_stack([g.normal(40, 12, n), g.normal(2.3e4, 640, n)])
        y = 0.02 * xs[:, 0] + 1e-3 * xs[:, 1] + g.normal(size=n)
        z_cols = chunk_draws([1, 0] * (n // 2), 11, b)
        deltas = g.normal(size=(2, b))
        values, failures, fallbacks = _refit_rw_columns(refit_basis(xs, y), z_cols, deltas)
        kappa = np.array(
            [np.linalg.cond(np.column_stack([np.ones(n // 2), xs[z == 0.0]])) for z in z_cols.T]
        )
        over = kappa >= 1.0 / RCOND_GATE
        near = np.abs(kappa * RCOND_GATE - 1.0) <= 1e-6
        assert np.count_nonzero(over & ~near) > 0
        assert np.count_nonzero(over & ~near) <= fallbacks <= np.count_nonzero(over | near)
        expected, scales = looped_refit(xs, y, z_cols, deltas)
        assert failures == 0 and np.isfinite(expected).all()
        assert (np.abs(values - expected) <= 100 * scales).all()

    def test_benchmark_shape_needs_no_eigenvalues(self):
        # control Gram matrices near I / 2: the Gershgorin discs certify all
        g = np.random.default_rng(41)
        x = g.standard_normal((1000, 5))
        y = x @ np.linspace(0.5, 0.05, 5) + g.standard_normal(1000)
        d = Dataset(x=x, z=g.permutation(np.repeat([1, 0], 500)), y_obs=y)
        with counted_eigvalsh() as seen:
            res = permutation_test(d, "rw", b=1000, seed=5, weight_policy="refit")
        assert seen == []
        assert (res.n_failed, res.n_refit_fallback) == (0, 0)

    def test_small_binary_design_takes_some_eigenvalues(self):
        g = np.random.default_rng(43)
        n, b = 16, 200
        xs = (g.random((n, 2)) < 0.5).astype(float)
        y = xs @ g.normal(size=2) + g.normal(size=n)
        z_cols = chunk_draws([1, 0] * (n // 2), 43, b)
        with counted_eigvalsh() as seen:
            _refit_rw_columns(refit_basis(xs, y), z_cols, g.normal(size=(2, b)))
        assert len(seen) == 1 and 0 < seen[0] < b

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(12, 20),
        p=st.integers(1, 3),
        b=st.integers(1, 120),
        share=st.sampled_from([0.2, 0.5]),
    )
    def test_gates_match_eigenvalues_and_singular_values(self, seed, n, p, b, share):
        # A column leaves the stacked path exactly when its control Gram
        # matrix, formed directly from Q, has eigenvalue ratio above
        # _GRAM_KAPPA, or its gathered control design has singular value
        # ratio at least 1 / RCOND_GATE; columns within 1e-6 of a gate
        # may go either way.
        g = np.random.default_rng(seed)
        xs = (g.random((n, p)) < share).astype(float)
        y = xs @ g.normal(size=p) + g.normal(size=n)
        z_cols = np.zeros((n, b))
        for i in range(b):
            z_cols[g.permutation(n)[: n // 2], i] = 1.0
        deltas = g.normal(size=(p, b))
        values, failures, fallbacks = _refit_rw_columns(refit_basis(xs, y), z_cols, deltas)

        live = varying_columns(xs)
        q, _ = np.linalg.qr(np.column_stack([np.ones(n), xs[:, live], y]))
        over, near = np.zeros(b, dtype=bool), np.zeros(b, dtype=bool)
        for i, z in enumerate(z_cols.T):
            control = z == 0.0
            eigenvalues = np.linalg.eigvalsh(q[control].T @ q[control])
            gram_gate = _GRAM_KAPPA * eigenvalues[0]
            design = np.column_stack([np.ones(np.count_nonzero(control)), xs[control][:, live]])
            singular_values = np.linalg.svd(design, compute_uv=False)
            design_gate = RCOND_GATE * singular_values[0]
            over[i] = eigenvalues[-1] > gram_gate or singular_values[-1] <= design_gate
            near[i] = (
                abs(eigenvalues[-1] - gram_gate) <= 1e-6 * eigenvalues[-1]
                or abs(singular_values[-1] - design_gate) <= 1e-6 * design_gate
            )
        assert np.count_nonzero(over & ~near) <= fallbacks <= np.count_nonzero(over | near)

        expected, scales = looped_refit(xs, y, z_cols, deltas)
        failed = np.isinf(expected)
        np.testing.assert_array_equal(np.isinf(values), failed)
        assert failures == np.count_nonzero(failed)
        assert (np.abs(values[~failed] - expected[~failed]) <= 100 * scales[~failed]).all()

    def test_one_basis_per_dataset(self, monkeypatch, rng):
        # the observed column and both chunks of B=1100 read one QR of
        # [1 | covariates | outcome]; with no fallback there is no other QR
        calls = []
        original = np.linalg.qr

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        d = random_dataset(rng, n=200, p=3)
        res = permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit")
        assert res.n_refit_fallback == 0
        assert calls == [(200, 5)]

    def test_rw_repeatable_across_chunk_boundary(self, rng):
        # a sparse binary covariate sends some columns of every chunk to
        # the fallback fit, so both routes meet the chunk boundary
        x = np.column_stack([rng.normal(size=(60, 2)), rng.random(60) < 0.06])
        d = Dataset(x=x, z=np.array([1, 0] * 30), y_obs=rng.normal(size=60))
        reference = permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit")
        assert 0 < reference.n_refit_fallback < reference.b
        res = permutation_test(d, "rw", b=1100, seed=8, weight_policy="refit")
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
        drawn = chunk_draws(z, seed, b)
        separating = (drawn == x1[:, None]).all(axis=0) | (drawn == 1 - x1[:, None]).all(axis=0)
        assert separating.any()
        res = permutation_test(d, "hotelling", b=b, seed=seed)
        assert np.isfinite(res.observed)
        np.testing.assert_array_equal(np.isinf(res.permuted_values), separating)
        extreme = np.count_nonzero(res.permuted_values[~separating] >= res.observed)
        assert res.p_value == (separating.sum() + extreme) / b


class TestStackedPermutationTests:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(
            st.sampled_from(["gaussian", "constant", "collinear", "control_collinear"]),
            min_size=1,
            max_size=6,
        ),
        p=st.integers(1, 12),
        b=st.integers(1, 1100),
        weight_policy=st.sampled_from(["fixed", "refit"]),
        statistics=st.lists(st.sampled_from(STATISTIC_NAMES), min_size=1, max_size=3, unique=True),
    )
    @example(seed=1, kinds=["gaussian"] * 3, p=3, b=1025, weight_policy="refit", statistics=list(STATISTIC_NAMES))
    @example(
        seed=2,
        kinds=["gaussian", "control_collinear", "constant"],
        p=3,
        b=40,
        weight_policy="fixed",
        statistics=["uw", "rw"],
    )
    # T^2 near 0 on the third member, where a check against one product of
    # all 1 + B columns differed in the last bits
    @example(
        seed=0,
        kinds=["gaussian"] * 3,
        p=1,
        b=494,
        weight_policy="fixed",
        statistics=["uw", "hotelling"],
    )
    def test_stack_equals_members_alone(self, seed, kinds, p, b, weight_policy, statistics):
        # B crosses the blocks of 128 rows and the chunk of 1024; a member
        # that raises alone (its control-arm fit among the causes) holds its
        # error in the stack, and a collinear member's whitened view is
        # narrower than its neighbours'
        g = np.random.default_rng(seed)
        n = 2 * (p + 4 + int(g.integers(0, 10)))
        z = g.permutation(np.repeat([1, 0], n // 2))
        datasets = [stack_member(kind, g, z, p) for kind in kinds]
        seeds = [int(s) for s in g.integers(0, 2**63, size=len(kinds))]
        stacked = permutation_pvalues(datasets, statistics, b, seeds, weight_policy=weight_policy)
        assert len(stacked) == len(datasets)
        for d, member_seed, outcome in zip(datasets, seeds, stacked):
            try:
                alone = permutation_pvalues(d, statistics, b, member_seed, weight_policy=weight_policy)
            except BalanceLabError as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
                continue
            assert list(outcome) == list(statistics)
            for name in statistics:
                got, expected = outcome[name], alone[name]
                assert (got.statistic_name, got.b, got.seed, got.weight_policy) == (
                    expected.statistic_name, expected.b, expected.seed, expected.weight_policy
                )
                assert np.array_equal(got.observed, expected.observed, equal_nan=True)
                assert np.array_equal(got.permuted_values, expected.permuted_values, equal_nan=True)
                assert (got.p_value, got.p_conservative) == (expected.p_value, expected.p_conservative)
                assert (got.n_failed, got.n_refit_fallback) == (expected.n_failed, expected.n_refit_fallback)
            if "hotelling" in statistics:
                # the stack's whitened sums are p rows deep; a member whose
                # whitened view is narrower gets its own width's statistics,
                # bit for bit, from the program's batches: the observed
                # column alone, then each chunk as _permuted_z returns it,
                # each in one product with [xs | xw]
                operand = np.hstack([d.standardized_x, d.whitened[0]])
                batches = [_observed_column(d)] + [
                    _permuted_z(d.z, member_seed, start, min(_CHUNK, b - start))
                    for start in range(0, b, _CHUNK)
                ]
                expected = [
                    _hotelling((operand.T @ z_cols)[p:], n // 2, n // 2) for z_cols in batches
                ]
                res = outcome["hotelling"]
                assert np.array_equal(
                    np.append(res.observed, res.permuted_values), np.concatenate(expected)
                )

    def test_stack_is_validated(self, rng):
        d = random_dataset(rng, n=20, p=2)
        other = Dataset(x=d.x, z=d.z[::-1], y_obs=d.y_obs)
        with pytest.raises(ValueError):
            permutation_pvalues([d, other], ("uw",), 10, [1, 2])
        with pytest.raises(ValueError):
            permutation_pvalues([d, d], ("uw",), 10, [1])
        with pytest.raises(ValueError):
            permutation_pvalues([d], ("rw",), 10, [1], weight_policy="refit", weights=[np.ones(2)])
        assert permutation_pvalues([], ("uw",), 10, []) == []

    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    @pytest.mark.parametrize("weight_policy", ["fixed", "refit"])
    def test_member_whose_standardization_overflows_fails_alone(self, rng, weight_policy, scale):
        # every cell of x1 is finite, but its mean and SD overflow; on the
        # raw scale the failed member contributes no scale factors
        z = rng.permutation(np.repeat([1, 0], 20))
        x, y = rng.normal(size=(40, 2)), rng.normal(size=40)
        big = x.copy()
        big[:, 0] = 1e308 * rng.uniform(0.5, 0.9, size=40)
        run = lambda members, seeds: permutation_pvalues(
            members, STATISTIC_NAMES, 50, seeds, weight_policy=weight_policy, scale=scale
        )
        alone = run(Dataset(x=x, z=z, y_obs=y), 1)
        good, overflowing = run([Dataset(x=x, z=z, y_obs=y), Dataset(x=big, z=z, y_obs=y)], [1, 2])
        assert isinstance(overflowing, NonNumericValue) and "'x1'" in str(overflowing)
        for name in STATISTIC_NAMES:
            assert good[name].observed == alone[name].observed
            assert np.array_equal(good[name].permuted_values, alone[name].permuted_values)
            assert good[name].p_value == alone[name].p_value
        with pytest.raises(NonNumericValue, match="'x1'"):
            permutation_test(
                Dataset(x=big, z=z, y_obs=y), "uw", 20, 2, weight_policy=weight_policy, scale=scale
            )

    def test_empty_statistics_refused_before_drawing(self, rng, monkeypatch):
        d = random_dataset(rng, n=20, p=2)

        def no_draws(*args):
            raise AssertionError("drew assignments")

        monkeypatch.setattr(permutation, "_permuted_z", no_draws)
        with pytest.raises(ValueError, match="at least one statistic"):
            permutation_pvalues(d, (), 10, 1)
        with pytest.raises(ValueError, match="at least one statistic"):
            permutation_pvalues([d, d], [], 10, [1, 2])
