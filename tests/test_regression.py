from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from balance_lab import (
    Dataset,
    compute_balance_report,
    control_arm_weights,
    raw_form,
    regression,
    treatment_arm_weights,
)
from balance_lab.data import population_sd, stack_views
from balance_lab.errors import BalanceLabError, ControlArmTooSmall, InsufficientRows, RankDeficient
from balance_lab.regression import RANK_RTOL, RCOND_GATE
from conftest import lstsq, residualize


def scipy_reference(x, y):
    """The least-squares engine as scipy builds it: LAPACK's column-pivoted
    QR of ``[1 | non-constant columns of x]``, rank read off ``|diag R|`` at
    ``RANK_RTOL``. Returns the design, its rank, the covariates named as
    collinear (None at full rank) and the solution, intercept first (None
    below full rank)."""
    n = x.shape[0]
    retained = np.flatnonzero(np.ptp(x, axis=0) > 0)
    design = np.column_stack([np.ones(n), x[:, retained]])
    q, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > RANK_RTOL * diag.max()))
    if rank < design.shape[1]:
        named = tuple(sorted(int(retained[j - 1]) for j in pivot[rank:] if j > 0))
        return design, rank, named, None
    solution = np.empty(design.shape[1])
    solution[pivot] = scipy.linalg.solve_triangular(r, q.T @ y)
    return design, rank, None, solution


def least_squares_error_bound(design, solution, y):
    """eps * ||w|| * (2 kappa ||y|| + kappa^2 ||r||) / ||A w||: how far a
    backward-stable least-squares solver may put the solution w of
    min ||A w - y|| (Golub and Van Loan, Matrix Computations, Thm 5.3.1)."""
    singular_values = np.linalg.svd(design, compute_uv=False)
    kappa = singular_values[0] / singular_values[-1]
    fitted = design @ solution
    residual = np.linalg.norm(y - fitted)
    scale = 2 * kappa * np.linalg.norm(y) + kappa**2 * residual
    return np.finfo(float).eps * np.linalg.norm(solution) * scale / np.linalg.norm(fitted)


def oracle_design(kind, g, n, p, log_kappa):
    x = g.normal(size=(n, p))
    if kind == "collinear":
        # one column an exact combination of the others and the intercept;
        # continuous coefficients, so no two remaining column norms tie
        j = int(g.integers(p))
        c = g.uniform(-2, 2, size=p) * (g.random(p) < 0.7)
        c[j] = 0.0
        x[:, j] = x @ c + g.uniform(-2, 2)
    elif kind == "integer":
        x = np.round(x * g.integers(1, 3)) if g.random() < 0.5 else (x > 0).astype(float)
    elif kind == "scaled":
        # the last column a near-copy of the first: kappa grows as 10**log_kappa
        x *= 10.0 ** g.uniform(-1, 1, size=p)
        if p > 1:
            noise = 10.0**-log_kappa * np.abs(x[:, 0]).max() * g.normal(size=n)
            x[:, -1] = x[:, 0] * g.uniform(0.5, 2) + noise
    return x


def half_control(x, y):
    """A dataset whose odd rows form the control arm."""
    return Dataset(x=x, z=np.array([1, 0] * (len(y) // 2)), y_obs=y)


class TestFitOls:
    """The least-squares engine of every arm fit, ``regression._lstsq``, one
    design at a time (``conftest.lstsq``); the fit record through the
    control-arm fit and its raw form."""

    def test_exact_fit(self, rng):
        x = rng.normal(size=(60, 1))
        d = half_control(x, x[:, 0])
        fit = control_arm_weights(d)
        coefficients, intercept = raw_form(d, fit)
        assert np.isclose(coefficients[0], 1.0)
        assert np.isclose(fit.r_squared, 1.0)
        residuals = x[1::2, 0] - (intercept + x[1::2] @ coefficients)
        assert np.abs(residuals).max() < 1e-12

    def test_recovers_known_coefficients(self, rng):
        x = rng.normal(size=(60, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 5.0
        solution = lstsq(x, y)
        np.testing.assert_allclose(solution[1:], [3.0, -2.0], atol=1e-8)
        assert np.isclose(solution[0], 5.0, atol=1e-8)

    def test_pure_noise_r_squared_small(self):
        g = np.random.default_rng(4)
        x = g.normal(size=(10000, 3))
        y = g.normal(size=10000)
        fit = control_arm_weights(half_control(x, y))
        assert fit.r_squared < 0.01

    def test_residual_orthogonality(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 60))
            p = int(rng.integers(1, 5))
            x = rng.normal(size=(n, p))
            y = rng.normal(size=n)
            solution = lstsq(x, y)
            residuals = y - (solution[0] + x @ solution[1:])
            scale = max(np.abs(y).max(), 1.0)
            assert abs(residuals.sum()) < 1e-8 * n * scale
            for j in range(p):
                assert abs(residuals @ x[:, j]) < 1e-8 * n * scale * max(np.abs(x[:, j]).max(), 1.0)

    def test_rank_deficient_reports_columns(self, rng):
        x = rng.normal(size=(20, 2))
        x = np.column_stack([x, x[:, 0]])
        with pytest.raises(RankDeficient) as info:
            lstsq(x, rng.normal(size=20))
        assert set(info.value.columns) & {0, 2}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[3, 1] = bad
        y_bad[5] = bad
        for args in ((x_bad, y), (x, y_bad)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                lstsq(*args)

    def test_rank_deficient_columns_ignore_row_order(self):
        # One-hot indicators of every level are collinear with the intercept.
        # Integer columns leave remaining column norms tied at many pivot
        # steps; the named columns must not depend on how rounding breaks
        # such ties, which changes with the order of the rows.
        g = np.random.default_rng(5)
        for _ in range(50):
            n, levels = int(g.integers(9, 30)), int(g.integers(3, 5))
            category = np.concatenate([np.arange(levels), g.integers(levels, size=n - levels)])
            indicators = [category == level for level in range(levels)]
            x = np.column_stack([*indicators, g.integers(0, 3, size=n)]).astype(float)
            y = g.normal(size=n)
            named = set()
            for order in [np.arange(n), *(g.permutation(n) for _ in range(5))]:
                with pytest.raises(RankDeficient) as info:
                    lstsq(x[order], y[order])
                named.add(info.value.columns)
            assert len(named) == 1, named

    def test_insufficient_rows(self, rng):
        x = rng.normal(size=(4, 4))
        with pytest.raises(InsufficientRows):
            lstsq(x, rng.normal(size=4))

    def test_constant_column_gets_zero_coefficient(self, rng):
        x = rng.normal(size=(25, 2))
        x_aug = np.column_stack([x[:, 0], np.full(25, 7.0), x[:, 1]])
        y = rng.normal(size=25)
        fit_aug = lstsq(x_aug, y)[1:]
        fit_plain = lstsq(x, y)[1:]
        assert fit_aug[1] == 0.0
        np.testing.assert_allclose(fit_aug[[0, 2]], fit_plain, atol=1e-10)

    def test_standardized_coefficients_scaling(self, rng):
        # sd(x_j) over all N units, sd(y) over the control arm
        x = rng.normal(size=(80, 3)) * np.array([1.0, 5.0, 0.2])
        y = x @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=80)
        d = half_control(x, y)
        fit = control_arm_weights(d)
        expected = raw_form(d, fit)[0] * np.std(x, axis=0) / population_sd(y[1::2])
        np.testing.assert_allclose(fit.standardized_coefficients, expected, rtol=1e-12)

    def test_row_permutation_invariance(self, rng):
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        perm = rng.permutation(50)
        a = lstsq(x, y)
        b = lstsq(x[perm], y[perm])
        np.testing.assert_allclose(a[1:], b[1:], rtol=1e-9, atol=1e-12)
        assert np.isclose(a[0], b[0], rtol=1e-9, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fwl_identity(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(20, 120))
        p = int(g.integers(2, 6))
        x = g.normal(size=(n, p))
        y = g.normal(size=n)
        coefficients = lstsq(x, y)[1:]
        for j in range(p):
            resid = residualize(x, j)
            ratio = (y @ resid) / (resid @ resid)
            assert abs(coefficients[j] - ratio) <= 1e-8 * max(1.0, abs(ratio))


class TestScipyOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["continuous", "collinear", "integer", "scaled"]),
        p=st.integers(1, 5),
        log_kappa=st.floats(0.0, 8.0),
    )
    def test_matches_scipy_pivoted_qr(self, seed, kind, p, log_kappa):
        # Scaled designs put kappa on both sides of 1 / RCOND_GATE = 1e6;
        # small integer designs and exact combinations are rank deficient.
        g = np.random.default_rng(seed)
        n = int(g.integers(p + 2, 12 if kind == "integer" else 60))
        x = oracle_design(kind, g, n, p, log_kappa)
        y = x @ g.normal(size=p) + g.normal(size=n)
        design, rank, named, solution = scipy_reference(x, y)
        singular_values = np.linalg.svd(design, compute_uv=False)
        gate = RCOND_GATE * singular_values[0]

        with mock.patch.object(
            regression, "_pivoted_qr_solve", wraps=regression._pivoted_qr_solve
        ) as pivoted:
            if named is None:
                got = lstsq(x, y)
            else:
                with pytest.raises(RankDeficient) as info:
                    lstsq(x, y)
        # the unpivoted QR keeps exactly the designs with kappa below 1e6
        if abs(singular_values[-1] - gate) > 1e-6 * gate:
            assert pivoted.called == (singular_values[-1] <= gate)

        if named is None:
            retained = np.concatenate([[0], 1 + np.flatnonzero(np.ptp(x, axis=0) > 0)])
            bound = least_squares_error_bound(design, solution, y)
            assert np.linalg.norm(got[retained] - solution) <= 100 * bound
            assert not got[1:][np.ptp(x, axis=0) == 0].any()
            return
        k = design.shape[1]
        columns = info.value.columns
        assert str(info.value) == (
            f"design matrix has rank {rank} < {k}; collinear covariate columns: {columns}"
        )
        if columns != named:
            # Integer columns often leave two remaining column norms equal;
            # either QR then breaks the tie by rounding, and dropping either
            # set of columns leaves a design of the same rank.
            assert kind == "integer"
            retained = np.flatnonzero(np.ptp(x, axis=0) > 0)
            kept = [0, *(1 + i for i, c in enumerate(retained) if c not in columns)]
            assert np.linalg.matrix_rank(design[:, kept]) == rank

    def test_ill_conditioned_full_rank_design_takes_pivoted_fallback(self):
        g = np.random.default_rng(17)
        n = 80
        x0 = g.normal(size=n)
        x = np.column_stack([x0, x0 + 1e-7 * g.normal(size=n), g.normal(size=n)])
        y = x @ np.array([1.0, -1.0, 0.5]) + g.normal(size=n)
        design, rank, named, solution = scipy_reference(x, y)
        singular_values = np.linalg.svd(design, compute_uv=False)
        assert 1e6 <= singular_values[0] / singular_values[-1] < 1e10
        assert named is None

        with mock.patch.object(
            regression, "_pivoted_qr_solve", wraps=regression._pivoted_qr_solve
        ) as pivoted:
            got = lstsq(x, y)
            assert pivoted.call_count == 1
            lstsq(x[:, [0, 2]], y)  # well conditioned: no fallback
            assert pivoted.call_count == 1
        bound = least_squares_error_bound(design, solution, y)
        assert np.linalg.norm(got - solution) <= 100 * bound


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
        fit = control_arm_weights(d)
        np.testing.assert_allclose(raw_form(d, fit)[0], [1.0, 0.0, 0.0], atol=1e-10)
        assert fit.arm == "control"
        assert fit.n_used == d.n0

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
        std = control_arm_weights(d)
        raw = raw_form(d, std)[0]
        np.testing.assert_allclose(std.coefficients, raw * np.std(d.x, axis=0), rtol=1e-8)
        # the raw slopes scaled by sd(x_j) / sd(y), sd(y) over the control arm
        raw_standardized = raw * np.std(d.x, axis=0) / population_sd(d.y_obs[d.control_rows()])
        np.testing.assert_allclose(std.standardized_coefficients, raw_standardized, rtol=1e-8)

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
                compute_balance_report(d, scale)
            named[scale] = info.value.columns
            assert str(info.value.columns) in str(info.value)
        assert named["standardized"] == named["raw"] == (3,)


STACK_KINDS = ["good", "constant", "control_constant", "collinear", "ill_conditioned"]


@st.composite
def dataset_stacks(draw):
    """1-8 datasets that share n, p and the assignment vector. Besides
    well-conditioned members the stack mixes in a column constant over all
    units, a column constant in the control arm only, a column proportional
    to another, and a near copy of a column (condition number about 1e8)
    that fails ``RCOND_GATE`` but keeps full rank. Returns the datasets and
    their kinds."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 60))
    p = draw(st.integers(1, 4))
    n1 = draw(st.integers(1, n - 1))
    kinds = draw(st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=8))
    z = np.zeros(n, dtype=np.int64)
    z[g.choice(n, n1, replace=False)] = 1
    datasets = []
    for kind in kinds:
        x = g.normal(size=(n, p)) * g.uniform(0.1, 10, size=p) + g.normal(size=p) * 5
        j, k = g.choice(p, 2, replace=False) if p >= 2 else (0, 0)
        if kind == "constant":
            x[:, j] = 2.5
        elif kind == "control_constant":
            x[z == 0, j] = -1.0
        elif kind == "collinear" and p >= 2:
            x[:, k] = 3.0 * x[:, j] - 1.0
        elif kind == "ill_conditioned" and p >= 2:
            x[:, k] = x[:, j] + 1e-8 * np.abs(x[:, j]).max() * g.normal(size=n)
        y = x @ g.normal(size=p) + g.normal(size=n)
        datasets.append(Dataset(x=x, z=z, y_obs=y))
    return datasets, kinds


def outcome(call):
    """``call()``'s value, or the typed error it raised."""
    try:
        return call()
    except BalanceLabError as exc:
        return exc


def assert_same_outcome(stacked, alone):
    """The same bits, or the same error type, message and columns."""
    if isinstance(alone, BalanceLabError):
        assert type(stacked) is type(alone) and str(stacked) == str(alone)
        assert getattr(stacked, "columns", None) == getattr(alone, "columns", None)
    elif isinstance(alone, tuple):
        assert stacked[1] == alone[1]
        assert_same_outcome(stacked[0], alone[0])
    else:
        assert stacked.shape == alone.shape and stacked.tobytes() == alone.tobytes()


class TestStackedFits:
    @settings(max_examples=150, deadline=None)
    @given(stack=dataset_stacks())
    def test_matches_single_dataset_path(self, stack):
        """Every member's views, weights and gate decision from the stacked
        path equal those of the member alone, bit for bit; a member that
        fails raises the error it raises alone."""
        datasets, kinds = stack
        alone = [Dataset(x=d.x, z=d.z, y_obs=d.y_obs) for d in datasets]
        pivoted = []
        original = regression._pivoted_qr_solve

        def spy(design, y, covariate_of):
            pivoted.append(y.tobytes())
            return original(design, y, covariate_of)

        with mock.patch.object(regression, "_pivoted_qr_solve", spy):
            stack_views(datasets)
            weights = regression.control_arm_coefficients(datasets)
            stacked_gate = sorted(pivoted)
            pivoted.clear()
            for d, w in zip(alone, weights):
                assert_same_outcome(w, outcome(lambda: control_arm_weights(d).coefficients))
            alone_gate = sorted(pivoted)
        assert stacked_gate == alone_gate
        for member, d in zip(datasets, alone):
            assert_same_outcome(
                outcome(lambda: member.standardized_x),
                outcome(lambda: d.standardized_x),
            )
            assert_same_outcome(
                outcome(lambda: member.whitened),
                outcome(lambda: d.whitened),
            )
