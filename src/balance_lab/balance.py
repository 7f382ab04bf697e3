"""Per-covariate mean differences and the three omnibus balance statistics.

Each statistic has one kernel over a batch of assignment columns: the
observed assignment is a batch of one, permutation draws are larger
batches, so both are computed by the same arithmetic. Under the ``refit``
weight policy the control-arm regressions of a batch are solved together,
one stacked QR per block of columns; a design that is ill-conditioned or
that the stack cannot hold goes through ``regression.fit_ols`` instead,
and the number of such columns is reported.

The observed regression-weighted sum is also computed as the difference
between the fitted treatment-group mean and the observed control-group
mean. The two are algebraically identical (the intercept cancels in the
difference) and the module verifies the identity numerically.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, scaled_covariates
from .errors import BalanceLabError, InternalNumericalError, WeightDimensionMismatch
from .regression import RegressionFit, control_arm_weights, fit_ols

__all__ = [
    "BalanceReport",
    "compute_balance_report",
]


@dataclass(frozen=True)
class BalanceReport:
    """All balance statistics for one dataset on one covariate scale.

    ``hotelling_t2`` is +inf when the covariates separate the arms perfectly.
    """

    delta: np.ndarray
    delta_uw: float
    delta_rw: float
    hotelling_t2: float
    weights_used: RegressionFit
    scale: str
    hotelling_used_pinv: bool
    fitted_mean_difference: float


def _observed_column(d: Dataset) -> np.ndarray:
    return d.z.astype(np.float64)[:, None]


def _delta_columns(xs: np.ndarray, z_cols: np.ndarray, n1: int, n0: int) -> np.ndarray:
    """Per-covariate mean differences for each assignment column: (p, B)."""
    treated_sums = xs.T @ z_cols
    totals = xs.sum(axis=0)[:, None]
    return treated_sums * (1.0 / n1 + 1.0 / n0) - totals / n0


def _whitened(d: Dataset) -> tuple[np.ndarray, bool]:
    """Standardized covariates whitened over all N units, and whether their
    Gram matrix is singular (directions with eigenvalue at most 1e-12 of the
    largest are dropped). The columns are re-centered first: the Hotelling
    closed form needs them to sum to zero."""
    xs = scaled_covariates(d, "standardized")
    xs = xs - xs.mean(axis=0)
    eigenvalues, vectors = np.linalg.eigh(xs.T @ xs)
    kept = eigenvalues > 1e-12 * eigenvalues[-1]
    return xs @ (vectors[:, kept] / np.sqrt(eigenvalues[kept])), not kept.all()


def _hotelling_columns(xw: np.ndarray, z_cols: np.ndarray, n1: int, n0: int) -> np.ndarray:
    """Hotelling T-squared for each assignment column.

    The pooled scatter is G - k S S' (S the treated sums, G the Gram matrix,
    k = N / (n1 n0)), so by Sherman-Morrison T-squared = (N - 2) kq / (1 - kq)
    with q = S' G^+ S = |xw' z|^2. kq = 1 is perfect separation: +inf.
    """
    n = n1 + n0
    kq = (n / (n1 * n0)) * np.square(xw.T @ z_cols).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = (n - 2) * kq / (1.0 - kq)
    return np.where(kq >= 1.0 - 1e-12, np.inf, t2)


# Control arms refit together in one stacked QR. The (block, n0, p + 2) gather
# is a few hundred kB at n0 = 500, and it does not grow with B.
_REFIT_BLOCK = 16
# A control design is solved in the stack only if its condition number is
# below 1 / _REFIT_RCOND. The diagonal of any triangular factor lies between
# the smallest and the largest singular value, so the pivoted QR of fit_ols
# would find no diagonal entry below RANK_RTOL times the largest and would
# keep every column: both paths fit the same model.
_REFIT_RCOND = 1e-6


def _refit_rw_columns(
    xs: np.ndarray, y: np.ndarray, z_cols: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Regression-weighted sums with weights refit on each column's control arm.

    Returns the sums, the number of failed refits (their sums are +inf, so
    they count as extreme) and the number of columns refit through
    ``fit_ols``. The control designs ``[1 | xs]`` of a block of columns go
    through one unpivoted QR with ``y`` as a last column: the top rows of
    each R hold the design's R and Q'y, so the coefficients come from a
    triangular solve, and neither Q nor the normal equations are formed.
    ``fit_ols`` and its pivoted QR, which decides rank and raises the typed
    errors, take the rest: ill-conditioned designs (a covariate constant
    within the arm lands here), and every column when the control arms
    differ in size or have at most p + 1 units.
    """
    n, p = xs.shape
    b = z_cols.shape[1]
    values = np.empty(b)
    pending = np.ones(b, dtype=bool)
    n0 = n - np.count_nonzero(z_cols, axis=0)
    if b and n0.min() == n0.max() and n0[0] > p + 1:
        # fit_ols gives a constant column a zero weight; the stack leaves
        # out the columns constant over all units.
        live = np.flatnonzero(np.ptp(xs, axis=0) > 0.0)
        k = live.size + 1
        data = np.column_stack([np.ones(n), xs[:, live], y])
        for start in range(0, b, _REFIT_BLOCK):
            cols = np.arange(start, min(start + _REFIT_BLOCK, b))
            rows = np.flatnonzero(z_cols[:, cols].T == 0.0) % n
            r = np.linalg.qr(data[rows.reshape(cols.size, n0[0])], mode="r")
            design_r, qty = r[:, :k, :k], r[:, :k, k]
            singular_values = np.linalg.svd(design_r, compute_uv=False)
            ok = singular_values[:, -1] > _REFIT_RCOND * singular_values[:, 0]
            coefficients = np.linalg.solve(design_r[ok], qty[ok, :, None])[:, 1:, 0]
            solved = cols[ok]
            values[solved] = (coefficients * deltas[np.ix_(live, solved)].T).sum(axis=1)
            pending[solved] = False

    failures = 0
    for i in np.flatnonzero(pending):
        control = z_cols[:, i] == 0.0
        try:
            fit = fit_ols(xs[control], y[control], include_intercept=True, arm="control")
            values[i] = float(fit.coefficients @ deltas[:, i])
        except BalanceLabError:
            values[i] = np.inf
            failures += 1
    return values, failures, int(np.count_nonzero(pending))


def _statistic_columns(
    statistics, xs, xw, y, n1, n0, weight_policy, w_fixed, z_cols
) -> tuple[dict[str, np.ndarray], int, int]:
    """Each requested statistic for every column of ``z_cols``, plus the
    numbers of failed refits and of refits through ``fit_ols``. ``xs`` is on
    the balance scale, ``xw`` whitened (see ``_whitened``)."""
    out: dict[str, np.ndarray] = {}
    failures = fallbacks = 0
    if "uw" in statistics or "rw" in statistics:
        deltas = _delta_columns(xs, z_cols, n1, n0)
    if "uw" in statistics:
        out["uw"] = deltas.sum(axis=0)
    if "rw" in statistics:
        if weight_policy == "fixed":
            out["rw"] = w_fixed @ deltas
        else:
            out["rw"], failures, fallbacks = _refit_rw_columns(xs, y, z_cols, deltas)
    if "hotelling" in statistics:
        out["hotelling"] = _hotelling_columns(xw, z_cols, n1, n0)
    return out, failures, fallbacks


def _checked_weighted_sum(
    d: Dataset, weights: RegressionFit, xs: np.ndarray, delta: np.ndarray
) -> tuple[float, float]:
    """``w @ delta`` and the fitted-mean difference, required to agree."""
    w = np.asarray(weights.coefficients, dtype=np.float64)
    if w.shape != (d.p,):
        raise WeightDimensionMismatch(f"expected {d.p} weights, got shape {w.shape}")
    weighted_sum = float(w @ delta)
    # Fitted mean in the unobserved arm minus the observed mean in the fit arm.
    intercept = weights.intercept or 0.0
    if weights.arm == "treatment":
        fitted_control = float(np.mean(xs[d.control_rows()] @ w)) + intercept
        fitted_diff = float(d.y_obs[d.treated_rows()].mean()) - fitted_control
    else:
        fitted_treated = float(np.mean(xs[d.treated_rows()] @ w)) + intercept
        fitted_diff = fitted_treated - float(d.y_obs[d.control_rows()].mean())

    if abs(weighted_sum - fitted_diff) > 1e-8 * max(1.0, abs(weighted_sum)):
        raise InternalNumericalError(
            "internal identity violated: weighted covariate sum "
            f"{weighted_sum!r} != fitted-mean difference {fitted_diff!r}"
        )
    return weighted_sum, fitted_diff


def compute_balance_report(
    d: Dataset, scale: str = "standardized", weights: RegressionFit | None = None
) -> BalanceReport:
    """Assemble every balance statistic for one dataset.

    Weights default to a fresh control-arm fit; pass an existing
    ``RegressionFit`` from an arm fit on the same scale to reuse one, e.g.
    ``treatment_arm_weights(d)`` for the Y(1) analogue. Hotelling is
    affine-invariant and ignores ``scale``; ``hotelling_used_pinv`` flags
    covariates collinear over all N units.
    """
    if weights is None:
        weights = control_arm_weights(d, scale=scale)

    xs = scaled_covariates(d, scale)
    sizes = d.sizes
    z_obs = _observed_column(d)
    delta = _delta_columns(xs, z_obs, sizes.n1, sizes.n0)[:, 0]
    delta_rw, fitted_diff = _checked_weighted_sum(d, weights, xs, delta)
    xw, collinear = _whitened(d)
    t2 = _hotelling_columns(xw, z_obs, sizes.n1, sizes.n0)

    return BalanceReport(
        delta=delta,
        delta_uw=float(delta.sum()),
        delta_rw=delta_rw,
        hotelling_t2=float(t2[0]),
        weights_used=weights,
        scale=scale,
        hotelling_used_pinv=collinear,
        fitted_mean_difference=fitted_diff,
    )
