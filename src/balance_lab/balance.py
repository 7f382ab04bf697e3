"""Per-covariate mean differences and the three omnibus balance statistics.

Each statistic has one kernel over a batch of assignment columns: the
observed assignment is a batch of one, permutation draws are larger
batches, so both are computed by the same arithmetic. Under the ``refit``
weight policy the control-arm regressions of a batch are solved together
from one QR of the data over all units and, per column, the Gram matrix of
the control rows of its orthonormal factor; a design that is
ill-conditioned, or whose Gram matrix is, goes through
``regression.fit_ols`` instead, and the number of such columns is
reported.

Every kernel reads the covariate views cached on the ``Dataset``: the
balance-scale matrix from ``data.scaled_covariates`` and the whitened one
of the Hotelling statistic from ``data.whitened_covariates``, so one call
standardizes and whitens each dataset once.

The observed regression-weighted sum is also computed as the difference
between the fitted treatment-group mean and the observed control-group
mean. The two are algebraically identical (the intercept cancels in the
difference) and the module verifies the identity numerically.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, scaled_covariates, varying_columns, whitened_covariates
from .errors import BalanceLabError, InternalNumericalError, WeightDimensionMismatch
from .regression import RCOND_GATE, RegressionFit, control_arm_weights, fit_ols

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


# The Gram matrix G of an arm's rows of Q is near the identity times the
# arm's share of the units. The arm's R factor, taken from the Cholesky
# factor of G (Cholesky QR), carries a relative error of about kappa(G) * eps,
# so an arm whose G has a condition number above _GRAM_KAPPA goes to fit_ols.
# The ratio of G's Gershgorin disc ends bounds kappa(G) from above, so a G
# it keeps within _GRAM_KAPPA needs no eigenvalues.
_GRAM_KAPPA = 1e2


def _gershgorin_bounds(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the eigenvalues of each symmetric matrix of the stack
    ``gram``: every eigenvalue lies in a Gershgorin disc, centred on a
    diagonal entry with the sum of the off-diagonal ``|G_ij|`` of its row as
    radius, so the lowest and highest disc ends bound the spectrum."""
    centres = np.diagonal(gram, axis1=1, axis2=2)
    off_diagonal = np.abs(gram)
    diagonal = np.arange(gram.shape[1])
    off_diagonal[:, diagonal, diagonal] = 0.0
    radii = off_diagonal.sum(axis=2)
    return (centres - radii).min(axis=1), (centres + radii).max(axis=1)


def _refit_rw_columns(
    xs: np.ndarray, y: np.ndarray, z_cols: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Regression-weighted sums with weights refit on each column's control arm.

    Returns the sums, the number of failed refits (their sums are +inf, so
    they count as extreme) and the number of columns refit through
    ``fit_ols``. The data ``[1 | xs | y]`` go through one Householder QR,
    ``Q R``, per call. One product of the row-wise products of Q with
    ``z_cols`` gives every column's control Gram matrix
    ``G = Q'Q - Q' diag(z) Q``; with ``G = L L'``, ``L' R`` is upper
    triangular and is the R factor of the control arm's ``[1 | xs | y]``, so
    its top rows hold the design's R and Q'y and the coefficients come from
    a triangular solve. G is the Gram matrix of an orthonormal basis, not of
    the design: its condition number is about 1 where the design's normal
    equations would square the design's. A column stays on this path if
    kappa(G) <= ``_GRAM_KAPPA`` and its design has condition number below
    ``1 / regression.RCOND_GATE``, the gate of ``fit_ols`` itself, so both
    paths fit the same model. kappa(G) is bounded first by the Gershgorin
    discs of G (Golub and Van Loan, Matrix Computations, Thm 7.2.1), one
    pass of array arithmetic over the chunk; only the G the discs cannot
    keep within ``_GRAM_KAPPA`` take their eigenvalues, which decide them.
    The design's condition number is bounded by
    ``sqrt(kappa(G)) * kappa(R11)``, R11 the design block of R and kappa(G)
    taken from the disc bound or the eigenvalues, and only the columns that
    bound cannot certify take the singular values of their design's R.
    ``fit_ols``, whose pivoted QR decides the rank of every design that
    fails the gate and raises the typed errors, takes the rest:
    ill-conditioned designs (a covariate constant within the arm lands
    here), and every column when the control arms differ in size or have at
    most p + 1 units.
    """
    n, p = xs.shape
    b = z_cols.shape[1]
    values = np.empty(b)
    pending = np.ones(b, dtype=bool)
    n0 = n - np.count_nonzero(z_cols, axis=0)
    if b and n0.min() == n0.max() and n0[0] > p + 1:
        # fit_ols gives a constant column a zero weight; the design here
        # leaves out the columns constant over all units.
        live = np.flatnonzero(varying_columns(xs))
        k = live.size + 1
        q, r = np.linalg.qr(np.column_stack([np.ones(n), xs[:, live], y]))
        rows, cols = np.triu_indices(k + 1)
        products = q[:, rows] * q[:, cols]
        gram = np.empty((b, k + 1, k + 1))
        gram[:, rows, cols] = (products.sum(axis=0)[:, None] - products.T @ z_cols).T
        gram[:, cols, rows] = gram[:, rows, cols]
        lowest, highest = _gershgorin_bounds(gram)
        uncertain = np.flatnonzero(highest > _GRAM_KAPPA * lowest)
        if uncertain.size:
            eigenvalues = np.linalg.eigvalsh(gram[uncertain])
            lowest[uncertain], highest[uncertain] = eigenvalues[:, 0], eigenvalues[:, -1]
        stacked = np.flatnonzero(highest <= _GRAM_KAPPA * lowest)
        t = np.swapaxes(np.linalg.cholesky(gram[stacked]), 1, 2) @ r
        design_r, qty = t[:, :k, :k], t[:, :k, k]
        r_singular_values = np.linalg.svd(r[:k, :k], compute_uv=False)
        kappa_gram = highest[stacked] / lowest[stacked]
        ok = np.sqrt(kappa_gram) * r_singular_values[0] * RCOND_GATE < r_singular_values[-1]
        if not ok.all():
            singular_values = np.linalg.svd(design_r[~ok], compute_uv=False)
            ok[~ok] = singular_values[:, -1] > RCOND_GATE * singular_values[:, 0]
        coefficients = np.linalg.solve(design_r[ok], qty[ok, :, None])[:, 1:, 0]
        solved = stacked[ok]
        values[solved] = (coefficients * deltas[np.ix_(live, solved)].T).sum(axis=1)
        pending[solved] = False

    failures = 0
    for i in np.flatnonzero(pending):
        control = z_cols[:, i] == 0.0
        try:
            fit = fit_ols(xs[control], y[control], arm="control")
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
    the balance scale, ``xw`` whitened (see ``data.whitened_covariates``)."""
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
    if weights.arm == "treatment":
        fitted_control = float(np.mean(xs[d.control_rows()] @ w)) + weights.intercept
        fitted_diff = float(d.y_obs[d.treated_rows()].mean()) - fitted_control
    else:
        fitted_treated = float(np.mean(xs[d.treated_rows()] @ w)) + weights.intercept
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
    xw, collinear = whitened_covariates(d)
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
