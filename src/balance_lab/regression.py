"""Dense least squares for projecting outcomes onto covariates.

Every fit has an intercept and uses an orthogonal (QR) decomposition, never
the normal equations. Constant columns (``data.varying_columns``) are
dropped, their effect absorbed by the intercept, and receive a zero
coefficient, so only genuine collinearity raises. The arm fits read the
covariates on the requested scale from ``data.scaled_covariates``, the view
cached on the dataset.

A design is first factored by an unpivoted Householder QR. If the singular
values of its small triangular factor give a condition number below
``1 / RCOND_GATE`` the fit is solved from that factor. Only the rest go
through a Householder QR with column pivoting, which decides rank by a
relative ``RANK_RTOL`` tolerance on the magnitudes of its diagonal and
names the collinear columns.

The permutation test's ``refit`` policy solves most control-arm fits in
batches (``balance._refit_rw_columns``): one unpivoted QR of the data over
all units, then for each arm the Cholesky factor of the Gram matrix of its
rows of the orthonormal factor. That Gram matrix has condition number near
1, unlike the design's normal equations, and the batch holds it to at most
1e2. Any design that batch cannot certify under the same ``RCOND_GATE``
comes here.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import Dataset, population_sd, scaled_covariates, varying_columns
from .errors import ControlArmTooSmall, InsufficientRows, RankDeficient

__all__ = [
    "RegressionFit",
    "fit_ols",
    "control_arm_weights",
    "treatment_arm_weights",
]

RANK_RTOL = 1e-10
# A design is solved without pivoting only if its condition number is below
# 1 / RCOND_GATE. The diagonal of any triangular factor lies between its
# smallest and largest singular value, so a pivoted QR of such a design
# would find no diagonal entry below RANK_RTOL times the largest and would
# keep every column: both paths fit the same model.
RCOND_GATE = 1e-6


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit of an outcome on covariates for one sample.

    ``coefficients`` has one entry per input covariate column (zero for
    dropped constant columns); the intercept is stored separately.
    ``standardized_coefficients`` rescales each slope by sd(x_j)/sd(y) so
    the entries are comparable across covariates.
    """

    coefficients: np.ndarray
    intercept: float
    standardized_coefficients: np.ndarray
    residuals: np.ndarray
    r_squared: float
    n_used: int
    arm: str = "full-population"


def _qr_solve(design: np.ndarray, y: np.ndarray, covariate_of: list[Optional[int]]):
    """Solve min ||design b - y|| by QR; raise on rank deficiency."""
    k = design.shape[1]
    r = np.linalg.qr(np.column_stack([design, y]), mode="r")
    singular_values = np.linalg.svd(r[:k, :k], compute_uv=False)
    if singular_values[-1] > RCOND_GATE * singular_values[0]:
        # R's last column holds Q'y. LU of a triangular matrix swaps no
        # rows, so the solve is a back-substitution.
        return np.linalg.solve(r[:k, :k], r[:k, k])
    return _pivoted_qr_solve(design, y, covariate_of)


def _pivoted_qr_solve(design: np.ndarray, y: np.ndarray, covariate_of: list[Optional[int]]):
    """Householder QR with column pivoting (Businger and Golub, Numer. Math.
    7, 1965): step j moves the column of largest remaining norm to position
    j, so the diagonal of R does not increase and its tail shows the rank.
    y rides along as a last column, which ends as Q'y."""
    k = design.shape[1]
    a = np.column_stack([design, y])
    pivot = np.arange(k)
    for j in range(k):
        norms = np.einsum("ij,ij->j", a[j:, j:k], a[j:, j:k])
        m = j + int(np.argmax(norms))
        alpha = float(np.sqrt(norms[m - j]))
        if alpha == 0.0:
            break  # every remaining column is zero
        a[:, [j, m]] = a[:, [m, j]]
        pivot[[j, m]] = pivot[[m, j]]
        v = a[j:, j].copy()
        v[0] += np.copysign(alpha, v[0])
        a[j:, j + 1 :] -= np.outer(v, (2.0 / (v @ v)) * (v @ a[j:, j + 1 :]))
        a[j:, j] = 0.0
        a[j, j] = -np.copysign(alpha, v[0])
    r = a[:k, :k]
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > RANK_RTOL * diag.max()))
    if rank < k:
        flagged = [covariate_of[j] for j in pivot[rank:]]
        columns = tuple(sorted(c for c in flagged if c is not None))
        raise RankDeficient(
            f"design matrix has rank {rank} < {k}; collinear covariate columns: {columns}",
            columns=columns,
        )
    out = np.empty(k)
    out[pivot] = np.linalg.solve(r, a[:k, k])
    return out


def fit_ols(x: np.ndarray, y: np.ndarray, arm: str = "full-population") -> RegressionFit:
    """Ordinary least squares of ``y`` on the columns of ``x`` and an intercept.

    The intercept is what the fitted-mean identity of the regression-weighted
    balance statistic needs.

    Parameters
    ----------
    x : (n, p) array
    y : (n,) array
    arm : str
        Label recording which sample was fit ("control", "treatment",
        or "full-population").

    Raises
    ------
    InsufficientRows
        If n does not exceed the column count plus one for the intercept.
    RankDeficient
        If non-constant columns are collinear; the offending covariate
        indices are attached to the exception.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("array must not contain infs or NaNs")
    if n <= p + 1:
        raise InsufficientRows(
            f"need more than {p + 1} rows to fit {p} covariates plus intercept, got {n}"
        )

    retained = [int(j) for j in np.flatnonzero(varying_columns(x))]
    design = np.hstack([np.ones((n, 1)), x[:, retained]])
    solution = _qr_solve(design, y, [None, *retained])

    coefficients = np.zeros(p)
    coefficients[retained] = solution[1:]
    residuals = y - design @ solution

    ssr = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    r_squared = min(max(1.0 - ssr / sst, 0.0), 1.0) if sst > 0.0 else 0.0

    sd_y = population_sd(y)
    if sd_y > 0.0:
        standardized = coefficients * np.std(x, axis=0, ddof=0) / sd_y
    else:
        standardized = np.zeros(p)

    return RegressionFit(
        coefficients=coefficients,
        intercept=float(solution[0]),
        standardized_coefficients=standardized,
        residuals=residuals,
        r_squared=r_squared,
        n_used=n,
        arm=arm,
    )


def _arm_weights(d: Dataset, rows: np.ndarray, arm: str, scale: str) -> RegressionFit:
    n_arm = rows.size
    if n_arm <= d.p + 1:
        raise ControlArmTooSmall(
            f"{arm} arm has {n_arm} units; need more than p + 1 = {d.p + 1} to fit weights"
        )
    y_arm = d.y_obs[rows]
    fit = fit_ols(scaled_covariates(d, scale)[rows], y_arm, arm=arm)

    # Prognosis weights on the fully standardized scale: x scaled by its
    # population SD over all N units, y by the arm's own SD.
    sd_y = population_sd(y_arm)
    per_sd = fit.coefficients if scale == "standardized" else fit.coefficients * population_sd(d.x)
    standardized = per_sd / sd_y if sd_y > 0.0 else np.zeros(d.p)
    return replace(fit, standardized_coefficients=standardized)


def control_arm_weights(d: Dataset, scale: str = "standardized") -> RegressionFit:
    """Fit observed outcomes on covariates inside the control arm.

    The coefficients are the prognosis weights for the regression-weighted
    balance statistic. With ``scale="standardized"`` the fit runs on
    covariates standardized by their population (all-N) moments.
    """
    return _arm_weights(d, d.control_rows(), "control", scale)


def treatment_arm_weights(d: Dataset, scale: str = "standardized") -> RegressionFit:
    """Symmetric fit on the treatment arm, for testing the Y(1) analogue."""
    return _arm_weights(d, d.treated_rows(), "treatment", scale)

