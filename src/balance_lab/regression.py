"""Dense least squares for projecting outcomes onto covariates.

Fits use a column-pivoted orthogonal (QR) decomposition, never the normal
equations; rank is decided by a relative 1e-10 tolerance on the magnitudes
of the triangular factor's diagonal. Constant columns are dropped (their
effect is absorbed by the intercept) and receive a zero coefficient, so
only genuine collinearity raises.

The permutation test's ``refit`` policy solves most control-arm fits in
batches with an unpivoted QR (``balance._refit_rw_columns``), also without
the normal equations. Any design that batch cannot certify as well
conditioned comes here, so pivoted QR stays the arbiter of rank.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, population_sd, scaled_covariates
from .errors import ControlArmTooSmall, InsufficientRows, RankDeficient

__all__ = [
    "RegressionFit",
    "fit_ols",
    "control_arm_weights",
    "treatment_arm_weights",
]

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit of an outcome on covariates for one sample.

    ``coefficients`` has one entry per input covariate column (zero for
    dropped constant columns); the intercept, when requested, is stored
    separately. ``standardized_coefficients`` rescales each slope by
    sd(x_j)/sd(y) so the entries are comparable across covariates.
    """

    coefficients: np.ndarray
    intercept: Optional[float]
    standardized_coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    r_squared: float
    n_used: int
    arm: str = "full-population"


def _qr_solve(design: np.ndarray, y: np.ndarray, covariate_of: list[Optional[int]]):
    """Solve min ||design b - y|| via pivoted QR; raise on rank deficiency."""
    import scipy.linalg  # deferred: importing it costs every CLI call ~0.2 s

    q, r, pivot = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = RANK_RTOL * diag.max() if diag.size else 0.0
    rank = int(np.count_nonzero(diag > tol))
    k = design.shape[1]
    if rank < k:
        flagged = [covariate_of[j] for j in pivot[rank:]]
        columns = tuple(sorted(c for c in flagged if c is not None))
        raise RankDeficient(
            f"design matrix has rank {rank} < {k}; collinear covariate columns: {columns}",
            columns=columns,
        )
    b = scipy.linalg.solve_triangular(r, q.T @ y)
    out = np.empty(k)
    out[pivot] = b
    return out


def fit_ols(x: np.ndarray, y: np.ndarray, include_intercept: bool = True, arm: str = "full-population") -> RegressionFit:
    """Ordinary least squares of ``y`` on the columns of ``x``.

    Parameters
    ----------
    x : (n, p) array
    y : (n,) array
    include_intercept : bool
        Adds a constant regressor; required for the fitted-mean identity
        used by the regression-weighted balance statistic.
    arm : str
        Label recording which sample was fit ("control", "treatment",
        or "full-population").

    Raises
    ------
    InsufficientRows
        If n does not exceed the column count (plus one for the intercept).
    RankDeficient
        If non-constant columns are collinear; the offending covariate
        indices are attached to the exception.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    if y.shape != (n,):
        raise ValueError(f"y must have length {n}")
    if n <= p + int(include_intercept):
        raise InsufficientRows(
            f"need more than {p + int(include_intercept)} rows to fit {p} covariates"
            f"{' plus intercept' if include_intercept else ''}, got {n}"
        )

    sds_x = np.std(x, axis=0, ddof=0)
    if include_intercept:
        retained = [int(j) for j in np.flatnonzero(np.ptp(x, axis=0) > 0.0)]
    else:
        retained = list(range(p))

    blocks = []
    covariate_of: list[Optional[int]] = []
    if include_intercept:
        blocks.append(np.ones((n, 1)))
        covariate_of.append(None)
    blocks.append(x[:, retained])
    covariate_of.extend(retained)
    design = np.hstack(blocks)

    solution = _qr_solve(design, y, covariate_of)
    intercept = float(solution[0]) if include_intercept else None
    slopes = solution[1:] if include_intercept else solution

    coefficients = np.zeros(p)
    coefficients[retained] = slopes
    fitted = design @ solution
    residuals = y - fitted

    ssr = float(residuals @ residuals)
    if include_intercept:
        centered = y - y.mean()
        sst = float(centered @ centered)
    else:
        sst = float(y @ y)
    if sst > 0.0:
        r_squared = min(max(1.0 - ssr / sst, 0.0), 1.0)
    else:
        r_squared = 0.0

    sd_y = population_sd(y)
    if sd_y > 0.0:
        standardized = coefficients * sds_x / sd_y
    else:
        standardized = np.zeros(p)

    return RegressionFit(
        coefficients=coefficients,
        intercept=intercept,
        standardized_coefficients=standardized,
        residuals=residuals,
        fitted=fitted,
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
    fit = fit_ols(scaled_covariates(d, scale)[rows], y_arm, include_intercept=True, arm=arm)

    # Prognosis weights on the fully standardized scale: x scaled by its
    # population SD over all N units, y by the arm's own SD.
    sd_y = population_sd(y_arm)
    per_sd = fit.coefficients if scale == "standardized" else fit.coefficients * population_sd(d.x)
    standardized = per_sd / sd_y if sd_y > 0.0 else np.zeros(d.p)

    return RegressionFit(
        coefficients=fit.coefficients,
        intercept=fit.intercept,
        standardized_coefficients=standardized,
        residuals=fit.residuals,
        fitted=fit.fitted,
        r_squared=fit.r_squared,
        n_used=n_arm,
        arm=arm,
    )


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

