"""Dense least squares for projecting outcomes onto covariates.

Every fit has an intercept and uses an orthogonal (QR) decomposition, never
the normal equations. Constant columns (``data.varying_columns``) are
dropped, their effect absorbed by the intercept, and receive a zero
coefficient, so only genuine collinearity raises. Every fit reads the
standardized covariates (x - m) / s cached on the dataset, whatever the
scale of the report; ``raw_form`` gives a fit on the raw covariates.

A design is first factored by an unpivoted Householder QR. If the singular
values of its small triangular factor give a condition number below
``1 / RCOND_GATE`` the fit is solved from that factor. Only the rest go
through a Householder QR with column pivoting, which decides rank by a
relative ``RANK_RTOL`` tolerance on the magnitudes of its diagonal and
names the collinear columns.

The solver works on a stack of designs with a leading axis: one QR, one
singular-value gate and one solve serve every member, and a member that
fails the gate goes to the pivoted QR alone. A single fit is a stack of
one. ``control_arm_coefficients`` fits the control arms of many datasets
that share a shape and an assignment vector this way; each member's
coefficients equal, bit for bit, those of ``control_arm_weights`` alone.
The permutation test makes one such call for each stack it tests under
fixed weights.
Only the arm-weight fits (``_arm_weights``) build a ``RegressionFit``, the
record that reports r-squared and the standardized coefficients.

The control arms that the ``refit`` batch (``balance._refit_rw_columns``)
cannot certify under the same ``RCOND_GATE`` come here as one ``_lstsq``
stack, the engine of the arm fits, and get the bits each would get alone.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, population_sd, varying_columns
from .errors import (
    BalanceLabError,
    ControlArmTooSmall,
    InsufficientRows,
    RankDeficient,
    WeightDimensionMismatch,
)

__all__ = [
    "RegressionFit",
    "control_arm_weights",
    "control_arm_coefficients",
    "treatment_arm_weights",
    "raw_form",
]

RANK_RTOL = 1e-10
# A design is solved without pivoting only if its condition number is below
# 1 / RCOND_GATE. The diagonal of any triangular factor lies between its
# smallest and largest singular value, so a pivoted QR of such a design
# would find no diagonal entry below RANK_RTOL times the largest and would
# keep every column: both paths fit the same model.
RCOND_GATE = 1e-6
_PIVOT_TIE = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class RegressionFit:
    """Least-squares fit of observed outcomes on the standardized covariates in one arm.

    ``coefficients``, the standardized weights, has one entry per covariate
    column (zero for dropped constant columns); the intercept is stored
    separately, and ``raw_form`` gives both on the raw covariates.
    ``standardized_coefficients`` divides them by sd(y), the population SD
    over the arm (zeros when it is 0). ``arm`` is "control" or "treatment".
    """

    coefficients: np.ndarray
    intercept: float
    standardized_coefficients: np.ndarray
    r_squared: float
    n_used: int
    arm: str


def _weight_vector(weights, p: int) -> np.ndarray:
    """The coefficients of a ``RegressionFit``, or an array of weights, as a
    float64 vector; raises unless it holds one weight per covariate."""
    if isinstance(weights, RegressionFit):
        weights = weights.coefficients
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (p,):
        raise WeightDimensionMismatch(f"expected {p} weights, got shape {w.shape}")
    return w


def _qr_solve(design: np.ndarray, y: np.ndarray, covariate_of: list[Optional[int]]) -> list:
    """Solve min ||design[i] b - y[i]|| by QR for each member of an (R, m, k)
    stack of designs. A member whose design fails the gate is solved by the
    pivoted QR alone; where that raises, the member's entry is the
    ``RankDeficient`` it raised."""
    k = design.shape[2]
    r = np.linalg.qr(np.concatenate([design, y[:, :, None]], axis=2), mode="r")
    singular_values = np.linalg.svd(r[:, :k, :k], compute_uv=False)
    gated = singular_values[:, -1] > RCOND_GATE * singular_values[:, 0]
    # R's last column holds Q'y. LU of a triangular matrix swaps no rows, so
    # the solve is a back-substitution.
    solutions = iter(np.linalg.solve(r[gated, :k, :k], r[gated, :k, k:])[:, :, 0])
    out = []
    for i in range(len(design)):
        if gated[i]:
            out.append(next(solutions))
            continue
        try:
            out.append(_pivoted_qr_solve(design[i], y[i], covariate_of))
        except RankDeficient as exc:
            out.append(exc)
    return out


def _pivoted_qr_solve(design: np.ndarray, y: np.ndarray, covariate_of: list[Optional[int]]):
    """Householder QR with column pivoting (Businger and Golub, Numer. Math.
    7, 1965): step j moves the column of largest remaining norm to position
    j, so the diagonal of R does not increase and its tail shows the rank.
    y rides along as a last column, which ends as Q'y.

    Norms within ``_PIVOT_TIE`` (relative) of the largest count as tied, and
    the tied column that comes first in ``design`` is taken: integer columns
    often tie exactly, and which of them rounding makes largest depends on
    the order of the rows, so it would decide which columns are named."""
    k = design.shape[1]
    a = np.column_stack([design, y])
    pivot = np.arange(k)
    for j in range(k):
        norms = np.einsum("ij,ij->j", a[j:, j:k], a[j:, j:k])
        tied = j + np.flatnonzero(norms >= (1.0 - _PIVOT_TIE) * norms.max())
        m = int(tied[np.argmin(pivot[tied])])
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


def _lstsq(x: np.ndarray, y: np.ndarray) -> list:
    """Least squares of each ``y[i]`` on an intercept and the columns of
    ``x[i]``, for an (R, m, p) stack ``x`` and an (R, m) stack ``y``.

    Each member's entry is its intercept followed by one coefficient per
    column (zero for a column constant in that member), or the
    ``RankDeficient`` its design raised. Members that share their constant
    columns share one stacked QR. Raises ValueError on a non-finite value
    and ``InsufficientRows`` unless m exceeds p + 1.
    """
    _, m, p = x.shape
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("array must not contain infs or NaNs")
    if m <= p + 1:
        raise InsufficientRows(
            f"need more than {p + 1} rows to fit {p} covariates plus intercept, got {m}"
        )
    varying = varying_columns(x)
    out = [None] * len(x)
    pending = np.ones(len(x), dtype=bool)
    while pending.any():
        pattern = varying[np.argmax(pending)]
        members = np.flatnonzero(pending & (varying == pattern).all(axis=1))
        pending[members] = False
        retained = np.flatnonzero(pattern)
        columns = np.concatenate([[0], retained + 1])
        design = np.concatenate([np.ones((members.size, m, 1)), x[members][:, :, retained]], axis=2)
        for i, solution in zip(members, _qr_solve(design, y[members], [None, *retained.tolist()])):
            if isinstance(solution, RankDeficient):
                out[i] = solution
            else:
                out[i] = np.zeros(p + 1)
                out[i][columns] = solution
    return out


def _r_squared(x: np.ndarray, y: np.ndarray, solution: np.ndarray) -> float:
    """R-squared of the fit of ``y`` on ``x`` that ``_lstsq`` solved."""
    retained = np.flatnonzero(varying_columns(x))
    design = np.hstack([np.ones((len(y), 1)), x[:, retained]])
    residuals = y - design @ solution[np.concatenate([[0], retained + 1])]
    ssr = float(residuals @ residuals)
    centered = y - y.mean()
    sst = float(centered @ centered)
    return min(max(1.0 - ssr / sst, 0.0), 1.0) if sst > 0.0 else 0.0


def _arm_solutions(datasets: Sequence[Dataset], rows: np.ndarray, arm: str) -> list:
    """``_lstsq`` of the outcomes on the standardized covariates over
    ``rows`` (the arm) of each dataset, as one stack; a member whose view
    cannot be made gets the error that raised, and every member gets
    ``ControlArmTooSmall`` when the arm has too few units."""
    p = datasets[0].p
    if rows.size <= p + 1:
        error = ControlArmTooSmall(
            f"{arm} arm has {rows.size} units; need more than p + 1 = {p + 1} to fit weights"
        )
        return [error] * len(datasets)
    out: list = [None] * len(datasets)
    views = []
    for i, d in enumerate(datasets):
        try:
            views.append(d.standardized_x)
        except BalanceLabError as exc:
            out[i] = exc
    members = [i for i, entry in enumerate(out) if entry is None]
    if members:
        x = np.stack(views)[:, rows]
        y = np.stack([datasets[i].y_obs for i in members])[:, rows]
        for i, solution in zip(members, _lstsq(x, y)):
            out[i] = solution
    return out


def _arm_weights(d: Dataset, rows: np.ndarray, arm: str) -> RegressionFit:
    solution = _arm_solutions([d], rows, arm)[0]
    if isinstance(solution, BalanceLabError):
        raise solution
    y = d.y_obs[rows]
    coefficients = solution[1:]
    sd_y = population_sd(y)
    return RegressionFit(
        coefficients=coefficients,
        intercept=float(solution[0]),
        standardized_coefficients=coefficients / sd_y if sd_y > 0.0 else np.zeros(d.p),
        r_squared=_r_squared(d.standardized_x[rows], y, solution),
        n_used=y.size,
        arm=arm,
    )


def raw_form(d: Dataset, fit: RegressionFit) -> tuple[np.ndarray, float]:
    """The slopes and intercept of ``fit``, an arm fit of ``d``, on the raw
    covariates: b_j / s_j (0 for a constant column) and a - sum_j m_j b_j / s_j,
    with m and s the means and SDs that the standardized view takes out."""
    s = d.column_sd
    slopes = np.divide(fit.coefficients, s, out=np.zeros(d.p), where=s > 0.0)
    return slopes, fit.intercept - float(slopes @ d.x.mean(axis=0))


def control_arm_weights(d: Dataset) -> RegressionFit:
    """Fit observed outcomes on the standardized covariates inside the
    control arm. The coefficients are the prognosis weights for the
    regression-weighted balance statistic."""
    return _arm_weights(d, d.control_rows(), "control")


def control_arm_coefficients(datasets: Sequence[Dataset]) -> list:
    """``control_arm_weights(d).coefficients`` of each of ``datasets`` from one
    stacked fit, or in its place the ``BalanceLabError`` that call would raise.

    The datasets share one shape and one assignment vector (ValueError
    otherwise). Their standardized views are read from their caches, so
    ``data.stack_views`` makes them for the whole stack at once.
    """
    z = datasets[0].z
    if not all(np.array_equal(d.z, z) for d in datasets):
        raise ValueError("the datasets must share one assignment vector")
    solutions = _arm_solutions(datasets, datasets[0].control_rows(), "control")
    return [s if isinstance(s, BalanceLabError) else s[1:] for s in solutions]


def treatment_arm_weights(d: Dataset) -> RegressionFit:
    """Symmetric fit on the treatment arm, for testing the Y(1) analogue."""
    return _arm_weights(d, d.treated_rows(), "treatment")
