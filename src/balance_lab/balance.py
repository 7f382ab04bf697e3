"""Per-covariate mean differences and the three omnibus balance statistics.

Each statistic has one kernel over the assignment columns of a stack of
datasets: each member's observed assignment is one more column beside its
permutation draws, so both are computed by the same arithmetic. The
products of a member's covariates with its assignment columns, and its
regression-weighted sums, are formed one member at a time
(``_column_products``); the rest of every statistic runs once for the
whole stack (``_statistic_columns``). Both compute ``uw`` and Hotelling
always, and ``rw`` only when requested. ``compute_balance_report`` runs
them on the observed column alone, so its statistics are the permutation
test's observed values, bit for bit. Under the ``refit`` weight policy
``_refit_rw_columns`` fits the control arms of a batch together from one
QR of the dataset's data: it keeps the arms' Gram matrices packed, one
row per matrix entry and one column per arm, and runs its Cholesky
factors and triangular solves over those rows, with no per-arm LAPACK call.

Every kernel reads the covariate views cached on the ``Dataset``: the
standardized matrix ``standardized_x``, the whitened one of the
Hotelling statistic (``whitened``) and the refit basis (``refit_basis``),
so one call standardizes, whitens and factors each dataset once. Weights
and fits are standardized, so ``rw`` ignores the scale;
``_statistic_columns`` puts the mean differences on it (a raw one is s_j
times the standardized one). The Hotelling statistic is a function of kq
(``_kq``), the R^2 of the assignment on the covariates over every unit:
T^2 = (N - 2) kq / (1 - kq). ``diagnostics`` fits no regression of its
own: it reports kq as the imbalance R^2, and as the prognosis R^2 that of
the control-arm fit that gives the prognosis weights (``control_arm_weights``).

The observed regression-weighted sum is also computed as the difference
between the fitted treatment-group mean and the observed control-group
mean. The two are algebraically identical (the intercept cancels in the
difference) and the report verifies the identity numerically.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset, RefitBasis, _scale_factors, varying_columns
from .errors import InternalNumericalError, RankDeficient
from .regression import RCOND_GATE, RegressionFit, _lstsq, _weight_vector, control_arm_weights

__all__ = [
    "BalanceReport",
    "Diagnostics",
    "compute_balance_report",
    "diagnostics",
]


@dataclass(frozen=True)
class BalanceReport:
    """All balance statistics for one dataset; only ``delta`` and
    ``delta_uw`` depend on ``scale``, as ``weights_used`` is standardized.

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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums of an (..., p, B) array over its p rows, in order from zero, as
    numpy reduces strided rows; it sums a lone column's contiguous values
    pairwise, which rounds differently once p >= 8."""
    return sum(np.moveaxis(a, -2, 0), np.zeros(a.shape[:-2] + a.shape[-1:]))


def _kq(whitened_sums: np.ndarray, n1: int, n0: int) -> np.ndarray:
    """kq = N / (n1 n0) |xw' z|^2 from the sums ``xw' z`` of the whitened
    covariates over the treated units of each assignment column,
    (..., k, B).

    The whitened columns are centered and orthonormal, and the centered
    assignment has squared norm n1 n0 / N, so kq, the squared norm of its
    projection on the covariates over its own, is the R^2 of the least
    squares fit of the assignment on an intercept and the covariates
    (Flury and Riedwyl, The American Statistician 39, 1985). It lies in
    [0, 1] up to rounding.
    """
    return ((n1 + n0) / (n1 * n0)) * _row_sums(np.square(whitened_sums))


def _hotelling(whitened_sums: np.ndarray, n1: int, n0: int) -> np.ndarray:
    """Hotelling T-squared from the sums ``xw' z`` (see ``_kq``).

    The pooled scatter is G - k S S' (S the treated sums, G the Gram matrix,
    k = N / (n1 n0)), so by Sherman-Morrison T-squared = (N - 2) kq / (1 - kq)
    with q = S' G^+ S = |xw' z|^2. kq = 1 is perfect separation: +inf.
    """
    n = n1 + n0
    kq = _kq(whitened_sums, n1, n0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = (n - 2) * kq / (1.0 - kq)
    return np.where(kq >= 1.0 - 1e-12, np.inf, t2)


# The Gram matrix G of an arm's rows of Q is near the identity times the
# arm's share of the units. The arm's R factor, taken from the Cholesky
# factor of G (Cholesky QR), carries a relative error of about kappa(G) * eps,
# so an arm whose G has a condition number above _GRAM_KAPPA falls back.
# The ratio of G's Gershgorin disc ends bounds kappa(G) from above, so a G
# it keeps within _GRAM_KAPPA needs no eigenvalues.
_GRAM_KAPPA = 1e2


def _packed_cholesky(gram: np.ndarray, m: int) -> np.ndarray:
    """Lower Cholesky factors of positive definite m x m matrices, one per
    column of ``gram``, whose rows hold entries (i, j), i <= j, in
    ``np.triu_indices`` order; as (m, m, columns), zero above the diagonal.
    Each entry is computed for every column at once, a column of L at a
    time; G's column j from its diagonal down is the slice of packed row j."""
    lower = np.zeros((m, m, gram.shape[1]))
    start = 0
    for j in range(m):
        column = gram[start : start + m - j] - (lower[j:, :j] * lower[j, :j]).sum(axis=1)
        lower[j, j] = np.sqrt(column[0])
        lower[j + 1 :, j] = column[1:] / lower[j, j]
        start += m - j
    return lower


def _forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` for every column of the (k, columns) ``rhs`` at
    once, with one lower triangular L per column, (k, k, columns), or one
    for all, (k, k, 1)."""
    x = np.empty_like(rhs)
    for i in range(rhs.shape[0]):
        x[i] = (rhs[i] - (lower[i, :i] * x[:i]).sum(axis=0)) / lower[i, i]
    return x


def _refit_rw_columns(
    basis: RefitBasis, z_cols: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Regression-weighted sums with weights refit on each column's control arm.

    The columns permute one assignment, so every control arm has the first
    column's size. Returns the sums, the number of failed refits (their
    sums are +inf, so they count as extreme) and the number of fallback
    columns. ``A = [1 | xs_live | y]``, k + 1 columns, has one Householder
    QR, ``Q R``, per basis (``RefitBasis.factors``). One product with
    ``z_cols`` gives every column's control Gram matrix
    ``G = Q'Q - Q' diag(z) Q`` packed, one row per upper-triangle entry and
    one column per assignment, and every later step runs over those rows
    with no LAPACK call per column. G is the Gram matrix of an orthonormal
    basis, not of the design: its condition number is about 1 where the
    design's normal equations would square the design's. With ``G = L L'``
    (``_packed_cholesky``), ``L' R`` is the arm's R factor (Cholesky QR):
    its design block is ``L11' R11`` and its last column
    ``L11' R[:k, k] + L[k, :k]' R[k, k]``, so with d = [0; delta_live] the
    sum is ``u . R[:k, k] + R[k, k] (L[k, :k] . v)``, where ``u = R11^-T d``
    (R11' shared by every column) and ``v = L11^-1 u``.

    A column stays on this path if kappa(G) <= ``_GRAM_KAPPA`` and its
    design has condition number below ``1 / regression.RCOND_GATE``, the
    gate of the arm fits themselves, so both paths fit the same model.
    kappa(G) is bounded first by the Gershgorin discs of G (Golub and Van
    Loan, Matrix Computations, Thm 7.2.1): centres from the diagonal rows,
    radii from one product of an incidence matrix with the absolute rows.
    Only the G the discs cannot keep within ``_GRAM_KAPPA`` are unpacked
    for their eigenvalues, which decide them. The design's condition number
    is bounded by ``sqrt(kappa(G)) * kappa(R11)``, and only the columns that
    bound cannot certify take the singular values of ``L11' R11``.
    The rest fall back: ill-conditioned designs (a covariate constant
    within the arm lands here) go through one ``regression._lstsq`` stack of
    their control arms, whose pivoted QR decides the rank of each design
    that fails the gate, and arms of at most p + 1 units all fail.
    """
    xs, y, live = basis.xs, basis.y, basis.live
    n, p = xs.shape
    b = z_cols.shape[1]
    n0 = n - np.count_nonzero(z_cols[:, 0]) if b else 0
    if n0 <= p + 1:
        return np.full(b, np.inf), b, b
    values = np.empty(b)
    k = live.size + 1
    r, products, totals = basis.factors
    rows, cols = np.triu_indices(k + 1)
    gram = totals[:, None] - products.T @ z_cols
    centres = gram[rows == cols]
    # Entry (i, j), i != j, adds |G_ij| to the radii of discs i and j.
    discs = np.arange(k + 1)[:, None]
    radii = ((discs == rows) != (discs == cols)).astype(np.float64) @ np.abs(gram)
    lowest, highest = (centres - radii).min(axis=0), (centres + radii).max(axis=0)
    uncertain = np.flatnonzero(highest > _GRAM_KAPPA * lowest)
    if uncertain.size:
        # eigvalsh reads the lower triangle
        unpacked = np.zeros((uncertain.size, k + 1, k + 1))
        unpacked[:, cols, rows] = gram[:, uncertain].T
        eigenvalues = np.linalg.eigvalsh(unpacked)
        lowest[uncertain], highest[uncertain] = eigenvalues[:, 0], eigenvalues[:, -1]
    stacked = np.flatnonzero(highest <= _GRAM_KAPPA * lowest)
    lower = _packed_cholesky(gram[:, stacked], k + 1)
    r_singular_values = np.linalg.svd(r[:k, :k], compute_uv=False)
    kappa_gram = highest[stacked] / lowest[stacked]
    ok = np.sqrt(kappa_gram) * r_singular_values[0] * RCOND_GATE < r_singular_values[-1]
    if not ok.all():
        # lower[:k, :k, i].T is L11' of column i
        singular_values = np.linalg.svd(lower[:k, :k, ~ok].T @ r[:k, :k], compute_uv=False)
        ok[~ok] = singular_values[:, -1] > RCOND_GATE * singular_values[:, 0]
    padded = np.vstack((np.zeros(b), deltas[live]))  # d of every column
    u = _forward_substitution(r[:k, :k].T[:, :, None], padded[:, stacked])
    v = _forward_substitution(lower, u)
    values[stacked] = r[:k, k] @ u + r[k, k] * (lower[k, :k] * v).sum(axis=0)

    pending = np.ones(b, dtype=bool)
    pending[stacked[ok]] = False
    fallback = np.flatnonzero(pending)
    values[fallback] = np.inf
    failures = fallback.size
    if fallback.size:
        control = np.nonzero(z_cols[:, fallback].T == 0.0)[1].reshape(fallback.size, n0)
        for i, solution in zip(fallback, _lstsq(xs[control], y[control])):
            if not isinstance(solution, RankDeficient):
                values[i] = float(solution[1:] @ deltas[:, i])
                failures -= 1
    return values, failures, fallback.size


def _column_products(d, z_cols, w_fixed, deltas, whitened, rw) -> tuple[int, int]:
    """Write what dataset ``d``'s assignment columns ``z_cols`` contribute
    to its rows of a stack's arrays, and return the numbers of failed
    refits and of fallback refits.

    ``deltas`` receives the standardized mean differences and ``whitened``
    the sums ``xw' z`` (see ``Dataset.whitened``) in its first
    ``xw.shape[1]`` rows; the zeros below add nothing to a sum of squares.
    Both come from one product, ``[xs | xw]' z_cols`` with the operand
    cached on the dataset (``Dataset.treated_sum_operand``), so both are
    always written. ``rw``, None when ``rw`` is not requested (nothing is
    then fit), receives ``w_fixed @ deltas`` under fixed weights, else the
    sums with weights refit on each column's own control arm.
    """
    p = d.p
    sums = d.treated_sum_operand.T @ z_cols
    # Mean differences, elementwise: a slice of the columns gets its bits in the whole.
    columns = sums[:p] * (1.0 / d.n1 + 1.0 / d.n0) - d.standardized_x.sum(axis=0)[:, None] / d.n0
    deltas[...] = columns
    whitened[: sums.shape[0] - p] = sums[p:]
    if rw is None:
        return 0, 0
    if w_fixed is not None:
        # The fresh contiguous columns: a product over a strided view can round differently.
        rw[...] = w_fixed @ columns
        return 0, 0
    rw[...], failures, fallbacks = _refit_rw_columns(d.refit_basis, z_cols, columns)
    return failures, fallbacks


def _statistic_columns(units, deltas, whitened, rw, n1, n0) -> dict[str, np.ndarray]:
    """``uw``, Hotelling and, when ``rw`` is given, ``rw`` for every assignment
    column of a stack of R datasets, as (R, B) arrays, from the arrays
    ``_column_products`` filled: ``deltas`` and ``whitened``, (R, p, B), and
    the weighted sums ``rw``, (R, B), returned as they are; ``deltas`` is
    first multiplied in place by ``units`` (R, p), each member's
    ``data._scale_factors``. Every column's sums run over its p values in
    order, so a column's statistics depend on no other column or member of
    the stack, nor on their number."""
    deltas *= units[:, :, None]
    out = {"uw": _row_sums(deltas), "hotelling": _hotelling(whitened, n1, n0)}
    if rw is not None:
        out["rw"] = rw
    return out


def _checked_weighted_sum(d: Dataset, weights: RegressionFit, weighted_sum) -> float:
    """The fitted-mean difference, required to agree with ``weighted_sum``,
    the kernel's ``w @ delta``."""
    w, xs = _weight_vector(weights, d.p), d.standardized_x
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
    return fitted_diff


def _check_fit(weights: RegressionFit | None, control_only: bool = False) -> None:
    """The rule for a ``weights`` argument: None, or an arm fit, whose arm,
    intercept and R^2 the callers read, else ``TypeError``; with
    ``control_only``, a fit of the control arm, else ``ValueError``."""
    if weights is None:
        return
    if not isinstance(weights, RegressionFit):
        kind = type(weights).__name__
        raise TypeError(f"weights must be an arm fit such as control_arm_weights(d), got {kind}")
    if control_only and weights.arm != "control":
        raise ValueError(f"prognosis needs a control-arm fit, got a {weights.arm!r} fit")


def compute_balance_report(
    d: Dataset, scale: str = "standardized", weights: RegressionFit | None = None
) -> BalanceReport:
    """Assemble every balance statistic for one dataset.

    Weights default to a fresh control-arm fit; pass another arm fit, a
    ``RegressionFit`` (e.g. ``treatment_arm_weights(d)``, the Y(1)
    analogue), whatever ``scale`` is: the fitted-mean check needs its arm
    and intercept, so anything else raises ``TypeError``. Hotelling is
    affine-invariant and ignores ``scale``; ``hotelling_used_pinv`` flags
    covariates collinear over all N units.

    The statistics are the permutation test's kernels on a stack of one
    dataset with one column, so under the same fixed weights they equal its
    ``observed`` values bit for bit.
    """
    _check_fit(weights)
    p, units = d.p, _scale_factors(d, scale)[None]
    if weights is None:
        weights = control_arm_weights(d)
    deltas, whitened, rw = np.zeros((1, p, 1)), np.zeros((1, p, 1)), np.zeros((1, 1))
    w = _weight_vector(weights, p)
    _column_products(d, _observed_column(d), w, deltas[0], whitened[0], rw[0])
    values = _statistic_columns(units, deltas, whitened, rw, d.n1, d.n0)
    delta_rw = float(values["rw"][0, 0])
    fitted_diff = _checked_weighted_sum(d, weights, delta_rw)

    return BalanceReport(
        delta=deltas[0, :, 0],
        delta_uw=float(values["uw"][0, 0]),
        delta_rw=delta_rw,
        hotelling_t2=float(values["hotelling"][0, 0]),
        weights_used=weights,
        scale=scale,
        hotelling_used_pinv=d.whitened[1],
        fitted_mean_difference=fitted_diff,
    )


@dataclass(frozen=True)
class Diagnostics:
    """Figure-1 style coordinates plus optional lagged-outcome correlations.

    ``prognosis_r2`` is the R^2 of the control-arm fit that gives the
    prognosis weights; ``imbalance_r2`` that of the assignment indicator
    on the covariates over every unit, the Hotelling kernel's kq. Both are
    0.0 when no covariate varies.
    """

    prognosis_r2: float
    imbalance_r2: float
    lagged_correlation_control: Optional[float] = None
    lagged_correlation_full: Optional[float] = None


def _correlation(a: np.ndarray, b: np.ndarray) -> Optional[float]:
    if not varying_columns(np.column_stack([a, b])).all():
        return None
    return float(np.corrcoef(a, b)[0, 1])


def diagnostics(
    d: Dataset, lag: Optional[np.ndarray] = None, weights: RegressionFit | None = None
) -> Diagnostics:
    """Prognosis and imbalance R-squared for one dataset.

    Prognosis is the R^2 of observed outcomes on all covariates within the
    control arm, read from ``weights``, a control-arm fit of ``d`` such as
    the one the balance report uses (``_check_fit``: ValueError for another
    arm's fit). It defaults to ``control_arm_weights(d)``, the fit that
    ``test`` makes on either scale. Imbalance is the R^2 of the assignment
    indicator on all covariates over every unit (linear probability fit),
    read as kq from the Hotelling kernel on the whitened covariates
    (``Dataset.whitened``), so T^2 = (N - 2) R^2 / (1 - R^2): it is
    shift- and scale-invariant, and covariates collinear over all units
    give the R^2 of the directions the whitening keeps. It is capped at
    1.0 where rounding takes kq above 1 (perfect separation). With no
    varying covariate both values are 0.0 and nothing is fit. When a
    lagged outcome column is supplied, its Pearson correlation with the
    observed outcome is reported for the control arm and for the full
    data; it is None (undefined) where either vector is constant. A lag
    column of another length or with a non-finite value raises ValueError.
    """
    _check_fit(weights, control_only=True)
    prognosis = imbalance = 0.0
    if len(d.constant_columns) < d.p:
        if weights is None:
            weights = control_arm_weights(d)
        prognosis = weights.r_squared
        # The observed column of compute_balance_report's Hotelling statistic.
        deltas, whitened = np.zeros((2, d.p, 1))
        _column_products(d, _observed_column(d), None, deltas, whitened, None)
        imbalance = min(float(_kq(whitened, d.n1, d.n0)[0]), 1.0)

    lag_control = lag_full = None
    if lag is not None:
        lag = np.asarray(lag, dtype=np.float64)
        if lag.shape != (d.n,):
            raise ValueError(f"lag column must have length {d.n}")
        if not np.isfinite(lag).all():
            raise ValueError("lag column must hold finite values")
        control = d.control_rows()
        lag_control = _correlation(lag[control], d.y_obs[control])
        lag_full = _correlation(lag, d.y_obs)

    return Diagnostics(
        prognosis_r2=prognosis,
        imbalance_r2=imbalance,
        lagged_correlation_control=lag_control,
        lagged_correlation_full=lag_full,
    )
