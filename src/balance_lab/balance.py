"""Per-covariate mean differences and the three omnibus balance statistics.

Each statistic has one kernel over the assignment columns of a stack of
datasets: each member's observed assignment is one more column beside its
permutation draws, so both are computed by the same arithmetic. The
products of a member's covariates with its assignment columns, and its
regression-weighted sums, are formed one member at a time
(``_column_products``); the rest of every statistic runs once for the
whole stack (``_statistic_columns``). ``compute_balance_report`` runs
them on the observed column alone, so its statistics are the permutation
test's observed values, bit for bit. Under the ``refit`` weight policy
``_refit_rw_columns`` fits the control arms of a batch together.

Every kernel reads the covariate views cached on the ``Dataset``: the
standardized matrix ``standardized_x`` and the whitened one of the
Hotelling statistic (``whitened``), so one call standardizes and whitens
each dataset once. Weights and fits are standardized, so ``rw`` ignores the
scale; ``_statistic_columns`` puts the mean differences on it (a raw one
is s_j times the standardized one). The Hotelling statistic is a
function of kq (``_kq``), the R^2 of the assignment on the covariates, which
``simulation.diagnostics`` reports as the imbalance R^2 from these kernels.

The observed regression-weighted sum is also computed as the difference
between the fitted treatment-group mean and the observed control-group
mean. The two are algebraically identical (the intercept cancels in the
difference) and the report verifies the identity numerically.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _scale_factors, varying_columns
from .errors import InternalNumericalError, RankDeficient
from .regression import RCOND_GATE, RegressionFit, _lstsq, _weight_vector, control_arm_weights

__all__ = [
    "BalanceReport",
    "compute_balance_report",
]

STATISTIC_NAMES = ("uw", "rw", "hotelling")


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

    The columns permute one assignment, so every control arm has the first
    column's size. Returns the sums, the number of failed refits (their
    sums are +inf, so they count as extreme) and the number of fallback
    columns. The data ``[1 | xs | y]`` go through one Householder QR,
    ``Q R``, per call. One product of the row-wise products of Q with
    ``z_cols`` gives every column's control Gram matrix
    ``G = Q'Q - Q' diag(z) Q``; with ``G = L L'``, ``L' R`` is upper
    triangular and is the R factor of the control arm's ``[1 | xs | y]``, so
    its top rows hold the design's R and Q'y and the coefficients come from
    a triangular solve. G is the Gram matrix of an orthonormal basis, not of
    the design: its condition number is about 1 where the design's normal
    equations would square the design's. A column stays on this path if
    kappa(G) <= ``_GRAM_KAPPA`` and its design has condition number below
    ``1 / regression.RCOND_GATE``, the gate of the arm fits themselves, so
    both paths fit the same model. kappa(G) is bounded first by the Gershgorin
    discs of G (Golub and Van Loan, Matrix Computations, Thm 7.2.1), one
    pass of array arithmetic over the chunk; only the G the discs cannot
    keep within ``_GRAM_KAPPA`` take their eigenvalues, which decide them.
    The design's condition number is bounded by
    ``sqrt(kappa(G)) * kappa(R11)``, R11 the design block of R and kappa(G)
    taken from the disc bound or the eigenvalues, and only the columns that
    bound cannot certify take the singular values of their design's R.
    The rest fall back: ill-conditioned designs (a covariate constant
    within the arm lands here) go through one ``regression._lstsq`` stack of
    their control arms, whose pivoted QR decides the rank of each design
    that fails the gate, and arms of at most p + 1 units all fail.
    """
    n, p = xs.shape
    b = z_cols.shape[1]
    n0 = n - np.count_nonzero(z_cols[:, 0]) if b else 0
    if n0 <= p + 1:
        return np.full(b, np.inf), b, b
    values = np.empty(b)
    pending = np.ones(b, dtype=bool)
    # _lstsq gives a constant column a zero weight; the design here leaves
    # out the columns constant over all units.
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
    refits and of fallback refits. Each array may be None, when
    no requested statistic reads it.

    ``deltas`` receives the standardized mean differences and ``whitened``
    the sums ``xw' z`` (see ``Dataset.whitened``) in its first
    ``xw.shape[1]`` rows; the zeros below add nothing to a sum of squares.
    ``rw`` receives ``w_fixed @ deltas`` under fixed weights, else the sums
    with weights refit on each column's own control arm. The treated sums of
    ``xs`` and ``xw`` come from one product, ``[xs | xw]' z_cols`` with the
    operand cached on the dataset (``Dataset.treated_sum_operand``), whichever
    statistics are requested: the last bits of a BLAS product depend on its
    operands' layout and on a column's place among the columns, so each
    statistic keeps one set of bits whatever the others.
    """
    xs = d.standardized_x
    sums = d.treated_sum_operand.T @ z_cols
    p = xs.shape[1]
    if deltas is not None or rw is not None:
        # Mean differences, elementwise: a slice of the columns gets its bits in the whole.
        totals = xs.sum(axis=0)[:, None]
        columns = sums[:p] * (1.0 / d.n1 + 1.0 / d.n0) - totals / d.n0
        if deltas is not None:
            deltas[...] = columns
    if whitened is not None:
        whitened[: sums.shape[0] - p] = sums[p:]
    if rw is None:
        return 0, 0
    if w_fixed is not None:
        rw[...] = w_fixed @ columns
        return 0, 0
    rw[...], failures, fallbacks = _refit_rw_columns(xs, d.y_obs, z_cols, columns)
    return failures, fallbacks


def _statistic_columns(statistics, units, deltas, whitened, rw, n1, n0) -> dict[str, np.ndarray]:
    """Each requested statistic for every assignment column of a stack of R
    datasets, as (R, B) arrays, from the arrays ``_column_products`` filled:
    ``deltas`` and ``whitened``, (R, p, B), and the weighted sums ``rw``,
    (R, B), returned as they are; ``deltas`` is first multiplied in place by
    ``units`` (R, p), each member's ``data._scale_factors``. Every column's
    sums run over its p values in order, so a column's statistics do not
    depend on the other columns or members of the stack, nor on their number."""
    out: dict[str, np.ndarray] = {}
    if "uw" in statistics:
        deltas *= units[:, :, None]
        out["uw"] = _row_sums(deltas)
    if "rw" in statistics:
        out["rw"] = rw
    if "hotelling" in statistics:
        out["hotelling"] = _hotelling(whitened, n1, n0)
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
    p, units = d.p, _scale_factors(d, scale)[None]
    if weights is None:
        weights = control_arm_weights(d)
    if not isinstance(weights, RegressionFit):
        kind = type(weights).__name__
        raise TypeError(f"weights must be an arm fit such as control_arm_weights(d), got {kind}")
    deltas, whitened, rw = np.zeros((1, p, 1)), np.zeros((1, p, 1)), np.zeros((1, 1))
    w = _weight_vector(weights, p)
    _column_products(d, _observed_column(d), w, deltas[0], whitened[0], rw[0])
    values = _statistic_columns(STATISTIC_NAMES, units, deltas, whitened, rw, d.n1, d.n0)
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
