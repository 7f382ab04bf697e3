"""Exact design-based variances of balance statistics under complete randomization.

Everything here is fully observable: the only randomness is which n1 of the
N units are treated, and the covariates are seen for every unit regardless
of arm. The closed forms are validated against an exhaustive enumeration
oracle that walks every possible assignment.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, _covariate_matrix, _scale_factors
from .errors import DegenerateAssignment, TooManyAssignments, ZeroVariance
from .regression import _weight_vector

__all__ = [
    "VarianceReport",
    "OracleResult",
    "variance_report",
    "enumeration_oracle",
    "normal_approx_test",
    "MAX_ENUMERATED_ASSIGNMENTS",
]

MAX_ENUMERATED_ASSIGNMENTS = 10**6

# Incremental subset sums are re-anchored with exact summation this often,
# bounding float drift over long enumerations.
_REFRESH_INTERVAL = 1024


@dataclass(frozen=True)
class VarianceReport:
    """Exact variances/covariances of the covariate mean differences."""

    var_delta_j: np.ndarray
    cov_delta: np.ndarray
    var_delta_uw: float
    var_delta_rw_conditional: float
    population_cov: np.ndarray
    scale: str


@dataclass(frozen=True)
class OracleResult:
    """Exact moments of a statistic over every possible assignment."""

    mean: float
    variance: float
    values: np.ndarray
    statistic: str


def variance_report(
    d: Dataset, weights: Sequence[float], scale: str = "standardized"
) -> VarianceReport:
    """Assemble every exact variance quantity for one dataset.

    ``weights``, standardized whatever ``scale`` is, conditions the weighted
    variance: Var(sum_j w_j delta_j | w) = w' Cov(delta) w over standardized
    differences. On the raw scale the covariances are (s s') * Cov(delta).
    """
    w = _weight_vector(weights, d.p)
    n, n1, n0, s = d.n, d.n1, d.n0, _scale_factors(d, scale)
    # With no varying covariate there is no standardized view; every covariance is 0.
    xs = d.standardized_x if len(d.constant_columns) < d.p else np.zeros(d.x.shape)
    centered = xs - xs.mean(axis=0)
    pop_cov = centered.T @ centered / n  # finite-population covariance (1/N)
    cov_std = n * n / ((n - 1) * n1 * n0) * pop_cov
    cov_delta = np.outer(s, s) * cov_std
    ones = np.ones(d.p)
    return VarianceReport(
        var_delta_j=np.diag(cov_delta).copy(),
        cov_delta=cov_delta,
        var_delta_uw=float(ones @ cov_delta @ ones),
        var_delta_rw_conditional=float(w @ cov_std @ w),
        population_cov=np.outer(s, s) * pop_cov,
        scale=scale,
    )


def _revolving_door_swaps(n: int, k: int):
    """Yield (out, in) swaps visiting every k-subset of range(n) exactly once.

    The walk starts at {0, ..., k-1}; consecutive subsets differ by a
    single exchanged element (revolving-door Gray code), so any statistic
    linear in the treated set updates in O(1) per step.
    """

    def forward(n, k):
        if 0 < k < n:
            yield from forward(n - 1, k)
            yield (k - 2, n - 1) if k >= 2 else (n - 2, n - 1)
            yield from backward(n - 1, k - 1)

    def backward(n, k):
        if 0 < k < n:
            yield from forward(n - 1, k - 1)
            yield (n - 1, k - 2) if k >= 2 else (n - 1, n - 2)
            yield from backward(n - 1, k)

    yield from forward(n, k)


def enumeration_oracle(
    x: np.ndarray,
    n1: int,
    statistic: str = "uw",
    weights: Optional[Sequence[float]] = None,
    j: Optional[int] = None,
) -> OracleResult:
    """Exact distribution of a balance statistic over all assignments.

    Brute force over every way of choosing the n1 treated units, kept
    independent of the closed-form variance module so it can validate it.

    Parameters
    ----------
    x : (N, p) array, or a length-N vector of one covariate
        Covariates on whatever scale the statistic should use.
    n1 : int
        Treated-arm size; all C(N, n1) assignments are visited.
    statistic : {"uw", "rw", "delta_j"}
    weights : length-p vector, required for "rw"
    j : column index, required for "delta_j"
    """
    x = _covariate_matrix(x)
    n, p = x.shape
    n0 = n - n1
    if n1 < 1 or n0 < 1:
        raise DegenerateAssignment(f"both arms must be non-empty, got n1={n1}, n0={n0}")

    if statistic == "uw":
        scores = x.sum(axis=1)
    elif statistic == "rw":
        if weights is None:
            raise ValueError("statistic 'rw' requires a weight vector")
        scores = x @ _weight_vector(weights, p)
    elif statistic == "delta_j":
        if j is None or not 0 <= j < p:
            raise ValueError(f"statistic 'delta_j' requires a column index in [0, {p})")
        scores = x[:, j].copy()
    else:
        raise ValueError(f"unknown statistic {statistic!r}")

    total_assignments = math.comb(n, n1)
    if total_assignments > MAX_ENUMERATED_ASSIGNMENTS:
        raise TooManyAssignments(
            f"C({n}, {n1}) = {total_assignments} exceeds the "
            f"{MAX_ENUMERATED_ASSIGNMENTS} assignment guard"
        )

    # delta(S) = coef * sum_{i in S} scores_i + const for treated set S.
    coef = 1.0 / n1 + 1.0 / n0
    const = -math.fsum(scores) / n0

    members = np.zeros(n, dtype=bool)
    members[:n1] = True
    subset_sum = math.fsum(scores[:n1])

    values = np.empty(total_assignments)
    values[0] = coef * subset_sum + const
    for step, (out_i, in_i) in enumerate(_revolving_door_swaps(n, n1), start=1):
        members[out_i] = False
        members[in_i] = True
        if step % _REFRESH_INTERVAL == 0:
            subset_sum = math.fsum(scores[members])
        else:
            subset_sum += scores[in_i] - scores[out_i]
        values[step] = coef * subset_sum + const

    mean = math.fsum(values) / total_assignments
    variance = math.fsum((v - mean) ** 2 for v in values) / total_assignments
    return OracleResult(mean=mean, variance=variance, values=values, statistic=statistic)


def normal_approx_test(statistic_value: float, exact_variance: float) -> float:
    """Two-sided normal p-value 2(1 - Phi(|value| / sqrt(variance))).

    Secondary output only: permutation inference is the supported decision
    rule. Phi is evaluated through the complementary error function.
    """
    if exact_variance <= 0.0:
        raise ZeroVariance(f"exact variance must be positive, got {exact_variance}")
    z = abs(statistic_value) / math.sqrt(exact_variance)
    return math.erfc(z / math.sqrt(2.0))
