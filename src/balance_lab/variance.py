"""Exact design-based variances of balance statistics under complete randomization.

Everything here is fully observable: the only randomness is which n1 of the
N units are treated, and the covariates are seen for every unit regardless
of arm. The closed forms are validated against an exhaustive enumeration
oracle that lists every possible treated set and sums each one on its own.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import Dataset, _covariate_matrix, _is_integer, _scale_factors
from .errors import DegenerateAssignment, NonNumericValue, TooManyAssignments, ZeroVariance
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
_CHUNK = 4096  # treated sets per index array of the enumeration, whatever C(N, n1) is


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


def enumeration_oracle(
    x: np.ndarray,
    n1: int,
    statistic: str = "uw",
    weights: Optional[Sequence[float]] = None,
    j: Optional[int] = None,
) -> OracleResult:
    """Exact distribution of a balance statistic over all assignments.

    Brute force over every way of choosing the n1 treated units among the N
    rows of ``x``, kept independent of the closed-form variance module so it
    can validate it. ``x`` is (N, p), or a length-N vector of one covariate,
    on whatever scale the statistic should use. ``statistic`` is "uw", "rw"
    (which needs the length-p ``weights``) or "delta_j" (which needs the
    column index ``j``). ``values[i]`` belongs to the i-th treated set in the
    lexicographic order of ``itertools.combinations(range(N), n1)`` and is
    summed from that set's own n1 scores.
    """
    x = _covariate_matrix(x)
    if not np.isfinite(x).all():
        raise NonNumericValue("covariate matrix contains non-finite values")
    if not _is_integer(n1) or not (j is None or _is_integer(j)):
        raise TypeError(f"n1 and j must be integers, got n1={n1!r}, j={j!r}")
    n, p = x.shape
    if not 0 < n1 < n:
        raise DegenerateAssignment(f"need 0 < n1 < N for two non-empty arms, got n1={n1}, N={n}")
    n0 = n - n1

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

    total = math.comb(n, n1)
    if total > MAX_ENUMERATED_ASSIGNMENTS:
        raise TooManyAssignments(
            f"C({n}, {n1}) = {total} exceeds the {MAX_ENUMERATED_ASSIGNMENTS} assignment guard"
        )

    # delta(S) = coef * sum_{i in S} scores_i + const for treated set S. Each row
    # of idx is one set, in the order itertools.combinations yields them.
    coef = 1.0 / n1 + 1.0 / n0
    const = -math.fsum(scores) / n0
    members = itertools.chain.from_iterable(itertools.combinations(range(n), n1))
    values = np.empty(total)
    for start in range(0, total, _CHUNK):
        idx = np.fromiter(itertools.islice(members, _CHUNK * n1), np.intp).reshape(-1, n1)
        values[start : start + len(idx)] = coef * scores[idx].sum(axis=1) + const

    mean = math.fsum(values) / total
    variance = math.fsum((values - mean) ** 2) / total
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
