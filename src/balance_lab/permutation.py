"""Randomization inference: permute assignment labels, recompute, compare.

Every permutation replicate draws its labels from a counter-based stream
keyed by (seed, replicate_index), so results are bit-identical no matter
how replicates are chunked or how many workers execute them. The statistics
themselves come from the column kernels in ``balance``, which evaluate the
observed assignment as a batch of one.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from .balance import _observed_column, _statistic_columns, _whitened
from .data import Dataset, scaled_covariates
from .errors import InternalNumericalError, WeightDimensionMismatch
from .regression import RegressionFit, control_arm_weights
from .rng import stream

__all__ = [
    "PermutationResult",
    "permute_assignment",
    "permutation_test",
    "permutation_pvalues",
    "STATISTIC_NAMES",
]

STATISTIC_NAMES = ("uw", "rw", "hotelling")

_CHUNK = 1024


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of one permutation test.

    ``p_value`` is the plain fraction of permuted statistics at least as
    extreme as the observed one (ties inclusive, compared in floating
    point); it can be exactly zero. ``p_conservative`` is the add-one
    variant (count+1)/(B+1), never zero. Failed replicates are recorded as
    +inf (counted as extreme). ``n_refit_fallback`` counts the replicates
    whose ``refit`` weights came from the pivoted ``fit_ols`` path instead
    of the stacked QR, failed ones included. Hotelling is evaluated on
    covariates whitened over all N units, so it is shift- and
    scale-invariant; perfect separation gives +inf, counted as extreme.
    """

    statistic_name: str
    observed: float
    b: int
    permuted_values: np.ndarray
    p_value: float
    p_conservative: float
    seed: int
    weight_policy: str
    n_failed: int = 0
    n_refit_fallback: int = 0


def permute_assignment(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform redraw of the assignment vector with arm sizes preserved."""
    z = np.asarray(z)
    return z[rng.permutation(z.size)]


def _weights_vector(d: Dataset, weights, scale: str) -> np.ndarray:
    if weights is None:
        weights = control_arm_weights(d, scale=scale)
    if isinstance(weights, RegressionFit):
        w = np.asarray(weights.coefficients, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
    if w.shape != (d.p,):
        raise WeightDimensionMismatch(f"expected {d.p} weights, got shape {w.shape}")
    return w


def _permuted_z(z: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """Columns of permuted assignments for replicates start..start+count-1."""
    n = z.size
    out = np.empty((n, count), dtype=np.float64)
    for i in range(count):
        out[:, i] = permute_assignment(z, stream(seed, start + i))
    return out


def _evaluate_chunk(args) -> tuple[int, dict[str, np.ndarray], int, int]:
    evaluate, z, seed, start, count = args
    return (start, *evaluate(_permuted_z(z, seed, start, count)))


def permutation_pvalues(
    d: Dataset,
    statistics: Sequence[str],
    b: int,
    seed: int,
    weight_policy: str = "fixed",
    scale: str = "standardized",
    weights: Union[RegressionFit, np.ndarray, None] = None,
    threads: int = 1,
) -> dict[str, PermutationResult]:
    """Run the permutation test for several statistics over shared draws.

    All statistics are evaluated on the same B permuted assignments (the
    streams depend only on seed and replicate index), which is both cheaper
    and what the simulation protocol prescribes. The observed statistics go
    through the same evaluation as one more assignment, so under ``refit``
    the observed ``rw`` is refit on the observed control arm; ``weights``
    applies to the ``fixed`` policy only and is refused under ``refit``.
    """
    if b < 1:
        raise ValueError("need at least one permutation")
    unknown = set(statistics) - set(STATISTIC_NAMES)
    if unknown:
        raise ValueError(f"unknown statistics: {sorted(unknown)}")
    if weight_policy not in ("fixed", "refit"):
        raise ValueError(f"unknown weight policy {weight_policy!r}")

    if weight_policy == "refit" and weights is not None:
        raise ValueError("weights apply to the fixed policy only; refit fits its own")

    w_fixed = None
    if "rw" in statistics and weight_policy == "fixed":
        w_fixed = _weights_vector(d, weights, scale)
    sizes = d.sizes
    xw = _whitened(d)[0] if "hotelling" in statistics else None
    evaluate = partial(
        _statistic_columns, tuple(statistics), scaled_covariates(d, scale), xw,
        d.y_obs, sizes.n1, sizes.n0, weight_policy, w_fixed,
    )
    observed_values, observed_failures, _ = evaluate(_observed_column(d))
    if observed_failures:
        # The observed control arm cannot be fit; raise that fit's typed error.
        control_arm_weights(d, scale=scale)
        raise InternalNumericalError("observed control-arm refit failed")
    observed = {name: float(observed_values[name][0]) for name in statistics}

    tasks = [
        (evaluate, d.z, seed, start, min(_CHUNK, b - start)) for start in range(0, b, _CHUNK)
    ]
    if threads > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            pieces = list(pool.map(_evaluate_chunk, tasks))
    else:
        pieces = [_evaluate_chunk(t) for t in tasks]
    pieces.sort(key=lambda item: item[0])

    values = {name: np.empty(b) for name in statistics}
    n_failed = n_refit_fallback = 0
    for start, chunk_values, failures, fallbacks in pieces:
        n_failed += failures
        n_refit_fallback += fallbacks
        for name in statistics:
            arr = chunk_values[name]
            values[name][start : start + arr.size] = arr

    results = {}
    for name in statistics:
        obs = observed[name]
        count = int(np.count_nonzero(np.abs(values[name]) >= abs(obs)))
        results[name] = PermutationResult(
            statistic_name=name,
            observed=obs,
            b=b,
            permuted_values=values[name],
            p_value=count / b,
            p_conservative=(count + 1) / (b + 1),
            seed=seed,
            weight_policy=weight_policy if name == "rw" else "fixed",
            n_failed=n_failed if name == "rw" else 0,
            n_refit_fallback=n_refit_fallback if name == "rw" else 0,
        )
    return results


def permutation_test(
    d: Dataset,
    statistic: str,
    b: int,
    seed: int,
    weight_policy: str = "fixed",
    scale: str = "standardized",
    weights: Union[RegressionFit, np.ndarray, None] = None,
    threads: int = 1,
) -> PermutationResult:
    """Two-sided permutation test for a single statistic.

    Deterministic given (seed, b, dataset); the observed assignment is not
    included among the B draws (the conservative p-value effectively adds
    it back).
    """
    return permutation_pvalues(
        d,
        (statistic,),
        b,
        seed,
        weight_policy=weight_policy,
        scale=scale,
        weights=weights,
        threads=threads,
    )[statistic]
