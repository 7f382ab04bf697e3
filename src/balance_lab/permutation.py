"""Randomization inference: permute assignment labels, recompute, compare.

The B permutations are drawn in fixed chunks of ``_CHUNK`` = 1024. Each
chunk draws from one counter-based stream keyed by (seed, chunk index).
Permutation i of a chunk gives each of the n units a 32-bit key, taken in
order from the stream's raw words, and treats the units that hold the n1
smallest keys. The keys are iid, so every n1-subset is equally likely to be
the smallest (Knuth, TAOCP vol. 2, section 3.4.2); a row whose n1-th and
(n1+1)-th smallest keys tie is redrawn by a shuffle on its own stream.
Row i takes the same words whatever the chunk's size, so the first k of B
draws are the same for every B >= k. The chunks are evaluated one after
another in the calling process. The statistics themselves come from the
column kernels in ``balance``, which evaluate the observed assignment as a
batch of one.
"""

# Unused: perfbench's tracer patches this binding until ROADMAP item 1 drops it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from .balance import _observed_column, _statistic_columns
from .data import Dataset, scaled_covariates, whitened_covariates
from .errors import InternalNumericalError, WeightDimensionMismatch
from .regression import RegressionFit, control_arm_weights
from .rng import stream

__all__ = [
    "PermutationResult",
    "permutation_test",
    "permutation_pvalues",
    "STATISTIC_NAMES",
]

STATISTIC_NAMES = ("uw", "rw", "hotelling")

# Permutations per stream. Fixed, so that the first k draws do not depend on B.
_CHUNK = 1024
# Rows of keys drawn and selected at a time, so that a chunk's keys are never
# all held at once.
_BLOCK = 128


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of one permutation test.

    ``p_value`` is the plain fraction of permuted statistics at least as
    extreme as the observed one (ties inclusive, compared in floating
    point); it can be exactly zero. ``p_conservative`` is the add-one
    variant (count+1)/(B+1), never zero. Failed replicates are recorded as
    +inf (counted as extreme). ``n_refit_fallback`` counts the replicates
    whose ``refit`` weights came from ``fit_ols`` instead of the shared QR
    (one per call, plus a Gram matrix of the control rows of its
    orthonormal factor per replicate), failed ones included: their
    control design has condition number 1e6 or more, or that Gram matrix
    more than 1e2 (bounded by its Gershgorin discs, or where they cannot
    certify it, by its eigenvalues). Hotelling is evaluated on covariates
    whitened over all N units, so it is shift- and scale-invariant; perfect
    separation gives +inf, counted as extreme.
    ``permuted_values`` keeps the draw order. The draws come from one
    stream per (seed, chunk index), in fixed chunks of 1024, so the first
    k of B values are the same for every B >= k. Under random-stream
    version 3 each draw treats the n1 units holding the smallest of n iid
    32-bit keys, which makes every assignment with the observed arm sizes
    equally likely; a draw whose keys tie at the boundary is redrawn by a
    shuffle on a stream of its own (see ``rng``).
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
    """Columns of permuted assignments for replicates start..start+count-1.

    ``start`` opens a chunk, so it is a multiple of ``_CHUNK``. Column i
    treats the units holding the n1 smallest of n keys read from the
    chunk's stream: ceil(n/2) raw 64-bit words per column, each split into
    two 32-bit keys through a little-endian view so that every host reads
    the same keys. Column i does not depend on ``count``.
    """
    z = z.astype(np.float64)
    n = z.shape[0]
    if np.count_nonzero(z) in (0, n):
        return np.tile(z[:, None], (1, count))
    chunk = start // _CHUNK
    bits = stream(seed, chunk).bit_generator
    out = np.empty((count, n))
    for first in range(0, count, _BLOCK):
        rows = out[first : first + _BLOCK]
        words = bits.random_raw((rows.shape[0], (n + 1) // 2))
        keys = words.astype("<u8", copy=False).view("<u4")[:, :n]
        _select_smallest(keys, z, seed, chunk, first, rows)
    return out.T


def _select_smallest(
    keys: np.ndarray, z: np.ndarray, seed: int, chunk: int, first: int, rows: np.ndarray
) -> None:
    """Set each of ``rows`` to the 0/1 marks of the n1 smallest of its keys.

    n1 is the number of treated units in ``z``. Where the n1-th and the
    (n1+1)-th smallest keys of a row tie, more than n1 keys reach the
    threshold; that row, column ``first + i`` of the chunk, is redrawn as a
    shuffle of ``z`` on the stream (seed, chunk, first + i + 1). The event
    "no tie" is symmetric in the units, so a row without one holds a
    uniformly random n1-subset; a redrawn row is uniform too, so every row
    is. Keying each redraw by its column keeps column i independent of how
    many columns follow.
    """
    n1 = int(np.count_nonzero(z))
    # one kth: numpy's vectorized partition takes a single index only
    threshold = np.partition(keys, n1 - 1, axis=1)[:, n1 - 1 : n1]
    np.less_equal(keys, threshold, out=rows)
    for i in np.flatnonzero(rows.sum(axis=1) != n1):
        rows[i] = stream(seed, chunk, first + i + 1).permuted(z)


def permutation_pvalues(
    d: Dataset,
    statistics: Sequence[str],
    b: int,
    seed: int,
    weight_policy: str = "fixed",
    scale: str = "standardized",
    weights: Union[RegressionFit, np.ndarray, None] = None,
) -> dict[str, PermutationResult]:
    """Run the permutation test for several statistics over shared draws.

    All statistics are evaluated on the same B permuted assignments (the
    streams depend only on seed and chunk index), which is both cheaper
    and what the simulation protocol prescribes. The observed statistics go
    through the same evaluation as one more assignment, so under ``refit``
    the observed ``rw`` is refit on the observed control arm; ``weights``
    applies to the ``fixed`` policy only and is refused under ``refit``.
    The chunks are evaluated in order in the calling process; parallel work
    belongs to ``run_power_study``, which spreads whole replicates.
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
    xw = whitened_covariates(d)[0] if "hotelling" in statistics else None
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

    pieces = [
        evaluate(_permuted_z(d.z, seed, start, min(_CHUNK, b - start)))
        for start in range(0, b, _CHUNK)
    ]
    values = {name: np.concatenate([piece[0][name] for piece in pieces]) for name in statistics}
    n_failed = sum(piece[1] for piece in pieces)
    n_refit_fallback = sum(piece[2] for piece in pieces)

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
    )[statistic]
