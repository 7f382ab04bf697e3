"""Randomization inference: permute assignment labels, recompute, compare.

The B permutations are drawn in fixed chunks of ``_CHUNK`` = 1024. Each
chunk draws from one stream keyed by (seed, chunk index) through
``SeedSequence`` spawning, on which the streams' independence rests.
Permutation i of a chunk gives each of the n units a key, taken in order
from the stream's raw words, and treats the units that hold the n1 smallest
keys. Under random-stream version 5 the keys are 16 bits wide for
n <= ``_NARROW_KEYS_MAX_N``, else 32 bits. The keys are iid, so every
n1-subset is equally likely to be the smallest (Knuth, TAOCP vol. 2,
section 3.4.2); a row whose n1-th and (n1+1)-th smallest keys tie is
redrawn by a shuffle on its own stream.
Row i takes the same words whatever the chunk's size, so the first k of B
draws are the same for every B >= k. The chunks are evaluated one after
another in the calling process.

One call tests a stack of datasets that share one shape and one
assignment vector, such as a group of ``simulate``'s replicates; a single
dataset is a stack of one. The call prepares its stack: its covariate
views and control-arm weights. Each member draws its own assignments and
forms its own products with them; the statistics and their counts are then
computed once for the whole stack, by the column kernels in ``balance``,
with each member's observed assignment as one more column beside its
draws, as the balance report computes it.
"""

# Unused: perfbench's tracer patches this binding until ROADMAP item 1 drops it.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .balance import STATISTIC_NAMES, _column_products, _observed_column, _statistic_columns
from .data import Dataset, _scale_factors, stack_views
from .errors import BalanceLabError, InternalNumericalError
from .regression import RegressionFit, _weight_vector, control_arm_coefficients, control_arm_weights
from .rng import stream

__all__ = [
    "PermutationResult",
    "permutation_test",
    "permutation_pvalues",
    "STATISTIC_NAMES",
]

# Permutations per stream. Fixed, so that the first k draws do not depend on B.
_CHUNK = 1024
# Rows of keys drawn and selected at a time, so that a chunk's keys are never
# all held at once.
_BLOCK = 128
# Largest n whose keys are 16 bits wide, four to a raw word; a larger n takes
# 32-bit keys, two to a word. Narrow keys halve the words drawn and speed up
# the partition, but tie at the n1 boundary in about n / 2**17 of the rows,
# and each tie is redrawn. In timings of this function alone (one chunk,
# n1 = n/2) 16-bit keys took 0.76-0.92 of the 32-bit time for n <= 4096 and
# 0.99 at 6000, 1.07 at 16000; no end-to-end workload runs above the bound.
# Part of random-stream version 5.
_NARROW_KEYS_MAX_N = 4096


@dataclass(frozen=True)
class PermutationResult:
    """Outcome of one permutation test.

    ``p_value`` is the plain fraction of permuted statistics at least as
    extreme as the observed one (ties inclusive, compared in floating
    point); it can be exactly zero. ``p_conservative`` is the add-one
    variant (count+1)/(B+1), never zero. Failed replicates are recorded as
    +inf (counted as extreme). ``n_refit_fallback`` counts the replicates,
    failed ones included, whose ``refit`` weights came not from the shared
    QR of ``balance._refit_rw_columns`` but from its one ``_lstsq`` stack.
    Hotelling is evaluated on covariates whitened over all N units, so it
    is shift- and scale-invariant; perfect separation gives +inf, counted
    as extreme.
    ``permuted_values`` keeps the draw order. The draws come from one
    stream per (seed, chunk index), in fixed chunks of 1024, so the first
    k of B values are the same for every B >= k. The streams come from
    ``SeedSequence`` spawning, which makes them independent. Under
    random-stream version 5 each draw treats the n1 units holding the
    smallest of n iid keys, 16 bits wide for n <= 4096, else 32 bits, which
    makes every assignment with the observed arm sizes equally likely; a
    draw whose keys tie at the boundary is redrawn by a shuffle on a stream
    of its own (see ``rng``).
    A dataset tested in a stack (see ``permutation_pvalues``) gets the
    result it gets alone, bit for bit, whatever the other members.
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


def _permuted_z(z: np.ndarray, seed: int, start: int, count: int) -> np.ndarray:
    """Columns of permuted assignments for replicates start..start+count-1.

    ``start`` opens a chunk, so it is a multiple of ``_CHUNK``. Column i
    treats the units holding the n1 smallest of n keys read from the
    chunk's stream through a little-endian view, so that every host reads
    the same keys: for n <= ``_NARROW_KEYS_MAX_N``, ceil(n/4) raw 64-bit
    words per column, each split into four 16-bit keys; above it, ceil(n/2)
    words, each split into two 32-bit keys. Column i does not depend on
    ``count``.
    """
    z = z.astype(np.float64)
    n = z.shape[0]
    if np.count_nonzero(z) in (0, n):
        return np.tile(z[:, None], (1, count))
    chunk = start // _CHUNK
    bits = stream(seed, chunk).bit_generator
    key, per_word = ("<u2", 4) if n <= _NARROW_KEYS_MAX_N else ("<u4", 2)
    out = np.empty((count, n))
    for first in range(0, count, _BLOCK):
        rows = out[first : first + _BLOCK]
        words = bits.random_raw((rows.shape[0], (n + per_word - 1) // per_word))
        keys = words.astype("<u8", copy=False).view(key)[:, :n]
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
    part = np.partition(keys, n1 - 1, axis=1)
    threshold = part[:, n1 - 1 : n1]
    np.less_equal(keys, threshold, out=rows)
    # The keys after position n1 - 1 of the partition are all at least the
    # threshold, so a tie is their minimum equal to it.
    for i in np.flatnonzero(part[:, n1:].min(axis=1) == threshold[:, 0]):
        rows[i] = stream(seed, chunk, first + i + 1).permuted(z)


def permutation_pvalues(
    d: Union[Dataset, Sequence[Dataset]],
    statistics: Sequence[str],
    b: int,
    seed: Union[int, Sequence[int]],
    weight_policy: str = "fixed",
    scale: str = "standardized",
    weights: Union[RegressionFit, np.ndarray, None] = None,
):
    """Run the permutation test for several statistics over shared draws.

    All statistics are evaluated on the same B permuted assignments (the
    streams depend only on seed and chunk index), which is both cheaper
    and what the simulation protocol prescribes. The observed statistics go
    through the same evaluation as one more assignment, so under ``refit``
    the observed ``rw`` is refit on the observed control arm; ``weights`` (a
    ``RegressionFit`` or a weight vector, standardized whatever ``scale`` is,
    which sets the units of ``uw`` only) applies to the ``fixed`` policy only
    and is refused under ``refit``. Returns a dict of ``PermutationResult``
    by statistic.

    ``d`` may also be a stack: a sequence of datasets that share one shape
    and one assignment vector (ValueError otherwise), with one seed per
    member in ``seed``. The call makes the stack's views (``data.stack_views``)
    and fits its weights (``regression.control_arm_coefficients``), so a
    stack takes no ``weights``. The result is then a list with each
    member's dict or, in its place, the ``BalanceLabError`` that member's
    test (or fit) raised; a single dataset is a stack of one whose error is
    raised. Each member
    draws its own assignments and forms its own product ``[xs | xw]' Z``
    (and, under ``refit``, its own refits); the statistics and
    the counts are then computed once for the whole stack. A member's
    results equal, bit for bit, those it gets as a stack of one.
    The chunks are evaluated in order in the calling process; parallel work
    belongs to ``run_power_study``, which spreads groups of whole replicates.
    """
    if b < 1:
        raise ValueError("need at least one permutation")
    if not statistics:
        raise ValueError("need at least one statistic")
    unknown = set(statistics) - set(STATISTIC_NAMES)
    if unknown:
        raise ValueError(f"unknown statistics: {sorted(unknown)}")
    if weight_policy not in ("fixed", "refit"):
        raise ValueError(f"unknown weight policy {weight_policy!r}")
    if weight_policy == "refit" and weights is not None:
        raise ValueError("weights apply to the fixed policy only; refit fits its own")
    single = isinstance(d, Dataset)
    if single:
        d, seed = [d], [seed]
    elif weights is not None:
        raise ValueError("a stack fits its own weights; weights apply to a single dataset")
    datasets, seeds = list(d), list(seed)
    if len(datasets) != len(seeds):
        raise ValueError("need one seed per dataset")
    if not datasets:
        return []
    first = datasets[0]
    if any(e.x.shape != first.x.shape or not np.array_equal(e.z, first.z) for e in datasets):
        raise ValueError("the datasets must share one shape and one assignment vector")
    outcomes = _stack_pvalues(datasets, tuple(statistics), b, seeds, weight_policy, scale, weights)
    if not single:
        return outcomes
    if isinstance(outcomes[0], BalanceLabError):
        raise outcomes[0]
    return outcomes[0]


def _assignment_columns(d: Dataset, seed: int, b: int):
    """The assignment columns of one test, lazily, as (columns of the group
    arrays, (n, k) assignments) pairs: column 0 holds the observed
    assignment, then each chunk of draws fills its own columns."""
    yield slice(0, 1), _observed_column(d)
    for start in range(0, b, _CHUNK):
        count = min(_CHUNK, b - start)
        yield slice(1 + start, 1 + start + count), _permuted_z(d.z, seed, start, count)


def _stack_pvalues(datasets, statistics, b, seeds, weight_policy, scale, weights) -> list:
    """``permutation_pvalues`` of a validated, non-empty stack; ``weights``
    are those given to a stack of one, or None."""
    r, p = len(datasets), datasets[0].p
    stack_views(datasets)
    fits: list = [None] * r
    if "rw" in statistics and weight_policy == "fixed" and weights is not None:
        fits = [_weight_vector(weights, p)]
    elif "rw" in statistics and weight_policy == "fixed":
        fits = control_arm_coefficients(datasets)
    # One row of columns per member: the observed assignment, then B draws.
    deltas = np.zeros((r, p, 1 + b)) if "uw" in statistics else None
    whitened = np.zeros((r, p, 1 + b)) if "hotelling" in statistics else None
    rw = np.zeros((r, 1 + b)) if "rw" in statistics else None
    # Each member's scale factors; a failed member's row stays 0, as its other rows do.
    units = np.zeros((r, p))
    failed, fallbacks = [0] * r, [0] * r
    outcomes: list = [None] * r
    for i, (d, seed, w_fixed) in enumerate(zip(datasets, seeds, fits)):
        if isinstance(w_fixed, BalanceLabError):
            outcomes[i] = w_fixed
            continue
        try:
            units[i] = _scale_factors(d, scale)
            for cols, z_cols in _assignment_columns(d, seed, b):
                f, fb = _column_products(
                    d, z_cols, w_fixed,
                    *(None if a is None else a[i, ..., cols] for a in (deltas, whitened, rw)),
                )
                if cols.start:
                    failed[i] += f
                    fallbacks[i] += fb
                elif f:
                    # The observed control arm cannot be fit; raise that fit's typed error.
                    control_arm_weights(d)
                    raise InternalNumericalError("observed control-arm refit failed")
        except BalanceLabError as exc:
            outcomes[i] = exc

    n1, n0 = datasets[0].n1, datasets[0].n0
    values = _statistic_columns(statistics, units, deltas, whitened, rw, n1, n0)
    counts = {
        name: np.count_nonzero(np.abs(v[:, 1:]) >= np.abs(v[:, :1]), axis=1)
        for name, v in values.items()
    }
    for i, seed in enumerate(seeds):
        if outcomes[i] is not None:
            continue
        outcomes[i] = {
            name: PermutationResult(
                statistic_name=name,
                observed=float(values[name][i, 0]),
                b=b,
                permuted_values=values[name][i, 1:],
                p_value=int(counts[name][i]) / b,
                p_conservative=(int(counts[name][i]) + 1) / (b + 1),
                seed=seed,
                weight_policy=weight_policy if name == "rw" else "fixed",
                n_failed=failed[i] if name == "rw" else 0,
                n_refit_fallback=fallbacks[i] if name == "rw" else 0,
            )
            for name in statistics
        }
    return outcomes


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
    it back). ``weights`` are standardized, as in ``permutation_pvalues``.
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
