#!/usr/bin/env python3
"""Null calibration experiment: rejection rates when nothing is correlated.

All three statistics should reject at roughly the nominal level; this is
the quickest end-to-end sanity check of the whole inference stack.

Several ``--seed`` values run one null cell each and pool their rejection
counts. With ``--check-tail T``, 0 < T < 0.5, the script exits 1 unless
every pooled count lies in the Binomial(replicates, rate) interval whose two
outer tails each have probability at most T. ``rate`` is the exact null rate
of ``p < alpha``: the observed statistic's rank is uniform over the B + 1
values, and p = count / B.

    python scripts/run_null_calibration.py --seed 1 2 3 4 5 6 7 8 --check-tail 1e-6
"""

import argparse
import math
import sys
import time

import numpy as np

from balance_lab import DgpConfig, run_power_study
from balance_lab.errors import ConfigError


def null_rate(alpha: float, b: int) -> float:
    """Probability of ``count / b < alpha`` when count is uniform on 0..b."""
    return sum(k / b < alpha for k in range(b + 1)) / (b + 1)


def binomial_interval(m: int, p: float, tail: float) -> tuple[int, int]:
    """Smallest and largest count of Binomial(m, p) each of whose outer
    tails has probability above ``tail``."""
    pmf = [
        math.exp(
            math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
            + k * math.log(p) + (m - k) * math.log1p(-p)
        )
        for k in range(m + 1)
    ]
    lo, acc = 0, 0.0
    while lo < m and acc + pmf[lo] <= tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = m, 0.0
    while hi > 0 and acc + pmf[hi] <= tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def tail_probability(text: str) -> float:
    """The ``--check-tail`` value, a probability strictly between 0 and 0.5:
    at 0 the interval holds every count, and from 0.5 on it is empty."""
    value = float(text)
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"must be in (0, 0.5), got {text}")
    return value


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--replicates", type=int, default=500)
    parser.add_argument("--permutations", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--seed", type=int, nargs="+", default=[90210])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--check-tail", type=tail_probability, default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    try:
        cells = [DgpConfig(n=args.n, p=3, seed=seed) for seed in args.seed]
        results = run_power_study(
            cells,
            replicates=args.replicates,
            b_permutations=args.permutations,
            alpha=args.alpha,
            threads=args.threads,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    elapsed = time.perf_counter() - start

    print(f"null calibration: n={args.n}, replicates={args.replicates}, "
          f"B={args.permutations}, alpha={args.alpha}")
    names = list(results[0].rejection_rate)
    print(f"{'seed':<8}" + "".join(f"{name:>12}" for name in names) + f"{'bias':>12}")
    pooled = dict.fromkeys(names, 0)
    total = 0
    for seed, result in zip(args.seed, results):
        total += result.replicates - result.n_failed
        for name in names:
            # a failed replicate's p-value is NaN, which never rejects
            pooled[name] += int(np.count_nonzero(result.pvalues[name] < args.alpha))
        rates = "".join(f"{result.rejection_rate[name]:>12.4f}" for name in names)
        print(f"{seed:<8}{rates}{result.standardized_bias:>+12.5f}")

    rate = null_rate(args.alpha, args.permutations)
    counts = "".join(f"{pooled[name]:>12}" for name in names)
    print(f"{'pooled':<8}{counts}   of {total}; expected {total * rate:.1f} (rate {rate:.5f})")
    print(f"elapsed: {elapsed:.1f}s")

    if args.check_tail is not None:
        lo, hi = binomial_interval(total, rate, args.check_tail)
        outside = [name for name in names if not lo <= pooled[name] <= hi]
        print(f"Binomial({total}, {rate:.5f}) interval at tail {args.check_tail:g}: [{lo}, {hi}]")
        if outside:
            print(f"outside the interval: {', '.join(outside)}", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
