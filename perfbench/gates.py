"""Correctness gates, checked on the files a CLI call leaves behind.

Each check raises ``GateFailure`` with a message naming what differed. A run
that trips any gate reports no numbers.
"""

import csv
import glob
import json
import math
import os

import numpy as np

# A correct program trips a statistical gate with probability below this,
# per statistic and call.
FALSE_ALARM = 1e-7
# Half-width of the permutation-variance gate, in standard errors
# sqrt(2/B) of a sample variance ratio.
VARIANCE_K = 6.0


class GateFailure(Exception):
    """An output of the program failed a correctness check."""


def check_exit(code) -> None:
    if code != 0:
        raise GateFailure(f"call exited with code {code!r}")


def check_identical(path_a: str, path_b: str) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        raise GateFailure(f"{path_b} differs from {path_a} at byte {at}")


def _log_binom_pmf(k: int, m: int, p: float) -> float:
    return (
        math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
        + k * math.log(p) + (m - k) * math.log1p(-p)
    )


def binomial_interval(m: int, p: float, tail: float = FALSE_ALARM) -> tuple[int, int]:
    """Smallest and largest count of Binomial(m, p) each of whose outer
    tails has probability above ``tail``."""
    pmf = [math.exp(_log_binom_pmf(k, m, p)) for k in range(m + 1)]
    lo, acc = 0, 0.0
    while lo < m and acc + pmf[lo] <= tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = m, 0.0
    while hi > 0 and acc + pmf[hi] <= tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def check_null_size(results_csv: str, alpha: float) -> dict:
    """Pool the imbalance-0 facet of ``results.csv`` per statistic and check
    that the rejection count is a plausible Binomial(replicates, alpha) draw.

    Returns the pooled rejection rate per statistic.
    """
    pooled: dict[str, list[float]] = {}
    with open(results_csv, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if float(row["imbalance"]) != 0.0:
                continue
            reps = int(row["replicates"])
            entry = pooled.setdefault(row["statistic"], [0.0, 0])
            entry[0] += float(row["rejection_rate"]) * reps
            entry[1] += reps
    if not pooled:
        raise GateFailure(f"{results_csv} has no imbalance-0 rows")
    rates = {}
    for name, (rejections, reps) in pooled.items():
        count = round(rejections)
        lo, hi = binomial_interval(reps, alpha)
        if not lo <= count <= hi:
            raise GateFailure(
                f"{name}: {count}/{reps} null rejections, outside [{lo}, {hi}] at alpha={alpha}"
            )
        rates[name] = count / reps
    return rates


def grid_replicates(out_dir: str) -> tuple[int, int]:
    """(replicates attempted, replicates failed) summed over the cell checkpoints."""
    attempted = failed = 0
    paths = sorted(glob.glob(os.path.join(out_dir, "checkpoints", "cell_*.json")))
    if not paths:
        raise GateFailure(f"no cell checkpoints under {out_dir}")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            cell = json.load(fh)
        attempted += int(cell["replicates"])
        failed += int(cell["n_failed"])
    return attempted, failed


def check_test_report(out_dir: str) -> dict:
    """Check ``balance_report.json`` and the dumped ``permuted_*.npy`` files.

    - every p-value lies in [0, 1] and is a count over B;
    - ``p_conservative`` equals (count + 1) / (B + 1);
    - the count matches a recount of |permuted| >= |observed| on the dump;
    - the permutation variance of ``uw``, and of ``rw`` under fixed weights,
      agrees with the exact variance within 1 +- VARIANCE_K * sqrt(2 / B).

    Returns the variance ratios and the statistics block, for comparison
    across calls.
    """
    with open(os.path.join(out_dir, "balance_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    ratios = {}
    for row in report["statistics"]:
        name, b, p = row["name"], int(row["b"]), row["permutation_p"]
        if not 0.0 <= p <= 1.0:
            raise GateFailure(f"{name}: p-value {p} outside [0, 1]")
        count = round(p * b)
        if abs(count - p * b) > 1e-9 * b:
            raise GateFailure(f"{name}: p-value {p} is not a count over B={b}")
        if not math.isclose(row["p_conservative"], (count + 1) / (b + 1), rel_tol=1e-12):
            raise GateFailure(
                f"{name}: p_conservative {row['p_conservative']} != ({count}+1)/({b}+1)"
            )
        permuted = np.load(os.path.join(out_dir, f"permuted_{name}.npy"))
        if permuted.shape != (b,):
            raise GateFailure(f"{name}: dumped {permuted.shape} values, expected ({b},)")
        recount = int(np.count_nonzero(np.abs(permuted) >= abs(row["observed"])))
        if recount != count:
            raise GateFailure(f"{name}: p-value counts {count} extremes, dump has {recount}")
        exact = {
            "uw": report["variance"]["var_delta_uw"],
            "rw": report["variance"]["var_delta_rw_conditional"]
            if report["weight_policy"] == "fixed"
            else None,
        }.get(name)
        if exact is not None:
            ratio = float(np.var(permuted, ddof=1) / exact)
            if abs(ratio - 1.0) > VARIANCE_K * math.sqrt(2.0 / b):
                raise GateFailure(
                    f"{name}: permutation variance / exact variance = {ratio:.4f}, B={b}"
                )
            ratios[name] = ratio
    return {"variance_ratio": ratios, "statistics": report["statistics"]}
