"""Monte Carlo engine: synthetic datasets with controlled imbalance and
prognosis, and rejection-rate grids.

The generator fixes a balanced assignment vector and builds covariates as
linear loadings on its standardized version plus Gaussian noise:

    X_j  = a_j * z_tilde      + sqrt(1 - a_j^2) * eps_j
    Y(0) = rho_x1_y * X_1     + sqrt(1 - rho_x1_y^2) * eps_y
    Y    = Y(0) + tau * z

where a_j is the cell's ``imbalance`` for j = ``imbalance_covariate`` and
0 for every other covariate. This delivers the target expected
correlations corr(X_j, Z) and corr(X_1, Y(0)) while keeping unit marginal
variances. A jointly normal draw cannot produce an exactly balanced
binary Z, so this linear-loading construction is the one structural
interpretation made.

A study runs its replicates in groups of consecutive replicates whose
cells share n and p, and so the balanced assignment vector; a group may
span cells. Each group, one pool task when the study has a pool, draws
its datasets one by one, then tests them with one
``permutation.permutation_pvalues`` call, which makes the stack's
covariate views and control-arm weights itself, and computes their
standardized biases as one stack. Every member gets the bits it would get
alone, so results do not depend on how the replicates are grouped. A
replicate's outcome is its p-values and bias, or the error its test returned.
"""

import functools
import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence, get_origin

import numpy as np

from .data import Dataset, population_sd
from .errors import BalanceLabError, CellFailure, ConfigError, InfeasibleCorrelation
from .permutation import STATISTIC_NAMES, permutation_pvalues
from .rng import STREAM_VERSION, derive_seed, stream

__all__ = [
    "DgpConfig",
    "StudyConfig",
    "PowerStudyResult",
    "generate_dataset",
    "run_power_study",
    "build_grid",
]


@dataclass(frozen=True)
class DgpConfig:
    """One cell of the data-generating grid. ``imbalance`` is the loading on
    the assignment of covariate ``imbalance_covariate``; every other
    covariate's loading is 0."""

    n: int = 500
    p: int = 3
    imbalance: float = 0.0
    rho_x1_y: float = 0.0
    tau: float = 0.0
    seed: int = 0
    imbalance_covariate: int = 1

    def __post_init__(self):
        _check_shared_fields(self, ("imbalance", "rho_x1_y", "tau"))
        if self.n < 4 or self.n % 2:
            raise ConfigError(f"n must be even and at least 4, got {self.n}")
        if self.p < 1:
            raise ConfigError(f"p must be positive, got {self.p}")
        if self.imbalance_covariate > self.p:
            raise ConfigError("imbalance on x2 requires p >= 2")
        for name in ("imbalance", "rho_x1_y"):
            rho = getattr(self, name)
            if abs(rho) > 1.0:
                raise InfeasibleCorrelation(
                    f"{name} = {rho} implies negative noise variance (|rho| > 1)"
                )

    @property
    def grid_cell(self) -> tuple[float, float]:
        return (self.imbalance, self.rho_x1_y)


def generate_dataset(cfg: DgpConfig, replicate_index: int) -> Dataset:
    """Draw one synthetic dataset for the given replicate stream."""
    g = stream(cfg.seed, replicate_index, 0)
    z = np.repeat(np.array([1, 0], dtype=np.int64), cfg.n // 2)
    z_tilde = 2.0 * z - 1.0  # standardized balanced assignment

    eps = g.standard_normal((cfg.n, cfg.p))
    eps_y = g.standard_normal(cfg.n)

    loadings = np.zeros(cfg.p)
    loadings[cfg.imbalance_covariate - 1] = cfg.imbalance
    x = loadings * z_tilde[:, None] + np.sqrt(1.0 - loadings**2) * eps

    y0 = cfg.rho_x1_y * x[:, 0] + math.sqrt(1.0 - cfg.rho_x1_y**2) * eps_y
    y_obs = y0 + cfg.tau * z

    return Dataset(x=x, z=z, y_obs=y_obs, column_names=tuple(f"x{j+1}" for j in range(cfg.p)))


@dataclass(frozen=True)
class StudyConfig:
    """Full power-study description, loadable from a JSON config file."""

    imbalance_levels: tuple[float, ...] = (0.0, 0.1, 0.2)
    prognosis_levels: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(11))
    imbalance_covariate: int = 1
    n: int = 500
    p: int = 3
    replicates: int = 300
    permutations: int = 200
    alpha: float = 0.05
    seed: int = 0
    statistics: tuple[str, ...] = STATISTIC_NAMES
    tau: float = 0.0
    weight_policy: str = "fixed"

    def __post_init__(self):
        _check_shared_fields(self, ("tau",))
        for name in ("imbalance_levels", "prognosis_levels"):
            levels = getattr(self, name)
            if not all(_is_number(level) for level in levels):
                raise ConfigError(f"{name} must hold finite numbers, got {list(levels)!r}")
            _check_distinct(name, levels)
        _check_run_settings(
            self.statistics, self.replicates, self.permutations, self.alpha, self.weight_policy
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "StudyConfig":
        """The study a JSON config object describes; list fields are JSON lists."""
        if not isinstance(raw, dict):
            raise ConfigError(f"a study config must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(raw)
        for key in ("imbalance_levels", "prognosis_levels", "statistics"):
            if key in coerced:
                if not isinstance(coerced[key], list):
                    raise ConfigError(f"{key} must be a list, got {coerced[key]!r}")
                coerced[key] = tuple(coerced[key])
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


def _is_number(value, kind=(int, float)) -> bool:
    """``isinstance(value, kind)`` and finite, where a bool is no number."""
    return isinstance(value, kind) and not isinstance(value, bool) and -math.inf < value < math.inf


def _check_shared_fields(cfg, numbers) -> None:
    """Raise ``ConfigError`` unless ``cfg``'s ``imbalance_covariate``, ``n``,
    ``p`` and ``seed`` are integers, ``seed`` is not negative,
    ``imbalance_covariate`` is 1 or 2 and each field named in ``numbers`` is
    a finite number: the rule ``StudyConfig`` and ``DgpConfig`` share for
    the fields they share."""
    for name in ("imbalance_covariate", "n", "p", "seed"):
        value = getattr(cfg, name)
        if not _is_number(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    for name in numbers:
        value = getattr(cfg, name)
        if not _is_number(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed!r}")
    if cfg.imbalance_covariate not in (1, 2):
        raise ConfigError("imbalance_covariate must be 1 or 2")


def _check_distinct(name: str, values) -> None:
    """Raise ``ConfigError`` unless ``values`` is non-empty and repeats no value."""
    if not values:
        raise ConfigError(f"{name} must be non-empty")
    # a set compares by ==, so 0.0 and -0.0 are one level
    if len(set(values)) < len(values):
        raise ConfigError(f"{name} must not repeat a value, got {list(values)!r}")


def _check_run_settings(statistics, replicates, permutations, alpha, weight_policy) -> None:
    """Raise ``ConfigError`` unless the settings a study runs with are
    valid: the rule of both ``StudyConfig`` and ``run_power_study``."""
    for name, value in (("replicates", replicates), ("permutations", permutations)):
        if not _is_number(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not _is_number(alpha):
        raise ConfigError(f"alpha must be a finite number, got {alpha!r}")
    _check_distinct("statistics", statistics)
    if replicates < 1 or permutations < 1:
        raise ConfigError("replicates and permutations must be positive")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if weight_policy not in ("fixed", "refit"):
        raise ConfigError(f"unknown weight policy {weight_policy!r}")
    unknown = set(statistics) - set(STATISTIC_NAMES)
    if unknown:
        raise ConfigError(f"unknown statistics: {sorted(unknown)}")


def build_grid(study: StudyConfig) -> list[DgpConfig]:
    """Expand a study config into per-cell DGP configs with derived seeds."""
    pairs = itertools.product(study.imbalance_levels, study.prognosis_levels)
    return [
        DgpConfig(
            n=study.n,
            p=study.p,
            imbalance=imbalance,
            rho_x1_y=prognosis,
            tau=study.tau,
            seed=derive_seed(study.seed, cell_index),
            imbalance_covariate=study.imbalance_covariate,
        )
        for cell_index, (imbalance, prognosis) in enumerate(pairs)
    ]


@dataclass(frozen=True)
class PowerStudyResult:
    """Aggregated rejection behaviour for one grid cell, with each
    replicate's p-values (NaN where the replicate failed).

    Its fields are also the schema of the cell's checkpoint.
    """

    config: DgpConfig
    rejection_rate: dict[str, float]
    mc_standard_error: dict[str, float]
    standardized_bias: float
    replicates: int
    permutations_per_replicate: int
    n_failed: int
    pvalues: dict[str, np.ndarray] = field(compare=False)


def _standardized_biases(datasets: Sequence[Dataset], taus: Sequence[float]) -> np.ndarray:
    """Each dataset's difference in mean observed outcome between the arms,
    less its tau, over the population SD of its outcomes without the
    effect (0 where that SD is 0), for datasets that share one assignment
    vector. Each member gets the bits it gets alone: the arm means are taken
    over C-contiguous copies, whose rows numpy sums pairwise as it sums a
    single dataset's arm; a strided view would be summed one column at a
    time."""
    z = datasets[0].z
    y = np.stack([d.y_obs for d in datasets])
    tau = np.asarray(taus, dtype=np.float64)
    sd_y0 = population_sd(y - tau[:, None] * z, axis=1)
    treated = z == 1
    means = [np.ascontiguousarray(y[:, arm]).mean(axis=1) for arm in (treated, ~treated)]
    diff = means[0] - means[1] - tau
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sd_y0 > 0, diff / sd_y0, 0.0)


def _run_group(args) -> list:
    """The outcomes of a group of (cfg, replicate index) pairs whose
    configurations share n and p, in order: for each replicate, its p-values
    by statistic and its standardized bias, or the ``BalanceLabError`` that
    its permutation test (its control-arm fit included) returned.

    The datasets are drawn one by one, then tested by one
    ``permutation_pvalues`` call and given their biases as one stack.
    """
    members, statistics, b, weight_policy = args
    datasets = [generate_dataset(cfg, r) for cfg, r in members]
    seeds = [derive_seed(cfg.seed, r, 1) for cfg, r in members]
    tests = permutation_pvalues(datasets, statistics, b, seeds, weight_policy=weight_policy)
    biases = _standardized_biases(datasets, [cfg.tau for cfg, _ in members])
    return [
        test
        if isinstance(test, BalanceLabError)
        else ({name: test[name].p_value for name in statistics}, float(bias))
        for test, bias in zip(tests, biases)
    ]


@functools.cache
def _code_version() -> dict:
    """What a cell's results depend on besides its settings: a blake2b digest
    over the sorted names and bytes of the package's modules, and numpy's
    version (the last bits of a BLAS product depend on the library)."""
    digest = hashlib.blake2b(digest_size=8)
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            source = fh.read()
        digest.update(b"%s\0%d\0%s" % (name.encode(), len(source), source))
    return {"source_digest": digest.hexdigest(), "numpy_version": np.__version__}


def _cell_fingerprint(
    cfg: DgpConfig, statistics, replicates, b, alpha, weight_policy, code: dict
) -> str:
    payload = json.dumps(
        {
            "config": asdict(cfg),
            "statistics": list(statistics),
            "replicates": replicates,
            "permutations": b,
            "alpha": alpha,
            "weight_policy": weight_policy,
            "stream_version": STREAM_VERSION,
            "code_version": code,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _result_from_payload(payload: dict) -> PowerStudyResult:
    """The result a checkpoint holds; raises unless its keys beside the
    fingerprint and the code version are exactly the result's fields, each
    of the field's type."""
    values = {k: v for k, v in payload.items() if k not in ("fingerprint", "code_version")}
    values["config"] = DgpConfig(**values["config"])
    values["pvalues"] = {k: np.asarray(v, dtype=np.float64) for k, v in values["pvalues"].items()}
    result = PowerStudyResult(**values)
    for f in fields(PowerStudyResult):
        if not isinstance(getattr(result, f.name), get_origin(f.type) or f.type):
            raise TypeError(f"checkpoint field {f.name!r} is not a {f.type}")
    return result


def _load_checkpoint(path: str, fingerprint: str, cfg: DgpConfig) -> Optional[PowerStudyResult]:
    """The checkpointed result of cell ``cfg`` at ``path``, or None if absent or stale.

    A file that does not decode (truncated, not JSON), whose fields are not
    exactly the result's (an older format among them), or whose config is
    not ``cfg``, counts as stale, so its cell is computed again.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("fingerprint") != fingerprint:
        return None
    try:
        result = _result_from_payload(payload)
    except (AttributeError, KeyError, TypeError, ValueError, BalanceLabError):
        return None
    return result if result.config == cfg else None


def _write_checkpoint(path: str, result: PowerStudyResult, fingerprint: str, code: dict) -> None:
    """Write ``result`` to ``path``, whose directory exists, through a
    temporary file, beside its fingerprint and the code version ``code``.
    The payload is ``asdict(result)`` built field by field: ``asdict``
    would deep-copy every p-value array first."""
    payload = {"fingerprint": fingerprint, "code_version": code}
    payload.update((f.name, getattr(result, f.name)) for f in fields(result))
    payload["config"] = {f.name: getattr(result.config, f.name) for f in fields(result.config)}
    tmp = path + ".tmp"
    # json.dumps, not json.dump: only dumps takes the C encoder
    text = json.dumps(payload, default=np.ndarray.tolist)
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


# Covariate values (n * p) that the replicates of one group hold at most.
# A stacked view of a group then takes at most 0.5 MB, so peak memory does
# not grow with the study.
_GROUP_VALUES = 1 << 16


def _chunksize(n_tasks: int, threads: int, values_per_replicate: int) -> int:
    """Replicates per group, each group one pool task: about four groups per
    worker, and at most ``_GROUP_VALUES`` covariate values per group. A
    group may span cells, so a cell's checkpoint waits at most for the rest
    of the group that holds its last replicate."""
    limit = max(1, _GROUP_VALUES // values_per_replicate)
    return max(1, min(limit, math.ceil(n_tasks / (4 * threads))))


def _groups(tasks: list, size: int) -> list:
    """``tasks``, (cfg, replicate index) pairs, cut into runs of at most
    ``size`` consecutive pairs whose configurations share n and p."""
    groups = []
    for _, run in itertools.groupby(tasks, key=lambda task: (task[0].n, task[0].p)):
        run = list(run)
        groups.extend(run[start : start + size] for start in range(0, len(run), size))
    return groups


def _summarize_cell(
    cfg: DgpConfig,
    outcomes,
    statistics: Sequence[str],
    replicates: int,
    b: int,
    alpha: float,
) -> PowerStudyResult:
    """Aggregate one cell's ``_run_group`` outcomes into its result."""
    pvals = {name: np.full(replicates, np.nan) for name in statistics}
    bias = np.full(replicates, np.nan)
    n_failed = 0
    for idx, outcome in enumerate(outcomes):
        if isinstance(outcome, BalanceLabError):
            n_failed += 1
            continue
        replicate_pvals, bias[idx] = outcome
        for name in statistics:
            pvals[name][idx] = replicate_pvals[name]

    if n_failed / replicates >= 0.01:
        raise CellFailure(
            f"{n_failed}/{replicates} replicates failed in cell "
            f"(imbalance={cfg.imbalance}, prognosis={cfg.rho_x1_y})"
        )

    ok = replicates - n_failed
    # a failed replicate's NaN p-value is not below alpha
    rates = {name: float(np.count_nonzero(pvals[name] < alpha)) / ok for name in statistics}
    return PowerStudyResult(
        config=cfg,
        rejection_rate=rates,
        mc_standard_error={name: math.sqrt(r * (1.0 - r) / ok) for name, r in rates.items()},
        standardized_bias=float(np.nanmean(bias)),
        replicates=replicates,
        permutations_per_replicate=b,
        n_failed=n_failed,
        pvalues=pvals,
    )


def run_power_study(
    grid: Sequence[DgpConfig],
    statistics: Sequence[str] = STATISTIC_NAMES,
    replicates: int = 300,
    b_permutations: int = 200,
    alpha: float = 0.05,
    weight_policy: str = "fixed",
    threads: int = 1,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    progress=None,
) -> list[PowerStudyResult]:
    """Run the full rejection-rate study over a grid of DGP cells.

    Deterministic given the grid seeds: replicate streams are derived from
    (cell seed, replicate index), aggregation is position-indexed, so the
    output is identical for any worker count. With ``checkpoint_dir`` each
    finished cell is persisted and (under ``resume=True``) reloaded instead
    of recomputed, as long as its fingerprint still matches: the
    configuration, the random stream version and the code version
    (``_code_version``), so any edit to the package or another numpy makes
    every cell stale.

    The replicates of every cell still to compute form one ordered stream,
    cut into groups of consecutive replicates (``_chunksize``) that may span
    cells; a group shares one stacked standardization, whitening and
    control-arm fit. With ``threads > 1`` one worker pool, the package's
    only one, serves the whole study and runs one group per task, so
    replicates of different cells run concurrently, while cells are still
    summarized, checkpointed and reported to ``progress`` in grid order.
    Each replicate runs its permutations serially inside its worker. Any
    exception, interrupt included, cancels the queued work.

    Invalid run settings raise ``ConfigError`` before any work starts, by
    the rule that ``StudyConfig`` applies, as do ``threads`` below 1 and,
    when ``"rw"`` is among the statistics, a cell whose n/2 control units
    are at most p + 1: no replicate of it could fit its control arm.
    """
    if not grid:
        raise ConfigError("grid must contain at least one cell")
    statistics = tuple(statistics)
    _check_run_settings(statistics, replicates, b_permutations, alpha, weight_policy)
    if not _is_number(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer of at least 1, got {threads!r}")
    small = [cfg for cfg in grid if cfg.n // 2 <= cfg.p + 1]
    if "rw" in statistics and small:
        raise ConfigError(
            f"rw needs more than p + 1 control units: n = {small[0].n} gives "
            f"n/2 = {small[0].n // 2} for p = {small[0].p}"
        )
    code = _code_version()
    fingerprints = [
        _cell_fingerprint(cfg, statistics, replicates, b_permutations, alpha, weight_policy, code)
        for cfg in grid
    ]
    paths = [None] * len(grid)
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        paths = [os.path.join(checkpoint_dir, f"cell_{i:04d}.json") for i in range(len(grid))]
    resumed = [
        _load_checkpoint(path, fp, cfg) if resume and path else None
        for path, fp, cfg in zip(paths, fingerprints, grid)
    ]
    tasks = [
        (cfg, r) for cfg, done in zip(grid, resumed) if done is None for r in range(replicates)
    ]
    size = _chunksize(len(tasks), threads, max(cfg.n * cfg.p for cfg in grid))
    groups = [
        (group, statistics, b_permutations, weight_policy) for group in _groups(tasks, size)
    ]

    pool = None
    try:
        run = map
        if threads > 1 and groups:
            pool = ProcessPoolExecutor(max_workers=min(threads, len(groups)))
            run = pool.map
        outcomes = itertools.chain.from_iterable(run(_run_group, groups))
        results = []
        for cell_index, (cfg, result) in enumerate(zip(grid, resumed)):
            status = "resumed"
            if result is None:
                cell_outcomes = itertools.islice(outcomes, replicates)
                result = _summarize_cell(
                    cfg, cell_outcomes, statistics, replicates, b_permutations, alpha
                )
                if paths[cell_index]:
                    _write_checkpoint(paths[cell_index], result, fingerprints[cell_index], code)
                status = "computed"
            results.append(result)
            if progress:
                progress(cell_index, len(grid), status)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results
