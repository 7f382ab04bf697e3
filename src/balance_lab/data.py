"""Finite-population data model: covariates, binary assignment, observed outcomes.

The population is completely enumerated: every unit's covariate vector is
observed regardless of its arm, and the arm sizes n1/n0 are treated as fixed
constants. All second moments use the population (divide-by-N) convention.
"""

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    AllColumnsConstant,
    DegenerateAssignment,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericValue,
    TooFewRows,
)

__all__ = [
    "Dataset",
    "GroupSizes",
    "StandardizedView",
    "MissingRowsDropped",
    "load_dataset",
    "standardize",
    "standardize_columns",
    "scaled_covariates",
    "population_sd",
]

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


class MissingRowsDropped(UserWarning):
    """Raised as a warning when lenient loading drops incomplete rows."""

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class GroupSizes:
    """Fixed arm sizes of a completely enumerated study group."""

    n1: int
    n0: int

    def __post_init__(self):
        if self.n1 < 1 or self.n0 < 1:
            raise DegenerateAssignment(
                f"both arms must be non-empty, got n1={self.n1}, n0={self.n0}"
            )

    @property
    def n(self) -> int:
        return self.n1 + self.n0


@dataclass(frozen=True)
class Dataset:
    """Immutable covariate matrix, assignment vector, and observed outcomes.

    Arrays are converted to float64 / int64, validated, and frozen
    (write flag cleared), so instances are safe to share across workers.
    The standardized covariates are computed on first use and cached on
    the instance, equally read-only.
    """

    x: np.ndarray
    z: np.ndarray
    y_obs: np.ndarray
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        z = np.asarray(self.z)
        y = np.asarray(self.y_obs, dtype=np.float64)
        names = tuple(self.column_names) or tuple(f"x{j + 1}" for j in range(x.shape[1]))

        if x.ndim != 2:
            raise ValueError("x must be a 2-d matrix")
        n, p = x.shape
        if z.shape != (n,) or y.shape != (n,):
            raise ValueError(f"z and y_obs must have length {n}")
        if p < 1:
            raise ValueError("at least one covariate column is required")
        if len(names) != p:
            raise ValueError(f"expected {p} column names, got {len(names)}")
        if n < 4:
            raise TooFewRows(f"need at least 4 rows, got {n}")
        if not np.isin(z, (0, 1)).all():
            bad = np.unique(z[~np.isin(z, (0, 1))])
            raise NonBinaryTreatment(f"assignment contains values outside {{0,1}}: {bad!r}")
        z = z.astype(np.int64)
        n1 = int(z.sum())
        if n1 == 0 or n1 == n:
            raise DegenerateAssignment(f"all {n} units are in one arm (n1={n1})")
        if not np.isfinite(x).all():
            raise NonNumericValue("covariate matrix contains non-finite values")
        if not np.isfinite(y).all():
            raise NonNumericValue("outcome vector contains non-finite values")

        for arr in (x, z, y):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y_obs", y)
        object.__setattr__(self, "column_names", names)

    def __reduce__(self):
        # Rebuild through the constructor: numpy unpickles arrays writeable,
        # and the cached scaled views are recomputed on first use instead of
        # travelling with the pickle.
        return (type(self), (self.x, self.z, self.y_obs, self.column_names))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def sizes(self) -> GroupSizes:
        n1 = int(self.z.sum())
        return GroupSizes(n1=n1, n0=self.n - n1)

    def treated_rows(self) -> np.ndarray:
        return np.flatnonzero(self.z == 1)

    def control_rows(self) -> np.ndarray:
        return np.flatnonzero(self.z == 0)

    @cached_property
    def _standardized_view(self) -> "StandardizedView":
        return standardize_columns(self.x)

    @cached_property
    def _standardized_x(self) -> np.ndarray:
        view = self._standardized_view
        out = np.zeros_like(self.x)
        out[:, list(view.retained_columns)] = view.x_std
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class StandardizedView:
    """Covariates centered and scaled by population (1/N) moments.

    ``x_std`` contains only the retained (non-constant) columns, in the
    original order; ``means`` and ``sds`` cover all original columns.
    """

    x_std: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    dropped_constant_columns: tuple[int, ...]
    retained_columns: tuple[int, ...]


def population_sd(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Population standard deviation (1/N convention)."""
    return np.std(np.asarray(values, dtype=np.float64), axis=axis, ddof=0)


def standardize_columns(x: np.ndarray) -> StandardizedView:
    """Standardize each column of ``x`` by its population mean and SD.

    Constant columns (every value equal; ``np.std`` of 0.1 repeated is not
    0) are dropped from ``x_std`` with SD 0, and their indices reported.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    means = x.mean(axis=0)
    varying = np.ptp(x, axis=0) > 0.0
    sds = np.where(varying, np.std(x, axis=0, ddof=0), 0.0)
    retained = [int(j) for j in np.flatnonzero(varying)]
    dropped = [int(j) for j in np.flatnonzero(~varying)]
    if not retained:
        raise AllColumnsConstant("every covariate column is constant")
    x_std = (x[:, retained] - means[retained]) / sds[retained]
    for arr in (x_std, means, sds):
        arr.setflags(write=False)
    return StandardizedView(
        x_std=x_std,
        means=means,
        sds=sds,
        dropped_constant_columns=tuple(dropped),
        retained_columns=tuple(retained),
    )


def standardize(d: Dataset) -> StandardizedView:
    """Standardize a Dataset's covariates over all N units (cached on ``d``)."""
    return d._standardized_view


def scaled_covariates(d: Dataset, scale: str) -> np.ndarray:
    """Read-only covariate matrix on the requested scale, always N x p.

    On the standardized scale, constant columns (every value equal)
    become all-zero columns rather than dividing by zero; they carry no
    balance information either way.
    """
    if scale == "raw":
        return d.x
    if scale == "standardized":
        return d._standardized_x
    raise ValueError(f"unknown scale {scale!r}")


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise NonNumericValue(
            f"row {row}, column {column!r}: cannot parse {raw!r} as a number"
        ) from None
    if not np.isfinite(value):
        raise NonNumericValue(f"row {row}, column {column!r}: non-finite value {raw!r}")
    return value


def _map_treatment(raw_values: Sequence[str], treated_level: Optional[str]) -> np.ndarray:
    stripped = [v.strip() for v in raw_values]
    distinct = sorted(set(stripped))

    if treated_level is not None:
        if treated_level not in distinct:
            raise NonBinaryTreatment(
                f"treated level {treated_level!r} not found among values {distinct!r}"
            )
        if len(distinct) != 2:
            raise NonBinaryTreatment(
                f"--treated-level requires exactly two distinct values, got {distinct!r}"
            )
        return np.array([1 if v == treated_level else 0 for v in stripped], dtype=np.int64)

    if set(distinct) <= {"0", "1"}:
        return np.array([int(v) for v in stripped], dtype=np.int64)

    lowered = [v.lower() for v in stripped]
    if set(lowered) <= {"true", "false"}:
        return np.array([1 if v == "true" else 0 for v in lowered], dtype=np.int64)

    try:
        numeric = [float(v) for v in stripped]
    except ValueError:
        numeric = None
    if numeric is not None and set(numeric) <= {0.0, 1.0}:
        return np.array([int(v) for v in numeric], dtype=np.int64)

    raise NonBinaryTreatment(
        f"treatment values {distinct!r} are not binary; "
        "pass --treated-level to choose the treated label"
    )


def load_dataset(
    source: Union[str, io.TextIOBase, Iterable[str]],
    treatment_column: str,
    outcome_column: str,
    covariate_columns: Sequence[str],
    *,
    delimiter: str = ",",
    treated_level: Optional[str] = None,
    lenient_missing: bool = False,
) -> Dataset:
    """Load and validate a delimiter-separated table into a Dataset.

    Parameters
    ----------
    source : path, open text stream, or iterable of lines
        First row must be a header naming every column.
    treatment_column, outcome_column : str
        Column names for the assignment indicator and observed outcome.
    covariate_columns : sequence of str
        Covariate column names, in the order they should appear in ``x``.
    delimiter : str
        Field separator; comma by default, pass "\\t" for TSV.
    treated_level : str, optional
        Explicit treated label when the treatment column holds two
        arbitrary strings.
    lenient_missing : bool
        Drop rows with missing cells (with a ``MissingRowsDropped``
        warning) instead of rejecting the file.

    Loading is deterministic: identical bytes yield an identical Dataset.
    """
    if not covariate_columns:
        raise MissingColumn("at least one covariate column must be named")

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    else:
        rows = list(csv.reader(source, delimiter=delimiter))

    if not rows:
        raise TooFewRows("input table is empty")
    header = [h.strip() for h in rows[0]]
    records = rows[1:]

    wanted = [treatment_column, outcome_column, *covariate_columns]
    indices = {}
    for name in wanted:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header!r}")
        indices[name] = header.index(name)

    kept: list[tuple[int, list[str]]] = []  # (1-based row number, selected cells)
    n_dropped = 0
    for offset, record in enumerate(records):
        row_number = offset + 2  # header is row 1
        cells = []
        missing = False
        for name in wanted:
            idx = indices[name]
            raw = record[idx].strip() if idx < len(record) else ""
            if raw.lower() in _MISSING_TOKENS:
                missing = True
                if not lenient_missing:
                    raise NonNumericValue(
                        f"row {row_number}, column {name!r}: missing value "
                        "(pass --lenient-missing to drop such rows)"
                    )
            cells.append(raw)
        if missing:
            n_dropped += 1
            continue
        kept.append((row_number, cells))

    if n_dropped:
        warnings.warn(
            MissingRowsDropped(f"dropped {n_dropped} row(s) with missing values", n_dropped),
            stacklevel=2,
        )
    if len(kept) < 4:
        raise TooFewRows(f"need at least 4 complete rows, got {len(kept)}")

    z = _map_treatment([cells[0] for _, cells in kept], treated_level)
    y = np.array(
        [_parse_cell(cells[1], row, outcome_column) for row, cells in kept], dtype=np.float64
    )
    x = np.empty((len(kept), len(covariate_columns)), dtype=np.float64)
    for j, name in enumerate(covariate_columns):
        x[:, j] = [_parse_cell(cells[2 + j], row, name) for row, cells in kept]

    return Dataset(x=x, z=z, y_obs=y, column_names=tuple(covariate_columns))
