"""Finite-population data model: covariates, binary assignment, observed outcomes.

The population is completely enumerated: every unit's covariate vector is
observed regardless of its arm, and the arm sizes n1/n0 are treated as fixed
constants. All second moments use the population (divide-by-N) convention.

A ``Dataset`` owns the covariate views derived from it, each computed on
first use and cached read-only: the standardized N x p matrix
(``scaled_covariates``), the whitened matrix of the Hotelling statistic
(``whitened_covariates``) and the indices of its constant columns
(``Dataset.constant_columns``). ``varying_columns`` is the one rule that
decides which columns are constant, here and in the regression fits.
"""

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
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
    "MissingRowsDropped",
    "load_dataset",
    "standardize_columns",
    "scaled_covariates",
    "whitened_covariates",
    "varying_columns",
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

    Arrays are copied to float64 / int64, validated, and frozen (write
    flag cleared), so instances are safe to share across workers and the
    caller's arrays stay writeable.
    ``x`` is stored C-contiguous: the reductions and matrix products give
    the same bits whatever the layout of the input. The derived covariate
    views are computed on first use and cached on the instance, equally
    read-only.
    """

    x: np.ndarray
    z: np.ndarray
    y_obs: np.ndarray
    column_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        x = np.array(np.atleast_2d(self.x), dtype=np.float64, order="C")
        z = np.asarray(self.z)
        y = np.array(self.y_obs, dtype=np.float64)
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
        # and the cached covariate views are recomputed on first use instead
        # of travelling with the pickle.
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
    def constant_columns(self) -> tuple[int, ...]:
        """Indices of the covariates whose values are all equal."""
        return tuple(int(j) for j in np.flatnonzero(~varying_columns(self.x)))

    @cached_property
    def _standardized_x(self) -> np.ndarray:
        return standardize_columns(self.x)

    @cached_property
    def _whitened(self) -> tuple[np.ndarray, bool]:
        # The columns are re-centered first: the Hotelling closed form needs
        # them to sum to zero.
        xs = self._standardized_x
        xs = xs - xs.mean(axis=0)
        eigenvalues, vectors = np.linalg.eigh(xs.T @ xs)
        kept = eigenvalues > 1e-12 * eigenvalues[-1]
        xw = xs @ (vectors[:, kept] / np.sqrt(eigenvalues[kept]))
        xw.setflags(write=False)
        return xw, not kept.all()


def varying_columns(x: np.ndarray) -> np.ndarray:
    """Boolean mask of the columns of ``x`` that are not constant.

    A column is constant when all its values are equal. ``np.std`` is not a
    test for that: 0.1 repeated 200 times has a nonzero SD.
    """
    return np.ptp(x, axis=0) > 0.0


def population_sd(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Population standard deviation (1/N convention)."""
    return np.std(np.asarray(values, dtype=np.float64), axis=axis, ddof=0)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Each column of ``x`` centered and scaled by its population mean and
    SD, as a read-only N x p matrix; constant columns become zero columns."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    varying = varying_columns(x)
    if not varying.any():
        raise AllColumnsConstant("every covariate column is constant")
    # Moments over the full x, then the selection: the reductions of a
    # fancy-indexed copy can differ in the last place.
    means, sds = x.mean(axis=0), np.std(x, axis=0, ddof=0)
    out = np.zeros_like(x)
    out[:, varying] = (x[:, varying] - means[varying]) / sds[varying]
    out.setflags(write=False)
    return out


def scaled_covariates(d: Dataset, scale: str) -> np.ndarray:
    """Read-only covariate matrix on the requested scale, always N x p.

    On the standardized scale (``standardize_columns`` over all N units,
    cached on ``d``), constant columns are all-zero columns rather than
    dividing by zero; they carry no balance information either way.
    """
    if scale == "raw":
        return d.x
    if scale == "standardized":
        return d._standardized_x
    raise ValueError(f"unknown scale {scale!r}")


def whitened_covariates(d: Dataset) -> tuple[np.ndarray, bool]:
    """The standardized covariates re-centered and whitened over all N
    units (cached on ``d``, read-only), and whether their Gram matrix is
    singular: directions with an eigenvalue at most 1e-12 of the largest
    are dropped, so the matrix has one column per direction kept.
    """
    return d._whitened


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


def _parse_columns(
    records: list[list[str]], positions: Sequence[int], treated_level: Optional[str]
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``z``, ``y`` and ``x`` of a table that needs no row dropped and holds
    no bad cell, parsed a whole column at a time; None when some record needs
    the row loop of ``load_dataset``, which alone drops rows and raises the
    errors that name a row.

    ``positions`` are the header positions of the treatment, the outcome and
    the covariates. The numbers go through the same ``float()`` as
    ``_parse_cell``; it ignores surrounding whitespace, so a cell it accepts
    here it accepts stripped, with the same bits. Every missing token either
    fails ``float()`` or parses to nan, so a column that parses finite holds
    none; the treatment column is checked over its distinct values.
    """
    records = [record for record in records if record]
    n = len(records)
    if n < 4 or min(map(len, records)) <= max(positions):
        return None
    treatment = list(map(itemgetter(positions[0]), records))
    if any(value.strip().lower() in _MISSING_TOKENS for value in set(treatment)):
        return None
    numeric = np.empty((len(positions) - 1, n))
    try:
        for column, k in zip(numeric, positions[1:]):
            column[:] = np.fromiter(map(float, map(itemgetter(k), records)), np.float64, n)
    except ValueError:
        return None
    if not np.isfinite(numeric).all():
        return None
    return _map_treatment(treatment, treated_level), numeric[0], numeric[1:].T


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
        The first non-blank row must be a header naming every column. A
        leading UTF-8 byte-order mark is ignored.
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

    Numbers are read with Python's ``float()`` (surrounding whitespace and
    digit-group underscores are accepted) and must be finite. A cell that
    is empty or reads ``NA``, ``N/A``, ``NaN``, ``null`` or ``None`` in any
    case is missing. Blank lines are skipped, before the header too; row
    numbers in messages are record numbers of the file, blank lines counted.
    A table that needs no row dropped and holds no bad cell is parsed a whole
    column at a time; any other goes through the row loop, which drops rows
    and names the first bad cell.

    Loading is deterministic: identical bytes yield an identical Dataset.
    """
    if not covariate_columns:
        raise MissingColumn("at least one covariate column must be named")

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh, delimiter=delimiter))
    else:
        rows = list(csv.reader(source, delimiter=delimiter))

    if rows and rows[0]:
        # a stream of a "CSV UTF-8" export begins with a byte-order mark;
        # a mark alone on its line leaves a blank line, as from a path
        rows[0][0] = rows[0][0].removeprefix("\ufeff")
        if rows[0] == [""]:
            rows[0] = []
    header_index = next((i for i, row in enumerate(rows) if row), None)
    if header_index is None:
        raise TooFewRows("input table is empty")
    header = [h.strip() for h in rows[header_index]]
    records = rows[header_index + 1 :]

    wanted = [treatment_column, outcome_column, *covariate_columns]
    indices = {}
    for name in wanted:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header!r}")
        indices[name] = header.index(name)

    parsed = _parse_columns(records, [indices[name] for name in wanted], treated_level)
    if parsed is not None:
        z, y, x = parsed
        return Dataset(x=x, z=z, y_obs=y, column_names=tuple(covariate_columns))

    kept: list[tuple[int, list[str]]] = []  # (1-based row number, selected cells)
    n_dropped = 0
    for row_number, record in enumerate(records, start=header_index + 2):
        if not record:
            continue  # a blank line is not a row
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
