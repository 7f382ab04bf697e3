"""Finite-population data model: covariates, binary assignment, observed outcomes.

The population is completely enumerated: every unit's covariate vector is
observed regardless of its arm, and the arm sizes n1/n0 are treated as fixed
constants. All second moments use the population (divide-by-N) convention.

A ``Dataset`` holds the facts derived from it as read-only attributes: its
arm sizes ``n1`` and ``n0``, set once on construction, and its covariate
views, each computed on first use and cached: the standardized N x p matrix
``standardized_x``, the SDs it divides by (``column_sd``), the whitened
matrix of the Hotelling statistic (``whitened``), the two side by side
(``treated_sum_operand``) and the indices of its constant columns
(``constant_columns``). ``varying_columns`` is the one
rule that decides which columns are constant, here and in the regression
fits.

The view functions take a leading stack axis: ``standardize_columns`` and
``varying_columns`` accept an (R, N, p) stack of matrices and treat each
member on its own, and the whitening is computed for a stack. A single
dataset is a stack of one. ``stack_views`` computes the views of many
datasets of one shape with one standardization and one
eigendecomposition and caches each member's slice on it; every member's
views equal, bit for bit, the ones it would compute alone.
"""

import csv
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, zip_longest
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    AllColumnsConstant,
    DegenerateAssignment,
    DuplicateColumn,
    MissingColumn,
    NonBinaryTreatment,
    NonNumericValue,
    TooFewRows,
)

__all__ = [
    "Dataset",
    "MissingRowsDropped",
    "load_dataset",
    "standardize_columns",
    "stack_views",
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
class Dataset:
    """Immutable covariate matrix, assignment vector, and observed outcomes.

    Arrays are copied to float64 / int64, validated, and frozen (write
    flag cleared), so instances are safe to share across workers and the
    caller's arrays stay writeable. A 1-d ``x`` is one covariate.
    ``x`` is stored C-contiguous: the reductions and matrix products give
    the same bits whatever the layout of the input. The arm sizes ``n1``
    and ``n0`` are fixed constants of the population. The derived covariate
    views are computed on first use and cached on the instance, equally
    read-only.
    """

    x: np.ndarray
    z: np.ndarray
    y_obs: np.ndarray
    column_names: tuple[str, ...] = field(default=())
    n1: int = field(init=False)
    n0: int = field(init=False)

    def __post_init__(self):
        x = np.array(_covariate_matrix(self.x), order="C")
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
        binary = (z == 0) | (z == 1)
        if not binary.all():
            bad = np.unique(z[~binary])
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
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n0", n - n1)

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

    def treated_rows(self) -> np.ndarray:
        return np.flatnonzero(self.z == 1)

    def control_rows(self) -> np.ndarray:
        return np.flatnonzero(self.z == 0)

    @cached_property
    def constant_columns(self) -> tuple[int, ...]:
        """Indices of the covariates whose values are all equal."""
        return tuple(int(j) for j in np.flatnonzero(~varying_columns(self.x)))

    @cached_property
    def standardized_x(self) -> np.ndarray:
        """The covariates standardized over all N units (``standardize_columns``):
        a constant column is a zero column. Raises ``NonNumericValue`` for a
        column whose standardized values are not finite."""
        xs = standardize_columns(self.x)
        overflow = ~np.isfinite(xs).all(axis=0)
        if overflow.any():
            name = self.column_names[int(np.argmax(overflow))]
            raise NonNumericValue(
                f"covariate {name!r} cannot be standardized: its mean or SD overflows"
            )
        return xs

    @cached_property
    def column_sd(self) -> np.ndarray:
        """The SD that ``standardized_x`` divides each column by, 0 for a
        constant one. When some column varies, ``standardized_x`` is formed
        first: a column that cannot be standardized raises its
        ``NonNumericValue`` there, not a numpy warning here."""
        if len(self.constant_columns) < self.p:
            self.standardized_x
        return np.where(varying_columns(self.x), population_sd(self.x), 0.0)

    @cached_property
    def whitened(self) -> tuple[np.ndarray, bool]:
        """The standardized covariates re-centered and whitened over all N
        units, and whether their Gram matrix is singular: directions with an
        eigenvalue at most 1e-12 of the largest are dropped, so the matrix
        has one column per direction kept."""
        return _whiten(self.standardized_x[None])[0]

    @cached_property
    def treated_sum_operand(self) -> np.ndarray:
        """``standardized_x`` and the whitened matrix side by side, N x
        (p + k): the one operand of the treated-sum product ``[xs | xw]' z``
        of the balance statistics, formed once per dataset."""
        operand = np.concatenate((self.standardized_x, self.whitened[0]), axis=1)
        operand.setflags(write=False)
        return operand


def _covariate_matrix(x) -> np.ndarray:
    """``x`` as a float64 array with one row per unit: a 1-d vector is one covariate."""
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def _by_rows(x: np.ndarray) -> np.ndarray:
    """An (R, N, p) stack as an N x (R p) array whose column i p + j is
    column j of member i.

    Reductions along axis 0 give each member's columns the bits they get
    alone, and run fast on the long rows, where an (R, N, p) stack loops
    p values at a time. numpy sums a column of an array pairwise when its
    values are contiguous, else one row at a time: for p >= 2 the reshape
    copies into rows, as a member's N x p matrix is laid out; for p = 1 it
    is a view in which each member's column stays contiguous, as it is in
    its N x 1 matrix.
    """
    r, n, p = x.shape
    return x.transpose(1, 0, 2).reshape(n, r * p)


def _from_rows(a: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """The C-ordered (R, N, p) stack that ``_by_rows`` laid out as ``a``."""
    r, n, p = shape
    return np.ascontiguousarray(a.reshape(n, r, p).transpose(1, 0, 2))


def _whiten(xs: np.ndarray) -> list[tuple[np.ndarray, bool]]:
    """``Dataset.whitened`` of each member of an (R, N, p) stack of
    standardized matrices, from one stacked eigendecomposition. The members
    must be finite: LAPACK may fail a whole stack on one NaN."""
    # The columns are re-centered first: the Hotelling closed form needs
    # them to sum to zero.
    a = _by_rows(xs)
    xs = _from_rows(a - a.mean(axis=0), xs.shape)
    eigenvalues, vectors = np.linalg.eigh(np.swapaxes(xs, 1, 2) @ xs)
    kept = eigenvalues > 1e-12 * eigenvalues[:, -1:]
    full = kept.all(axis=1)
    whitened = [None] * len(xs)
    if full.any():
        xw = xs[full] @ (vectors[full] / np.sqrt(eigenvalues[full])[:, None, :])
        xw.setflags(write=False)
        for i, member in zip(np.flatnonzero(full), xw):
            whitened[i] = (member, False)
    for i in np.flatnonzero(~full):
        xw = xs[i] @ (vectors[i][:, kept[i]] / np.sqrt(eigenvalues[i][kept[i]]))
        xw.setflags(write=False)
        whitened[i] = (xw, True)
    return whitened


def stack_views(datasets: Sequence[Dataset]) -> None:
    """Compute the standardized and whitened views of datasets that share
    one shape as stacks, and cache each member's slice on it.

    One ``standardize_columns`` call, and so one ``varying_columns`` test,
    and one eigendecomposition serve each ``permutation_pvalues`` stack.
    Every uncached member joins the standardization, unless some member has
    no varying column (then none does), and those whose standardized values
    are finite join the whitening and get their views cached. Any other
    member computes its views alone on first use and raises its own errors
    there.
    """
    fresh = [d for d in datasets if "standardized_x" not in vars(d)]
    if not fresh:
        return
    try:
        xs = standardize_columns(np.stack([d.x for d in fresh]))
    except AllColumnsConstant:
        return
    finite = np.isfinite(xs).all(axis=(1, 2))
    # A cached_property reads the instance dict first, so a value stored
    # there is the cached view.
    views = zip(compress(fresh, finite), compress(xs, finite), _whiten(xs[finite]))
    for d, view, whitened in views:
        vars(d)["standardized_x"] = view
        vars(d)["whitened"] = whitened


def varying_columns(x: np.ndarray) -> np.ndarray:
    """Boolean mask of the columns of ``x`` that are not constant; for an
    (R, N, p) stack, one row of the mask per member.

    A column is constant when all its values are equal. ``np.std`` is not a
    test for that: 0.1 repeated 200 times has a nonzero SD.
    """
    if x.ndim == 2:
        return np.ptp(x, axis=0) > 0.0
    return (np.ptp(_by_rows(x), axis=0) > 0.0).reshape(x.shape[0], x.shape[2])


def population_sd(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Population standard deviation (1/N convention)."""
    return np.std(np.asarray(values, dtype=np.float64), axis=axis, ddof=0)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Each column of ``x`` centered and scaled by its population mean and
    SD, as a read-only matrix of the shape of ``x``; constant columns
    become zero columns. Each member of an (R, N, p) stack is standardized
    over its own N rows; raises if any member has no varying column."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    stack = x if x.ndim == 3 else x[None]
    varying = varying_columns(stack)
    if not varying.any(axis=1).all():
        raise AllColumnsConstant("every covariate column is constant")
    # Moments over the full x, then the selection: the reductions of a
    # fancy-indexed copy can differ in the last place.
    a = _by_rows(stack)
    where = varying.reshape(-1)
    out = np.zeros_like(a)
    # a column whose mean or SD overflows comes out non-finite: an infinite
    # SD divides by NaN, as x / inf would make the column zero
    with np.errstate(over="ignore", invalid="ignore"):
        means, sds = a.mean(axis=0), population_sd(a)
        sds[np.isinf(sds)] = np.nan
        np.subtract(a, means, out=out, where=where)
        np.divide(out, sds, out=out, where=where)
    out = _from_rows(out, stack.shape).reshape(x.shape)
    out.setflags(write=False)
    return out


def _scale_factors(d: Dataset, scale: str) -> np.ndarray:
    """Factors that put standardized per-covariate values on ``scale``: ones, or the SDs."""
    if scale == "raw":
        return d.column_sd
    if scale == "standardized":
        return np.ones(d.p)
    raise ValueError(f"unknown scale {scale!r}")


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _map_treatment(raw_values: Sequence[str], treated_level: Optional[str]) -> np.ndarray:
    """The 0/1 treatment codes of the cells. The mapping is decided on the
    distinct stripped values, then looked up once per cell."""
    stripped = {v: v.strip() for v in set(raw_values)}
    distinct = sorted(set(stripped.values()))

    if treated_level is not None:
        if treated_level not in distinct:
            raise NonBinaryTreatment(
                f"treated level {treated_level!r} not found among values {distinct!r}"
            )
        if len(distinct) != 2:
            raise NonBinaryTreatment(
                f"--treated-level requires exactly two distinct values, got {distinct!r}"
            )
        code = {v: int(v == treated_level) for v in distinct}
    elif set(distinct) <= {"0", "1"}:
        code = {v: int(v) for v in distinct}
    elif {v.lower() for v in distinct} <= {"true", "false"}:
        code = {v: int(v.lower() == "true") for v in distinct}
    else:
        try:
            numeric = {v: float(v) for v in distinct}
        except ValueError:
            numeric = None
        if numeric is None or not set(numeric.values()) <= {0.0, 1.0}:
            raise NonBinaryTreatment(
                f"treatment values {distinct!r} are not binary; "
                "pass --treated-level to choose the treated label"
            )
        code = {v: int(value) for v, value in numeric.items()}

    lookup = {v: code[label] for v, label in stripped.items()}
    return np.fromiter(map(lookup.__getitem__, raw_values), np.int64, len(raw_values))


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
        The first non-blank row must be a header naming every column, each
        named column once. A leading UTF-8 byte-order mark is ignored.
    treatment_column, outcome_column : str
        Column names for the assignment indicator and observed outcome.
    covariate_columns : sequence of str
        Covariate column names, in the order they should appear in ``x``.
        No name may appear twice among the treatment, the outcome and the
        covariates (``DuplicateColumn``).
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
    case is missing, and so is a cell past the end of a short record. Blank
    lines are skipped, before the header too; row numbers in messages are
    record numbers of the file, blank lines counted.

    Every table is parsed a whole column at a time; only a column that
    ``float()`` rejects somewhere is retried cell by cell. Every missing
    token either fails ``float()`` or parses to nan, so only the cells that
    did not parse finite, and the distinct treatment values, are tested for
    one. Strict loading rejects the first missing cell in row order; lenient
    loading drops every row that holds one. Then the first bad cell of each
    numeric column, in column order, is named.

    Loading is deterministic: identical bytes yield an identical Dataset.
    """
    if not covariate_columns:
        raise MissingColumn("at least one covariate column must be named")
    roles: dict[str, list[str]] = {}
    for role, name in [
        ("treatment", treatment_column),
        ("outcome", outcome_column),
        *(("covariate", name) for name in covariate_columns),
    ]:
        roles.setdefault(name, []).append(role)
    for name, named in roles.items():
        if len(named) > 1:
            raise DuplicateColumn(
                f"column {name!r} is named {len(named)} times: as {' and '.join(named)}"
            )

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
    nonblank = [i for i, row in enumerate(rows) if row]
    if not nonblank:
        raise TooFewRows("input table is empty")
    header = [h.strip() for h in rows[nonblank[0]]]

    wanted = [treatment_column, outcome_column, *covariate_columns]
    for name in wanted:
        if name not in header:
            raise MissingColumn(f"column {name!r} not found in header {header!r}")
        if header.count(name) > 1:
            raise DuplicateColumn(
                f"column {name!r} appears {header.count(name)} times in header {header!r}"
            )
    # The header row is never short, so every column comes out padded with
    # "" to the full length; record i is line nonblank[i + 1] + 1 of the file.
    table = list(zip_longest(*[rows[i] for i in nonblank], fillvalue=""))
    treatment, *cells = (table[header.index(name)][1:] for name in wanted)
    n = len(nonblank) - 1
    numeric = np.empty((len(cells), n))
    for values, column in zip(numeric, cells):
        try:
            values[:] = np.fromiter(map(float, column), np.float64, n)
        except ValueError:
            values[:] = list(map(_float_or_nan, column))

    # missing[j, i]: cell i of wanted column j is missing. Every missing
    # token fails float() or parses to nan, so only the cells not parsed
    # finite need the token test.
    finite = np.isfinite(numeric)
    columns, records = np.nonzero(~finite)
    missing = np.zeros((len(wanted), n), dtype=bool)
    missing[1 + columns, records] = [
        cells[j][i].strip().lower() in _MISSING_TOKENS
        for j, i in zip(columns.tolist(), records.tolist())
    ]
    absent = {v for v in set(treatment) if v.strip().lower() in _MISSING_TOKENS}
    if absent:
        missing[0] = [v in absent for v in treatment]

    incomplete = missing.any(axis=0)
    n_dropped = int(incomplete.sum())
    if n_dropped and not lenient_missing:
        first = int(np.argmax(incomplete))
        name = wanted[int(np.argmax(missing[:, first]))]
        raise NonNumericValue(
            f"row {nonblank[first + 1] + 1}, column {name!r}: missing value "
            "(pass --lenient-missing to drop such rows)"
        )
    complete = ~incomplete
    if n_dropped:
        warnings.warn(
            MissingRowsDropped(f"dropped {n_dropped} row(s) with missing values", n_dropped),
            stacklevel=2,
        )
        treatment = list(compress(treatment, complete.tolist()))
        numeric = numeric[:, complete]
    if len(treatment) < 4:
        raise TooFewRows(f"need at least 4 complete rows, got {len(treatment)}")

    z = _map_treatment(treatment, treated_level)
    # a cell of a complete row that did not parse finite is a bad number
    bad = ~finite & complete
    if bad.any():
        j = int(np.argmax(bad.any(axis=1)))
        record = int(np.argmax(bad[j]))
        raw = cells[j][record].strip()
        where = f"row {nonblank[record + 1] + 1}, column {wanted[1 + j]!r}"
        try:
            float(raw)
        except ValueError:
            raise NonNumericValue(f"{where}: cannot parse {raw!r} as a number") from None
        raise NonNumericValue(f"{where}: non-finite value {raw!r}")

    return Dataset(x=numeric[1:].T, z=z, y_obs=numeric[0], column_names=tuple(covariate_columns))
