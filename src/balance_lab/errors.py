"""Exception hierarchy shared by all balance_lab modules."""


class BalanceLabError(Exception):
    """Base class for all errors raised by this package."""


class MissingColumn(BalanceLabError):
    """A named column is absent from the input table."""


class DuplicateColumn(BalanceLabError):
    """A named column's name appears more than once in the input header, or
    one column is named in more than one role (treatment, outcome,
    covariate; lag column beside treatment or outcome)."""


class NonBinaryTreatment(BalanceLabError):
    """The treatment column cannot be mapped onto {0, 1}."""


class NonNumericValue(BalanceLabError):
    """A covariate or outcome cell is not a finite number, or a covariate's
    mean or SD overflows, so that its standardized values are not."""


class TooFewRows(BalanceLabError):
    """Fewer than four usable rows after validation."""


class DegenerateAssignment(BalanceLabError):
    """All units landed in a single arm (n1 = 0 or n0 = 0)."""


class AllColumnsConstant(BalanceLabError):
    """Every covariate column has zero variance; nothing to standardize."""


class RankDeficient(BalanceLabError):
    """Design matrix is rank deficient beyond dropped constant columns.

    ``columns`` holds the zero-based covariate indices flagged as collinear.
    """

    def __init__(self, message: str, columns: tuple[int, ...] = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class InsufficientRows(BalanceLabError):
    """Not enough rows to fit the requested regression."""


class ControlArmTooSmall(BalanceLabError):
    """Control arm too small to identify the prognosis weights."""


class WeightDimensionMismatch(BalanceLabError):
    """Weight vector length does not match the covariate count."""


class TooManyAssignments(BalanceLabError):
    """Exhaustive enumeration would exceed the assignment-count guard."""


class ZeroVariance(BalanceLabError):
    """Asymptotic test requested with a zero exact variance."""


class InfeasibleCorrelation(BalanceLabError):
    """Requested correlation targets imply a negative noise variance."""


class InternalNumericalError(BalanceLabError):
    """An internal cross-check between two computation paths failed."""


class ConfigError(BalanceLabError):
    """A study configuration file is malformed or inconsistent."""


class CellFailure(BalanceLabError):
    """Too many replicates failed inside one simulation grid cell."""
