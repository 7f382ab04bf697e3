"""Conditional covariate balance testing for as-if-random assignment.

Weighted and unweighted sums of covariate mean differences, exact
design-based variances, permutation p-values, prognosis/imbalance
diagnostics, and a Monte Carlo power engine.
"""

__version__ = "0.1.0"

from . import errors
from .balance import BalanceReport, Diagnostics, compute_balance_report, diagnostics
from .data import Dataset, load_dataset
from .permutation import PermutationResult, permutation_test
from .regression import RegressionFit, control_arm_weights, raw_form, treatment_arm_weights
from .simulation import DgpConfig, PowerStudyResult, StudyConfig, generate_dataset, run_power_study
from .variance import (
    VarianceReport,
    enumeration_oracle,
    normal_approx_test,
    variance_report,
)

__all__ = [
    "__version__",
    "errors",
    "Dataset",
    "load_dataset",
    "RegressionFit",
    "control_arm_weights",
    "treatment_arm_weights",
    "raw_form",
    "BalanceReport",
    "compute_balance_report",
    "VarianceReport",
    "variance_report",
    "enumeration_oracle",
    "normal_approx_test",
    "PermutationResult",
    "permutation_test",
    "DgpConfig",
    "StudyConfig",
    "PowerStudyResult",
    "Diagnostics",
    "generate_dataset",
    "run_power_study",
    "diagnostics",
]
