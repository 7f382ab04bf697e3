"""Conditional covariate balance testing for as-if-random assignment.

Weighted and unweighted sums of covariate mean differences, exact
design-based variances, permutation p-values, prognosis/imbalance
diagnostics, and a Monte Carlo power engine.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# The omnibus statistics, in report order; here so the CLI parser needs no numpy.
STATISTIC_NAMES = ("uw", "rw", "hotelling")

# Each public name is imported from its module on first use (PEP 562), so
# importing the package, or ``balance_lab.cli`` for ``--help``, loads no numpy.
_EXPORTS = {
    "data": ("Dataset", "load_dataset"),
    "regression": ("RegressionFit", "control_arm_weights", "treatment_arm_weights", "raw_form"),
    "balance": ("BalanceReport", "compute_balance_report", "Diagnostics", "diagnostics"),
    "variance": ("VarianceReport", "variance_report", "enumeration_oracle", "normal_approx_test"),
    "permutation": ("PermutationResult", "permutation_test"),
    "simulation": ("DgpConfig", "StudyConfig", "PowerStudyResult", "generate_dataset", "run_power_study"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
