import numpy as np
import pytest

from balance_lab import Dataset, fit_ols
from balance_lab.errors import RankDeficient


def random_dataset(rng, n=None, p=None, prognostic=True) -> Dataset:
    """Well-conditioned random dataset for property tests."""
    n = n or int(rng.integers(20, 80)) * 2
    p = p or int(rng.integers(1, 5))
    x = rng.normal(size=(n, p))
    n1 = int(rng.integers(max(1, p + 3), n - max(1, p + 3) + 1))
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n1]] = 1
    coefs = rng.normal(size=p) if prognostic else np.zeros(p)
    y = x @ coefs + rng.normal(size=n)
    return Dataset(x=x, z=z, y_obs=y)


def residualize(x: np.ndarray, j: int) -> np.ndarray:
    """Residual of column ``j`` after regressing it on the other columns.

    The auxiliary regression includes an intercept, so with p = 1 the
    result is simply the centered column. Raises RankDeficient when the
    column is (numerically) perfectly explained by the others, since the
    partial-regression ratio is then undefined.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, p = x.shape
    if not 0 <= j < p:
        raise ValueError(f"column index {j} out of range for p={p}")
    target = x[:, j]
    centered = target - target.mean()
    if p == 1:
        residual = centered
    else:
        others = np.delete(x, j, axis=1)
        fit = fit_ols(others, target, include_intercept=True)
        residual = fit.residuals
    scale = float(np.sqrt(centered @ centered))
    if float(np.sqrt(residual @ residual)) <= 1e-10 * max(scale, 1.0):
        raise RankDeficient(
            f"column {j} is collinear with the remaining columns", columns=(j,)
        )
    return residual


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
