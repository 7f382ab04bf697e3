import numpy as np
import pytest

from balance_lab import Dataset, regression
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


def stack_member(kind, g, z, p):
    """A dataset for a stack: Gaussian covariates, or one constant covariate,
    or the second covariate a multiple of the first (a collinear whitening),
    or a multiple of it within the control arm only (a control-arm fit that
    raises RankDeficient)."""
    x = g.normal(size=(z.size, p))
    if kind == "constant":
        x[:, g.integers(p)] = 2.5
    elif kind == "collinear" and p >= 2:
        x[:, 1] = 3.0 * x[:, 0]
    elif kind == "control_collinear" and p >= 2:
        x[z == 0, 1] = 3.0 * x[z == 0, 0]
    return Dataset(x=x, z=z, y_obs=x @ g.normal(size=p) + g.normal(size=z.size))


def lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``regression._lstsq`` of ``y`` on an intercept and the columns of
    ``x`` alone: the intercept, then one coefficient per column. Raises the
    ``RankDeficient`` it returns."""
    solution = regression._lstsq(x[None], y[None])[0]
    if isinstance(solution, RankDeficient):
        raise solution
    return solution


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
        design = np.column_stack([np.ones(n), np.delete(x, j, axis=1)])
        residual = target - design @ np.linalg.lstsq(design, target, rcond=None)[0]
    scale = float(np.sqrt(centered @ centered))
    if float(np.sqrt(residual @ residual)) <= 1e-10 * max(scale, 1.0):
        raise RankDeficient(
            f"column {j} is collinear with the remaining columns", columns=(j,)
        )
    return residual


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
