"""The README's "Library use" block runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs():
    # the block's unbound names, on a 12-unit dataset: C(12, 6) = 924 treated sets
    g = np.random.default_rng(3)
    names = {
        "x_matrix": g.normal(size=(12, 3)),
        "assignment": np.array([1, 0] * 6),
        "outcomes": g.normal(size=12),
    }
    *body, closing = library_block().rstrip("\n").splitlines()
    assert closing.startswith("np.isclose(")
    exec("\n".join(body), names)
    assert eval(closing, names)
