"""Golden values of random-stream version 4.

A change to the generator, the stream keys or the mapping from raw words
to assignments and datasets changes these values. Such a change is a new
random-stream version: bump ``STREAM_VERSION`` and re-pin the values here
in the same change, so that old checkpoints are recomputed, not resumed.
"""

import numpy as np

from balance_lab import DgpConfig, generate_dataset
from balance_lab.permutation import _permuted_z
from balance_lab.rng import STREAM_VERSION, stream


class TestStreamVersion4:
    def test_version(self):
        # re-pin every value below together with a version bump
        assert STREAM_VERSION == 4

    def test_first_raw_words(self):
        words = stream(0, 0).bit_generator.random_raw(4)
        assert words.tolist() == [
            2839091455908113508,
            15830590835710992583,
            15112707860735945606,
            6623220485791041309,
        ]

    def test_first_permuted_assignments(self):
        z = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        drawn = _permuted_z(z, 0, 0, 3)
        np.testing.assert_array_equal(
            drawn.T,
            [
                [1, 1, 0, 0, 1, 0, 0, 1],
                [0, 1, 1, 1, 0, 0, 1, 0],
                [0, 1, 0, 0, 1, 0, 1, 1],
            ],
        )

    def test_first_dataset_row(self):
        # zero loadings: the first row is the first normal draws, unscaled
        d = generate_dataset(DgpConfig(seed=1), 0)
        assert d.x[0].tolist() == [0.2280954521031533, -1.9824917089219376, 0.9330754984806049]
        assert d.z[0] == 1
        assert d.y_obs[0] == 0.2610806293075903
