"""Keyed random streams.

All randomness in the package flows through ``SeedSequence(seed,
spawn_key=key)``, a user seed plus an integer spawn key, feeding a
PCG64DXSM generator, so any stream can be reconstructed independently of
execution order or worker count. Stream independence rests on
``SeedSequence`` spawning, numpy's documented mechanism for parallel
streams: it hashes each key into its own well-mixed generator state.
PCG64DXSM is O'Neill's PCG family with the DXSM output function, the
variant numpy advises for many parallel streams. A dataset replicate is
keyed by (seed, replicate_index, 0); permutation draws are keyed by
(permutation seed, chunk index), one stream for each fixed chunk of 1024
permutations, so the first k of B draws do not depend on B.

Since version 3 a chunk's stream is read as raw 64-bit words, and
permutation i of the chunk takes its next words and reads one key per unit
from them, through their little-endian bytes (low part first), so that
every host reads the same keys; the n1 units with the smallest keys are
treated. Since version 5 the keys are 16 bits wide, four to a word, when n
is at most ``permutation._NARROW_KEYS_MAX_N`` (4096), and 32 bits wide, two
to a word, above it. The keys are iid and uniform, so a permutation whose n1-th and
(n1+1)-th smallest keys differ treats a uniformly random n1-subset. One
whose keys tie there (about n / 2**17 of them for 16-bit keys, n / 2**33
for 32-bit ones) is redrawn as ``Generator.permuted`` on the stream
(permutation seed, chunk index, i + 1).
"""

import numpy as np

__all__ = ["STREAM_VERSION", "stream", "derive_seed"]

# Version of the mapping from seeds to drawn values (stream keys, draw
# order, generator). Bump it whenever that mapping changes: run manifests
# record it, and simulation checkpoints computed under another version are
# recomputed instead of resumed. Version 2 keys permutation draws by chunk
# instead of by permutation. Version 3 draws each permutation of a chunk as
# the smallest of iid 32-bit keys instead of by ``Generator.permuted``.
# Version 4 reads every stream from PCG64DXSM instead of Philox. Version 5
# draws 16-bit keys, four to a raw word, for n <= 4096, else 32-bit keys as
# before (the datasets do not change).
STREAM_VERSION = 5


def stream(seed: int, *key: int) -> "np.random.Generator":  # quoted: numpy.random loads on first use
    """Return the Generator for stream ``key`` under master ``seed``.

    The same (seed, key) pair always yields the same stream, regardless
    of how many other streams were drawn before it.
    """
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key) into a single 64-bit child seed."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])
