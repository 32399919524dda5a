"""Named RNG substreams derived from a single master seed.

Every source of randomness in a run (walks, negative sampling, edge splits,
embedding init, pair draws) pulls from its own substream so that components
can be re-run independently and results stay reproducible.
"""

from __future__ import annotations

import numpy as np

WALKS = 1
INIT = 2
NEGATIVES = 3
SHUFFLE = 4
SPLITS = 5
NONEDGES = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))
