"""Named RNG substreams derived from a single master seed.

Every source of randomness in a run (walks, embedding init, negative
sampling, the trainer's pair draws, edge splits, sampled non-edges) pulls
from its own substream so that components can be re-run independently and
results stay reproducible. A key's value, not its name, selects the stream.
"""

from __future__ import annotations

import numpy as np

WALKS = 1
INIT = 2
NEGATIVES = 3
PAIRS = 4  # the trainer's draws of pair indices
SPLITS = 5
NONEDGES = 6


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``key`` under ``seed``."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))
