"""Deterministic random stream derivation.

Every stochastic routine takes a stream argument (an int seed or a
numpy SeedSequence) and derives internal substreams by extending the
spawn key. Substream identity depends only on the root entropy and the
key path, never on call order, so repeated runs and parallel workers
see identical draws.
"""
from __future__ import annotations

import numpy as np


def as_stream(seed) -> np.random.SeedSequence:
    """Normalize an int seed (or None for fresh OS entropy) to a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        return np.random.SeedSequence()
    return np.random.SeedSequence(int(seed))


def child(stream: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    """Substream addressed by `key` below `stream`.

    Uses spawn-key extension rather than spawn(), so the result does not
    depend on how many children were spawned before this call.
    """
    return np.random.SeedSequence(
        entropy=stream.entropy, spawn_key=tuple(stream.spawn_key) + key
    )


def generator(stream: np.random.SeedSequence, *key: int) -> np.random.Generator:
    """Fresh Generator for `stream` (optionally descended through `key`)."""
    return np.random.default_rng(child(stream, *key) if key else stream)
