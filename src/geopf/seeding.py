"""Deterministic RNG derivation.

A scene seed deterministically spawns the one generator that scene
generation consumes.  Nothing after generation draws a random number.
"""

import numpy as np


def generation_rng(seed: int) -> np.random.Generator:
    """Generator used while sampling a scene's obstacles."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(0,)))
