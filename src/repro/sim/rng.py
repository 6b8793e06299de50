"""Deterministic random-number utilities.

Every stochastic component in the repository draws from a named stream of a
:class:`SeedTree`, so that:

- a whole experiment is reproducible from a single integer seed;
- adding a new consumer of randomness does not perturb the draws of
  existing consumers (streams are independent by construction);
- per-node randomness is independent of the node iteration order.

The tree is built on :class:`numpy.random.SeedSequence` spawning, the
recommended mechanism for constructing independent streams.  Consumers
get a :class:`random.Random` per stream (cheap scalar draws, fast for
single samples in tight protocol loops).
"""

from __future__ import annotations

import random
from typing import Dict

import numpy as np

__all__ = ["SeedTree"]


class SeedTree:
    """A tree of named, independent random streams rooted at one seed.

    Parameters
    ----------
    seed:
        Root seed of the experiment.  Two :class:`SeedTree` instances built
        from the same seed produce identical streams for identical names.

    Examples
    --------
    >>> tree = SeedTree(42)
    >>> r = tree.pyrandom("tman", 17)   # stream for node 17's T-Man
    >>> SeedTree(42).pyrandom("tman", 17).random() == r.random()
    True
    """

    def __init__(self, seed: int) -> None:
        self._root = np.random.SeedSequence(seed)
        # Cache of spawned child sequences so that repeated requests for the
        # same name return *the same underlying entropy*, while distinct
        # names map to independent streams.
        self._children: Dict[tuple, np.random.SeedSequence] = {}

    def _sequence(self, *name) -> np.random.SeedSequence:
        key = tuple(name)
        seq = self._children.get(key)
        if seq is None:
            # Derive a child deterministically from the root entropy and the
            # name.  Hash the name parts into integers so arbitrary strings
            # and ints can be mixed.
            extra = tuple(_name_to_int(part) for part in key)
            seq = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(self._root.spawn_key) + extra,
            )
            self._children[key] = seq
        return seq

    def pyrandom(self, *name) -> random.Random:
        """Return a fresh :class:`random.Random` for the named stream."""
        seq = self._sequence(*name)
        # A 128-bit state is plenty to seed the Mersenne twister.
        state = int(seq.generate_state(2, dtype=np.uint64)[0])
        return random.Random(state)


def _name_to_int(part) -> int:
    """Map a stream-name component to a 32-bit integer, stably."""
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    # Stable string hash (Python's hash() is salted per process).
    h = 2166136261
    for byte in str(part).encode("utf-8"):
        h = ((h ^ byte) * 16777619) & 0xFFFFFFFF
    return h
