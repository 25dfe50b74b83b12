"""Random streams: one tree of them per grid point.

A `Stream` is a node of numpy's `SeedSequence` tree: child i of the node
at spawn key `key` is the node at `(*key, i)`, as `SeedSequence.spawn`
numbers it.  A node's children and its generator are made on first use,
and the generator is then carried from chunk to chunk of trials.  Each
stage of a run draws a whole chunk from it as one array, and numpy draws
an array in order, so a point's draws do not depend on how its trials
are split into chunks.  numpy.random is loaded on first use.
"""

from __future__ import annotations

import numpy as np


class Stream:
    """The node `SeedSequence(entropy, spawn_key=key)` of a stream tree."""

    def __init__(self, entropy: int, key: tuple[int, ...] = ()):
        self.seq = np.random.SeedSequence(entropy, spawn_key=key)
        self._rng = None
        self._children: dict[int, Stream] = {}

    @property
    def rng(self) -> "np.random.Generator":
        """The node's generator, `np.random.default_rng(self.seq)`."""
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(self.seq))
        return self._rng

    def child(self, i: int) -> Stream:
        if i not in self._children:
            self._children[i] = Stream(self.seq.entropy, (*self.seq.spawn_key, i))
        return self._children[i]
