"""Seeds and generators, bit for bit as numpy's `SeedSequence` makes them.

Every seed in the package is a node of one tree: the child of `seed` at
spawn key `key` is `int(SeedSequence(seed, spawn_key=key).generate_state(1)[0])`,
and a generator for `seed` is `np.random.default_rng(seed)`.  Both are
computed here without `generate_state`, whose per-call floating-point
error context costs more than the hashing it wraps.

`SeedSequence` hashes its entropy words into a four-word pool, and the
spawn key's words come last, each hashed and mixed into every pool word.
The first output word reads pool word 0 only.  So a child is numpy's own
`SeedSequence(seed, spawn_key=key[:-1]).pool[0]` plus one hash of the
last key word, one mix and one output hash; the pool before the last
word is shared by every sibling and cached.  A generator is
`Generator(PCG64(...))` on the four 64-bit words `generate_state(4,
np.uint64)` would return, hashed here from the pool.

numpy.random is imported on first use, so importing the package does
not load it.
"""

from __future__ import annotations

import functools
import operator
import struct

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# hashmix calls that mix a pool of at most _POOL_SIZE entropy words: one
# per pool word, then one per ordered pair of distinct pool words
_POOL_HASHES = _POOL_SIZE + _POOL_SIZE * (_POOL_SIZE - 1)


def _hash_const(mult: int, init: int, k: int) -> int:
    """The hash constant after k multiplications: init * mult^k mod 2^32."""
    return init * pow(mult, k, 1 << 32) & _MASK


# (xor, multiplier) of `generate_state`'s output words 0..7: word j is
# v = (pool[j % 4] ^ xor) * multiplier, then v ^ v >> 16, all mod 2^32
_OUT = tuple((_hash_const(_MULT_B, _INIT_B, j), _hash_const(_MULT_B, _INIT_B, j + 1)) for j in range(8))


@functools.cache
def _hashmix_consts(k: int) -> tuple[int, int]:
    """(xor, multiplier) of numpy's `hashmix` as the k-th (from 0) call
    in one pool's mixing: v = (value ^ xor) * multiplier, then v ^ v >> 16."""
    return _hash_const(_MULT_A, _INIT_A, k), _hash_const(_MULT_A, _INIT_A, k + 1)


_PACK_OUTPUT = struct.Struct("<8I").pack


@functools.cache
def _numpy_random():
    """numpy.random, imported on first use, with `_Words` registered as
    the `ISeedSequence` a bit generator may be seeded from."""
    import numpy.random
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_Words)
    return numpy.random


def _pool(seed: int, key: tuple[int, ...] = ()) -> tuple[int, ...]:
    """numpy's mixed pool of `SeedSequence(seed, spawn_key=key)`; numpy
    refuses a negative seed here, as `default_rng` would."""
    return tuple(_numpy_random().SeedSequence(seed, spawn_key=key).pool.tolist())


# holds a run's grid points and the parents of one estimate's children
@functools.lru_cache(maxsize=64)
def _spawn_point(seed: int, head: tuple[int, ...]) -> tuple[int, int, int]:
    """Pool word 0 of `SeedSequence(seed, spawn_key=head)` and the
    (xor, multiplier) constants of the hashmix that mixes one more spawn
    word into it.  Every entropy word beyond the pool size takes one
    hashmix per pool word; run entropy shorter than the pool takes the
    same hashes as if padded with zeros, which numpy does once a spawn
    key follows."""
    if head and not (min(head) >= 0 and max(head) <= _MASK):
        raise ValueError(f"spawn key words must be 32-bit, got {head!r}")
    pool0 = _pool(seed, head)[0]
    run_words = -(-operator.index(seed).bit_length() // 32)
    k = _POOL_HASHES + _POOL_SIZE * (max(run_words, _POOL_SIZE) - _POOL_SIZE + len(head))
    return (pool0, *_hashmix_consts(k))


def spawn_seed(seed: int, key: tuple[int, ...]) -> int:
    """`int(SeedSequence(seed, spawn_key=key).generate_state(1)[0])` for a
    non-empty key of 32-bit words: hashmix the last word, mix it into the
    shared pool word 0, and hash that into output word 0."""
    *head, last = key
    pool0, x, m = _spawn_point(seed, tuple(head))
    if not 0 <= last <= _MASK:
        raise ValueError(f"spawn key words must be 32-bit, got {key!r}")
    h = (last ^ x) * m & _MASK
    r = (_MIX_L * pool0 - _MIX_R * (h ^ h >> 16)) & _MASK
    v = ((r ^ r >> 16) ^ _OUT[0][0]) * _OUT[0][1] & _MASK
    return v ^ v >> 16


def child_seed(seed: int, i: int) -> int:
    """Seed of child i of `SeedSequence(seed)`, as `spawn` would make it,
    without building the parent or its other children."""
    return spawn_seed(seed, (i,))


class _Words:
    """An `ISeedSequence` that hands a bit generator fixed state words;
    PCG64 asks for them once, as `generate_state(4, np.uint64)`."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rng(seed: int) -> "np.random.Generator":
    """`np.random.default_rng(seed)` for an integer seed."""
    np_random = _numpy_random()
    hashed = [(w ^ x) * m & _MASK for w, (x, m) in zip(_pool(seed) * 2, _OUT)]
    # generate_state(4, np.uint64) reads its eight uint32 words as four
    # little-endian uint64 words, then converts them to native order
    packed = _PACK_OUTPUT(*[v ^ v >> 16 for v in hashed])
    words = np.frombuffer(packed, dtype="<u8").astype(np.uint64)
    return np_random.Generator(np_random.PCG64(_Words(words)))
