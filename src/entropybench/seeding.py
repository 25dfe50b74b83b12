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

`batch` derives the trial seeds of many trials of one grid point in one
vectorized pass and keeps, while its block runs, pool word 0 of each.
Inside it, `each_child` derives the children of a chunk of at least
`MIN_BATCH` of those seeds in one more pass and keeps each child's pool
word 0 and generator state words, so the children's own children (the
same pass again) and their generators (`rng`) skip numpy's
`SeedSequence` too; `spawn_seed` reads the pools.  Every other seed still
starts from numpy's own `SeedSequence`, which stays the reference.

numpy.random is imported on first use, so importing the package does
not load it.  The class that hands PCG64 its state words is built then
as a real subclass of numpy's `ISeedSequence`: PCG64 checks
`isinstance(seed, ISeedSequence)` on every generator, and CPython's ABC
cache answers that at once for a subclass, while a class that was only
registered reruns the subclass check each time.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import struct
from collections.abc import Iterator

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
    """numpy.random, imported on first use, and the `ISeedSequence`
    subclass that hands a bit generator fixed state words; PCG64 asks for
    them once, as `generate_state(4, np.uint64)`."""
    import numpy.random
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return numpy.random, Words


def _pool(seed: int, key: tuple[int, ...] = ()) -> tuple[int, ...]:
    """numpy's mixed pool of `SeedSequence(seed, spawn_key=key)`; numpy
    refuses a negative seed here, as `default_rng` would."""
    return tuple(_numpy_random()[0].SeedSequence(seed, spawn_key=key).pool.tolist())


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


# Filled while a `batch` block runs: pool word 0 of each seed `batch` or
# `each_child` derived, and the PCG64 state words of each child
# `each_child` derived.
_batch_pool0: dict[int, int] = {}
_batch_words: dict[int, np.ndarray] = {}
# `_spawn_point` constants of a one-word seed's first spawn word; the
# seeds `batch` derives are all one word long
_FIRST_SPAWN = _hashmix_consts(_POOL_HASHES)


def spawn_seed(seed: int, key: tuple[int, ...]) -> int:
    """`int(SeedSequence(seed, spawn_key=key).generate_state(1)[0])` for a
    non-empty key of 32-bit words: hashmix the last word, mix it into the
    shared pool word 0, and hash that into output word 0."""
    *head, last = key
    if not head and seed in _batch_pool0:
        pool0, (x, m) = _batch_pool0[seed], _FIRST_SPAWN
    else:
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


def each_child(seeds: list[int], i: int) -> list[int]:
    """`child_seed(s, i)` for each s in `seeds`.  At least `MIN_BATCH`
    seeds whose pool word 0 the open batch holds are derived in one
    vectorized pass, which keeps each child's pool word 0 and generator
    state words for its own children and its `rng`; other calls derive
    the children one by one."""
    if len(seeds) < MIN_BATCH or not all(s in _batch_pool0 for s in seeds):
        return [child_seed(s, i) for s in seeds]
    pool0 = np.array([_batch_pool0[s] for s in seeds], _U32)
    # a one-element array, not a scalar: numpy warns on a scalar's wraparound
    spawned = _hash_rows(np.array([i], _U32), *_SPAWN_CONSTS)
    kids = _first_output(_mix_rows(pool0, spawned))
    kid_pools = _pools(kids)
    hashed = _hash_rows(np.concatenate([kid_pools, kid_pools]), _OUT_X, _OUT_M)
    # each child's eight output words, read as four little-endian uint64
    state = np.ascontiguousarray(hashed.T).view("<u8").astype(np.uint64, copy=False)
    kids = kids.tolist()
    _batch_pool0.update(zip(kids, kid_pools[0].tolist()))
    _batch_words.update(zip(kids, state))
    return kids


def rng(seed: int) -> "np.random.Generator":
    """`np.random.default_rng(seed)` for an integer seed."""
    np_random, words_class = _numpy_random()
    words = _batch_words.get(seed)
    if words is None:
        hashed = [(w ^ x) * m & _MASK for w, (x, m) in zip(_pool(seed) * 2, _OUT)]
        # generate_state(4, np.uint64) reads its eight uint32 words as four
        # little-endian uint64 words, then converts them to native order
        packed = _PACK_OUTPUT(*[v ^ v >> 16 for v in hashed])
        words = np.frombuffer(packed, dtype="<u8").astype(np.uint64)
    return np_random.Generator(np_random.PCG64(words_class(words)))


# The batch kernel: the same hashes on uint32 arrays, whose products wrap
# mod 2^32 as the masks above do.  A constant column (n, 1) applies one
# hash per row, so each step below is one numpy operation over all rows.
_U32 = np.uint32
_SHIFT = _U32(16)
_ML, _MR = _U32(_MIX_L), _U32(_MIX_R)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=_U32)[:, None]


def _hash_rows(v: np.ndarray, x, m) -> np.ndarray:
    v = (v ^ x) * m
    return v ^ v >> _SHIFT


def _mix_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r = a * _ML - b * _MR
    return r ^ r >> _SHIFT


# A one-word seed's pool: pool word 0 is its hashed word, words 1-3 hashed
# zeros.  Then each source word in turn is hashed once for every other
# word and mixed into it: hashmix calls 4..15, in numpy's order.  One pass
# hashes and mixes all four rows at once; the source row's constants are
# placeholders, and the row is put back unchanged.
_INIT_X, _INIT_M = (_U32(c) for c in _hashmix_consts(0))
_ZEROS = _column([0] + [_hashmix_consts(k)[0] * _hashmix_consts(k)[1] & _MASK for k in (1, 2, 3)])
_ZEROS ^= _ZEROS >> _SHIFT


def _cross_pass(s: int) -> tuple[np.ndarray, np.ndarray]:
    consts = [(0, 0)] * _POOL_SIZE
    others = [d for d in range(_POOL_SIZE) if d != s]
    for j, d in enumerate(others):
        consts[d] = _hashmix_consts(_POOL_SIZE + len(others) * s + j)
    return _column([x for x, _ in consts]), _column([m for _, m in consts])


_CROSS = [_cross_pass(s) for s in range(_POOL_SIZE)]
_SPAWN_CONSTS = tuple(_U32(c) for c in _FIRST_SPAWN)
# output words 0..7 of `generate_state`, hashed from pool words 0..3, 0..3
_OUT_X, _OUT_M = _column([x for x, _ in _OUT]), _column([m for _, m in _OUT])


def _pools(seeds: np.ndarray) -> np.ndarray:
    """numpy's mixed pools, (4, n), of `SeedSequence(s)` for n one-word seeds."""
    pool = np.repeat(_ZEROS, seeds.size, axis=1)
    pool[0] = _hash_rows(seeds, _INIT_X, _INIT_M)
    for s, (x, m) in enumerate(_CROSS):
        mixed = _mix_rows(pool, _hash_rows(pool[s], x, m))
        mixed[s] = pool[s]
        pool = mixed
    return pool


def _first_output(mixed: np.ndarray) -> np.ndarray:
    """Output word 0 of pools whose word 0 is `mixed`: a child seed."""
    return _hash_rows(mixed, _OUT_X[0], _OUT_M[0])


# Trials derived in one batch at most, so a batch's arrays stay small
# whatever the trial count.
BATCH_TRIALS = 256
# Fewer trials than this take the scalar path, and so do fewer seeds than
# this in `each_child`: a vectorized pass costs a fixed ~0.15 ms of numpy
# calls, which the seeds it saves repay from about here.
MIN_BATCH = 8


@contextlib.contextmanager
def batch(seed: int, head: tuple[int, ...], trials: range) -> Iterator[list[int]]:
    """Yield the trial seeds `spawn_seed(seed, (*head, t))` for t in
    `trials`, derived in one vectorized pass.  While the block runs, the
    pool word 0 of each is kept, so `each_child` derives the children of
    a chunk of them in one pass too."""
    if trials.stop > _MASK + 1:
        raise ValueError(f"spawn key words must be 32-bit, got {(*head, trials.stop - 1)!r}")
    pool0, x, m = _spawn_point(seed, head)
    words = np.arange(trials.start, trials.stop, dtype=_U32)
    seeds = _first_output(_mix_rows(np.array([pool0], _U32), _hash_rows(words, _U32(x), _U32(m))))
    seed_list = seeds.tolist()
    _batch_pool0.update(zip(seed_list, _pools(seeds)[0].tolist()))
    try:
        yield seed_list
    finally:
        _batch_pool0.clear()
        _batch_words.clear()
