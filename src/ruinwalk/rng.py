"""Counter-based random numbers for reproducible, order-independent trials.

The simulator needs one uniform per (trial, step) that is a pure function of
``(seed, trial, step)``, so that a trial's draws do not depend on the batch
it runs in, the order of execution or the worker count.  Stateful
generators cannot give that cheaply, so this module implements the
Philox-4x32 block cipher (10 rounds) over numpy arrays.  Each evaluation
maps a 128-bit counter and a 64-bit key to four 32-bit words, and the
simulator uses all four: the counter layout is

    (step // 4, trial_low32, trial_high32, 0)    key = (seed_low32, seed_high32)

and ``step`` draws output word ``step % 4``, whose uniform is exactly u =
word * 2**-32, so the simulator tests u < x on the word, in integers.  One
evaluation (:func:`block_words`) serves four consecutive steps of a trial,
and one call can draw each trial at its own block index;
:func:`step_uniforms` is the per-step view of the same stream, and reads a
step from a block already drawn when it is handed one.  The
implementation is checked against the published known-answer vectors in the
test suite.
"""

from __future__ import annotations

import numpy as np

PHILOX_M0 = np.uint64(0xD2511F53)
PHILOX_M1 = np.uint64(0xCD9E8D57)
PHILOX_W0 = 0x9E3779B9
PHILOX_W1 = 0xBB67AE85
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10

GENERATOR_NAME = "philox4x32-10"
LANES = 4  # output words per evaluation, so steps served per block


def philox4x32(counter: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """Apply Philox-4x32-10 to an (n, 4) uint32 counter block.

    ``key`` is a pair of 32-bit words, shared by all rows.  Returns an
    (n, 4) uint32 array.
    """
    counter = np.asarray(counter, dtype=np.uint32)
    if counter.ndim != 2 or counter.shape[1] != 4:
        raise ValueError(f"counter must have shape (n, 4), got {counter.shape}")
    words = np.empty((4, counter.shape[0]), dtype=np.uint64)
    words[...] = counter.T
    key0, key1 = int(key[0]), int(key[1])
    _rounds(words, key0, key1)
    return words.T.astype(np.uint32)


def _rounds(words: np.ndarray, key0: int, key1: int) -> None:
    """The ten Philox rounds, in place on a (4, m) block of uint64 words.

    Each word is held in a uint64, so the 32x32-bit products are exact and
    no round converts dtypes.  Only uint64 operands meet, so the dtypes are
    the same under numpy 1.x value-based casting and NEP 50 promotion.
    """
    c0, c1, c2, c3 = words
    prod0 = np.empty_like(c0)
    prod1 = np.empty_like(c2)
    for rnd in range(_ROUNDS):
        # key schedule: wrap-around 32-bit addition of the Weyl constants
        k0 = np.uint64((key0 + rnd * PHILOX_W0) & 0xFFFFFFFF)
        k1 = np.uint64((key1 + rnd * PHILOX_W1) & 0xFFFFFFFF)
        np.multiply(c0, PHILOX_M0, out=prod0)
        np.multiply(c2, PHILOX_M1, out=prod1)
        # c0' = hi(M1*c2) ^ c1 ^ k0,  c2' = hi(M0*c0) ^ c3 ^ k1
        np.right_shift(prod1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.right_shift(prod0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        # c1' = lo(M1*c2),  c3' = lo(M0*c0)
        np.bitwise_and(prod1, _MASK32, out=c1)
        np.bitwise_and(prod0, _MASK32, out=c3)


def split_key(seed: int) -> tuple[int, int]:
    """Fold an arbitrary integer seed into the 64-bit Philox key."""
    seed = int(seed) % (1 << 64)
    return seed & 0xFFFFFFFF, seed >> 32


def block_words(seed: int, trials: np.ndarray, block: int | np.ndarray) -> np.ndarray:
    """The Philox words of steps ``4*block .. 4*block + 3`` of each trial.

    Returns an (n, 4) uint32 array whose column ``j`` is the word of step
    ``4*block + j``; it is laid out column by column, so ``.T`` is a
    C-contiguous (4, n) array.  ``trials`` is an integer array of trial
    indices and ``block`` one block index for them all or an array of one
    per trial; the result for a given (seed, trial, step) is the same
    however the call is batched.
    """
    blocks = np.asarray(block)
    if blocks.size and not (blocks.min() >= 0 and blocks.max() <= 0xFFFFFFFF):
        raise ValueError(f"every block must be in [0, 2**32), got {block}")
    trials = np.asarray(trials, dtype=np.uint64)
    counter = np.zeros((4, trials.shape[0]), dtype=np.uint32)  # word by word: .T is (n, 4)
    counter[0] = block
    counter[1] = trials & _MASK32
    counter[2] = trials >> _SHIFT32
    return philox4x32(counter.T, split_key(seed))


def block_uniforms(seed: int, trials: np.ndarray, block: int | np.ndarray) -> np.ndarray:
    """The uniforms u = word * 2**-32 in [0, 1) of :func:`block_words`, laid out alike."""
    return block_words(seed, trials, block) * 2.0**-32


def step_uniforms(
    seed: int, trials: np.ndarray, step: int, block: np.ndarray | None = None
) -> np.ndarray:
    """One uniform in [0, 1) per trial for a given step index.

    The per-step view of :func:`block_uniforms`: column ``step % 4`` of the
    block ``step // 4``.  ``block``, if given, is a :func:`block_words` or
    :func:`block_uniforms` result for these trials (rows may have been
    dropped from both alike) holding each trial's step; trials may be at
    different steps, drawn at different block indices, if all are at
    ``step`` modulo 4.  Its column, words or uniforms, is read instead of
    evaluating Philox again, so one evaluation serves four steps in order.
    """
    if block is None:
        block = block_uniforms(seed, trials, step // LANES)
    return block[:, step % LANES]
