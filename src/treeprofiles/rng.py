"""Deterministic 64-bit PRNG used wherever the pipeline needs randomness.

The generator is xorshift64* with the classic parameters: state update
``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and output multiplier
``0x2545F4914F6CDD1D``.  Streams for subtasks (one per forest tree, for
example) are derived with :func:`derive_seed`, a splitmix64 step applied to
``seed + (index + 1) * 0x9E3779B97F4A7C15``.  Both algorithms are defined on
64-bit integers only, so identical seeds give identical streams on every
platform; no library-default PRNG is used anywhere in the package.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th independent substream of ``seed``."""
    return _splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class Xorshift64Star:
    """xorshift64* generator; the zero state is remapped through splitmix64."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        if state == 0:
            state = _splitmix64(_GOLDEN)
        self._state = state

    @property
    def state(self) -> int:
        """The current 64-bit state; the next output is derived from it."""
        return self._state

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n).  Plain modulo reduction: the tiny bias
        is irrelevant here, the fixed mapping is what matters."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next_u64() % n

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """First k entries of a partial Fisher-Yates shuffle of range(n)."""
        if k > n:
            raise ValueError("cannot sample more items than available")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
