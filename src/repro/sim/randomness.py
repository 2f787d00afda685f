"""Seeded random-number streams.

Every source of randomness in an experiment draws from a named stream so
that (a) runs are reproducible from a single integer seed, and (b) adding
a new random consumer does not perturb the draws seen by existing ones.
Streams are derived with :class:`numpy.random.SeedSequence` spawning,
which guarantees independence between streams.  numpy is imported by the
first generator construction, so handing out seeds never loads it:
:func:`derive_seed` is a pure-Python transcription of ``SeedSequence``,
held equal to numpy by ``tests/test_sim_randomness.py``.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RandomStreams", "derive_seed", "seeded_rng"]

#: numpy's SeedSequence constants (4-word pool, uint32 arithmetic).
_MASK32, _POOL_SIZE = 0xFFFFFFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class RandomStreams:
    """A family of independent, named ``numpy`` generators.

    >>> streams = RandomStreams(seed=7)
    >>> g1 = streams.get("workload")
    >>> g2 = streams.get("workload")   # same object back
    >>> g1 is g2
    True
    """

    def __init__(self, seed: int = 0) -> None:
        _seed_words(seed, "seed")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Stream identity depends only on the root seed and the name (not
        on creation order), via hashing the name into the spawn key.
        """
        if name not in self._streams:
            import numpy as np

            child = np.random.SeedSequence(self.seed, spawn_key=(_stable_hash(name),))
            self._streams[name] = np.random.Generator(np.random.PCG64(child))
        return self._streams[name]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic integer seed for ``name`` from ``root_seed``.

    Uses the same :class:`numpy.random.SeedSequence` spawning scheme as
    :class:`RandomStreams`, so derived seeds are statistically
    independent of each other and of any named stream.  The result is a
    non-negative 63-bit integer, stable across processes and platforms.
    """
    entropy = _seed_words(root_seed, "root_seed")
    entropy += [0] * (_POOL_SIZE - len(entropy))  # keeps spawn keys apart
    entropy += _seed_words(_stable_hash(name), "name")
    const, pool = _INIT_A, []
    for word in entropy[:_POOL_SIZE]:  # mix_entropy: hash into the pool,
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(len(entropy)):  # then each word into every other one
        for dst in range(_POOL_SIZE):
            if src != dst:
                value = pool[src] if src < _POOL_SIZE else entropy[src]
                word, const = _hashmix(value, const)
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * word) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    low, const = _hashmix(pool[0], _INIT_B, _MULT_B)  # generate_state(2)
    high, _ = _hashmix(pool[1], const, _MULT_B)
    return (low | high << 32) & 0x7FFFFFFFFFFFFFFF


def seeded_rng(*entropy: int) -> np.random.Generator:
    """A PCG64 generator seeded from explicit integer entropy.

    The single blessed way to build a standalone generator outside the
    named-stream machinery (simlint's SIM001 forbids constructing one
    anywhere else).  Bit-identical to ``np.random.default_rng(entropy)``
    — both feed a :class:`numpy.random.SeedSequence` into PCG64 — so
    migrating a call site never perturbs recorded results.  Pass every
    coordinate that distinguishes the draw site (root seed, sweep
    coordinates, repeat index) so no two points share a stream.
    """
    if not entropy:
        raise ValueError("seeded_rng needs at least one entropy integer")
    for value in entropy:
        _seed_words(value, "seed")
    import numpy as np

    seed = entropy[0] if len(entropy) == 1 else entropy
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _seed_words(seed: int, what: str) -> list[int]:
    """``seed`` as SeedSequence's little-endian 32-bit words.  Only a
    non-negative integer is a seed: numpy reads ``None`` as fresh entropy."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise TypeError(f"{what} must be a non-negative integer: {seed!r}") from None
    if value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value}")
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def _hashmix(value: int, const: int, mult: int = _MULT_A) -> tuple[int, int]:
    """SeedSequence's ``hashmix`` (``generate_state`` with ``_MULT_B``)."""
    value ^= const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _stable_hash(name: str) -> int:
    """A process-stable 63-bit hash of ``name`` (builtin hash is salted)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return value
