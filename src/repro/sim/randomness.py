"""Seeded random-number streams.

Every source of randomness in an experiment draws from a named stream so
that (a) runs are reproducible from a single integer seed, and (b) adding
a new random consumer does not perturb the draws seen by existing ones.
Streams are derived with numpy's ``SeedSequence`` spawning scheme, which
guarantees independence between streams, and drawn from a PCG64
generator.  Both are pure-Python transcriptions of numpy's, so no run
imports numpy: :class:`Pcg64Generator` gives the very numbers
``numpy.random.Generator(PCG64(SeedSequence(...)))`` gives for
``random``, ``uniform``, ``integers`` and ``permutation``, which
``tests/test_sim_randomness.py`` holds equal to numpy under hypothesis.
``exponential`` and ``geometric`` invert that uniform instead of
copying numpy's ziggurat and CDF search: the paper defines its
workloads by distributions, not by one stream, and
``tests/test_seed_sweep.py`` holds every claim that depends on the
draws under eight root seeds.
"""

from __future__ import annotations

import math
import operator
from typing import overload

__all__ = ["Pcg64Generator", "RandomStreams", "derive_seed", "seeded_rng"]

#: numpy's SeedSequence constants (4-word pool, uint32 arithmetic).
_MASK32, _POOL_SIZE = 0xFFFFFFFF, 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: PCG64's 128-bit LCG multiplier and word masks.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_TWO_M53 = 1.0 / 9007199254740992.0
_MAX_INT64 = (1 << 63) - 1


class Pcg64Generator:
    """numpy's ``Generator(PCG64(...))`` in pure Python.

    PCG64 is a 128-bit LCG with the XSL-RR output function.  A 32-bit
    draw takes the low half of a 64-bit output and keeps the high half
    for the next 32-bit draw, as numpy's bit generator does; 64-bit
    draws and doubles leave that carried half alone.  Scalars come back
    as ``float``/``int``, ``size=n`` as a list.  Build one with
    :func:`seeded_rng` or :meth:`RandomStreams.get` (simlint's SIM001
    forbids constructing it anywhere else).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, words: list[int]) -> None:
        # ``words`` is SeedSequence.generate_state(8) in uint32 words.
        # numpy reads them as four little-endian uint64s and seeds with
        # state u64[0]:u64[1] and increment u64[2]:u64[3], high word
        # first (pcg64_set_seed), stepping once before and once after
        # adding the state.
        u64 = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        self._inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _MASK128
        state = (self._inc + (u64[0] << 64 | u64[1])) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            word, self._half = self._half, None
            return word
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _double(self) -> float:
        return (self._next64() >> 11) * _TWO_M53

    def _bounded(self, span: int) -> int:
        """A uniform integer in ``[0, span]``: Lemire's multiply-and-reject
        on a 32-bit draw when ``span`` fits one, else on a 64-bit draw."""
        if span == 0:
            return 0
        if span == _MASK32:
            return self._next32()
        if span == _MASK64:
            return self._next64()
        draw, bits = (self._next32, 32) if span < _MASK32 else (self._next64, 64)
        mask, excl = (1 << bits) - 1, span + 1
        product = draw() * excl
        if product & mask < excl:
            threshold = (mask - span) % excl
            while product & mask < threshold:
                product = draw() * excl
        return product >> bits

    @overload
    def random(self) -> float: ...
    @overload
    def random(self, size: int) -> list[float]: ...
    def random(self, size: int | None = None) -> float | list[float]:
        """Uniform doubles in ``[0, 1)``."""
        if size is None:  # _double(), inlined: the per-packet draw
            self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
            word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            return (((word >> rot | word << (64 - rot)) & _MASK64) >> 11) * _TWO_M53
        return [self._double() for _ in range(size)]

    def uniform(self, low: float, high: float) -> float:
        """One uniform double in ``[low, high)``."""
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self._double()

    @overload
    def exponential(self, scale: float) -> float: ...
    @overload
    def exponential(self, scale: float, size: int) -> list[float]: ...
    def exponential(
        self, scale: float, size: int | None = None
    ) -> float | list[float]:
        """Exponential draws of mean ``scale``, by inversion:
        ``-scale * log(1 - U)``."""
        if not scale >= 0:
            raise ValueError(f"scale must be non-negative, got {scale!r}")
        if size is None:
            return -scale * math.log1p(-self._double())
        return [-scale * math.log1p(-self._double()) for _ in range(size)]

    def geometric(self, p: float) -> int:
        """Trials up to and including the first success, ``0 < p <= 1``,
        by inversion: ``ceil(log(1 - U) / log(1 - p))``, at least 1."""
        if not 0 < p <= 1:
            raise ValueError(f"p must be in (0, 1], got {p!r}")
        miss = math.log1p(-p) if p < 1 else -math.inf  # math.log1p(-1) raises
        trials = math.log1p(-self._double()) / miss
        if trials >= 9.223372036854776e18:  # 2**63 or infinite, as p -> 0:
            return _MAX_INT64  # numpy's int64 clamp
        return max(1, math.ceil(trials))

    @overload
    def integers(self, low: int, high: int) -> int: ...
    @overload
    def integers(self, low: int, high: int, size: int) -> list[int]: ...
    def integers(
        self, low: int, high: int, size: int | None = None
    ) -> int | list[int]:
        """Uniform integers in ``[low, high)``, within int64."""
        if low < -(1 << 63) or high > 1 << 63 or low >= high:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got [{low}, {high})")
        span = high - 1 - low
        if size is None:
            return low + self._bounded(span)
        return [low + self._bounded(span) for _ in range(size)]

    def permutation(self, n: int) -> list[int]:
        """A uniformly shuffled ``list(range(n))``.

        Fisher-Yates from the end; each swap index is drawn by masked
        rejection (numpy's ``random_interval``), not by Lemire's method.
        """
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _MASK32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            items[i], items[j] = items[j], items[i]
        return items


class RandomStreams:
    """A family of independent, named PCG64 generators.

    >>> streams = RandomStreams(seed=7)
    >>> g1 = streams.get("workload")
    >>> g2 = streams.get("workload")   # same object back
    >>> g1 is g2
    True
    """

    def __init__(self, seed: int) -> None:
        _seed_words(seed, "seed")
        self.seed = seed
        self._streams: dict[str, Pcg64Generator] = {}

    def get(self, name: str) -> Pcg64Generator:
        """Return the generator for ``name``, creating it on first use.

        Stream identity depends only on the root seed and the name (not
        on creation order), via hashing the name into the spawn key: the
        stream is numpy's ``Generator(PCG64(SeedSequence(seed,
        spawn_key=(hash(name),))))``.
        """
        if name not in self._streams:
            entropy = _spawn_entropy(self.seed, name, "seed")
            self._streams[name] = Pcg64Generator(_generate_state(entropy, 8))
        return self._streams[name]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic integer seed for ``name`` from ``root_seed``.

    Uses the same ``SeedSequence`` spawning scheme as
    :class:`RandomStreams`, so derived seeds are statistically
    independent of each other and of any named stream.  The result is a
    non-negative 63-bit integer, stable across processes and platforms.
    """
    low, high = _generate_state(_spawn_entropy(root_seed, name, "root_seed"), 2)
    return (low | high << 32) & 0x7FFFFFFFFFFFFFFF


def seeded_rng(*entropy: int) -> Pcg64Generator:
    """A PCG64 generator seeded from explicit integer entropy.

    The single blessed way to build a standalone generator outside the
    named-stream machinery (simlint's SIM001 forbids constructing one
    anywhere else).  Draw for draw equal to
    ``numpy.random.default_rng(entropy)`` — both feed a
    ``SeedSequence`` of the entropy words into PCG64.  Pass every
    coordinate that distinguishes the draw site (root seed, sweep
    coordinates, repeat index) so no two points share a stream.
    """
    if not entropy:
        raise ValueError("seeded_rng needs at least one entropy integer")
    words = [word for value in entropy for word in _seed_words(value, "seed")]
    return Pcg64Generator(_generate_state(words, 8))


def _spawn_entropy(root_seed: int, name: str, what: str) -> list[int]:
    """SeedSequence's assembled entropy for ``spawn_key=(hash(name),)``."""
    entropy = _seed_words(root_seed, what)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # keeps spawn keys apart
    return entropy + _seed_words(_stable_hash(name), "name")


def _generate_state(entropy: list[int], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` as uint32 words."""
    entropy = entropy + [0] * (_POOL_SIZE - len(entropy))
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
    const, state = _INIT_B, []
    for index in range(n_words):
        word, const = _hashmix(pool[index % _POOL_SIZE], const, _MULT_B)
        state.append(word)
    return state


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
