"""Unit tests for seeded random streams and seed derivation."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.randomness import RandomStreams, _stable_hash, derive_seed, seeded_rng


def _numpy_derive_seed(root_seed, name):
    """``derive_seed`` as numpy computes it: the reference the
    pure-Python transcription in ``repro.sim.randomness`` must equal."""
    child = np.random.SeedSequence(
        entropy=root_seed, spawn_key=(_stable_hash(name),)
    )
    low, high = (int(w) for w in child.generate_state(2, dtype=np.uint32))
    return (low | (high << 32)) & 0x7FFFFFFFFFFFFFFF


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(7)
        assert streams.get("a") is streams.get("a")

    def test_different_names_give_independent_draws(self):
        streams = RandomStreams(7)
        a = streams.get("a").random(100)
        b = streams.get("b").random(100)
        assert list(a) != list(b)

    def test_reproducible_across_instances(self):
        one = RandomStreams(42).get("workload").random(10)
        two = RandomStreams(42).get("workload").random(10)
        assert list(one) == list(two)

    def test_different_seeds_differ(self):
        one = RandomStreams(1).get("x").random(10)
        two = RandomStreams(2).get("x").random(10)
        assert list(one) != list(two)

    def test_stream_independent_of_creation_order(self):
        forward = RandomStreams(5)
        forward.get("first")
        a1 = forward.get("second").random(5)
        backward = RandomStreams(5)
        a2 = backward.get("second").random(5)
        assert list(a1) == list(a2)


class TestStableHash:
    def test_deterministic(self):
        assert _stable_hash("abc") == _stable_hash("abc")

    def test_distinct_inputs_differ(self):
        assert _stable_hash("abc") != _stable_hash("abd")

    def test_fits_in_63_bits(self):
        for name in ("", "a", "long-name" * 50):
            assert 0 <= _stable_hash(name) < 2**63


class TestDeriveSeedMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**200), name=st.text(max_size=40))
    @example(seed=0, name="")
    @example(seed=2**32 - 1, name="x")
    @example(seed=2**32, name="x")
    @example(seed=2**64 - 1, name="é日本")
    @example(seed=2**64, name="incast/n2-reno")
    @example(seed=2**128, name="\U0001f600")
    def test_equals_the_seed_sequence_reference(self, seed, name):
        assert derive_seed(seed, name) == _numpy_derive_seed(seed, name)

    @pytest.mark.parametrize(
        ("seed", "name", "expected"),
        [
            # Literal values, so a change in numpy cannot move both sides.
            (0, "", 8642908012842183696),
            (1, "fig8/sw4-r0", 3526522720576366740),
            (1, "incast/n2-reno", 3565233821352703124),
            (2**32 - 1, "x", 9148389994454078466),
            (2**32, "x", 4752769802036160343),
            (2**64, "é日本", 40065101220846326),
            (2**200, "faults/l0", 2918946536165859707),
        ],
    )
    def test_pinned_values(self, seed, name, expected):
        assert derive_seed(seed, name) == expected
        assert _numpy_derive_seed(seed, name) == expected

    @pytest.mark.parametrize("seed", [True, np.int64(7), np.uint32(9)])
    def test_integer_likes_are_seeds_as_numpy_reads_them(self, seed):
        assert derive_seed(seed, "x") == _numpy_derive_seed(seed, "x")


class TestSeedsAreNonNegativeIntegers:
    # numpy reads ``entropy=None`` as "draw from the OS": a seed that
    # could never be reproduced.  Every entry point refuses it instead.
    @pytest.mark.parametrize("seed", [None, 1.0, "1"])
    def test_non_integers_are_type_errors(self, seed):
        with pytest.raises(TypeError, match="root_seed"):
            derive_seed(seed, "x")
        with pytest.raises(TypeError, match="seed"):
            RandomStreams(seed)
        with pytest.raises(TypeError, match="seed"):
            seeded_rng(1, seed)

    def test_negatives_are_value_errors(self):
        with pytest.raises(ValueError, match="root_seed"):
            derive_seed(-1, "x")
        with pytest.raises(ValueError, match="seed"):
            RandomStreams(-1)
        with pytest.raises(ValueError, match="seed"):
            seeded_rng(-1)
