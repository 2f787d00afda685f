"""Unit tests for seeded random streams, seed derivation, and the
pure-Python PCG64 generator held draw for draw equal to numpy's."""

import math

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


# ----------------------------------------------------------------------
# Bit-equality with numpy.random.Generator(PCG64(SeedSequence(...))):
# its uniforms, integers and permutations draw for draw, and the
# exponential and geometric as inversions of its uniform stream
# ----------------------------------------------------------------------

#: 1-3 entropy integers of 1-100 bits each.
ENTROPY = st.lists(
    st.integers(1, 100).flatmap(lambda bits: st.integers(0, 2**bits - 1)),
    min_size=1,
    max_size=3,
)


@st.composite
def generator_pairs(draw):
    """(ours, numpy's) seeded alike: through ``seeded_rng`` or through a
    ``RandomStreams`` spawn key."""
    if draw(st.booleans()):
        entropy = draw(ENTROPY)
        seq = np.random.SeedSequence(entropy[0] if len(entropy) == 1 else entropy)
        ours = seeded_rng(*entropy)
    else:
        seed, name = draw(st.integers(0, 2**100)), draw(st.text(max_size=12))
        seq = np.random.SeedSequence(seed, spawn_key=(_stable_hash(name),))
        ours = RandomStreams(seed).get(name)
    return ours, np.random.Generator(np.random.PCG64(seq))


#: ``integers`` spans (high - 1 - low): empty, below 2**32, exactly
#: 2**32 - 1 (the plain 32-bit draw), above 2**32, and up to 2**63.
SPANS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 2),
    st.just(2**32 - 1),
    st.integers(2**32, 2**63 - 1),
)


@st.composite
def integer_ranges(draw):
    span = draw(SPANS)
    low = draw(st.integers(-(2**63), 2**63 - 1 - span))
    return low, low + span + 1


#: geometric's p, from the int64 clamp's tiny values up to 1.
PROBS = st.one_of(
    st.floats(1e-9, 0.3333333333333333),
    st.floats(0.3333333333333333, 1.0),
    st.sampled_from([1.0, 1 / 3, 0.3333333333333333, 1e-300, 5e-324]),
)

SIZES = st.integers(0, 40)


class TestGeneratorEqualsNumpy:
    @settings(max_examples=60, deadline=None)
    @given(pair=generator_pairs(), size=SIZES)
    def test_random(self, pair, size):
        ours, ref = pair
        assert ours.random() == ref.random()
        assert ours.random(size) == ref.random(size).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        pair=generator_pairs(),
        low=st.floats(-1e6, 1e6),
        width=st.floats(0.0, 1e6),
    )
    def test_uniform(self, pair, low, width):
        ours, ref = pair
        assert ours.uniform(low, low + width) == ref.uniform(low, low + width)

    @settings(max_examples=60, deadline=None)
    @given(pair=generator_pairs(), scale=st.floats(0.0, 1e3), size=SIZES)
    def test_exponential(self, pair, scale, size):
        # -scale * log(1 - U), one uniform per draw
        ours, ref = pair
        assert ours.exponential(scale) == -scale * math.log1p(-ref.random())
        expected = [-scale * math.log1p(-u) for u in ref.random(size).tolist()]
        assert ours.exponential(scale, size) == expected

    @settings(max_examples=100, deadline=None)
    @given(pair=generator_pairs(), p=PROBS)
    def test_geometric(self, pair, p):
        # ceil(log(1 - U) / log(1 - p)), at least 1, clamped to int64
        ours, ref = pair
        for _ in range(3):
            u = ref.random()
            quotient = math.log1p(-u) / math.log1p(-p) if p < 1 else 0.0
            expected = 2**63 - 1 if quotient >= 2**63 else max(1, math.ceil(quotient))
            assert ours.geometric(p) == expected

    @settings(max_examples=100, deadline=None)
    @given(pair=generator_pairs(), bounds=integer_ranges(), size=SIZES)
    def test_integers(self, pair, bounds, size):
        ours, ref = pair
        low, high = bounds
        assert ours.integers(low, high) == int(ref.integers(low, high))
        assert ours.integers(low, high, size) == ref.integers(low, high, size).tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        pair=generator_pairs(),
        calls=st.lists(
            st.one_of(integer_ranges(), st.just("random"), st.just("uniform")),
            max_size=30,
        ),
    )
    def test_interleaved_draws_share_the_carried_half_word(self, pair, calls):
        # A 32-bit draw keeps the high half of its 64-bit word for the
        # next 32-bit draw; doubles and 64-bit draws in between leave it.
        ours, ref = pair
        for call in calls:
            if call == "random":
                assert ours.random() == ref.random()
            elif call == "uniform":
                assert ours.uniform(-1.0, 2.0) == ref.uniform(-1.0, 2.0)
            else:
                assert ours.integers(*call) == int(ref.integers(*call))

    @settings(max_examples=40, deadline=None)
    @given(pair=generator_pairs(), n=st.integers(0, 300))
    def test_permutation(self, pair, n):
        ours, ref = pair
        ours.integers(0, 10)  # leave a carried half-word behind
        ref.integers(0, 10)
        assert ours.permutation(n) == ref.permutation(n).tolist()
        assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        ("low", "high"),
        # spans whose Lemire threshold rejects about half the draws,
        # in the 32-bit and the 64-bit path
        [(0, 2**31 + 2), (-(2**63), 1)],
    )
    def test_integers_take_the_rejection_loop(self, low, high):
        ours, ref = seeded_rng(11), np.random.default_rng(11)
        assert ours.integers(low, high, 200) == ref.integers(low, high, 200).tolist()
        assert ours.random() == ref.random()

    @pytest.mark.parametrize(
        ("call", "error"),
        [
            (lambda g: g.integers(5, 5), ValueError),
            (lambda g: g.integers(0, 2**63 + 1), ValueError),
            (lambda g: g.integers(-(2**63) - 1, 0), ValueError),
            (lambda g: g.geometric(0.0), ValueError),
            (lambda g: g.geometric(1.5), ValueError),
            (lambda g: g.exponential(-1.0), ValueError),
            (lambda g: g.uniform(1.0, 0.0), ValueError),
            (lambda g: g.uniform(-1e308, 1e308), OverflowError),
        ],
    )
    def test_bad_arguments_raise(self, call, error):
        with pytest.raises(error):
            call(seeded_rng(1))

