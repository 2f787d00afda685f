"""Hypothesis fuzzing of the ``--trace`` spec parser.

``--trace SPEC`` goes through :meth:`TraceSpec.parse`.  The contract for
any text: it parses, or it raises a ``ValueError`` that names the
offending token.  Flow ids and decimation steps are plain ASCII decimal
integers (``int()`` alone would also take ``1_0``, ``-3`` and ``٣``), a
flow id is never negative (it would match no flow and trace nothing),
and a channel is decimated once.  Well-formed specs round-trip through
:meth:`TraceSpec.to_string`.
"""

import pytest
from hypothesis import given, strategies as st

from repro.experiments import __main__ as cli
from repro.obs import TraceSpec
from repro.obs.records import CHANNELS, SAMPLE_CHANNELS
from tests.test_fault_plan_fuzz import FUZZ

globs = st.from_regex(r"[a-z0-9*?>-]{1,8}", fullmatch=True)


@st.composite
def valid_specs(draw):
    """A well-formed spec as its list of tokens."""
    tokens = []
    channels = draw(st.lists(st.sampled_from(CHANNELS), unique=True, max_size=4))
    for channel in channels:
        if channel in SAMPLE_CHANNELS and draw(st.booleans()):
            tokens.append(f"{channel}@{draw(st.integers(1, 64))}")
        else:
            tokens.append(channel)
    if draw(st.booleans()):
        tokens.append("all")
    tokens += [f"flow={f}" for f in draw(st.lists(st.integers(0, 10**6), max_size=3))]
    tokens += [f"link={g}" for g in draw(st.lists(globs, max_size=2))]
    tokens = draw(st.permutations(tokens))
    return tokens or ["all"]


#: flow ids and decimation steps the parser must reject.
BAD_NUMBERS = ["", "x", "1_0", "+3", "-3", "3.0", "0x10", "٣", "²", "9" * 5000]


class TestTraceSpec:
    @FUZZ
    @given(tokens=valid_specs())
    def test_well_formed_specs_round_trip(self, tokens):
        spec = TraceSpec.parse(",".join(tokens))
        assert TraceSpec.parse(spec.to_string()) == spec
        flows = {int(t[5:]) for t in tokens if t.startswith("flow=")}
        assert spec.flows == (frozenset(flows) if flows else None)

    @FUZZ
    @given(
        tokens=valid_specs(),
        form=st.sampled_from(["flow={}", "cwnd@{}", "queue@{}"]),
        number=st.sampled_from(BAD_NUMBERS),
    )
    def test_one_bad_number_names_its_token(self, tokens, form, number):
        bad = form.format(number)
        with pytest.raises(ValueError) as info:
            TraceSpec.parse(",".join([*tokens, bad]))
        assert repr(bad) in str(info.value)

    @FUZZ
    @given(
        channel=st.sampled_from(sorted(SAMPLE_CHANNELS)),
        steps=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    )
    def test_a_second_decimation_of_a_channel_is_rejected(self, channel, steps):
        second = f"{channel}@{steps[1]}"
        with pytest.raises(ValueError) as info:
            TraceSpec.parse(f"{channel}@{steps[0]},{second}")
        assert repr(second) in str(info.value)

    @FUZZ
    @given(text=st.text(max_size=40))
    def test_any_text_parses_or_raises_value_error(self, text):
        _parses_or_raises_value_error(text)

    @FUZZ
    @given(text=st.text(alphabet="cwndqueflo=@,0123456789_+- ٣*", max_size=40))
    def test_grammar_shaped_text_parses_or_raises_value_error(self, text):
        _parses_or_raises_value_error(text)


def _parses_or_raises_value_error(text):
    try:
        spec = TraceSpec.parse(text)
    except ValueError as exc:
        assert str(exc)
    else:
        assert TraceSpec.parse(spec.to_string()) == spec


#: specs the parser once accepted with a coerced or silently dropped value.
BAD_SPECS = [
    ("flow=1_0", "'flow=1_0'"),
    ("flow=-3", "'flow=-3'"),
    ("cwnd@٣", "'cwnd@٣'"),
    ("cwnd@2,cwnd@4", "'cwnd@4'"),
]


class TestKnownHoles:
    @pytest.mark.parametrize("spec, token", BAD_SPECS)
    def test_rejected_naming_the_token(self, spec, token):
        with pytest.raises(ValueError) as info:
            TraceSpec.parse(spec)
        assert token in str(info.value)

    @pytest.mark.parametrize("spec, token", BAD_SPECS)
    def test_cli_exits_2_naming_the_flag_and_token(self, capsys, spec, token):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--no-cache", "--no-checkpoint", "--trace", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--trace: " in err and token in err
