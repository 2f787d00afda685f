"""Hypothesis fuzzing of the ``--retry-policy`` spec parser.

``--retry-policy SPEC`` goes through :meth:`RetryPolicy.parse`.  The
contract for any text: it parses, or it raises a ``ValueError``; an
error about one term names its spec key (``attempts``, ``transient``),
not the dataclass field behind it.  Values are plain ASCII decimal
integers: ``int()`` alone would also take ``1_0``, ``+3`` and ``٣``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.experiments import __main__ as cli
from repro.runner.dispatch.retry import RetryPolicy
from tests.test_fault_plan_fuzz import FUZZ

KEYS = {"attempts": ("max_attempts", 1), "transient": ("transient_budget", 0)}
spaces = st.sampled_from(["", " ", "  "])


@st.composite
def valid_specs(draw):
    """A well-formed spec and the fields it sets."""
    keys = draw(st.permutations(sorted(KEYS)))[: draw(st.integers(0, 2))]
    terms, fields = [], {}
    for key in keys:
        field, least = KEYS[key]
        value = draw(st.integers(least, 10**6))
        fields[field] = value
        text = draw(st.sampled_from([str(value), f"{value:03d}"]))
        terms.append(f"{draw(spaces)}{key}{draw(spaces)}={draw(spaces)}{text}")
    empties = [""] * draw(st.integers(0, 1))
    return ",".join(terms + empties), fields


#: values the parser must reject for either key.
BAD_VALUES = [
    "", " ", "x", "1_0", "+3", "-1", "3.0", "1e3", "0x10", "٣", "²", "３",
    "3 4", "9" * 5000,
]


class TestRetryPolicySpec:
    @FUZZ
    @given(case=valid_specs())
    def test_well_formed_specs_parse_to_their_fields(self, case):
        spec, fields = case
        assert RetryPolicy.parse(spec) == RetryPolicy(**fields)

    @FUZZ
    @given(
        case=valid_specs(),
        key=st.sampled_from(sorted(KEYS)),
        value=st.sampled_from(BAD_VALUES),
    )
    def test_one_bad_value_names_its_key(self, case, key, value):
        spec, _ = case
        others = [t for t in spec.split(",") if t and key not in t]
        with pytest.raises(ValueError) as info:
            RetryPolicy.parse(",".join([*others, f"{key}={value}"]))
        assert f"for {key}: " in str(info.value)

    @FUZZ
    @given(text=st.text(max_size=40))
    def test_any_text_parses_or_raises_value_error(self, text):
        _parses_or_raises_value_error(text)

    @FUZZ
    @given(text=st.text(alphabet="attemps=ransi,0123456789_+- ٣", max_size=40))
    def test_grammar_shaped_text_parses_or_raises_value_error(self, text):
        _parses_or_raises_value_error(text)


def _parses_or_raises_value_error(text):
    try:
        policy = RetryPolicy.parse(text)
    except ValueError as exc:
        assert str(exc)
    else:
        assert policy.max_attempts >= 1 and policy.transient_budget >= 0


#: specs the parser once accepted with a coerced value, or rejected
#: naming the dataclass field instead of the key.
BAD_SPECS = [
    ("attempts=1_0", "for attempts: "),
    ("attempts=+3", "for attempts: "),
    ("attempts=٣", "for attempts: "),
    ("attempts=0", "for attempts: must be >= 1"),
    ("transient=-1", "for transient: "),
]


class TestKnownHoles:
    @pytest.mark.parametrize("spec, fragment", BAD_SPECS)
    def test_rejected_naming_the_key(self, spec, fragment):
        with pytest.raises(ValueError) as info:
            RetryPolicy.parse(spec)
        message = str(info.value)
        assert fragment in message
        assert "max_attempts" not in message and "transient_budget" not in message

    @pytest.mark.parametrize("spec, fragment", BAD_SPECS)
    def test_cli_exits_2_naming_the_flag_and_key(self, capsys, spec, fragment):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig1", "--no-cache", "--no-checkpoint", "--retry-policy", spec])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--retry-policy: " in err and fragment in err
