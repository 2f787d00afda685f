"""Hypothesis fuzzing of the open-loop input parsers.

``--arrivals`` goes through :func:`parse_arrivals` and ``--replay``
through :func:`load_trace`.
The contract for any input: it parses, or it raises a ``ValueError``
that names the offending key, field or line.  No other exception type
escapes, and nothing falls back to a default.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.http.openloop import load_trace, parse_arrivals

REQUIRED = {
    "poisson": ("rate",),
    "mmpp": ("rate_on", "rate_off", "mean_on", "mean_off"),
    "diurnal": ("base", "peak", "period"),
}
ALL_KEYS = {key for keys in REQUIRED.values() for key in keys}

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

positive = st.floats(min_value=1e-3, max_value=1e6)
identifier = st.from_regex(r"[a-z][a-z_]{0,7}", fullmatch=True)


@st.composite
def valid_spec(draw):
    """A well-formed spec as ``(kind, [(key, value text), ...])``."""
    kind = draw(st.sampled_from(sorted(REQUIRED)))
    values = {key: draw(positive) for key in REQUIRED[kind]}
    if kind == "mmpp":
        values["rate_on"] = values["rate_off"] * 2.0
    if kind == "diurnal":
        values["peak"] = values["base"] * 2.0
    tokens = [(key, repr(value)) for key, value in values.items()]
    return kind, draw(st.permutations(tokens))


def render(kind, tokens):
    return f"{kind}:" + ",".join(f"{key}={value}" for key, value in tokens)


@st.composite
def broken_spec(draw):
    """A spec with exactly one thing wrong, and the name that the error
    must carry."""
    kind, tokens = draw(valid_spec())
    keys = [key for key, _ in tokens]
    fault = draw(st.sampled_from(
        ["kind", "missing", "unknown", "duplicate", "not_a_number",
         "out_of_range", "no_equals"]
    ))
    index = draw(st.integers(0, len(tokens) - 1))
    key = keys[index]
    if fault == "kind":
        bad = draw(identifier.filter(lambda name: name not in REQUIRED))
        return render(bad, tokens), bad
    if fault == "missing":
        return render(kind, tokens[:index] + tokens[index + 1:]), key
    if fault == "unknown":
        extra = draw(identifier.filter(lambda name: name not in ALL_KEYS))
        return render(kind, tokens + [(extra, "1")]), extra
    if fault == "duplicate":
        return render(kind, tokens + [tokens[index]]), key
    if fault == "not_a_number":
        junk = draw(st.sampled_from(["", "abc", "1.2.3", "0x10", "--1", "1e"]))
        tokens[index] = (key, junk)
        return render(kind, tokens), key
    if fault == "out_of_range":
        value = draw(st.sampled_from(
            ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e400"]
        ))
        tokens[index] = (key, value)
        return render(kind, tokens), key
    text = render(kind, tokens) + "," + key  # a token without "="
    return text, key


class TestArrivalsGrammar:
    @FUZZ
    @given(spec=valid_spec())
    def test_well_formed_specs_parse_and_round_trip(self, spec):
        process = parse_arrivals(render(*spec))
        assert parse_arrivals(process.to_string()) == process

    @FUZZ
    @given(case=broken_spec())
    def test_one_fault_names_its_culprit(self, case):
        text, culprit = case
        with pytest.raises(ValueError) as info:
            parse_arrivals(text)
        assert culprit in str(info.value)

    @FUZZ
    @given(text=st.text(max_size=60))
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            process = parse_arrivals(text)
        except ValueError as exc:
            assert str(exc)
        else:
            assert parse_arrivals(process.to_string()) == process

    @pytest.mark.parametrize(
        "text, culprit",
        [
            ("mmpp:rate_on=1,rate_off=2,mean_on=1,mean_off=1", "rate_on"),
            ("diurnal:base=5,peak=1,period=1", "peak"),
        ],
    )
    def test_cross_parameter_constraints_name_a_parameter(self, text, culprit):
        with pytest.raises(ValueError, match=culprit):
            parse_arrivals(text)


GOOD_ROW = {"session": 0, "size": 1460, "t": 0.001}

BAD_VALUES = {
    "t": [-1.0, float("nan"), float("inf"), "0.1", None, True, [], 10**400],
    "session": [0.5, "0", None, True, {}],
    "size": [0, -3, 1.5, "10", None, False],
}


@st.composite
def trace_lines(draw):
    """Canonical rows with non-decreasing times."""
    times = sorted(draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=6
    )))
    return [
        json.dumps(
            {"session": i, "size": draw(st.integers(1, 10**6)), "t": t},
            sort_keys=True, separators=(",", ":"),
        )
        for i, t in enumerate(times)
    ]


@st.composite
def broken_trace(draw):
    """Trace lines with one bad line; returns (lines, its 1-based line
    number, the field the error must name or None)."""
    lines = draw(trace_lines())
    index = draw(st.integers(0, len(lines) - 1))
    fault = draw(st.sampled_from(["value", "json", "shape", "keys"]))
    field = None
    if fault == "value":
        field = draw(st.sampled_from(sorted(BAD_VALUES)))
        row = dict(json.loads(lines[index]))
        row[field] = draw(st.sampled_from(BAD_VALUES[field]))
        lines[index] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    elif fault == "json":
        lines[index] = draw(st.sampled_from(
            ["{", "not json", '{"t":}', "[" * 5000, "\x00"]
        ))
    elif fault == "shape":
        lines[index] = draw(st.sampled_from(["[]", "1", '"row"', "null", "true"]))
    else:
        row = dict(json.loads(lines[index]))
        if draw(st.booleans()):
            row.pop(draw(st.sampled_from(sorted(row))))
        else:
            row["extra"] = 1
        lines[index] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return lines, index + 1, field


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    """One directory for every example (a module-scoped fixture, so
    hypothesis does not rebuild it per example)."""
    return tmp_path_factory.mktemp("fuzz")


def _write(directory, payload):
    path = Path(directory) / "trace.jsonl"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text("\n".join(payload) + "\n", encoding="utf-8")
    return path


class TestReplayTraces:
    @FUZZ
    @given(lines=trace_lines())
    def test_canonical_traces_load_and_check(self, trace_dir, lines):
        path = _write(trace_dir, lines)
        assert len(load_trace(path)) == len(lines)

    @FUZZ
    @given(case=broken_trace())
    def test_one_bad_line_is_named(self, trace_dir, case):
        lines, lineno, field = case
        path = _write(trace_dir, lines)
        with pytest.raises(ValueError) as info:
            load_trace(path)
        message = str(info.value)
        assert f"{path}:{lineno}:" in message
        if field is not None:
            assert repr(field) in message

    @FUZZ
    @given(payload=st.binary(max_size=80))
    def test_any_bytes_load_or_raise_value_error(self, trace_dir, payload):
        path = _write(trace_dir, payload)
        try:
            load_trace(path)
        except ValueError as exc:
            assert str(path) in str(exc)

    def test_non_utf8_bytes_name_their_line(self, tmp_path):
        good = json.dumps(GOOD_ROW, sort_keys=True, separators=(",", ":"))
        path = _write(tmp_path, (good + "\n" + good + "\n\xff\n").encode("latin-1"))
        with pytest.raises(ValueError, match=r"trace\.jsonl:3: not UTF-8"):
            load_trace(path)

    def test_deep_nesting_is_a_bad_line_not_a_recursion_error(self, tmp_path):
        path = _write(tmp_path, ["[" * 100_000])
        with pytest.raises(ValueError, match=r"trace\.jsonl:1: bad JSONL"):
            load_trace(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_times_are_rejected(self, tmp_path, value):
        path = _write(tmp_path, [f'{{"session":0,"size":10,"t":{value}}}'])
        with pytest.raises(ValueError, match="'t' is not finite"):
            load_trace(path)

    def test_an_empty_trace_is_not_a_replay(self, tmp_path):
        path = _write(tmp_path, b"\n\n")
        with pytest.raises(ValueError, match="trace has no requests"):
            load_trace(path)
