"""Hypothesis fuzzing of the fault-plan parser.

``--fault-plan FILE`` goes through :meth:`FaultPlan.from_json`.  The
contract for any input: it parses, or it raises a ``ValueError``; an
error about one event names its index, its kind and the offending
field.  No other exception type escapes, and the command line turns
each such error into exit status 2 with ``--fault-plan <file>: ...``.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments import __main__ as cli
from repro.faults import FaultPlan
from repro.faults.plan import EVENT_KINDS

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: a valid value for each field, by name.
VALID = {
    "time": st.floats(min_value=0.0, max_value=10.0),
    "link": st.sampled_from(["*", "sw->frontend", "server*->sw"]),
    "rate": st.floats(min_value=1e-6, max_value=1.0),
    "duration": st.floats(min_value=1e-6, max_value=10.0),
    "mean_s": st.floats(min_value=1e-6, max_value=1.0),
    "pkts": st.integers(1, 1000),
    "flows": st.integers(1, 64),
}
#: values of the right JSON type that a field's range rejects.
OUT_OF_RANGE = {
    "time": [-1.0, -1e-9],
    "link": [""],
    "rate": [0.0, -0.5, 1.5],
    "duration": [0.0, -1.0],
    "mean_s": [0.0, -1e-3],
    "pkts": [0, -3],
    "flows": [0, -1],
}
#: values of the wrong JSON type, by the field's declared type.
WRONG_TYPE = {
    "float": ["0.1", None, True, [], {}],
    "int": [2.5, "3", None, False, 1e400],
    "str": [5, None, [], True],
}
NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]
#: each field's declared type ("float", "int" or "str"), by name.
FIELD_TYPES = {
    field.name: field.type
    for cls in EVENT_KINDS.values()
    for field in cls.__dataclass_fields__.values()
}


@st.composite
def valid_event(draw):
    kind = draw(st.sampled_from(sorted(EVENT_KINDS)))
    event_cls = EVENT_KINDS[kind]
    kwargs = {
        name: draw(VALID[name])
        for name in event_cls.__dataclass_fields__
        if name == "time" or draw(st.booleans())
    }
    return event_cls(**kwargs)


valid_plan = st.lists(valid_event(), max_size=6).map(FaultPlan.of)


@st.composite
def broken_plan(draw):
    """A plan's JSON with one bad event; returns (text, its index, its
    kind, the name the error must carry)."""
    plan = draw(st.lists(valid_event(), min_size=1, max_size=5).map(FaultPlan.of))
    records = json.loads(plan.to_json())["events"]
    index = draw(st.integers(0, len(records) - 1))
    record = records[index]
    kind = record["kind"]
    fault = draw(st.sampled_from(
        ["kind", "unknown", "missing_time", "wrong_type", "out_of_range", "non_finite"]
    ))
    if fault == "kind":
        bad = draw(st.from_regex(r"[a-z][a-z_]{0,9}", fullmatch=True).filter(
            lambda name: name not in EVENT_KINDS
        ))
        record["kind"] = bad
        return json.dumps({"events": records}), index, None, bad
    if fault == "unknown":
        extra = draw(st.from_regex(r"[a-z][a-z_]{0,7}", fullmatch=True).filter(
            lambda name: name not in record
        ))
        record[extra] = 1
        return json.dumps({"events": records}), index, kind, extra
    if fault == "missing_time":
        del record["time"]
        return json.dumps({"events": records}), index, kind, "time"
    field = draw(st.sampled_from(sorted(set(record) - {"kind"})))
    if fault == "wrong_type":
        value = draw(st.sampled_from(WRONG_TYPE[FIELD_TYPES[field]]))
    elif fault == "out_of_range":
        value = draw(st.sampled_from(OUT_OF_RANGE[field]))
    else:
        if FIELD_TYPES[field] != "float":
            field = "time"
        value = draw(st.sampled_from(NON_FINITE))
    record[field] = value
    return json.dumps({"events": records}), index, kind, field


json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)


@st.composite
def event_shaped(draw):
    """A record with a real kind and arbitrary values for real fields,
    so the fuzz reaches the per-field checks."""
    names = draw(st.sets(st.sampled_from(sorted(FIELD_TYPES))))
    record = {name: draw(json_value) for name in names}
    record["kind"] = draw(st.sampled_from(sorted(EVENT_KINDS)))
    return record


class TestFromJson:
    @FUZZ
    @given(plan=valid_plan)
    def test_well_formed_plans_round_trip(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    @FUZZ
    @given(case=broken_plan())
    def test_one_bad_event_names_its_culprit(self, case):
        text, index, kind, culprit = case
        with pytest.raises(ValueError) as info:
            FaultPlan.from_json(text)
        message = str(info.value)
        assert f"fault event {index}" in message
        if kind is not None:
            assert f"({kind})" in message
        assert culprit in message

    @FUZZ
    @given(text=st.text(max_size=80))
    def test_any_text_parses_or_raises_value_error(self, text):
        try:
            FaultPlan.from_json(text)
        except ValueError as exc:
            assert str(exc)

    @FUZZ
    @given(document=json_value | st.lists(event_shaped(), max_size=3))
    def test_any_json_parses_or_raises_value_error(self, document):
        for text in (json.dumps(document), json.dumps({"events": document})):
            try:
                FaultPlan.from_json(text)
            except ValueError as exc:
                assert str(exc)


#: inputs the parser once accepted or failed on without naming a field.
BAD_PLANS = [
    ('[{"kind":"loss_burst","time":0.1,"duration":NaN}]', "(loss_burst): 'duration'"),
    ('[{"kind":"loss_burst","time":0.1,"duration":1e400}]', "(loss_burst): 'duration'"),
    ('[{"kind":"delay_jitter","time":0.1,"mean_s":NaN}]', "(delay_jitter): 'mean_s'"),
    ('[{"kind":"buffer_resize","time":0.1,"pkts":2.5}]', "(buffer_resize): 'pkts'"),
    ('[{"kind":"link_down","time":true}]', "(link_down): 'time'"),
    ('[{"kind":"link_down","time":0.1,"link":5}]', "(link_down): 'link'"),
    ('[{"kind":"link_down","time":"0.1"}]', "(link_down): 'time'"),
    ('{"events": 5}', "'events'"),
    ("[" * 100_000, "nests too deeply"),
]


class TestKnownHoles:
    @pytest.mark.parametrize("text, fragment", BAD_PLANS)
    def test_rejected_with_a_name(self, text, fragment):
        with pytest.raises(ValueError) as info:
            FaultPlan.from_json(text)
        assert fragment in str(info.value)

    @pytest.mark.parametrize("text, fragment", BAD_PLANS)
    def test_cli_exits_2_naming_the_file(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["faults", "--fault-plan", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--fault-plan {path}: " in err
        assert fragment in err
