"""Hypothesis fuzzing of the ``--hosts`` host-file parser.

``--hosts FILE`` goes through :func:`parse_hosts`.  The contract for any
file: it parses, or it raises a ``ValueError``; an error about one
entry names its index and the offending field.  No other exception
type escapes.  Every test here calls ``parse_hosts`` alone: no fleet is
opened and no worker is spawned.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.runner.dispatch.hosts import DEFAULT_SPAWN, HostSpec, parse_hosts
from tests.test_fault_plan_fuzz import FUZZ, json_value

names = st.from_regex(r"[a-z][a-z0-9-]{0,7}", fullmatch=True)
spawns = st.lists(st.text(max_size=6), min_size=1, max_size=4)


@st.composite
def valid_hosts(draw):
    """A well-formed host file as JSON records."""
    host_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    records = []
    for name in host_names:
        record = {"name": name}
        if draw(st.booleans()):
            record["workers"] = draw(st.integers(1, 64))
        if draw(st.booleans()):
            record["spawn"] = draw(spawns)
        records.append(record)
    return records


#: values of a field that the parser must reject.
BAD_VALUES = {
    "name": ["", 3, None, True, [], {}],
    "workers": [0, -1, True, False, 2.5, "3", None, 1e400, float("nan"), []],
    "spawn": [[], "ssh", [1], ["ssh", None], {}, None],
}


@st.composite
def broken_hosts(draw):
    """A host file with one bad entry; returns (text, its index, the
    name the error must carry)."""
    records = draw(valid_hosts())
    index = draw(st.integers(0, len(records) - 1))
    fault = draw(st.sampled_from(["entry", "unknown", "duplicate", *BAD_VALUES]))
    if fault == "entry":
        records[index] = draw(st.sampled_from([5, "a", None, [], True]))
        return json.dumps(records), index, "objects"
    if fault == "unknown":
        records[index]["cpus"] = 4
        return json.dumps(records), index, "cpus"
    if fault == "duplicate":
        if index == 0:
            records.append(dict(records[0]))
            index = len(records) - 1
        else:
            records[index]["name"] = records[0]["name"]
        return json.dumps(records), index, "'name'"
    if fault == "name":
        del records[index]["name"]
        if draw(st.booleans()):
            records[index]["name"] = draw(st.sampled_from(BAD_VALUES["name"]))
    else:
        records[index][fault] = draw(st.sampled_from(BAD_VALUES[fault]))
    return json.dumps(records), index, f"'{fault}'"


@st.composite
def entry_shaped(draw):
    """A record with real keys and arbitrary values, so the fuzz reaches
    the per-field checks."""
    keys = draw(st.sets(st.sampled_from(["name", "workers", "spawn"])))
    return {key: draw(json_value) for key in keys}


@pytest.fixture(scope="module")
def host_file(tmp_path_factory):
    """Write ``text`` to a host file and return its path."""
    path = tmp_path_factory.mktemp("hosts") / "hosts.json"

    def write(text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _parses_or_names_itself(path):
    try:
        hosts = parse_hosts(path)
    except ValueError as exc:
        assert str(exc)
    else:
        assert hosts and all(isinstance(h, HostSpec) for h in hosts)


class TestHostFile:
    @FUZZ
    @given(records=valid_hosts())
    def test_well_formed_files_parse_to_their_records(self, host_file, records):
        hosts = parse_hosts(host_file(json.dumps(records)))
        assert hosts == [
            HostSpec(
                r["name"], r.get("workers", 1), tuple(r.get("spawn", DEFAULT_SPAWN))
            )
            for r in records
        ]

    @FUZZ
    @given(case=broken_hosts())
    def test_one_bad_entry_names_its_index_and_field(self, host_file, case):
        text, index, culprit = case
        with pytest.raises(ValueError) as info:
            parse_hosts(host_file(text))
        message = str(info.value)
        assert f"host {index}: " in message
        assert culprit in message

    @FUZZ
    @given(text=st.text(max_size=80))
    def test_any_text_parses_or_raises_value_error(self, host_file, text):
        _parses_or_names_itself(host_file(text))

    @FUZZ
    @given(document=json_value | st.lists(entry_shaped(), max_size=3))
    def test_any_json_parses_or_raises_value_error(self, host_file, document):
        _parses_or_names_itself(host_file(json.dumps(document)))


#: host files the parser once accepted with a coerced value or failed
#: on with an uncaught exception.
BAD_HOST_FILES = [
    ('[{"name": "a", "workers": true}]', "host 0: 'workers'"),
    ('[{"name": "a", "workers": 2.5}]', "host 0: 'workers'"),
    ('[{"name": "a", "workers": "3"}]', "host 0: 'workers'"),
    ('[{"name": 3}]', "host 0: 'name'"),
    ('[{"name": "a"}, {"name": "b", "workers": 1e400}]', "host 1: 'workers'"),
    ("[" * 100_000, "nests too deeply"),
]


class TestKnownHoles:
    @pytest.mark.parametrize("text, fragment", BAD_HOST_FILES)
    def test_rejected_with_a_name(self, host_file, text, fragment):
        with pytest.raises(ValueError) as info:
            parse_hosts(host_file(text))
        assert fragment in str(info.value)
