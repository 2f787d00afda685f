"""Hypothesis fuzzing of the checkpoint journal reader.

``--resume`` goes through :meth:`SweepCheckpoint.load`.  The contract
for any journal: no line raises out of ``load()``; a line is a header,
a record whose fields have exactly the types ``record()`` writes
(``str`` experiment and label, an ``int`` seed that is not a ``bool``,
``str`` params digest), or it is skipped.  Nothing is coerced, so a
foreign line cannot resume as a point.
"""

import base64
import json
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.runner.checkpoint import JOURNAL_SCHEMA, SweepCheckpoint
from tests.test_fault_plan_fuzz import FUZZ, json_value

RESULT = base64.b64encode(pickle.dumps({"act": 1.5})).decode("ascii")
GOOD = {
    "experiment": "fig8", "label": "sw2-r0", "seed": 7, "params": "ab", "result": RESULT
}
GOOD_KEY = ("fig8", "sw2-r0", 7, "ab")


def _load(lines):
    """``load()`` of a journal holding ``lines``; (points, header)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "journal.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        ckpt = SweepCheckpoint(path)
        return ckpt.load(), ckpt.header


def _with(**fields):
    """A record for another point, with ``fields`` swapped in."""
    return json.dumps({**GOOD, "label": "hostile", **fields})


@pytest.mark.parametrize(
    "line",
    [
        # each once escaped load() or was coerced into a resumable key
        '{"experiment":"fig8","label":"x","seed":1e400,"params":"","result":"%s"}'
        % RESULT,
        "[" * 100_000,
        _with(seed=1.9),
        _with(seed=True),
        _with(seed="7"),
        _with(experiment=3),
        _with(label=None),
        _with(params=5),
    ],
    ids=["seed-1e400", "nested-100000", "seed-1.9", "seed-true", "seed-str",
         "experiment-int", "label-null", "params-int"],
)
def test_known_hostile_lines_are_skipped(line):
    points, _ = _load([line, json.dumps(GOOD)])
    assert points == {GOOD_KEY: {"act": 1.5}}


def test_header_with_a_schedule_key_still_loads():
    # Journals written before the submission-order change carried one.
    header = {"schema": JOURNAL_SCHEMA, "backend": "process", "jobs": 2,
              "schedule": "lpt"}
    points, loaded = _load([json.dumps(header), json.dumps(GOOD)])
    assert loaded == header
    assert points == {GOOD_KEY: {"act": 1.5}}


@FUZZ
@given(value=json_value)
def test_any_json_line_loads_or_is_skipped(value):
    points, _ = _load([json.dumps(value), json.dumps(GOOD)])
    assert points == {GOOD_KEY: {"act": 1.5}}


@FUZZ
@given(text=st.text(max_size=40))
def test_any_text_line_loads_or_is_skipped(text):
    points, _ = _load([text.replace("\n", " "), json.dumps(GOOD)])
    assert GOOD_KEY in points


@FUZZ
@given(
    fields=st.fixed_dictionaries(
        {},
        optional={
            "experiment": json_value,
            "label": json_value,
            "seed": json_value,
            "params": json_value,
        },
    )
)
def test_a_record_resumes_only_with_the_written_types(fields):
    record = {**fields, "result": RESULT}
    points, _ = _load([json.dumps(record)])
    params = record.get("params", "")
    well_typed = (
        isinstance(record.get("experiment"), str)
        and isinstance(record.get("label"), str)
        and type(record.get("seed")) is int
        and isinstance(params, str)
    )
    if well_typed:
        key = (record["experiment"], record["label"], record["seed"], params)
        assert points == {key: {"act": 1.5}}
    else:
        assert points == {}


@FUZZ
@given(
    experiment=st.text(max_size=8),
    label=st.text(max_size=8),
    seed=st.integers(0, 2**64),
    params=st.text(max_size=8),
)
def test_written_records_round_trip(experiment, label, seed, params):
    with tempfile.TemporaryDirectory() as tmp:
        with SweepCheckpoint(Path(tmp) / "journal.jsonl") as ckpt:
            ckpt.record(experiment, label, seed, [seed, 0.1], params)
            assert ckpt.load() == {(experiment, label, seed, params): [seed, 0.1]}
