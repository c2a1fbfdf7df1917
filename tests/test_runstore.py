"""Run-directory files: the JSONL reader, the log probe and atomic writes."""

import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evoloop import IntegrityError, IterationReport, RunStore
from evoloop.runstore import EVENTS_NAME, REPORTS_NAME

from oracles import REPORT_FIELD_TYPES, read_jsonl_reference

values = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(0, 9), max_size=2),
)
record = st.dictionaries(st.text(max_size=3), values, max_size=3).map(
    lambda r: json.dumps(r, sort_keys=True)
)
pad = st.sampled_from(["", " ", "\t", "  "])
REPORT_FIELDS = [f.name for f in fields(IterationReport)]
# a value of each JSON type a report field or member holds
TYPED = {"integer": 3, "number": 0.5, "string": "none", "array": [1], "object": {"a": 1}}


def _typed(name, json_type, member_type):
    """A value of report field ``name`` that the reader takes."""
    if name == "coverage":
        return {"selected": 1, "observed": 2}
    if name == "task_stats_pre":
        return [{"task_type_id": 1, "n_fail": 0}]
    if member_type is None:
        return TYPED[json_type]
    return [TYPED[member_type]] if json_type == "array" else {"a": TYPED[member_type]}


def _report_line(drop, swap, value):
    """A report the reader takes, then field ``drop`` left out and field
    ``swap`` set to ``value`` (-1 for neither)."""
    report = {name: _typed(name, *types) for name, types in REPORT_FIELD_TYPES.items()}
    if swap >= 0:
        report[REPORT_FIELDS[swap]] = value
    if drop >= 0:
        del report[REPORT_FIELDS[drop]]
    return json.dumps(report)


field_index = st.integers(-1, len(REPORT_FIELDS) - 1)
report = st.tuples(field_index, field_index, st.one_of(values, st.booleans())).map(
    lambda t: _report_line(*t)
)


def split_in_two(text, at):
    """``text`` cut into two non-empty lines at a point chosen by ``at``."""
    cut = 1 + at % (len(text) - 1)
    return [text[:cut], text[cut:]]


# each chunk is one or more lines of the file
chunks = st.one_of(
    record.map(lambda r: [r]),
    pad.map(lambda p: [p]),
    st.tuples(pad, record, pad).map(lambda t: ["".join(t)]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8).map(lambda t: [t]),
    st.sampled_from(["3", "[1, 2]", '"s"', "null", "true", "NaN", "-0.5e3"]).map(lambda v: [v]),
    st.tuples(record, pad, record).map(lambda t: ["".join(t)]),
    st.tuples(record, st.integers(0, 40)).map(lambda t: split_in_two(*t)),
    st.sampled_from(["\ufeff{}", "{} x", "{}  ]", '{"a": 1}}', "{", "}"]).map(lambda v: [v]),
    report.map(lambda r: [r]),
    report.map(lambda r: [r]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(chunks, max_size=8).map(lambda cs: [line for c in cs for line in c]))
# a well-typed report, then one whose integer field holds a boolean
@example([_report_line(-1, -1, None), _report_line(-1, 0, True)])
# a coverage without its members, then a task_stats_pre row without its integers
@example([_report_line(-1, REPORT_FIELDS.index("coverage"), {})])
@example([_report_line(-1, REPORT_FIELDS.index("task_stats_pre"), [{"n_fail": 1}])])
def test_jsonl_reader_matches_per_line_json_loads(lines):
    assert list(REPORT_FIELD_TYPES) == REPORT_FIELDS
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        store = RunStore(tmp)
        for name, what, read, keys in (
            (EVENTS_NAME, "event", lambda s: list(s.read_events()), None),
            # a report line must also be an object holding every report
            # field, each of its JSON type, with members of theirs
            (REPORTS_NAME, "report", RunStore.read_reports, REPORT_FIELD_TYPES),
        ):
            path = Path(tmp) / name
            path.write_bytes(text.encode("utf-8"))
            expected, error = read_jsonl_reference(path, what, keys)
            if error is None:
                # dumps compares NaN and tells 1 from 1.0 and True
                assert json.dumps(read(store)) == json.dumps(expected)
            else:
                with pytest.raises(IntegrityError) as info:
                    read(store)
                assert str(info.value) == error


def test_has_events_decodes_no_line(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    assert not store.has_events()
    log = tmp_path / EVENTS_NAME
    log.write_text("\n  \n\t\n")
    assert not store.has_events()
    # bytes that are not UTF-8 are a line too; reading them is what fails
    log.write_bytes(b"\xff\xfe\n")
    assert store.has_events()
    with pytest.raises(IntegrityError, match="in events.log: bytes that are not UTF-8"):
        list(store.read_events())
    decoded = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, *args, **kwargs):
        decoded.append(1)
        return raw_decode(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    log.write_text("\n" + '{"seq":1}\n' * 50)
    assert store.has_events()
    assert decoded == []
    assert len(list(store.read_events())) == 50
    assert len(decoded) == 50


def test_snapshot_write_killed_before_rename_leaves_no_snapshot_file(tmp_path, monkeypatch):
    store = RunStore(tmp_path)
    store.write_snapshot(0, b"{}")

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError):
        store.write_snapshot(1, b'{"a":1}')
    with pytest.raises(OSError):
        store.write_eval("t", {"accuracy": 1.0})
    assert store.snapshot_iterations() == [0]
    assert store.read_evals() == []
    monkeypatch.undo()
    store.discard_partial_writes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap-00000.json"]
