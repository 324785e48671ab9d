import csv
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe.artifacts import write_table
from usvpipe.corpus import (CONTEXT_LABELS, FILTER_RULES, SchemaConfig,
                            filter_cohort, load_annotations)


@pytest.fixture
def schema(tmp_path):
    payload = {
        "delimiter": ",",
        "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                    "file": "wav"},
        "context_map": {"7": "fighting", "3": "feeding", "11": "landing",
                        "lone": "isolation"},
        "emitter_placeholders": ["0", "-1"],
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    return SchemaConfig.from_json(path)


def write_annotations(tmp_path, rows, header="uid,bat,ctx,wav,dur"):
    path = tmp_path / "annotations.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestLoadAnnotations:
    def test_mapped_row(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4"])
        records = load_annotations(path, schema)
        assert len(records) == 1
        rec = records[0]
        assert (rec.utterance_id, rec.emitter_id, rec.context,
                rec.audio_path) == ("a1", "b-17", "fighting", Path("x.wav"))

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # "CSV UTF-8" export
        assert load_annotations(path, schema)[0].utterance_id == "a1"

    def test_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4", "a2,b-18,3,y.wav,0.5"])
        latin1 = path.read_bytes().replace(b"y.wav", b"caf\xe9.wav")
        path.write_bytes(b"\xef\xbb\xbf" + latin1)
        with pytest.raises(ValueError,
                           match=r"annotations\.csv:3: not UTF-8 text: .* byte 0xe9"):
            load_annotations(path, schema)

    def test_unmapped_code_becomes_unknown(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,99,x.wav,0.4"])
        assert load_annotations(path, schema)[0].context == "unknown"

    def test_empty_file(self, tmp_path, schema):
        path = tmp_path / "annotations.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"annotations\.csv: empty annotation file"):
            load_annotations(path, schema)

    def test_missing_required_column(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,7,x.wav,0.4"],
                                 header="uid,ctx,wav,dur")
        with pytest.raises(ValueError,
                           match=r"annotations\.csv: required column 'bat' not found"):
            load_annotations(path, schema)

    def test_mapped_column_named_twice_names_path_line_and_column(self, tmp_path,
                                                                  schema):
        path = write_annotations(tmp_path, ["# notes", "uid,bat,ctx,wav,ctx",
                                            "a1,b-17,3,x.wav,7"], header="# export")
        with pytest.raises(ValueError, match=r"annotations\.csv:3: the header names "
                                             r"column 'ctx' more than once"):
            load_annotations(path, schema)
        # a column the schema does not map may repeat
        path = write_annotations(tmp_path, ["a1,b-17,3,x.wav,0.4,0.5"],
                                 header="uid,bat,ctx,wav,dur,dur")
        assert load_annotations(path, schema)[0].context == "feeding"

    def test_malformed_row_reports_line_number(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4",
                                            ",b-18,3,y.wav,0.5"])
        with pytest.raises(ValueError, match=r"annotations\.csv:3: "):
            load_annotations(path, schema)  # the header is line 1

    def test_wrong_field_count_reports_line_number(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav"])
        with pytest.raises(ValueError, match=r"annotations\.csv:2: "):
            load_annotations(path, schema)

    def test_start_end_duration(self, tmp_path):
        # start/end cells say nothing about a length, whatever unit they are
        # in, and the filter opens no file: the stage's load_wav decides
        raw = {
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "file": "wav", "start": "t0", "end": "t1"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        schema = SchemaConfig.from_json(schema_path)
        path = write_annotations(tmp_path, ["a1,b-17,7,short.wav,10000,60000",
                                            "a2,b-17,7,long.wav,10.5,11.25"],
                                 header="uid,bat,ctx,wav,t0,t1")
        cohort, report = filter_cohort(load_annotations(path, schema),
                                       schema.emitter_placeholders, tmp_path)
        assert [u.utterance_id for u in cohort] == ["a1", "a2"]
        assert report["too_long"] == 0

    def test_comment_lines_skipped(self, tmp_path, schema):
        path = tmp_path / "annotations.csv"
        path.write_text("# provenance\nuid,bat,ctx,wav,dur\na1,b-17,7,x.wav,0.4\n")
        assert len(load_annotations(path, schema)) == 1

    def test_tab_delimited_annotations(self, tmp_path):
        raw = {
            "delimiter": "\t",
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "file": "wav", "duration": "dur"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        schema = SchemaConfig.from_json(schema_path)
        path = tmp_path / "annotations.tsv"
        path.write_text("uid\tbat\tctx\twav\tdur\na1\tb-17\t7\tx.wav\t0.4\n")
        records = load_annotations(path, schema)
        assert records[0].context == "fighting"
        assert records[0].audio_path == Path("x.wav")


# complaint: a regular expression.  Python 3.10's csv module refuses a NUL
# itself, so the NUL case names that instead.
@pytest.mark.parametrize("uid, complaint", [
    pytest.param("", "utterance id '' is blank", id="blank"),
    pytest.param("  ", "utterance id '' is blank", id="spaces"),
    ("../../escaped", r"utterance id '\.\./\.\./escaped' is not a plain file name"),
    ("a/b", "utterance id 'a/b' is not a plain file name"),
    ("a\\b", r"utterance id 'a\\\\b' is not a plain file name"),
    ("a\0b", r"(utterance id 'a\\x00b' is not a plain file name|line contains NUL)"),
    (".", r"utterance id '\.' is not a plain file name"),
    ("..", r"utterance id '\.\.' is not a plain file name")])
def test_id_that_cannot_name_a_file_rejected(tmp_path, schema, uid, complaint):
    path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4",
                                        f"{uid},b-18,3,y.wav,0.5"])
    with pytest.raises(ValueError, match=r"annotations\.csv:3: " + complaint):
        load_annotations(path, schema)


def test_repeated_id_names_both_lines(tmp_path, schema):
    path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4", "a2,b-18,3,y.wav,0.5",
                                        " a1 ,b-19,3,z.wav,0.5"])
    with pytest.raises(ValueError, match=re.escape(
            "annotations.csv:4: utterance id 'a1' is already used on line 2")):
        load_annotations(path, schema)


_SCHEMA = {"columns": {"id": "uid", "emitter": "bat", "context": "ctx", "file": "wav"},
           "context_map": {"7": "fighting"}, "emitter_placeholders": ["0"],
           "delimiter": ","}


def test_schema_must_hold_an_object(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('["x"]')
    with pytest.raises(ValueError, match=re.escape(f"{path}: a schema must hold a "
                                                   "JSON object")):
        SchemaConfig.from_json(path)


def test_schema_keeps_only_column_roles(tmp_path, caplog):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_SCHEMA))
    SchemaConfig.from_json(path)
    assert caplog.records == []
    path.write_text(json.dumps({**_SCHEMA, "columns": {
        **_SCHEMA["columns"], "duration": "dur", "start": "t0", "end": "t1",
        "notes": "remarks"}}))
    schema = SchemaConfig.from_json(path)
    assert schema.columns == _SCHEMA["columns"]
    # one warning names the file and every role that is never read
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", f"{path}: schema column roles ['duration', 'end', 'notes', "
                    "'start'] are never read")]
    # a role the schema names must be in the header; an ignored key need not
    annotations = write_annotations(tmp_path, ["a1,b-17,7,x.wav"],
                                    header="uid,bat,ctx,wav")
    assert load_annotations(annotations, schema)[0].utterance_id == "a1"


def test_schema_context_map_target_outside_the_labels(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**_SCHEMA, "context_map": {"7": "fighting",
                                                           "8": "dancing"}}))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: context_map targets unknown labels: ['dancing']")):
        SchemaConfig.from_json(path)


@pytest.mark.parametrize("key, value, what", [
    ("columns", ["uid"], "an object of strings"),
    ("columns", {**_SCHEMA["columns"], "id": 3}, "an object of strings"),
    ("context_map", [["7", "fighting"]], "an object"),
    ("emitter_placeholders", "unknown", "a list"),
    ("delimiter", ";;", "a single character"),
    ("delimiter", "", "a single character"),
    ("delimiter", 9, "a single character"),
])
def test_schema_value_of_the_wrong_type_names_the_key(tmp_path, key, value, what):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_SCHEMA))
    SchemaConfig.from_json(path)
    path.write_text(json.dumps({**_SCHEMA, key: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: schema key '{key}' "
                                                   f"must be {what}")):
        SchemaConfig.from_json(path)


def _fuzzed_table(delimiter):
    """An annotation table whose fields are plain text or junk that mixes
    random text, the delimiter, quotes and '#', with '#' lines between rows.
    The unmapped duration and start and end columns hold floats written
    with repr, blanks or fields.  Each line ends in its own plain id, so a
    row is refused for its other fields only."""
    plain = st.text(st.characters(codec="utf-8",
                                  exclude_characters=delimiter + '"#\r\n'),
                    max_size=4)
    junk = st.lists(st.one_of(st.text(max_size=4),
                              st.sampled_from([delimiter, '"', "#", "#" + delimiter])),
                    max_size=3).map("".join)
    field = st.one_of(plain, plain, junk)
    time = st.one_of(st.floats().map(repr), st.floats().map(repr), st.just(""),
                     field)
    row = st.tuples(field, field, st.one_of(st.just("7"), field), field, time, time,
                    time)
    line = st.one_of(row.map(delimiter.join), row.map(delimiter.join),
                     field.map(lambda text: "#" + text))
    header = delimiter.join(["tag", "bat", "ctx", "wav", "dur", "t0", "t1", "uid"])
    return st.lists(line, max_size=8).map(lambda lines: "\n".join(
        [header] + [f"{text}{delimiter}u{i}" for i, text in enumerate(lines)]) + "\n")


_FUZZED_TABLES = {delimiter: _fuzzed_table(delimiter) for delimiter in ",\t;"}


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_fuzzed_tables_load_or_raise_pipeline_errors(tmp_path_factory, data):
    delimiter = data.draw(st.sampled_from([",", "\t", ";"]))
    schema = SchemaConfig(
        columns={"id": "uid", "emitter": "bat", "context": "ctx", "file": "wav"},
        context_map={"7": "fighting"}, emitter_placeholders=frozenset(),
        delimiter=delimiter)
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(data.draw(_FUZZED_TABLES[delimiter]), encoding="utf-8")
    try:
        load_annotations(path, schema)
    except ValueError as exc:  # the table's own errors name it
        assert str(exc).startswith(f"{path}:"), exc


def test_quoted_line_break_stays_in_its_row(tmp_path, schema):
    rows = ['a1,b-17,7,x.wav,0.4,"seen at 21:00,\nthen again"', "a2,b-18,3,y.wav,0.5,"]
    header = "uid,bat,ctx,wav,dur,notes"
    path = write_annotations(tmp_path, rows, header=header)
    assert [r.utterance_id for r in load_annotations(path, schema)] == ["a1", "a2"]
    # a1 spans lines 2 and 3, so the bad id of a/3 is on line 5
    path = write_annotations(tmp_path, rows + ["a/3,b-19,3,z.wav,0.5,"], header=header)
    with pytest.raises(ValueError, match=r"annotations\.csv:5: "):
        load_annotations(path, schema)


def test_hash_prefixed_id_after_the_header_is_a_row(tmp_path, schema):
    path = write_annotations(tmp_path, ["#a1,b-17,7,x.wav,0.4", "a2,b-18,3,y.wav,0.5"])
    records = load_annotations(path, schema)
    assert [r.utterance_id for r in records] == ["#a1", "a2"]
    _, report = filter_cohort(records, schema.emitter_placeholders, tmp_path)
    assert report["total_in"] == report["retained"] == 2


def test_csv_error_names_path_and_line(tmp_path, schema):
    too_wide = "x" * (csv.field_size_limit() + 1)
    path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4",
                                        f"a2,b-18,3,{too_wide},0.5"])
    with pytest.raises(ValueError, match=r"annotations\.csv:3: field larger"):
        load_annotations(path, schema)


_TRICKY = ",", '"', "\n", "\r", "\r\n", "#"


def _tricky_text():
    """Text that mixes plain characters with the delimiter, quotes, line
    breaks and '#', sometimes with a leading '#'."""
    text = st.lists(st.one_of(st.text(st.characters(codec="utf-8"), max_size=3),
                              st.sampled_from(_TRICKY)), max_size=4).map("".join)
    return st.one_of(text, text.map(lambda t: "#" + t))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_tricky_text(), _tricky_text(),
                               st.one_of(st.sampled_from(["7", "3", "99"]),
                                         _tricky_text()),
                               _tricky_text(), _tricky_text()), max_size=6))
def test_written_tables_read_back_field_for_field(tmp_path_factory, rows):
    # an id must be a non-blank, unique plain file name: no path characters,
    # and the row index appended
    rows = [(uid.translate({ord(c): None for c in "/\\\0"}) + f"|{i}", *rest)
            for i, (uid, *rest) in enumerate(rows)]
    schema = SchemaConfig(columns={"id": "uid", "emitter": "bat", "context": "ctx",
                                   "file": "wav"},
                          context_map={"7": "fighting", "3": "feeding"},
                          emitter_placeholders=frozenset())
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    write_table(path, ("uid", "bat", "ctx", "wav", "notes"), rows, comment="stamp")
    records = load_annotations(path, schema)
    assert [(r.utterance_id, r.emitter_id, r.context, r.audio_path)
            for r in records] == [
        (uid.strip(), bat.strip(), schema.context_map.get(ctx.strip(), "unknown"),
         Path(wav.strip())) for uid, bat, ctx, wav, _notes in rows]


class TestFilterCohort:
    def records(self, tmp_path, schema):
        # no WAV is written: the filter opens no file
        rows = [
            "keep1,b-17,7,x.wav,0.4",
            "keep2,b-18,3,y.wav,9.9",      # the duration cell is not read
            "drop_unknown,b-17,99,z.wav,0.4",
            "drop_landing,b-17,11,z.wav,0.4",
            "drop_placeholder,0,7,z.wav,0.4",
            "drop_empty,,7,z.wav,0.4",
        ]
        return load_annotations(write_annotations(tmp_path, rows), schema)

    def test_rules_and_counts(self, tmp_path, schema):
        records = self.records(tmp_path, schema)
        cohort, report = filter_cohort(records, schema.emitter_placeholders, tmp_path)
        assert sorted(u.utterance_id for u in cohort) == ["keep1", "keep2"]
        assert sorted(u.audio_path for u in cohort) == [tmp_path / "x.wav",
                                                        tmp_path / "y.wav"]
        assert report == {"total_in": 6, "unknown_context": 1, "landing": 1,
                          "unidentified_emitter": 2, "too_long": 0, "retained": 2}
        assert list(report) == ["total_in", *FILTER_RULES, "retained"]

    def test_post_filter_labels_admissible(self, tmp_path, schema):
        cohort, _ = filter_cohort(self.records(tmp_path, schema),
                                  schema.emitter_placeholders, tmp_path)
        assert {u.context for u in cohort} <= set(CONTEXT_LABELS)

    def test_idempotent_and_order_independent(self, tmp_path, schema):
        records = self.records(tmp_path, schema)
        cohort1, _ = filter_cohort(records, schema.emitter_placeholders, tmp_path)
        kept = {u.utterance_id for u in cohort1}
        cohort2, report2 = filter_cohort(
            [r for r in records if r.utterance_id in kept][::-1],
            schema.emitter_placeholders, tmp_path)
        assert {u.utterance_id for u in cohort2} == kept
        assert sum(report2[rule] for rule in FILTER_RULES) == 0
