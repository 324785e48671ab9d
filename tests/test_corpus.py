import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvpipe.corpus import (CONTEXT_LABELS, FilterReport, SchemaConfig,
                            filter_cohort, load_annotations)
from usvpipe.exceptions import (AnnotationParseError, PipelineError,
                                SchemaMismatchError)


@pytest.fixture
def schema(tmp_path):
    payload = {
        "delimiter": ",",
        "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                    "file": "wav", "duration": "dur"},
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
        assert (rec.id, rec.emitter, rec.context, rec.duration_s) == \
            ("a1", "b-17", "fighting", 0.4)

    def test_byte_order_mark_is_not_part_of_the_first_column(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # "CSV UTF-8" export
        assert load_annotations(path, schema)[0].id == "a1"

    def test_unmapped_code_becomes_unknown(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,99,x.wav,0.4"])
        assert load_annotations(path, schema)[0].context == "unknown"

    def test_missing_required_column(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,7,x.wav,0.4"],
                                 header="uid,ctx,wav,dur")
        with pytest.raises(SchemaMismatchError):
            load_annotations(path, schema)

    def test_malformed_row_reports_line_number(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,0.4",
                                            "a2,b-18,3,y.wav,not-a-number"])
        with pytest.raises(AnnotationParseError) as err:
            load_annotations(path, schema)
        assert err.value.row_number == 3  # header is line 1

    def test_wrong_field_count_reports_line_number(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav"])
        with pytest.raises(AnnotationParseError) as err:
            load_annotations(path, schema)
        assert err.value.row_number == 2

    def test_nonpositive_duration_rejected(self, tmp_path, schema):
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav,-0.5"])
        with pytest.raises(AnnotationParseError):
            load_annotations(path, schema)

    @pytest.mark.parametrize("row", [
        "a1,b-17,7,nan,,", "a1,b-17,7,-nan,,", "a1,b-17,7,inf,,",
        "a1,b-17,7,1e400,,", "a1,b-17,7,,nan,1.0"])
    def test_nonfinite_duration_rejected(self, tmp_path, row):
        raw = {
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "duration": "dur", "start": "t0", "end": "t1"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        path = write_annotations(tmp_path, [row], header="uid,bat,ctx,dur,t0,t1")
        with pytest.raises(AnnotationParseError, match="annotations.csv:2: ") as err:
            load_annotations(path, SchemaConfig.from_json(schema_path))
        assert err.value.row_number == 2

    def test_start_end_duration(self, tmp_path):
        raw = {
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "start": "t0", "end": "t1"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        schema = SchemaConfig.from_json(schema_path)
        path = write_annotations(tmp_path, ["a1,b-17,7,10.5,11.25"],
                                 header="uid,bat,ctx,t0,t1")
        assert load_annotations(path, schema)[0].duration_s == 0.75

    def test_comment_lines_skipped(self, tmp_path, schema):
        path = tmp_path / "annotations.csv"
        path.write_text("# provenance\nuid,bat,ctx,wav,dur\na1,b-17,7,x.wav,0.4\n")
        assert len(load_annotations(path, schema)) == 1

    def test_tab_delimited_annotations(self, tmp_path):
        raw = {
            "delimiter": "\t",
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "duration": "dur"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        schema = SchemaConfig.from_json(schema_path)
        path = tmp_path / "annotations.tsv"
        path.write_text("uid\tbat\tctx\tdur\na1\tb-17\t7\t0.4\n")
        records = load_annotations(path, schema)
        assert records[0].context == "fighting"
        assert records[0].duration_s == 0.4


def _fuzzed_table(delimiter):
    """An annotation table whose fields are plain text or junk that mixes
    random text, the delimiter, quotes and '#', with '#' lines between rows.
    Durations, and the start and end times used when the duration is
    blank, are floats written with repr, blanks or fields."""
    plain = st.text(st.characters(codec="utf-8",
                                  exclude_characters=delimiter + '"#\r\n'),
                    max_size=4)
    junk = st.lists(st.one_of(st.text(max_size=4),
                              st.sampled_from([delimiter, '"', "#", "#" + delimiter])),
                    max_size=3).map("".join)
    field = st.one_of(plain, plain, junk)
    time = st.one_of(st.floats().map(repr), st.floats().map(repr), st.just(""),
                     field)
    row = st.tuples(field, field, st.one_of(st.just("7"), field), time, time, time)
    line = st.one_of(row.map(delimiter.join), row.map(delimiter.join),
                     field.map(lambda text: "#" + text))
    header = delimiter.join(["uid", "bat", "ctx", "dur", "t0", "t1"])
    return st.lists(line, max_size=8).map(
        lambda lines: "\n".join([header] + lines) + "\n")


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_fuzzed_tables_give_valid_durations_or_pipeline_errors(tmp_path_factory,
                                                              data):
    delimiter = data.draw(st.sampled_from([",", "\t", ";"]))
    schema = SchemaConfig(
        id_column="uid", emitter_column="bat", context_column="ctx",
        context_map={"7": "fighting"}, emitter_placeholders=frozenset(),
        duration_column="dur", start_column="t0", end_column="t1",
        delimiter=delimiter)
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(data.draw(_fuzzed_table(delimiter)), encoding="utf-8")
    try:
        records = load_annotations(path, schema)
    except PipelineError:
        return
    for rec in records:
        assert rec.duration_s is None or (math.isfinite(rec.duration_s)
                                          and rec.duration_s > 0), rec


class TestFilterCohort:
    def records(self, tmp_path, schema):
        rows = [
            "keep1,b-17,7,x.wav,0.4",      # retained
            "keep2,b-18,3,y.wav,3.0",      # exactly 3 s: retained
            "drop_unknown,b-17,99,z.wav,0.4",
            "drop_landing,b-17,11,z.wav,0.4",
            "drop_placeholder,0,7,z.wav,0.4",
            "drop_empty,,7,z.wav,0.4",
            "drop_long,b-17,7,z.wav,3.5",
        ]
        return load_annotations(write_annotations(tmp_path, rows), schema)

    def test_rules_and_counts(self, tmp_path, schema):
        records = self.records(tmp_path, schema)
        cohort, report = filter_cohort(records, schema.emitter_placeholders)
        assert sorted(u.id for u in cohort) == ["keep1", "keep2"]
        assert report.unknown_context == 1
        assert report.landing == 1
        assert report.unidentified_emitter == 2
        assert report.too_long == 1
        assert report.total_in - report.dropped == report.retained == 2

    def test_post_filter_labels_admissible(self, tmp_path, schema):
        cohort, _ = filter_cohort(self.records(tmp_path, schema),
                                  schema.emitter_placeholders)
        assert {u.context for u in cohort} <= set(CONTEXT_LABELS)

    def test_idempotent_and_order_independent(self, tmp_path, schema):
        records = self.records(tmp_path, schema)
        cohort1, _ = filter_cohort(records, schema.emitter_placeholders)
        cohort2, report2 = filter_cohort(
            [r for r in records if r.id in {u.id for u in cohort1}][::-1],
            schema.emitter_placeholders)
        assert {u.id for u in cohort2} == {u.id for u in cohort1}
        assert report2.dropped == 0

    def test_duration_from_wav_when_annotation_lacks_it(self, tmp_path):
        raw = {
            "columns": {"id": "uid", "emitter": "bat", "context": "ctx",
                        "file": "wav"},
            "context_map": {"7": "fighting"},
        }
        schema_path = tmp_path / "s.json"
        schema_path.write_text(json.dumps(raw))
        schema = SchemaConfig.from_json(schema_path)
        from conftest import write_raw_wav
        import struct
        write_raw_wav(tmp_path / "x.wav", sample_rate=10_000,
                      payload=struct.pack("<5000h", *([0] * 5000)))
        path = write_annotations(tmp_path, ["a1,b-17,7,x.wav"],
                                 header="uid,bat,ctx,wav")
        cohort, _ = filter_cohort(load_annotations(path, schema),
                                  audio_root=tmp_path)
        assert cohort[0].duration_s == 0.5


def test_filter_report_rows_roundtrip(tmp_path):
    report = FilterReport(total_in=10, unknown_context=1, landing=2,
                          unidentified_emitter=3, too_long=0, retained=4)
    from usvpipe.corpus import write_filter_report
    path = tmp_path / "report.csv"
    write_filter_report(path, report, comment="x")
    text = path.read_text()
    assert "landing,2" in text and "retained,4" in text
