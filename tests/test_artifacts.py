import csv
import os
import re
import stat

import pytest

from usvpipe.artifacts import read_json, read_table, write_atomic, write_json, write_table

COLUMNS = {"utterance_id": str, "reason": str}
HEADER = tuple(COLUMNS)


def test_roundtrip_stamp_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, [("u1", "too_short"), ("u2", "a,b")], comment="stamp")
    assert path.read_bytes() == b'# stamp\nutterance_id,reason\nu1,too_short\nu2,"a,b"\n'
    assert read_table(path, COLUMNS) == [["u1", "too_short"], ["u2", "a,b"]]


def test_line_breaks_in_fields_read_back(tmp_path):
    path = tmp_path / "t.csv"
    rows = [["u\r1", "a\nb"], ["u2", "c\r\nd"], ["u3", "plain"]]
    write_table(path, HEADER, rows)
    assert read_table(path, COLUMNS) == rows


def test_only_lines_before_the_header_are_comments(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, [("#u1", "too_short"), ("u2", "all_unvoiced")],
                comment="stamp")
    assert read_table(path, COLUMNS) == [["#u1", "too_short"], ["u2", "all_unvoiced"]]


def test_reads_crlf_rows_of_older_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# stamp\nutterance_id,reason\r\nu1,too_short\r\n")
    assert read_table(path, COLUMNS) == [["u1", "too_short"]]


def test_foreign_header_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# a\n# b\nid,why\nu1,x\n")
    with pytest.raises(ValueError, match=r"t\.csv:3: expected header"):
        read_table(path, COLUMNS)


def test_short_row_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# stamp\nutterance_id,reason\nu1,too_short\nu2\n")
    with pytest.raises(ValueError, match=r"t\.csv:4: expected 2 fields, got 1"):
        read_table(path, COLUMNS)


def test_byte_that_is_not_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# stamp\nutterance_id,reason\nu1,caf\xe9\n")
    with pytest.raises(ValueError, match=r"t\.csv:3: not UTF-8 text: .* byte 0xe9"):
        read_table(path, COLUMNS)


def test_without_header_rows_may_vary_in_width(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# stamp\ncost,0.5\nmachine,a,b,1,2,3\n")
    assert read_table(path) == [["cost", "0.5"], ["machine", "a", "b", "1", "2", "3"]]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, [("u1", "too_short")])
    before = path.read_bytes()

    def rows():
        yield ("u2", "too_short")
        raise RuntimeError("killed midway")

    with pytest.raises(RuntimeError):
        write_table(path, HEADER, rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.csv"]


def test_new_file_mode_follows_the_umask_like_open(tmp_path):
    old = os.umask(0o002)
    try:
        write_table(tmp_path / "t.csv", HEADER, [])
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "t.csv").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode) == 0o664


def test_json_is_sorted_indented_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": [0.5, None]})
    assert path.read_bytes() == b'{\n  "a": [\n    0.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert read_json(path, "report") == {"a": [0.5, None], "b": 1}


@pytest.mark.parametrize("content, complaint", [
    (b'{"a": 1,\n', "not UTF-8 JSON: Expecting property name"),
    (b'{"a": "caf\xe9"}', "not UTF-8 JSON: 'utf-8' codec can't decode byte 0xe9"),
    (b'[{"a": 1}]', "a report must hold a JSON object"),
], ids=["truncated", "latin1", "list"])
def test_json_that_is_no_object_names_the_path(tmp_path, content, complaint):
    path = tmp_path / "r.json"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {complaint}")):
        read_json(path, "report")


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(path, b"new", "not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]
    assert path.read_bytes() == b"old"


def test_csv_error_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    too_wide = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"# stamp\nutterance_id,reason\nu1,ok\nu2,{too_wide}\n")
    with pytest.raises(ValueError, match=r"t\.csv:4: field larger than field limit"):
        read_table(path, COLUMNS)
