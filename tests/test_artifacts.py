import os
import stat

import pytest

from usvpipe.artifacts import read_table, write_table

HEADER = ("utterance_id", "reason")


def test_roundtrip_stamp_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, [("u1", "too_short"), ("u2", "a,b")], comment="stamp")
    assert path.read_bytes() == b'# stamp\nutterance_id,reason\nu1,too_short\nu2,"a,b"\n'
    assert read_table(path, HEADER) == [["u1", "too_short"], ["u2", "a,b"]]


def test_only_lines_before_the_header_are_comments(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, HEADER, [("#u1", "too_short"), ("u2", "all_unvoiced")],
                comment="stamp")
    assert read_table(path, HEADER) == [["#u1", "too_short"], ["u2", "all_unvoiced"]]


def test_reads_crlf_rows_of_older_files(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# stamp\nutterance_id,reason\r\nu1,too_short\r\n")
    assert read_table(path, HEADER) == [["u1", "too_short"]]


def test_foreign_header_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# a\n# b\nid,why\nu1,x\n")
    with pytest.raises(ValueError, match=r"t\.csv:3: expected header"):
        read_table(path, HEADER)


def test_short_row_names_path_and_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# stamp\nutterance_id,reason\nu1,too_short\nu2\n")
    with pytest.raises(ValueError, match=r"t\.csv:4: expected 2 fields, got 1"):
        read_table(path, HEADER)


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
