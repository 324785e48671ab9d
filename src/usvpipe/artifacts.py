"""The one on-disk layer for artifacts: provenance-stamped CSV tables with
"\\n" line endings, strict JSON objects, and atomic replacement, so a killed
run leaves the old file or the finished one, never a partial one."""
from __future__ import annotations

import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import Iterable, Sequence


def write_atomic(path: str | Path, *chunks) -> None:
    """Replace path with the bytes-like chunks, written in order, in one
    rename (no fsync: safe against a killed process, not against power loss).
    The chunks are written as they are, never joined into one copy.  The
    file mode is 0o666 less the umask, as with a plain open(path, "w").
    Missing parent directories are made first, so a directory appears with
    its first file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence],
                comment: str | None = None) -> None:
    """Write "# comment", header and rows; if rows raises, path is untouched.
    A float cell (numpy float64 included) is written to 6 significant
    digits, as format(v, ".6g"); every other cell as csv writes it."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # csv quotes a field holding "\n" here but not one holding a lone "\r",
    # which would read back as a line break
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        row = [format(v, ".6g") if isinstance(v, float) else v for v in row]
        (quoted if any(isinstance(v, str) and "\r" in v for v in row)
         else writer).writerow(row)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def reader_after_comments(path: str | Path, delimiter: str = ",",
                          encoding: str = "utf-8"):
    """(reader, skipped): a csv.reader over the text of path after its first
    `skipped` lines, those before the first line not starting with "#"
    (only lines before the header are comments).  A row ends on file line
    skipped + reader.line_num.  Bytes that are not text in encoding are a
    ValueError naming path:line."""
    try:
        text = Path(path).read_bytes().decode(encoding)
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text: {exc}") from None
    lines = io.StringIO(text, newline="").readlines()
    skipped = 0
    while skipped < len(lines) and lines[skipped].startswith("#"):
        skipped += 1
    return csv.reader(lines[skipped:], delimiter=delimiter), skipped


def read_table(path: str | Path, header: Sequence[str] | None = None,
               unique: bool = False) -> list[list[str]]:
    """Data rows of a table.  Only lines before the header are comments.

    The file must be UTF-8 text.  With a header, the file's header and the
    field count of every row must match it, and with unique as well no two
    rows may share a first field, else ValueError names path:line.  Without
    a header, every row after the comments is data, of 1 field or more.
    "\\r\\n" rows read as "\\n" ones.
    """
    reader, skipped = reader_after_comments(path)
    rows, keys = [], set()
    try:
        if header is not None and next(reader, None) != list(header):
            raise ValueError(f"{path}:{skipped + 1}: expected header {','.join(header)}")
        for row in reader:
            if header is not None and len(row) != len(header):
                raise ValueError(f"{path}:{skipped + reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            if not row:
                raise ValueError(f"{path}:{skipped + reader.line_num}: blank line")
            if unique:
                if row[0] in keys:
                    raise ValueError(f"{path}:{skipped + reader.line_num}: "
                                     f"{header[0]} {row[0]} is listed twice")
                keys.add(row[0])
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"{path}:{skipped + reader.line_num}: {exc}") from exc
    return rows


def write_json(path: str | Path, obj) -> None:
    """Write obj as strict JSON, indented and with sorted keys, and a final
    "\\n".  A NaN or infinity anywhere in obj is a ValueError, and path is
    then untouched."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    write_atomic(path, text.encode("utf-8"))


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object path holds.  A ValueError names path when the file is
    not UTF-8 JSON or holds another JSON value ("a <what> must hold a JSON
    object")."""
    try:
        obj = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: a {what} must hold a JSON object")
    return obj
