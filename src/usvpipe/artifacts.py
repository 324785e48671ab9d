"""The one on-disk layer for artifacts: provenance-stamped CSV tables with
"\\n" line endings, strict JSON objects, and atomic replacement, so a killed
run leaves the old file or the finished one, never a partial one."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import secrets
from functools import partial
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


def finite(text: str) -> float:
    """A cell parser: a finite float."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ValueError("is not a finite number")


def positive(text: str) -> float:
    """A cell parser: a finite float above 0."""
    value = finite(text)
    if not value > 0.0:
        raise ValueError("is not above 0")
    return value


def plain_name(text: str) -> str:
    """A cell parser: an utterance id, a plain file name as it names files."""
    if not text:
        raise ValueError("is blank")
    if text in (".", "..") or "/" in text or "\\" in text or "\0" in text:
        raise ValueError("is not a plain file name")
    return text


def _one_of(allowed: tuple, text: str) -> str:
    if text not in allowed:
        raise ValueError(f"is not one of {', '.join(allowed)}")
    return text


def read_table(path: str | Path, columns: dict | None = None,
               unique: bool = False) -> list[list]:
    """Data rows of a table, each cell parsed.  Only lines before the header
    are comments.  The file must be UTF-8 text; "\\r\\n" rows read as "\\n" ones.

    columns maps each header name, in order, to its cell parser: str,
    finite, positive, plain_name, or a tuple of the texts allowed.  The
    header and every row's field count must match it, and with unique no
    two rows may share a first cell.  Each refusal is a ValueError naming
    path:line, and a refused cell reads "<column> '<text>' <reason>".
    Without columns every row is data, of 1 field or more, and unparsed.
    """
    reader, skipped = reader_after_comments(path)
    header = list(columns or ())
    parsers = [partial(_one_of, parse) if isinstance(parse, tuple) else parse
               for parse in (columns or {}).values()]
    rows, first_line = [], {}
    try:
        if columns is not None and next(reader, None) != header:
            raise ValueError(f"{path}:{skipped + 1}: expected header {','.join(header)}")
        for row in reader:
            line = skipped + reader.line_num
            if columns is None:
                if not row:
                    raise ValueError(f"{path}:{line}: blank line")
            elif len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} fields, "
                                 f"got {len(row)}")
            else:
                cells, row = row, []
                for name, parse, text in zip(header, parsers, cells):
                    try:
                        row.append(parse(text))
                    except ValueError as exc:
                        raise ValueError(f"{path}:{line}: {name} {text!r} {exc}") from None
            if unique:
                if row[0] in first_line:
                    raise ValueError(f"{path}:{line}: {header[0]} {row[0]!r} is already "
                                     f"used on line {first_line[row[0]]}")
                first_line[row[0]] = line
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
