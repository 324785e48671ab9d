"""The one on-disk layer for artifacts: provenance-stamped CSV tables with
"\\n" line endings, and atomic replacement, so a killed run leaves the old
file or the finished one, never a partial one."""
from __future__ import annotations

import csv
import io
import os
import secrets
from pathlib import Path
from typing import Iterable, Sequence


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace path with data in one rename (no fsync: safe against a killed
    process, not against power loss).  The file mode is 0o666 less the umask,
    as with a plain open(path, "w")."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_table(path: str | Path, header: Sequence, rows: Iterable[Sequence],
                comment: str | None = None) -> None:
    """Write "# comment", header and rows; if rows raises, path is untouched."""
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_table(path: str | Path, header: Sequence[str] | None = None) -> list[list[str]]:
    """Data rows of a table.  Only lines before the header are comments.

    With a header, the file's header and the field count of every row must
    match it, else ValueError names path:line.  Without one, every row after
    the comments is data, of any width.  "\\r\\n" rows read as "\\n" ones.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    skipped = 0
    while skipped < len(lines) and lines[skipped].startswith("#"):
        skipped += 1
    reader = csv.reader(lines[skipped:])
    rows = []
    try:
        if header is not None and next(reader, None) != list(header):
            raise ValueError(f"{path}:{skipped + 1}: expected header {','.join(header)}")
        for row in reader:
            if header is not None and len(row) != len(header):
                raise ValueError(f"{path}:{skipped + reader.line_num}: expected "
                                 f"{len(header)} fields, got {len(row)}")
            rows.append(row)
    except csv.Error as exc:
        raise ValueError(f"{path}:{skipped + reader.line_num}: {exc}") from exc
    return rows
