"""Annotation ingestion and cohort filtering.

Column names, context-code mappings, and emitter placeholder codes live in
a user-editable schema file: annotation releases differ in vocabulary, and
guessing it in code would be unauditable.  Each annotation row becomes one
Utterance, keyed by an id that is non-blank, unique and a plain file name,
since it names the utterance's artifacts.  filter_report.csv counts four
rules in a fixed order (unknown context, landing, unidentified emitter,
longer than audio_io.MAX_UTTERANCE_S, named in FILTER_RULES).  Filtering
applies the three annotation rules and opens no file; the length rule is
load_wav's refusal, counted by the stage that loads each file.  An
utterance's length is its WAV header's, never an annotation cell's: one
file holds one utterance, and segments cut from a longer file by start/end
times are not supported.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .artifacts import plain_name, read_json, reader_after_comments

CONTEXT_LABELS = (
    "biting", "feeding", "fighting", "general", "grooming", "isolation",
    "kissing", "protesting", "separation", "sleeping", "threatening",
)
LABEL_UNKNOWN = "unknown"
LABEL_LANDING = "landing"
INGEST_ONLY_LABELS = (LABEL_UNKNOWN, LABEL_LANDING)


# Annotation column roles, all required; the schema's "columns" maps each to a
# header name
COLUMN_ROLES = ("id", "emitter", "context", "file")


@dataclass(frozen=True)
class SchemaConfig:
    """Maps the annotation file's vocabulary onto the pipeline's fields:
    columns maps each column role to its header name."""

    columns: dict[str, str]
    context_map: dict[str, str]
    emitter_placeholders: frozenset[str]
    delimiter: str = ","

    @classmethod
    def from_json(cls, path: str | Path) -> "SchemaConfig":
        raw = read_json(path, "schema")

        def value(key: str, default, kind: type, what: str, ok=lambda v: True):
            found = raw.get(key, default)
            if not (isinstance(found, kind) and ok(found)):
                raise ValueError(f"{path}: schema key '{key}' must be {what}")
            return found

        columns = value("columns", {}, dict, "an object of strings",
                        lambda v: all(isinstance(name, str) for name in v.values()))
        for role in COLUMN_ROLES:
            if role not in columns:
                raise ValueError(f"{path}: schema lacks a '{role}' column mapping")
        unread = sorted(set(columns) - set(COLUMN_ROLES))
        if unread:
            logging.getLogger(__name__).warning(
                "%s: schema column roles %s are never read", path, unread)
        context_map = {str(k): str(v) for k, v in
                       value("context_map", {}, dict, "an object").items()}
        admissible = set(CONTEXT_LABELS) | set(INGEST_ONLY_LABELS)
        bad = set(context_map.values()) - admissible
        if bad:
            raise ValueError(f"{path}: context_map targets unknown labels: {sorted(bad)}")
        return cls(
            columns={role: columns[role] for role in COLUMN_ROLES},
            context_map=context_map,
            emitter_placeholders=frozenset(
                str(v) for v in value("emitter_placeholders", [], list, "a list")),
            delimiter=value("delimiter", ",", str, "a single character",
                            lambda v: len(v) == 1),
        )


@dataclass(frozen=True)
class Utterance:
    """One annotation row, under the feature table's names.  filter_cohort
    resolves audio_path against the audio root; the stage that loads the
    file takes the duration from it."""

    utterance_id: str
    emitter_id: str
    context: str
    audio_path: Path


def load_annotations(path: str | Path, schema: SchemaConfig) -> list[Utterance]:
    """Parse the delimited annotation table into one Utterance per row.

    Context codes missing from the schema map become 'unknown', and a leading
    UTF-8 byte-order mark (spreadsheet "CSV UTF-8" exports) is dropped.
    Columns the schema does not map, durations and start/end times among
    them, are not read and may repeat.  Raises ValueError naming the path
    when a mapped column is absent, and naming path:line for one the header
    names twice, bytes that are not UTF-8 and malformed rows: a wrong field
    count, or an id that is blank, names a path or repeats one.
    """
    reader, comments = reader_after_comments(path, schema.delimiter, "utf-8-sig")
    records = []
    first_line: dict[str, int] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty annotation file")
        index = {name: i for i, name in enumerate(header)}
        for name in schema.columns.values():
            if name not in index:
                raise ValueError(f"{path}: required column '{name}' not found")
            if header.count(name) > 1:
                raise ValueError(f"{path}:{comments + reader.line_num}: the header "
                                 f"names column '{name}' more than once")

        for row in reader:
            line = comments + reader.line_num
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line}: expected {len(header)} fields, got {len(row)}")
            cell = {role: row[index[name]].strip()
                    for role, name in schema.columns.items()}
            uid = cell["id"]
            try:
                if plain_name(uid) in first_line:
                    raise ValueError(f"is already used on line {first_line[uid]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: utterance id {uid!r} {exc}") from None
            first_line[uid] = line
            records.append(Utterance(
                utterance_id=uid, emitter_id=cell["emitter"],
                context=schema.context_map.get(cell["context"], LABEL_UNKNOWN),
                audio_path=Path(cell["file"])))
    except csv.Error as exc:
        raise ValueError(f"{path}:{comments + reader.line_num}: {exc}") from exc
    return records


# The exclusion rules in the order they are tried; filter_report.csv has a
# row per rule between total_in and retained.  too_long, a WAV over
# audio_io.MAX_UTTERANCE_S, is tried last, by the stage's load_wav.
FILTER_RULES = ("unknown_context", "landing", "unidentified_emitter", "too_long")


def filter_cohort(records: list[Utterance], emitter_placeholders: Iterable[str],
                  audio_root: str | Path) -> tuple[list[Utterance], dict[str, int]]:
    """Apply the annotation rules and build the analysis cohort.

    Rules, in order (a dropped record is counted under the first that fires):
    unknown context, landing, unidentified emitter (empty or one of the
    schema's placeholder codes).  Each kept record's audio_path is resolved
    against audio_root.  No file is opened, so too_long is 0: the stage that
    loads the files adds those load_wav refuses.  Returns the cohort and the
    counts in filter_report.csv's row order: total_in, one per FILTER_RULES
    name (the records it dropped), and retained; the rule counts sum to
    total_in - retained.
    """
    placeholders = frozenset(emitter_placeholders)
    root = Path(audio_root)
    cohort: list[Utterance] = []
    counts = {"total_in": len(records), **dict.fromkeys(FILTER_RULES, 0)}
    for rec in records:
        rule = _dropped_by(rec, placeholders)
        if rule is None:
            cohort.append(replace(rec, audio_path=root / rec.audio_path))
        else:
            counts[rule] += 1
    return cohort, {**counts, "retained": len(cohort)}


def _dropped_by(utt: Utterance, placeholders: frozenset[str]) -> str | None:
    """The first annotation rule of FILTER_RULES that drops utt, or None."""
    if utt.context == LABEL_UNKNOWN:
        return "unknown_context"
    if utt.context == LABEL_LANDING:
        return "landing"
    if utt.emitter_id == "" or utt.emitter_id in placeholders:
        return "unidentified_emitter"
    return None
