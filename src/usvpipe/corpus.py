"""Annotation ingestion and cohort filtering.

Column names, context-code mappings, and emitter placeholder codes live in
a user-editable schema file: annotation releases differ in vocabulary, and
guessing it in code would be unauditable.  Filtering applies four rules in
a fixed order (unknown context, landing, unidentified emitter, over-length)
and reports a count per rule.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .artifacts import reader_after_comments, write_table
from .audio_io import wav_duration
from .exceptions import AnnotationParseError, PipelineError, SchemaMismatchError

CONTEXT_LABELS = (
    "biting", "feeding", "fighting", "general", "grooming", "isolation",
    "kissing", "protesting", "separation", "sleeping", "threatening",
)
LABEL_UNKNOWN = "unknown"
LABEL_LANDING = "landing"
INGEST_ONLY_LABELS = (LABEL_UNKNOWN, LABEL_LANDING)

MAX_UTTERANCE_S = 3.0  # the filter's length limit, and the length export pads to


@dataclass(frozen=True)
class SchemaConfig:
    """Maps the annotation file's vocabulary onto the pipeline's fields."""

    id_column: str
    emitter_column: str
    context_column: str
    file_column: str
    context_map: dict[str, str]
    emitter_placeholders: frozenset[str]
    duration_column: str | None = None
    start_column: str | None = None
    end_column: str | None = None
    delimiter: str = ","

    @classmethod
    def from_json(cls, path: str | Path) -> "SchemaConfig":
        raw = json.loads(Path(path).read_text())
        columns = raw.get("columns", {})
        for key in ("id", "emitter", "context", "file"):
            if key not in columns:
                raise ValueError(f"{path}: schema lacks a '{key}' column mapping")
        context_map = {str(k): str(v) for k, v in raw.get("context_map", {}).items()}
        admissible = set(CONTEXT_LABELS) | set(INGEST_ONLY_LABELS)
        bad = set(context_map.values()) - admissible
        if bad:
            raise ValueError(f"{path}: context_map targets unknown labels: {sorted(bad)}")
        return cls(
            id_column=columns["id"],
            emitter_column=columns["emitter"],
            context_column=columns["context"],
            file_column=columns["file"],
            duration_column=columns.get("duration"),
            start_column=columns.get("start"),
            end_column=columns.get("end"),
            context_map=context_map,
            emitter_placeholders=frozenset(
                str(v) for v in raw.get("emitter_placeholders", [])),
            delimiter=raw.get("delimiter", ","),
        )


@dataclass(frozen=True)
class RawRecord:
    """One annotation row after column mapping, before any filtering."""

    id: str
    emitter: str
    context: str
    file_ref: str
    duration_s: float | None


@dataclass(frozen=True)
class Utterance:
    """A cohort member: one annotated vocalisation admitted to the analysis.
    duration_s is None when neither the annotation nor the WAV header gives
    one; such a file fails to load in the per-file stages."""

    id: str
    audio_path: Path | None
    emitter_id: str
    context: str
    duration_s: float | None

    def __post_init__(self):
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(f"utterance {self.id}: non-positive duration")


def load_annotations(path: str | Path, schema: SchemaConfig) -> list[RawRecord]:
    """Parse the delimited annotation table into raw records.

    Context codes missing from the schema map become 'unknown', and a leading
    UTF-8 byte-order mark (spreadsheet "CSV UTF-8" exports) is dropped.  Raises
    SchemaMismatchError when a required column is absent and
    AnnotationParseError (with the file line number) for malformed rows.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader, comments = reader_after_comments(fh, schema.delimiter)
    records = []
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaMismatchError(f"{path}: empty annotation file")
        index = {name: i for i, name in enumerate(header)}
        for col in (schema.id_column, schema.emitter_column, schema.context_column,
                    schema.file_column, schema.duration_column,
                    schema.start_column, schema.end_column):
            if col is not None and col not in index:
                raise SchemaMismatchError(f"{path}: required column '{col}' not found")

        for row in reader:
            if len(row) != len(header):
                raise AnnotationParseError(
                    f"{path}:{comments + reader.line_num}: expected "
                    f"{len(header)} fields, got {len(row)}")
            try:
                duration = _row_duration(row, index, schema)
            except ValueError as exc:
                raise AnnotationParseError(
                    f"{path}:{comments + reader.line_num}: {exc}") from exc
            code = row[index[schema.context_column]].strip()
            records.append(RawRecord(
                id=row[index[schema.id_column]].strip(),
                emitter=row[index[schema.emitter_column]].strip(),
                context=schema.context_map.get(code, LABEL_UNKNOWN),
                file_ref=row[index[schema.file_column]].strip(),
                duration_s=duration,
            ))
    except csv.Error as exc:
        raise AnnotationParseError(f"{path}:{comments + reader.line_num}: {exc}") from exc
    return records


def _row_duration(row, index, schema: SchemaConfig) -> float | None:
    if schema.duration_column is not None:
        text = row[index[schema.duration_column]].strip()
        if text:
            return _checked_duration(float(text), "duration")
    if schema.start_column is not None and schema.end_column is not None:
        start = row[index[schema.start_column]].strip()
        end = row[index[schema.end_column]].strip()
        if start and end:
            return _checked_duration(float(end) - float(start), "start/end duration")
    return None


def _checked_duration(duration: float, what: str) -> float:
    if not math.isfinite(duration):
        raise ValueError(f"non-finite {what} {duration}")
    if duration <= 0:
        raise ValueError(f"non-positive {what} {duration}")
    return duration


@dataclass
class FilterReport:
    """Drop counts per exclusion rule; counts sum to input - output."""

    total_in: int = 0
    unknown_context: int = 0
    landing: int = 0
    unidentified_emitter: int = 0
    too_long: int = 0
    retained: int = 0

    RULES = ("unknown_context", "landing", "unidentified_emitter", "too_long")

    def rows(self) -> list[tuple[str, int]]:
        return ([("total_in", self.total_in)]
                + [(rule, getattr(self, rule)) for rule in self.RULES]
                + [("retained", self.retained)])


def filter_cohort(records: list[RawRecord],
                  emitter_placeholders: Iterable[str] = (),
                  audio_root: str | Path | None = None,
                  ) -> tuple[list[Utterance], FilterReport]:
    """Apply the exclusion rules and build the analysis cohort.

    Rules, in order (a dropped record is counted under the first that fires):
    unknown context, landing, unidentified emitter (empty or one of the
    schema's placeholder codes), duration strictly over 3 s.  Records
    without an annotated duration fall back to the WAV header; a header
    that cannot be read keeps the record with no duration, so the stage
    that loads the file reports it as one file error.
    """
    placeholders = frozenset(emitter_placeholders)
    root = Path(audio_root) if audio_root is not None else None
    cohort: list[Utterance] = []
    report = FilterReport(total_in=len(records))
    for rec in records:
        if rec.context == LABEL_UNKNOWN:
            report.unknown_context += 1
            continue
        if rec.context == LABEL_LANDING:
            report.landing += 1
            continue
        if rec.emitter == "" or rec.emitter in placeholders:
            report.unidentified_emitter += 1
            continue
        path = root / rec.file_ref if root is not None else Path(rec.file_ref)
        duration = rec.duration_s
        if duration is None:
            try:
                duration = wav_duration(path)
            except (PipelineError, OSError):
                pass
        if duration is not None and duration > MAX_UTTERANCE_S:
            report.too_long += 1
            continue
        cohort.append(Utterance(id=rec.id, audio_path=path, emitter_id=rec.emitter,
                                context=rec.context, duration_s=duration))
    report.retained = len(cohort)
    return cohort, report


def write_filter_report(path: str | Path, report: FilterReport,
                        comment: str | None = None) -> None:
    write_table(path, ("rule", "count"), report.rows(), comment)
