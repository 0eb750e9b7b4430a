"""Cohort manifest loading and validation.

CSV header: subject_id,group, one column per clinical score (SCORE_COLUMNS,
the ids of ``evaluation.SCALES`` in order), then one column per (vowel, task)
recording named path_<vowel>_<task>. Empty cells are missing values and stay
missing. Other columns, such as the sex and age that ``synth`` writes, are
ignored.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from .audio import TASKS, VOWELS
from .errors import ManifestError
from .evaluation import SCALES

GROUPS = ("PD", "HC")
SCORE_COLUMNS = tuple(SCALES)


@dataclass
class SubjectRow:
    subject_id: str
    group: str
    scores: dict[str, float | None]
    recordings: dict[tuple[str, str], Path] = field(default_factory=dict)


@dataclass
class CohortManifest:
    rows: list[SubjectRow]

    def tasks_present(self) -> list[str]:
        seen = {t for row in self.rows for (_, t) in row.recordings}
        return [t for t in TASKS if t in seen]

    def pairs_present(self) -> list[tuple[str, str]]:
        seen = {vt for row in self.rows for vt in row.recordings}
        return [(v, t) for v in VOWELS for t in TASKS if (v, t) in seen]


def _parse_score(name: str, cell: str, subject_id: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # nan and inf are no scores; an empty cell is a missing one
        raise ManifestError(f"{subject_id}: {name}={cell!r} is not a finite number")
    scale = SCALES[name]
    if value < 0 or (scale.bounded and value > scale.theoretical_max):
        hi = scale.theoretical_max if scale.bounded else "inf"
        raise ManifestError(f"{subject_id}: {name}={value} outside theoretical range [0.0, {hi}]")
    return value


def load_manifest(path) -> CohortManifest:
    """Read and validate a cohort manifest CSV.

    Raises ManifestError on a header column named twice, duplicate subject
    ids, unknown group labels, or clinical scores outside their scale's
    theoretical range. Recording paths
    are resolved relative to the manifest's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"no such manifest: {path}")
    base = path.parent
    rows: list[SubjectRow] = []
    seen_ids: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "subject_id" not in reader.fieldnames:
            raise ManifestError(f"{path}: missing header with subject_id column")
        named = set()
        for col in reader.fieldnames:
            if col in named:
                raise ManifestError(f"{path}: header column {col!r} appears twice")
            named.add(col)
        path_cols = [c for c in reader.fieldnames if c.startswith("path_")]
        for rec in reader:
            sid = (rec.get("subject_id") or "").strip()
            if not sid:
                raise ManifestError(f"{path}: row with empty subject_id")
            if sid in seen_ids:
                raise ManifestError(f"duplicate subject_id {sid!r}")
            seen_ids.add(sid)
            group = (rec.get("group") or "").strip()
            if group not in GROUPS:
                raise ManifestError(f"{sid}: unknown group label {group!r} (expect PD or HC)")
            scores = {name: _parse_score(name, rec.get(name) or "", sid) for name in SCORE_COLUMNS}
            recordings: dict[tuple[str, str], Path] = {}
            for col in path_cols:
                cell = (rec.get(col) or "").strip()
                if not cell:
                    continue
                parts = col.split("_")
                if len(parts) != 3 or parts[1] not in VOWELS or parts[2] not in TASKS:
                    raise ManifestError(f"{path}: bad recording column {col!r}")
                recordings[(parts[1], parts[2])] = base / cell
            rows.append(SubjectRow(subject_id=sid, group=group, scores=scores,
                                   recordings=recordings))
    return CohortManifest(rows=rows)
