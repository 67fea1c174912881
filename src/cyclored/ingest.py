"""Degree-profile ingestion from local fixture files."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .density import DegreeProfile

FIXTURE_ENV = "CYCLORED_FIXTURES"


class FixtureMissing(Exception):
    """No fixture file exists for the label."""


class SchemaMismatch(Exception):
    """Fixture payload does not look like a degree profile."""


def fixture_dir() -> Path:
    override = os.environ.get(FIXTURE_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "fixtures"


def _parse_profile_payload(label: str, text: str) -> DegreeProfile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"fixture for {label!r} is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("degrees"), dict):
        raise SchemaMismatch(f"fixture for {label!r} lacks a degrees table")
    if "label" in doc and doc["label"] != label:
        raise SchemaMismatch(
            f"fixture says {doc['label']!r} but {label!r} was requested"
        )
    try:
        return DegreeProfile.from_json_dict(doc)
    except (ValueError, TypeError) as exc:
        raise SchemaMismatch(f"fixture for {label!r} is invalid: {exc}") from None


def ingest_degrees(label: str, source: str | os.PathLike | None = None) -> DegreeProfile:
    """Load the degree profile for a curve label.

    source overrides the fixture directory.
    """
    base = Path(source) if source is not None else fixture_dir()
    path = base / f"{label}.json"
    if not path.exists():
        raise FixtureMissing(f"no fixture {path}")
    return _parse_profile_payload(label, path.read_text())
