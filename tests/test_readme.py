"""The README's format examples name the schema versions the code writes
and reads, so a version bump that misses one fails here."""

import re
from pathlib import Path

from stagelens.report import REPORT_SCHEMA
from stagelens.simulate import LABELS_SCHEMA
from stagelens.traceio import SCHEMA_VERSION

# The README with every run of whitespace, line breaks included, as one space.
README = " ".join(
    (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8").split()
)


def test_readme_headers_name_the_current_schemas():
    """The trace header example and the loader's header error name
    SCHEMA_VERSION, the labels header LABELS_SCHEMA and the structured
    report REPORT_SCHEMA."""
    assert re.findall(r'\{"entity": "<kind>", "schema": "([^"]+)"\}', README) == [SCHEMA_VERSION]
    assert re.findall(r"schema header must declare '([^']+)'", README) == [SCHEMA_VERSION]
    assert re.findall(r"\(`([^`]+)`, entity `labels`\)", README) == [LABELS_SCHEMA]
    assert re.findall(r"one JSON document with schema `([^`]+)`", README) == [REPORT_SCHEMA]
