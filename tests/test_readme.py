"""The README's format examples name the schema versions the code writes
and reads, and its configuration table lists the keys and defaults the code
has, so a version bump or a new default that misses the README fails here."""

import re
from pathlib import Path

from stagelens.model import Locality
from stagelens.report import CONFIG_KEYS, REPORT_SCHEMA, PipelineConfig
from stagelens.simulate import LABELS_SCHEMA
from stagelens.traceio import SCHEMA_VERSION

TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# The README with every run of whitespace, line breaks included, as one space.
README = " ".join(TEXT.split())


def test_readme_headers_name_the_current_schemas():
    """The trace header example and the loader's header error name
    SCHEMA_VERSION, the labels header LABELS_SCHEMA and the structured
    report REPORT_SCHEMA."""
    assert re.findall(r'\{"entity": "<kind>", "schema": "([^"]+)"\}', README) == [SCHEMA_VERSION]
    assert re.findall(r"schema header must declare '([^']+)'", README) == [SCHEMA_VERSION]
    assert re.findall(r"\(`([^`]+)`, entity `labels`\)", README) == [LABELS_SCHEMA]
    assert re.findall(r"one JSON document with schema `([^`]+)`", README) == [REPORT_SCHEMA]


def test_readme_config_table_lists_every_key_and_default():
    """Each row of the configuration table is a CONFIG_KEYS key with
    PipelineConfig's default; the pri_* row spans the locality weights in
    Locality order, first key to last."""
    rows = dict(re.findall(r"^\| (`[^|]+`) \| ([^|]+?) \| [^|]+\|$", TEXT, re.M))
    cfg = PipelineConfig()
    pri = [f"pri_{loc.value.lower()}" for loc in Locality]
    assert rows.pop(f"`{pri[0]}` … `{pri[-1]}`") == ",".join(
        f"{getattr(cfg, key):g}" for key in pri
    )
    assert [key.strip("`") for key in rows] + pri == list(CONFIG_KEYS)
    for key, default in rows.items():
        value = getattr(cfg, key.strip("`"))
        assert default == (str(value).lower() if type(value) is bool else str(value)), key
