"""Print the sha256 of every report in the fixed digest set, of the notes
of each raw ingest, and of each saved trace, one `name sha256` line each,
computed from the checkout this script sits in.

    python3 tools/report_digests.py > digests.txt

A change that must keep every report byte-identical runs this script on the
parent checkout and on the change, each from its own directory, and diffs
the two outputs. The set holds 372 reports, 3 notes lines and 62 trace
lines:

- traces: the case1-3 presets at seeds 1-3, the 50-trace eval corpus, and
  the raw-ingest inputs of perfbench/rawgen.py at seeds 1-3 and
  `workloads.RAW_SIZES["full"]`, ingested with `ingest_raw`;
- each trace saved with `save_trace` and read back with `load_trace`;
- configs: the defaults, median/0.5 and fft/median/0.5;
- formats: text and structured;
- notes: for each raw-ingest seed, `raw-ingest-seedN/notes`, the sha256 of
  its IngestReport's `errors` and `skipped_events` as JSON, since a change
  to ingest may alter its notes and no report;
- saved traces: for each trace, `trace:<name>`, the sha256 of the files
  `save_trace` wrote and, for a simulated trace, of its labels file, so a
  change to the simulator or to the save path is checked by the same diff.
  A trace format bump changes these lines and no report.

The script imports stagelens from `src/` and the raw-input writer from
`perfbench/` of its own checkout; it writes only to a temporary directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from rawgen import write_raw_inputs  # noqa: E402
from workloads import RAW_SIZES  # noqa: E402

from stagelens.ingest import ingest_raw  # noqa: E402
from stagelens.report import PipelineConfig, diagnose, render_report  # noqa: E402
from stagelens.simulate import generate_trace, preset, save_labels  # noqa: E402
from stagelens.traceio import load_trace, save_trace  # noqa: E402

CONFIGS = {
    "default": PipelineConfig(),
    "median-0.5": PipelineConfig(representative="median", dmin=0.5),
    "fft-median-0.5": PipelineConfig(transform="fft", representative="median", dmin=0.5),
}
FORMATS = ("text", "structured")
SEEDS = (1, 2, 3)


def traces(work: str):
    """(name, trace, its labels or None, its IngestReport or None) for every
    trace of the set, in a fixed order."""
    for case in ("case1", "case2", "case3"):
        for seed in SEEDS:
            yield f"{case}-seed{seed}", *generate_trace(preset(case, seed)), None
    for i, spec in enumerate(preset("eval-corpus")):
        yield f"eval-corpus-{i:02d}", *generate_trace(spec), None
    for seed in SEEDS:
        raw = os.path.join(work, f"raw-seed{seed}")
        manifest = write_raw_inputs(raw, seed, RAW_SIZES["full"])
        trace, notes = ingest_raw(manifest["events"], manifest["metrics_dir"])
        yield f"raw-ingest-seed{seed}", trace, None, notes


def files_digest(path: str) -> str:
    """The sha256 of the files in a directory: each name and its bytes, in
    name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, trace, labels, notes in traces(work):
            if notes is not None:
                payload = json.dumps([notes.errors, notes.skipped_events]).encode()
                print(f"{name}/notes {hashlib.sha256(payload).hexdigest()}")
            path = os.path.join(work, name)
            save_trace(trace, path)
            if labels is not None:
                save_labels(labels, os.path.join(path, "labels.jsonl"))
            print(f"trace:{name} {files_digest(path)}")
            loaded = load_trace(path)
            for config, cfg in CONFIGS.items():
                report = diagnose(loaded, cfg)
                for form in FORMATS:
                    digest = hashlib.sha256(render_report(report, form)).hexdigest()
                    print(f"{name}/{config}/{form} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
