"""Seeded writer of raw collector files for the raw-ingest workload.

It writes what `stagelens ingest` reads: one Spark-style event log plus
`<node>.system.tsv` and `<node>.arch.tsv` counter dumps per node. Counters
are monotone, except for a fixed number of injected wraps (a counter restarts
near zero, so one interval has a negative delta). A fixed number of malformed
lines is injected too: non-numeric cells in the counter dumps and truncated
JSON in the event log. Both kinds are recoverable, so each shows up as exactly
one entry in `IngestReport.errors`.

Only numpy and the standard library are used: the writer never imports
stagelens, so it can stand in for an external collector.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Column orders of the two raw counter schemas (the first column is the
# timestamp). They mirror the formats documented in the README.
SYSTEM_COLUMNS = (
    "timestamp usr nice sys idle iowait irq softirq intr ctx procs running "
    "blocked mem_total free buffers cached swap_cached active inactive "
    "swap_total swap_free pgin pgout pgfault pgmajfault active_conn "
    "passive_conn rbytes rpackets rerrs rdrop sbytes spackets serrs sdrop "
    "read read_merged read_sectors read_time write write_merged "
    "write_sectors write_time progress_io io_time io_time_weighted"
).split()

ARCH_COLUMNS = (
    "timestamp cycle ins L2_miss L2_refe L3_miss L3_refe DTLB_miss ITLB_miss "
    "L1I_miss L1I_hit MLP MUL_ins DIV_ins FP_ins LOAD_ins STORE_ins BR_ins "
    "BR_miss unc_read unc_write"
).split()

# Gauges are levels, not counters: they never wrap and are not accumulated.
_GAUGES = {
    "procs", "running", "blocked", "mem_total", "free", "buffers", "cached",
    "swap_cached", "active", "inactive", "swap_total", "swap_free",
    "active_conn", "passive_conn", "progress_io", "MLP",
}

# Mean per-second increment of each counter (gauges: mean level).
_RATES = {
    "usr": 30.0, "nice": 1.0, "sys": 8.0, "idle": 55.0, "iowait": 4.0,
    "irq": 0.5, "softirq": 1.5, "intr": 9e3, "ctx": 2e4, "procs": 300.0,
    "running": 4.0, "blocked": 1.0, "mem_total": 6.4e7, "free": 2.2e7,
    "buffers": 1.5e6, "cached": 1.6e7, "swap_cached": 1e4, "active": 3e7,
    "inactive": 1e7, "swap_total": 8e6, "swap_free": 8e6, "pgin": 2e3,
    "pgout": 3e3, "pgfault": 5e4, "pgmajfault": 5.0, "active_conn": 40.0,
    "passive_conn": 30.0, "rbytes": 2.4e7, "rpackets": 1.8e4, "rerrs": 0.01,
    "rdrop": 0.01, "sbytes": 2.2e7, "spackets": 1.7e4, "serrs": 0.01,
    "sdrop": 0.01, "read": 150.0, "read_merged": 20.0, "read_sectors": 6e4,
    "read_time": 400.0, "write": 90.0, "write_merged": 30.0,
    "write_sectors": 2.4e4, "write_time": 500.0, "progress_io": 2.0,
    "io_time": 300.0, "io_time_weighted": 900.0,
    "cycle": 2.4e9, "ins": 1.7e9, "L2_miss": 6e6, "L2_refe": 4e7,
    "L3_miss": 1.5e6, "L3_refe": 6e6, "DTLB_miss": 8e5, "ITLB_miss": 2e5,
    "L1I_miss": 4e6, "L1I_hit": 9e8, "MLP": 2.0, "MUL_ins": 5e7,
    "DIV_ins": 2.5e6, "FP_ins": 1e8, "LOAD_ins": 4.2e8, "STORE_ins": 2e8,
    "BR_ins": 3.4e8, "BR_miss": 6e6, "unc_read": 3e7, "unc_write": 1.5e7,
}

# Counters that can carry an injected wrap; each feeds one derived metric.
_WRAPPABLE = {
    "system": ("rbytes", "sbytes", "read_sectors", "write_sectors", "io_time_weighted"),
    "arch": ("L2_miss", "L3_miss", "DTLB_miss", "FP_ins", "LOAD_ins"),
}

# The hot node's counters run this much faster, so its report shows findings.
_HOT_COUNTERS = {"iowait": 6.0, "io_time_weighted": 12.0, "L3_miss": 5.0}

BASE_EPOCH_S = 1_460_000_000
JOB_STAGES = ((0, (0, 1)), (1, (2,)))  # job id -> stage ids it starts
STAGE_GAP_MS = 5_000


@dataclass(frozen=True)
class RawSize:
    nodes: int
    rows: int  # counter rows per node and schema, one per second
    tasks: int  # task-end events, spread evenly over the stages
    wraps: int  # injected counter wraps over all counter files
    bad_metric_lines: int  # counter lines with a non-numeric cell
    bad_event_lines: int  # event-log lines holding truncated JSON


def _node_names(count: int):
    return [f"rw{i + 1:03d}" for i in range(count)]


def _counter_block(rng, columns, rows, hot):
    """rows x (len(columns)-1) float matrix of monotone counters and gauges."""
    names = columns[1:]
    out = np.empty((rows, len(names)))
    for j, name in enumerate(names):
        rate = _RATES[name] * (_HOT_COUNTERS.get(name, 1.0) if hot else 1.0)
        noise = rng.uniform(0.7, 1.3, size=rows)
        if name in _GAUGES:
            out[:, j] = np.round(rate * noise)
        else:
            start = rng.uniform(0, 1e4) * rate
            out[:, j] = np.round(start + np.cumsum(rate * noise))
    return out


def _write_counter_file(path, columns, timestamps, block, bad_rows):
    with open(path, "w", encoding="utf-8") as fh:
        for i, ts in enumerate(timestamps):
            cells = [str(int(ts))] + [str(int(v)) for v in block[i]]
            if i in bad_rows:
                cells[1 + (i % (len(columns) - 1))] = "n/a"
            fh.write(" ".join(cells) + "\n")


def _spread(rng, total, slots):
    """Split `total` injections over `slots` buckets at seeded positions."""
    counts = [0] * slots
    for pick in rng.integers(0, slots, size=total):
        counts[int(pick)] += 1
    return counts


def write_raw_inputs(out_dir: str, seed: int, size: RawSize) -> dict:
    """Write the event log and counter dumps; return the injection manifest."""
    rng = np.random.default_rng(seed)
    nodes = _node_names(size.nodes)
    hot = nodes[int(rng.integers(0, len(nodes)))]
    metrics_dir = os.path.join(out_dir, "metrics")
    os.makedirs(metrics_dir, exist_ok=True)
    timestamps = BASE_EPOCH_S + np.arange(size.rows)

    files = [(node, schema) for node in nodes for schema in ("system", "arch")]
    wraps_per_file = _spread(rng, size.wraps, len(files))
    bad_per_file = _spread(rng, size.bad_metric_lines, len(files))
    for (node, schema), wraps, bad in zip(files, wraps_per_file, bad_per_file):
        columns = SYSTEM_COLUMNS if schema == "system" else ARCH_COLUMNS
        block = _counter_block(rng, columns, size.rows, node == hot)
        # A wrap restarts one counter near zero; later rows keep counting from
        # there, so exactly one interval per wrap has a negative delta.
        for row in rng.choice(np.arange(1, size.rows), size=wraps, replace=False):
            wrappable = _WRAPPABLE[schema]
            j = columns.index(wrappable[int(rng.integers(0, len(wrappable)))]) - 1
            block[row:, j] -= block[row, j] - float(rng.integers(0, 1000))
        bad_rows = set(
            int(r) for r in rng.choice(np.arange(size.rows), size=bad, replace=False)
        )
        name = f"{node}.{schema}.tsv"
        _write_counter_file(os.path.join(metrics_dir, name), columns, timestamps, block, bad_rows)

    events_path = os.path.join(out_dir, "events.log")
    stage_count = sum(len(stages) for _, stages in JOB_STAGES)
    per_stage = size.tasks // stage_count
    bad_event_slots = set(
        int(i) for i in rng.choice(np.arange(per_stage * stage_count),
                                   size=size.bad_event_lines, replace=False)
    )
    clock_ms = BASE_EPOCH_S * 1000 + 10_000
    task_id = 0
    skipped = 0
    with open(events_path, "w", encoding="utf-8") as fh:
        for job_id, stage_ids in JOB_STAGES:
            fh.write(json.dumps({"Event": "SparkListenerJobStart", "Job ID": job_id,
                                 "Stage IDs": list(stage_ids)}) + "\n")
            for stage_id in stage_ids:
                fh.write(json.dumps({"Event": "SparkListenerStageSubmitted",
                                     "Stage Info": {"Stage ID": stage_id}}) + "\n")
                skipped += 1
                cursors = {node: clock_ms for node in nodes}
                for k in range(per_stage):
                    node = nodes[k % len(nodes)]
                    runtime = 12_000 * rng.uniform(0.9, 1.1) * (1.8 if node == hot else 1.0)
                    launch = cursors[node]
                    finish = int(launch + runtime)
                    cursors[node] = finish
                    event = {
                        "Event": "SparkListenerTaskEnd",
                        "Stage ID": stage_id,
                        "Stage Attempt ID": 0,
                        "Task End Reason": {"Reason": "Success"},
                        "Task Info": {
                            "Task ID": task_id, "Host": node, "Launch Time": launch,
                            "Finish Time": finish, "Locality": "NODE_LOCAL",
                            "Failed": False,
                        },
                        "Task Metrics": {"Input Metrics": {
                            "Bytes Read": int(128 * 2**20 * rng.uniform(0.9, 1.1))}},
                    }
                    line = json.dumps(event)
                    if task_id in bad_event_slots:
                        # A truncated copy ahead of the intact event.
                        fh.write(line[: len(line) // 2] + "\n")
                    fh.write(line + "\n")
                    task_id += 1
                fh.write(json.dumps({"Event": "SparkListenerStageCompleted",
                                     "Stage Info": {"Stage ID": stage_id}}) + "\n")
                skipped += 1
                clock_ms = max(cursors.values()) + STAGE_GAP_MS
    return {
        "hot_node": hot,
        "tasks": task_id,
        "wraps": size.wraps,
        "malformed_lines": size.bad_metric_lines + size.bad_event_lines,
        "skipped_events": skipped,
        "events": events_path,
        "metrics_dir": metrics_dir,
    }
