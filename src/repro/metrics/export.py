"""Result exporters: flatten RunResults to dictionaries, CSV, and JSON.

Downstream analysis (plotting the figures, regression tracking) wants the
run data out of Python objects; these helpers keep the flattening logic
in one tested place.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.metrics.report import EdgeStats, RunResult, SocketStats
from repro.sim.stats import TimeSeries

#: Column order for tabular exports (one row per run).
RUN_COLUMNS = (
    "workload",
    "config",
    "cycles",
    "n_sockets",
    "remote_fraction",
    "l1_hit_rate",
    "l2_hit_rate",
    "dram_bytes",
    "switch_bytes",
    "lane_turns",
    "migrations",
    "re_homed_pages",
    "mean_hops",
    "kernels",
)


def run_to_dict(result: RunResult) -> dict:
    """Flatten one run to a plain dict (RUN_COLUMNS keys)."""
    l1_hits = sum(s.l1_hits for s in result.sockets)
    l1_misses = sum(s.l1_misses for s in result.sockets)
    l2_hits = sum(s.l2_hits for s in result.sockets)
    l2_misses = sum(s.l2_misses for s in result.sockets)
    return {
        "workload": result.workload,
        "config": result.config_label,
        "cycles": result.cycles,
        "n_sockets": result.n_sockets,
        "remote_fraction": round(result.total_remote_fraction, 6),
        "l1_hit_rate": round(l1_hits / (l1_hits + l1_misses), 6)
        if l1_hits + l1_misses else 0.0,
        "l2_hit_rate": round(l2_hits / (l2_hits + l2_misses), 6)
        if l2_hits + l2_misses else 0.0,
        "dram_bytes": result.total_dram_bytes,
        "switch_bytes": result.switch_bytes,
        "lane_turns": result.total_lane_turns,
        "migrations": result.migrations,
        "re_homed_pages": result.re_homed_pages,
        "mean_hops": round(result.mean_hops, 6),
        "kernels": result.kernels,
    }


def write_csv(results: Iterable[RunResult], path: str | Path) -> int:
    """Write one CSV row per run; returns the number of rows written."""
    path = Path(path)
    rows = [run_to_dict(r) for r in results]
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=RUN_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def write_json(results: Iterable[RunResult], path: str | Path) -> int:
    """Write the runs as a JSON array; returns the number of entries."""
    path = Path(path)
    rows = [run_to_dict(r) for r in results]
    path.write_text(json.dumps(rows, indent=1))
    return len(rows)


def result_to_json_dict(result: RunResult) -> dict:
    """Lossless JSON form of a run (used by the on-disk result cache).

    Unlike :func:`run_to_dict` (a flattened summary row), this preserves
    every field of the :class:`RunResult` so
    :func:`result_from_json_dict` reconstructs an equal object.

    The topology fields (``edges``, ``hop_histogram``) are emitted only
    when non-empty: the default crossbar reports neither
    (:func:`repro.metrics.report.collect_results`), and its JSON
    form is pinned byte-for-byte by ``tests/golden/hotpath`` — omitting
    empty keys keeps those goldens stable while staying lossless
    (absent key round-trips to the empty default).
    """
    payload = {
        "workload": result.workload,
        "config_label": result.config_label,
        "cycles": result.cycles,
        "n_sockets": result.n_sockets,
        "sockets": [vars(s).copy() for s in result.sockets],
        "switch_bytes": result.switch_bytes,
        "migrations": result.migrations,
        "kernels": result.kernels,
        "link_timelines": {
            name: {"times": ts.times, "values": ts.values}
            for name, ts in result.link_timelines.items()
        },
        "partition_timelines": {
            name: {"times": ts.times, "values": ts.values}
            for name, ts in result.partition_timelines.items()
        },
        "kernel_launch_times": result.kernel_launch_times,
    }
    if result.edges:
        payload["edges"] = [vars(e).copy() for e in result.edges]
    if result.hop_histogram:
        # JSON object keys are strings; hop counts parse back to ints.
        payload["hop_histogram"] = {
            str(hops): count for hops, count in result.hop_histogram.items()
        }
    if result.re_homed_pages:
        # Only dynamic placement policies produce re-homes; omitting the
        # zero default keeps the pre-locality goldens byte-identical.
        payload["re_homed_pages"] = result.re_homed_pages
    return payload


def result_from_json_dict(data: dict) -> RunResult:
    """Inverse of :func:`result_to_json_dict`."""

    def _series(name: str, payload: dict) -> TimeSeries:
        return TimeSeries(
            name=name,
            times=[int(t) for t in payload["times"]],
            values=[float(v) for v in payload["values"]],
        )

    return RunResult(
        workload=data["workload"],
        config_label=data["config_label"],
        cycles=int(data["cycles"]),
        n_sockets=int(data["n_sockets"]),
        sockets=[SocketStats(**s) for s in data["sockets"]],
        switch_bytes=int(data["switch_bytes"]),
        migrations=int(data["migrations"]),
        kernels=int(data["kernels"]),
        link_timelines={
            name: _series(name, payload)
            for name, payload in data["link_timelines"].items()
        },
        partition_timelines={
            name: _series(name, payload)
            for name, payload in data["partition_timelines"].items()
        },
        kernel_launch_times=[int(t) for t in data["kernel_launch_times"]],
        edges=[EdgeStats(**e) for e in data.get("edges", [])],
        hop_histogram={
            int(hops): int(count)
            for hops, count in data.get("hop_histogram", {}).items()
        },
        re_homed_pages=int(data.get("re_homed_pages", 0)),
    )


def registry_to_json_dict(registry) -> dict:
    """Lossless JSON form of a :class:`repro.obs.metrics.MetricRegistry`.

    Counters are end-of-run totals; every gauge's sampled ``TimeSeries``
    is emitted in full (times and values), so
    :func:`registry_from_json_dict` reconstructs equal data. Kept here
    with the other exporters so flattening logic stays in one tested
    place.
    """
    return registry.to_dict()


def registry_from_json_dict(data: dict) -> dict:
    """Inverse of :func:`registry_to_json_dict`.

    Returns ``{"counters": {name: int}, "series": {name: TimeSeries}}``
    — the registry's sampled data without its (unpicklable) reader
    callables.
    """
    return {
        "counters": {
            name: int(value) for name, value in data["counters"].items()
        },
        "series": {
            name: TimeSeries(
                name=name,
                times=[int(t) for t in payload["times"]],
                values=[float(v) for v in payload["values"]],
            )
            for name, payload in data["series"].items()
        },
    }


def read_csv(path: str | Path) -> list[dict]:
    """Read back a CSV written by :func:`write_csv` with typed fields."""
    path = Path(path)
    out: list[dict] = []
    with path.open() as handle:
        for row in csv.DictReader(handle):
            typed = dict(row)
            for key in ("cycles", "n_sockets", "dram_bytes", "switch_bytes",
                        "lane_turns", "migrations", "kernels"):
                typed[key] = int(row[key])
            for key in ("remote_fraction", "l1_hit_rate", "l2_hit_rate"):
                typed[key] = float(row[key])
            # Columns added by the locality layer: default when reading
            # CSVs written before they existed.
            typed["re_homed_pages"] = int(row.get("re_homed_pages") or 0)
            typed["mean_hops"] = float(row.get("mean_hops") or 0.0)
            out.append(typed)
    return out
