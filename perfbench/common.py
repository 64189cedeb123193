"""Shared pieces: percentiles, answer encoding, layer aggregation, envelope."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import sqlite3
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from spans import Span, Tracer, self_check, self_times

#: The SQLite flush policy every workload runs under: the warehouse's own
#: default service profile.  ``store_many`` batch commits drop to
#: ``synchronous=OFF`` and restore ``NORMAL`` afterwards (program default).
FLUSH_POLICY = (
    "journal_mode=WAL, synchronous=NORMAL (SqliteWarehouse default service"
    " profile; store_many batch commits run at synchronous=OFF and restore"
    " NORMAL), wal_autocheckpoint=1000 pages"
)

#: Per-request layer self times must sum to the request's wall time within
#: this relative error, or the traced run reports itself incorrect.
SELF_CHECK_TOLERANCE = 0.01


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` are the BENCHMARK.json metrics of the mode; ``named`` the
    same figures (and a few more) under the names the docs use, with units.
    ``failed`` counts failed or refused operations and wrong answers.
    """

    metrics: Dict[str, float]
    named: Dict[str, Tuple[float, str]]
    samples: Dict[str, int]
    attempted: int
    failed: int
    #: Answers that differ from the reference (a subset of ``failed``).
    mismatches: int
    failures: List[str]
    spans: List[Span] = field(default_factory=list)
    check: Dict[str, float] = field(default_factory=dict)


class GcPauses:
    """Records the interpreter's full (generation 2) collections.

    A full collection stops every thread, so it is part of every latency
    measured across it; the benchmark reports the pauses beside the
    latencies instead of hiding them.
    """

    def __init__(self) -> None:
        self.pauses: List[Tuple[float, float]] = []
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if info.get("generation") != 2:
            return
        now = time.perf_counter()
        if phase == "start":
            self._started = now
        else:
            self.pauses.append((self._started, now))

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)

    def max_ms(self) -> float:
        return max((ms(end - start) for start, end in self.pauses), default=0.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ms(seconds: float) -> float:
    return seconds * 1000.0


# -- answers --------------------------------------------------------------


def encode_answer(kind: str, answer: Any) -> bytes:
    """Canonical bytes of an answer, independent of row order and view name.

    ``deep``: target, sorted (step, module, input) rows, sorted user inputs.
    ``reverse``: source, sorted rows, sorted derived data, sorted final
    outputs.  ``zoom``: the sorted visible data.
    """
    if kind == "deep":
        body = [
            answer.target,
            sorted((r.step_id, r.module, r.data_in) for r in answer.rows),
            sorted(answer.user_inputs),
        ]
    elif kind == "reverse":
        body = [
            answer.source,
            sorted((r.step_id, r.module, r.data_in) for r in answer.rows),
            sorted(answer.derived),
            sorted(answer.final_outputs),
        ]
    else:
        body = sorted(answer)
    return json.dumps(body, separators=(",", ":")).encode()


# -- layers -----------------------------------------------------------------


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += span.end - span.start
        entry["self"] += selfs[span.sid]
    return out


def check_spans(spans: List[Span]) -> Dict[str, float]:
    """Run the self-check; returns its figures (raises nothing).

    Besides the per-request sum, every worker-side ``serve.answer`` span
    must belong to a request: an orphan means a worker's spans were not
    attributed to the request it executed.
    """
    requests, worst = self_check(spans, self_times(spans))
    orphans = sum(1 for s in spans if s.name == "serve.answer" and s.request == 0)
    return {"requests": requests, "worst_rel_error": worst, "orphans": orphans}


def serve_overheads(spans: List[Span]) -> List[float]:
    """Per ``serve.request``: wall seconds minus time inside reasoner calls."""
    reasoner_time: Dict[int, float] = {}
    for span in spans:
        if span.name.startswith("reasoner.") and not (
            span.parent is not None and span.parent.name.startswith("reasoner.")
        ):
            reasoner_time[span.request] = (
                reasoner_time.get(span.request, 0.0) + span.end - span.start
            )
    return [
        (span.end - span.start) - reasoner_time.get(span.request, 0.0)
        for span in spans
        if span.name == "serve.request" and span.parent is None
    ]


def per_request_layers(
    totals: Dict[str, Dict[str, float]], requests: int, sql_statements: int
) -> Dict[str, float]:
    """The ms/req and calls/req metrics of the measured phase."""
    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    n = max(1, requests)
    journal = get("warehouse.journal_begin", "total") + get(
        "warehouse.journal_commit", "total"
    )
    return {
        "reasoner.composite_run.self_ms": ms(get("reasoner.composite_run", "self")) / n,
        "reasoner.deep.self_ms": ms(get("reasoner.deep", "self")) / n,
        "reasoner.reverse.self_ms": ms(get("reasoner.reverse", "self")) / n,
        "reasoner.refresh_run.ms": ms(get("reasoner.refresh_run", "total")) / n,
        "warehouse.get_run.ms": ms(get("warehouse.get_run", "total")) / n,
        "warehouse.get_run.calls": get("warehouse.get_run", "calls") / n,
        "warehouse.admin_deep_provenance.ms":
            ms(get("warehouse.admin_deep_provenance", "total")) / n,
        "warehouse.admin_deep_provenance.calls":
            get("warehouse.admin_deep_provenance", "calls") / n,
        "warehouse.label_lookup.ms": ms(get("warehouse.label_lookup", "total")) / n,
        "warehouse.label_lookup.calls": get("warehouse.label_lookup", "calls") / n,
        "warehouse.build_label_index.ms":
            ms(get("warehouse.build_label_index", "total")) / n,
        "warehouse.io_rows.calls": get("warehouse.io_rows", "calls") / n,
        "warehouse.steps_of_run.calls": get("warehouse.steps_of_run", "calls") / n,
        "warehouse.sql.statements": sql_statements / n,
        "warehouse.stream_apply.ms": ms(get("warehouse.stream_apply", "total")) / n,
        "warehouse.journal.ms": ms(journal) / n,
        "streaming.ingest_events.self_ms":
            ms(get("streaming.ingest_events", "self")) / n,
    }


def cache_ratios(stats: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Hit ratios and evictions from ``ProvenanceReasoner.stats()``."""
    def ratio(name: str) -> float:
        entry = stats.get(name, {})
        lookups = entry.get("hits", 0) + entry.get("misses", 0)
        return entry.get("hits", 0) / lookups if lookups else 0.0

    return {
        "reasoner.runs.hit_ratio": ratio("runs"),
        "reasoner.runs.evictions": float(stats.get("runs", {}).get("evictions", 0)),
        "reasoner.composites.hit_ratio": ratio("composites"),
        "reasoner.closures.hit_ratio": ratio("closures"),
    }


def traced_result(
    layers: Dict[str, float], samples: Dict[str, int],
    base: Dict[str, float], traced: Dict[str, float],
    checks: Sequence[Tuple[int, int, int, List[str]]], spans: List[Span],
) -> Result:
    """Per-layer result: tracing overhead per headline latency, both passes'
    answer checks, and the span self-check."""
    for key, untraced in base.items():
        layers["trace.overhead_pct." + key] = (
            (traced[key] - untraced) / untraced * 100.0 if untraced else 0.0
        )
    attempted, failed, mismatched = (sum(c[i] for c in checks) for i in range(3))
    failures = [f for c in checks for f in c[3]]
    return Result(layers, {}, samples, attempted, failed, mismatched, failures,
                  spans=spans, check=check_spans(spans))


def wrap_reasoner(tracer: Tracer, reasoner: Any) -> None:
    tracer.wrap(reasoner, (
        "deep", "reverse", "admin_deep", "composite_run", "refresh_run",
        "ensure_run_ready",
    ), "reasoner")


def wrap_warehouse(tracer: Tracer, warehouse: Any) -> None:
    tracer.wrap(warehouse, (
        "get_run", "get_spec", "run_spec_id", "steps_of_run", "io_rows",
        "user_inputs", "final_outputs", "producer_of",
        "admin_deep_provenance", "label_lookup", "build_label_index",
        "has_label_index", "label_rows_raw", "label_index_version",
        "drop_label_index", "has_lineage_index",
        "store_spec", "store_view", "store_many",
        "journal_begin", "journal_commit",
        "stream_begin", "stream_apply", "stream_mark_delta", "stream_close",
    ), "warehouse")


# -- run envelope -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``src/`` (path and bytes), sorted."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def envelope(
    root: Path, workload: str, seed: int, seconds: float, trace: bool,
    samples: Dict[str, int],
) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "sqlite": sqlite3.sqlite_version,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "flush_policy": FLUSH_POLICY,
        "samples": samples,
    }


def print_table(title: str, rows: Iterable[Sequence[Any]]) -> None:
    print("== %s ==" % title)
    for name, value, unit in rows:
        if isinstance(value, float):
            value = "%.4f" % value
        print("  %-42s %14s  %s" % (name, value, unit))
