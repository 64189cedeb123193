"""Streaming ingestion benchmark — ``BENCH_stream.json``.

Three claims of the crash-safe streaming protocol, measured end to end on
a SQLite warehouse:

* **append throughput** — events/s sustained by the journaled epoch
  protocol (open, chunked appends, finalize) across a batch of runs;
* **label upkeep** — the cost of keeping a run's reachability labels
  current while it streams: built when the run opens, then advanced
  after every committed epoch, incrementally (``try_extend``) when the
  epoch only adds forest roots and by a rebuild otherwise (the interval
  encoding is global, so chained steps legitimately rebuild — see the
  ``try_extend`` docstring).  Reported as total overhead over the plain
  append of the same stream, with the delta/rebuild split;
* **watch latency** — p50/p95 of :meth:`repro.zoom.session.RunWatch.poll`
  observing each committed epoch (stream-state read + reasoner refresh).

Assertions:

* the labels are maintained on every committed epoch
  (``stream.delta`` + ``stream.rebuild`` == epochs);
* the checksum the producer computed matches the stored rows.

Run standalone for CI (``python benchmarks/bench_stream.py --smoke``) or
under pytest with the other benchmarks; both write ``BENCH_stream.json``
at the repository root.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # standalone execution
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.obs import MetricsRegistry, set_registry  # noqa: E402
from repro.run.log import log_from_run  # noqa: E402
from repro.warehouse.recovery import checksum_stored_run  # noqa: E402
from repro.warehouse.sqlite import SqliteWarehouse  # noqa: E402
from repro.warehouse.streaming import (  # noqa: E402
    StreamingIngestor,
    chunk_log,
)
from repro.workloads.classes import (  # noqa: E402
    RUN_CLASSES,
    WORKFLOW_CLASSES,
)
from repro.workloads.generator import generate_workflow  # noqa: E402
from repro.workloads.runs import generate_run  # noqa: E402
from repro.zoom.session import Session  # noqa: E402

_JSON_PATH = _REPO_ROOT / "BENCH_stream.json"

FULL_PARAMS = dict(runs=5, target_size=16, run_class="small", max_events=8)
SMOKE_PARAMS = dict(runs=3, target_size=10, run_class="small", max_events=6)


def _percentile(samples, q):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _make_logs(runs, target_size, run_class, seed=7):
    """(spec, [(run_id, log)]) for one generated workflow."""
    rng = random.Random(seed)
    generated = generate_workflow(
        WORKFLOW_CLASSES["Class2"], rng, target_size=target_size,
        name="bench-stream",
    )
    logs = []
    for number in range(runs):
        record = generate_run(
            generated.spec, RUN_CLASSES[run_class], rng,
            run_id="r%d" % number,
        )
        logs.append((
            "%s/run%d" % (generated.spec.name, number + 1),
            log_from_run(record.run),
        ))
    return generated.spec, logs


def _stream(warehouse, spec_id, run_id, chunks, *, before_epoch=None,
            session=None):
    """Stream one chunked run; returns (elapsed_s, per-epoch durations)."""
    ingestor = StreamingIngestor(
        warehouse,
        reasoner=None if session is None else session.reasoner,
    )
    watch = None if session is None else session.watch(run_id)
    poll_latencies = []
    epoch_durations = []
    started = time.perf_counter()
    ingestor.open_run(run_id, spec_id)
    if before_epoch is not None:
        before_epoch(run_id)
    for chunk in chunks:
        tick = time.perf_counter()
        ingestor.ingest_events(run_id, chunk)
        epoch_durations.append(time.perf_counter() - tick)
        if watch is not None:
            tick = time.perf_counter()
            update = watch.poll()
            poll_latencies.append(time.perf_counter() - tick)
            assert update is not None and not update.final
    checksum = ingestor.finalize_run(run_id)
    elapsed = time.perf_counter() - started
    assert checksum == checksum_stored_run(warehouse, run_id)
    return elapsed, epoch_durations, poll_latencies


def run_streaming_benchmark(runs, target_size, run_class, max_events):
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        spec, logs = _make_logs(runs, target_size, run_class)
        chunked = [
            (run_id, chunk_log(log, max_events=max_events))
            for run_id, log in logs
        ]
        total_events = sum(len(log) for _r, log in logs)
        total_epochs = sum(len(chunks) for _r, chunks in chunked)

        with tempfile.TemporaryDirectory(prefix="bench-stream-") as tmp:
            # Phase 1 — plain append throughput + watch latency (no
            # persistent indexes in the way).
            warehouse = SqliteWarehouse(str(Path(tmp) / "plain.sqlite"))
            spec_id = warehouse.store_spec(spec)
            session = Session(warehouse, spec_id)
            append_time = 0.0
            polls = []
            for run_id, chunks in chunked:
                elapsed, _epochs, latencies = _stream(
                    warehouse, spec_id, run_id, chunks, session=session,
                )
                append_time += elapsed
                polls.extend(latencies)
            warehouse.close()

            # Phase 2 — label upkeep: labels built when the run opens,
            # advanced by the ingestor after every committed epoch.
            warehouse = SqliteWarehouse(str(Path(tmp) / "labels.sqlite"))
            spec_id = warehouse.store_spec(spec)
            labels_time = 0.0
            for run_id, chunks in chunked:
                elapsed, _epochs, _polls = _stream(
                    warehouse, spec_id, run_id, chunks,
                    before_epoch=warehouse.build_label_index,
                )
                labels_time += elapsed
            delta_count = registry.counter("stream.delta").value
            rebuild_count = registry.counter("stream.rebuild").value
            warehouse.close()

        return {
            "runs": runs,
            "epochs": total_epochs,
            "events": total_events,
            "max_events": max_events,
            "append_s": round(append_time, 6),
            "events_per_s": round(total_events / append_time, 1),
            "labels": {
                "delta": delta_count,
                "rebuild": rebuild_count,
                "total_s": round(labels_time, 6),
                "overhead_s": round(max(labels_time - append_time, 0.0), 6),
            },
            "watch": {
                "polls": len(polls),
                "p50_ms": round(_percentile(polls, 0.50) * 1e3, 4),
                "p95_ms": round(_percentile(polls, 0.95) * 1e3, 4),
            },
        }
    finally:
        set_registry(previous)


def _write(payload: dict, out: Path) -> None:
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _print_summary(payload: dict) -> None:
    print("\n== Streaming ingestion (%d runs, %d epochs, %d events) =="
          % (payload["runs"], payload["epochs"], payload["events"]))
    print("  append throughput: %10.1f events/s" % payload["events_per_s"])
    print("  label upkeep: %.3fs overhead (%d delta, %d rebuild epochs)"
          % (payload["labels"]["overhead_s"], payload["labels"]["delta"],
             payload["labels"]["rebuild"]))
    print("  watch poll latency: p50 %.3f ms  p95 %.3f ms  (%d polls)"
          % (payload["watch"]["p50_ms"], payload["watch"]["p95_ms"],
             payload["watch"]["polls"]))


def _check(payload: dict) -> None:
    assert payload["events_per_s"] > 0
    labels = payload["labels"]
    assert labels["delta"] + labels["rebuild"] == payload["epochs"], (
        "labels maintained on %d of %d epochs"
        % (labels["delta"] + labels["rebuild"], payload["epochs"])
    )
    assert payload["watch"]["polls"] == payload["epochs"]


def test_bench_stream(record_property=None) -> None:
    """Pytest entry point: full workload, writes BENCH_stream.json."""
    payload = run_streaming_benchmark(**FULL_PARAMS)
    _write(payload, _JSON_PATH)
    _print_summary(payload)
    _check(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced CI workload (small runs only)")
    parser.add_argument("--out", default=str(_JSON_PATH),
                        help="where to write the JSON payload")
    parser.add_argument("--runs", type=int, default=None,
                        help="override the streamed-run count")
    args = parser.parse_args(argv)

    params = dict(SMOKE_PARAMS) if args.smoke else dict(FULL_PARAMS)
    if args.runs is not None:
        params["runs"] = args.runs

    payload = run_streaming_benchmark(**params)
    _write(payload, Path(args.out))
    _print_summary(payload)
    try:
        _check(payload)
    except AssertionError as exc:
        print("FAILED: %s" % exc, file=sys.stderr)
        return 1
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
