"""``stream-live``: a producer streams loop runs beside a labeled reader.

Set-up stores 32 finished Class 4 runs (2 corpus specs x 8 small + 8
medium, with labels) so the live runs share a populated warehouse, then starts a
``QueryService(strategy="labeled", workers=2)`` warmed on those runs.

The producer (the owner thread) then streams medium Class 4 (loop-heavy)
runs through ``StreamingIngestor(warehouse, reasoner=service.reasoner)``:
``open_run``, ``service.warm([run])`` right after it, one
``ingest_events`` call per ``chunk_log(max_events=MAX_EVENTS)`` epoch, and
``finalize_run``.  After every committed epoch that wrote data, the reader
asks for two deep provenance answers: under UAdmin (``view=None``) for the
epoch's newest written datum, and under UBio for the epoch's newest read
datum.  ``stream_visible_ms`` runs from the ``ingest_events`` call to the
UAdmin answer.

A per-epoch read counts as failed when it raises anything other than
``HiddenDataError``.  Two defects of the program show up here.  A
view-level read of a datum no step has read yet raises
``RunError('unknown data id')``, because ``WorkflowRun`` learns data only
from edges.  The timed reads stay clear of it (a gated workload may not
fail), and the traced run measures it with a probe run that also asks
UBio for the newest written datum (``reasoner.live_view_read.fail_ratio``).
Label maintenance on loop runs falls back to full rebuilds on almost
every epoch (``streaming.delta_ratio``).

After the timed loop, every streamed run is checked against a cold batch
load of the same run (same relations, same checksum) and its converged
UAdmin answer against ``provenance.queries``.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.errors import HiddenDataError
from repro.core.view import admin_view
from repro.provenance.queries import deep_provenance
from repro.run.log import log_from_run
from repro.serve import QueryService
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.recovery import checksum_stored_run
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor, chunk_log


from common import (
    Result, cache_ratios, encode_answer, layer_totals, ms, per_request_layers,
    percentile, serve_overheads, traced_result, wrap_reasoner, wrap_warehouse,
)
import inputs
from spans import Tracer
from store import fresh_db, io_row_count, remove_db, store_footprint

SPECS = 2
#: Finished runs per spec stored before streaming starts.
BACKGROUND = ("small",) * 8 + ("medium",) * 8
LIVE_KIND = "medium"
#: Upper bound on live runs per timed loop (the loop stops at --seconds).
MAX_LIVE_RUNS = 400
LIVE_STRATA = 8
MAX_EVENTS = 64
WORKERS = 2
SETUP_REPEATS = 3


@dataclass
class LiveRun:
    run_id: str
    spec_id: str
    sim: Any
    chunks: List[List[Any]]
    events: int
    ubio: Any
    final: str


def make_inputs(seed: int) -> Tuple[List, List[Tuple[Any, Any]]]:
    """Background workload items and, per spec, (spec, UBio view)."""
    rng = random.Random(seed)
    items = []
    views = []
    for spec_index, generated in enumerate(inputs.specs("Class4", SPECS)):
        spec = generated.spec
        views.append((spec, build_user_view(
            spec, generated.suggested_relevant, name="UBio")))
        sims = []
        for kind in ("small", "medium"):
            per_spec = BACKGROUND.count(kind)
            for number in range(per_spec):
                sims.append(inputs.run(
                    spec, kind, number * SPECS + spec_index, per_spec * SPECS,
                    rng, run_id="b%d" % len(sims)))
        items.append((spec, sims))
    return items, views


def live_run(seed: int, index: int, views: List[Tuple[Any, Any]]) -> LiveRun:
    """The ``index``-th live run, independent of how many others are used.

    Runs alternate between the specs and cycle through LIVE_STRATA slices
    of the medium run class.
    """
    spec, ubio = views[index % len(views)]
    sim = inputs.run(spec, LIVE_KIND, (index // len(views)) % LIVE_STRATA,
                     LIVE_STRATA, random.Random(seed * 1000003 + index),
                     run_id="l%d" % index)
    log = log_from_run(sim.run)
    return LiveRun(
        run_id="%s/live%d" % (spec.name, index),
        spec_id=spec.name,
        sim=sim,
        chunks=chunk_log(log, max_events=MAX_EVENTS),
        events=len(log),
        ubio=ubio,
        final=min(sim.run.final_outputs()),
    )


def newest(chunk, kind: str) -> Optional[str]:
    """The data id of the chunk's last ``kind`` event (``write``/``read``)."""
    for event in reversed(chunk):
        if event.kind == kind:
            return event.data_id
    return None


class StreamLive:
    name = "stream-live"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.items, self.views = make_inputs(seed)
        self.background = ["%s/run%d" % (spec.name, n + 1)
                           for spec, sims in self.items for n in range(len(sims))]
        self.path: Optional[str] = None
        self.next_live = 0

    # -- set-up ---------------------------------------------------------

    def _start(self, timing: bool = False, tracer: Optional[Tracer] = None):
        warehouse = SqliteWarehouse(self.path, timing=timing)
        if tracer is not None:
            wrap_warehouse(tracer, warehouse)
        service = QueryService(warehouse, strategy="labeled", workers=WORKERS)
        ingestor = StreamingIngestor(warehouse, reasoner=service.reasoner)
        if tracer is not None:
            wrap_reasoner(tracer, service.reasoner)
            tracer.wrap(service._results, ("get_or_build",), "serve.cache")
            tracer.wrap_service(service)
            tracer.wrap(ingestor, ("open_run", "ingest_events", "finalize_run"),
                        "streaming")
        service.warm(self.background)
        return warehouse, service.start(), ingestor

    def setup(self, repeats: int = SETUP_REPEATS) -> Dict[str, float]:
        times = []
        for _ in range(repeats):
            if self.path is not None:
                remove_db(self.path)
            gc.collect()
            self.path = fresh_db(self.workdir, "stream")
            started = time.perf_counter()
            warehouse = SqliteWarehouse(self.path)
            ingest_dataset(warehouse, self.items, jobs=0, labels=True)
            warehouse.close()
            warehouse, service, _ingestor = self._start()
            times.append(time.perf_counter() - started)
            service.close()
            warehouse.close()
        self.setup_times = times
        return {"setup_s": sorted(times)[len(times) // 2]}

    # -- measurement ----------------------------------------------------

    def _stream_one(self, live: LiveRun, warehouse, service, ingestor,
                    out: Dict[str, List], tracer: Optional[Tracer],
                    probe: bool) -> None:
        started = time.perf_counter()
        ingestor.open_run(live.run_id, live.spec_id)
        service.warm([live.run_id])
        for chunk in live.chunks:
            tick = time.perf_counter()
            if tracer is None:
                ingestor.ingest_events(live.run_id, chunk)
            else:
                with tracer.request("stream.epoch"):
                    ingestor.ingest_events(live.run_id, chunk)
            committed = time.perf_counter()
            out["commit"].append(committed - tick)
            out["epochs"] += 1
            written = newest(chunk, "write")
            if written is None:
                continue
            # A datum some step has read is on an edge of the live run, so
            # a view-level read can resolve it; a newest written datum may
            # not be yet (the defect the probe measures).
            reads = (("uadmin", None, written),
                     ("ubio", live.ubio, newest(chunk, "read")))
            if probe:
                reads += (("probe", live.ubio, written),)
            for view_name, view, datum in reads:
                if datum is None:
                    continue
                out["probes" if view_name == "probe" else "reads"] += 1
                try:
                    service.query("deep", live.run_id, data_id=datum, view=view)
                except HiddenDataError:
                    pass
                except Exception as exc:  # noqa: BLE001 - a failed read, counted
                    if view_name == "probe":
                        out["probe_failures"] += 1
                    else:
                        out["failures"].append("%s epoch read %s of %s: %s: %s" % (
                            view_name, live.run_id, datum, type(exc).__name__, exc))
                if view_name == "uadmin":
                    out["visible"].append(time.perf_counter() - tick)
        ingestor.finalize_run(live.run_id)
        out["wall"] += time.perf_counter() - started
        out["events"] += live.events
        out["streamed"].append(live)

    def measure(self, seconds: float, tracer: Optional[Tracer] = None,
                sql: Any = None, probe: bool = False) -> Dict[str, Any]:
        """Stream live runs until ``seconds`` of streaming have passed.

        ``probe`` adds the defect probe's read to every epoch; a probe pass
        is never timed.
        """
        warehouse, service, ingestor = self._start(
            timing=tracer is not None, tracer=tracer)
        if tracer is not None:
            tracer.spans.clear()
            sql_before = sql.value
        out: Dict[str, Any] = {
            "commit": [], "visible": [], "failures": [], "streamed": [],
            "epochs": 0, "reads": 0, "events": 0, "wall": 0.0,
            "probes": 0, "probe_failures": 0,
        }
        gc.collect()
        try:
            while self.next_live < MAX_LIVE_RUNS:
                live = live_run(self.seed, self.next_live, self.views)
                self.next_live += 1
                self._stream_one(live, warehouse, service, ingestor, out, tracer,
                                 probe)
                if out["wall"] >= seconds:
                    break
            if tracer is not None:
                out["sql"] = sql.value - sql_before
            out["stats"] = service.stats()
            out["final_answers"] = [
                (live, service.query("deep", live.run_id, data_id=live.final))
                for live in out["streamed"]
            ]
        finally:
            service.close()
            warehouse.close()
        return out

    def check(self, out: Dict[str, Any]) -> Tuple[int, int, List[str]]:
        """Failed epoch reads, plus each converged run against a batch load."""
        mismatches: List[str] = []
        attempted = out["epochs"] + out["reads"]
        live_wh = SqliteWarehouse(self.path)
        cold_wh = SqliteWarehouse(":memory:")
        try:
            for spec, _sims in self.items:
                cold_wh.store_spec(spec)
            for live, answer in out["final_answers"]:
                attempted += 2
                cold_wh.store_run(live.sim.run, live.spec_id, run_id=live.run_id)
                same_rows = all(
                    sorted(getattr(live_wh, rel)(live.run_id))
                    == sorted(getattr(cold_wh, rel)(live.run_id))
                    for rel in ("steps_of_run", "io_rows", "user_inputs",
                                "final_outputs")
                ) and checksum_stored_run(live_wh, live.run_id) == \
                    checksum_stored_run(cold_wh, live.run_id)
                if not same_rows:
                    mismatches.append("%s: converged rows differ from a cold"
                                      " batch load" % live.run_id)
                expected = deep_provenance(
                    CompositeRun(live.sim.run, admin_view(live.sim.run.spec)),
                    live.final)
                if encode_answer("deep", answer) != encode_answer("deep", expected):
                    mismatches.append("%s: converged UAdmin answer differs"
                                      " from reference" % live.run_id)
        finally:
            live_wh.close()
            cold_wh.close()
        failures = mismatches + out["failures"]
        return attempted, len(failures), len(mismatches), failures

    @staticmethod
    def headline(out: Dict[str, Any]) -> Dict[str, float]:
        return {
            "latency_ms.p50": ms(percentile(out["visible"], 50)),
            "latency_ms.mean": ms(sum(out["visible"]) / len(out["visible"])),
            "second_ms.p50": ms(percentile(out["commit"], 50)),
        }

    def run_e2e(self, seconds: float) -> Result:
        setup = self.setup()
        out = self.measure(seconds)
        attempted, failed, mismatched, failures = self.check(out)
        io_rows = io_row_count(self.path)
        bytes_per_row = store_footprint(self.path) / io_rows
        events_per_s = out["events"] / out["wall"]
        metrics = dict(self.headline(out))
        metrics.update({
            "throughput_per_s": events_per_s,
            "store_bytes_per_row": bytes_per_row,
            "setup_s": setup["setup_s"],
        })
        named = {
            "stream_visible_ms.p50": (metrics["latency_ms.p50"], "ms"),
            "stream_visible_ms.p90": (ms(percentile(out["visible"], 90)), "ms"),
            "stream_visible_ms.mean": (metrics["latency_ms.mean"], "ms"),
            "stream_commit_ms.p50": (metrics["second_ms.p50"], "ms"),
            "stream_events_per_s": (events_per_s, "events/s"),
            "store_bytes_per_row": (bytes_per_row, "B/row"),
            "runs_streamed": (float(len(out["streamed"])), "runs"),
            "failed_reads": (float(len(out["failures"])), "reads"),
        }
        samples = {
            "stream_visible_ms": len(out["visible"]),
            "stream_commit_ms": len(out["commit"]),
            "setup_s": len(self.setup_times),
        }
        return Result(metrics, named, samples, attempted, failed, mismatched, failures)

    def run_traced(self, seconds: float, registry: Any) -> Result:
        """Untraced and traced passes of half the time each, on fresh runs."""
        self.setup(repeats=1)
        base = self.measure(seconds / 2)
        tracer = Tracer()
        delta, rebuild = registry.counter("stream.delta"), registry.counter("stream.rebuild")
        delta0, rebuild0 = delta.value, rebuild.value
        traced = self.measure(seconds / 2, tracer, registry.counter("warehouse.sql"))
        # One more live run, untimed: UBio also asks for each epoch's
        # newest written datum, which the live run may not know yet.
        probe = self.measure(0.0, probe=True)
        spans = tracer.spans
        layers = per_request_layers(layer_totals(spans), traced["epochs"], traced["sql"])
        overheads = serve_overheads(spans)
        stats = traced["stats"]
        deltas = delta.value - delta0
        rebuilds = rebuild.value - rebuild0
        layers.update({
            "serve.overhead_ms.p50": ms(percentile(overheads, 50)),
            "serve.overhead_ms.p99": ms(percentile(overheads, 99)),
            "serve.results.hit_ratio": stats["cache"]["hit_rate"],
            "serve.results.evictions": stats["cache"]["evictions"],
            "serve.results.stale_drops": stats["cache"]["stale_drops"],
            "serve.rejected": stats["rejected"],
            "streaming.delta_ratio": deltas / (deltas + rebuilds) if deltas + rebuilds else 0.0,
            "reasoner.live_view_read.fail_ratio":
                probe["probe_failures"] / probe["probes"] if probe["probes"] else 0.0,
        })
        layers.update(cache_ratios(stats["reasoner"]))
        return traced_result(
            layers, {"traced_epochs": traced["epochs"]},
            self.headline(base), self.headline(traced),
            [self.check(base), self.check(traced), self.check(probe)], spans)
