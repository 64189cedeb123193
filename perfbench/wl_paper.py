"""``paper-session``: one interactive user replaying the paper's sequence.

Closed loop, one client.  Set-up batch-loads 108 runs (Class 1-4 x
small/medium/large, 3 corpus specs per class, 3 stratified runs per spec
and kind; see ``inputs``) through
``ingest_dataset(jobs=0)``.  Each cycle then takes the next run and

1. opens a fresh ``Session`` (default ``cached`` strategy) and calls
   ``set_relevant(UBio)``;
2. runs the *cold* deep provenance of the final output (``cold_deep_ms``);
3. switches to UAdmin -- the reasoner's ``view=None`` query, answered from
   the warehouse's recursive closure (``uadmin_deep_ms``) -- and to
   UBlackBox: ``set_relevant([])`` + re-query on the warm run
   (``view_switch_ms``);
4. returns to UBio and calls ``derived_from`` on a user input
   (``reverse_ms``).

Every run gets a fresh Session, so the working set is larger than every
reasoner cache by construction: recursive SQL, run materialisation,
composite construction and view projection do the work; the serve layer
and the labels do none.

The timed loop makes whole passes over every run and batch-loads the runs
again into a scratch file after each pass, so the load samples behind
``load_rows_per_s`` are spread over the run as the query samples are.
The host's speed drifts over tens of seconds; figures taken in one corner
of a run would follow that drift instead of the program.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.view import admin_view
from repro.provenance.queries import deep_provenance, reverse_provenance
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import WORKFLOW_CLASSES
from repro.zoom.session import Session


from common import (
    Result, cache_ratios, encode_answer, layer_totals, ms, per_request_layers,
    percentile, traced_result, wrap_reasoner, wrap_warehouse,
)
import inputs
from spans import Tracer
from store import fresh_db, io_row_count, remove_db, store_footprint

KINDS = ("small", "medium", "large")
SPECS_PER_CLASS = 3
RUNS_PER_KIND = 3
SETUP_REPEATS = 5


@dataclass
class RunCase:
    """One stored run, its UBio relevant set and its reference answers."""

    run_id: str
    spec_id: str
    bucket: Tuple[str, str]
    final: str
    user_input: str
    ubio: List[str]
    expected: Dict[str, bytes]


def make_inputs(seed: int) -> Tuple[List, List[RunCase]]:
    """Generated workload plus reference answers from ``provenance.queries``."""
    rng = random.Random(seed)
    items = []
    cases: List[RunCase] = []
    for class_name in sorted(WORKFLOW_CLASSES):
        for spec_index, generated in enumerate(inputs.specs(class_name, SPECS_PER_CLASS)):
            spec = generated.spec
            ubio_relevant = sorted(generated.suggested_relevant)
            views = {
                "ubio": build_user_view(spec, ubio_relevant, name="UBio"),
                "uadmin": admin_view(spec),
                "ublackbox": build_user_view(spec, [], name="UBlackBox"),
            }
            sims = []
            for kind in KINDS:
                for number in range(RUNS_PER_KIND):
                    sim = inputs.run(
                        spec, kind, number * SPECS_PER_CLASS + spec_index,
                        SPECS_PER_CLASS * RUNS_PER_KIND, rng,
                        run_id="r%d" % (len(sims) + 1),
                    )
                    sims.append(sim)
                    run = sim.run
                    final = min(run.final_outputs())
                    user_input = rng.choice(sorted(run.user_inputs()))
                    composites = {
                        name: CompositeRun(run, view) for name, view in views.items()
                    }
                    expected = {
                        "cold": encode_answer(
                            "deep", deep_provenance(composites["ubio"], final)),
                        "uadmin": encode_answer(
                            "deep", deep_provenance(composites["uadmin"], final)),
                        "ublackbox": encode_answer(
                            "deep", deep_provenance(composites["ublackbox"], final)),
                        "reverse": encode_answer(
                            "reverse",
                            reverse_provenance(composites["ubio"], user_input)),
                    }
                    cases.append(RunCase(
                        run_id="%s/run%d" % (spec.name, len(sims)),
                        spec_id=spec.name,
                        bucket=(class_name, kind),
                        final=final,
                        user_input=user_input,
                        ubio=ubio_relevant,
                        expected=expected,
                    ))
            items.append((spec, sims))
    return items, cases


def mean_of_run_medians(samples: List[float], passes: int) -> float:
    """The mean over runs of each run's median over the passes.

    Every pass visits the runs in the same order, so sample ``i`` of each
    pass belongs to the same run.  The median drops a sample that a slow
    spell of the host or a full collection hit; the mean over runs is the
    paper's average response time.
    """
    per_pass = len(samples) // passes
    return sum(statistics.median(samples[i::per_pass])
               for i in range(per_pass)) / per_pass


def visit_order(cases: List[RunCase], seed: int) -> List[List[RunCase]]:
    """Rounds of one run per (class, kind) bucket, runs shuffled per bucket.

    A pass visits every round once, so the mix of run kinds is the same at
    every point of a pass."""
    rng = random.Random(seed * 7919 + 1)
    buckets: Dict[Tuple[str, str], List[RunCase]] = {}
    for case in cases:
        buckets.setdefault(case.bucket, []).append(case)
    for members in buckets.values():
        rng.shuffle(members)
    keys = sorted(buckets)
    depth = min(len(m) for m in buckets.values())
    return [[buckets[key][i] for key in keys] for i in range(depth)]


class PaperSession:
    name = "paper-session"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.items, self.cases = make_inputs(seed)
        self.rounds = visit_order(self.cases, seed)
        self.path: Optional[str] = None

    # -- set-up ---------------------------------------------------------

    def _load(self, tracer: Optional[Tracer] = None) -> Tuple[str, float]:
        path = fresh_db(self.workdir, "paper")
        started = time.perf_counter()
        warehouse = SqliteWarehouse(path, timing=tracer is not None)
        if tracer is not None:
            wrap_warehouse(tracer, warehouse)
            with tracer.span("pipeline.ingest_dataset"):
                ingest_dataset(warehouse, self.items, jobs=0)
        else:
            ingest_dataset(warehouse, self.items, jobs=0)
        warehouse.close()
        return path, time.perf_counter() - started

    def setup(self, repeats: int = SETUP_REPEATS) -> Dict[str, float]:
        times = []
        for _ in range(repeats):
            if self.path is not None:
                remove_db(self.path)
            gc.collect()
            self.path, elapsed = self._load()
            times.append(elapsed)
        self.io_rows = io_row_count(self.path)
        self.setup_times = times
        return {"setup_s": sorted(times)[len(times) // 2]}

    # -- measurement ----------------------------------------------------

    def _cycle(
        self, warehouse: SqliteWarehouse, case: RunCase, out: Dict[str, List],
        tracer: Optional[Tracer],
    ) -> None:
        def timed(op: str, call):
            started = time.perf_counter()
            if tracer is None:
                answer = call()
            else:
                with tracer.request("session." + op):
                    answer = call()
            out[op].append(time.perf_counter() - started)
            # Compare now and keep only the verdict: holding every answer
            # would grow the heap the collector scans as the run goes on.
            kind = "reverse" if op == "reverse" else "deep"
            out["checked"] += 1
            if encode_answer(kind, answer) != case.expected[op]:
                out["mismatches"].append(
                    "%s %s: answer differs from reference" % (case.run_id, op))

        session = Session(warehouse, case.spec_id)
        if tracer is not None:
            wrap_reasoner(tracer, session.reasoner)
            tracer.wrap(session, ("set_relevant", "deep_provenance",
                                  "derived_from"), "session")
        session.set_relevant(case.ubio)
        timed("cold", lambda: session.deep_provenance(case.run_id, case.final))
        timed("uadmin", lambda: session.reasoner.deep(case.run_id, case.final))
        timed("ublackbox", lambda: (
            session.set_relevant([]),
            session.deep_provenance(case.run_id, case.final),
        )[1])
        session.set_relevant(case.ubio)
        timed("reverse", lambda: session.derived_from(case.run_id, case.user_input))
        out["reasoner_stats"].append(session.reasoner.stats())

    def measure(self, seconds: float, tracer: Optional[Tracer] = None,
                reload: bool = False) -> Dict[str, Any]:
        """Whole passes until ``seconds`` have passed; with ``reload``, one
        timed batch load into a scratch file after each pass (``loads``)."""
        warehouse = SqliteWarehouse(self.path, timing=tracer is not None)
        if tracer is not None:
            wrap_warehouse(tracer, warehouse)
        out: Dict[str, List] = {
            "cold": [], "uadmin": [], "ublackbox": [], "reverse": [],
            "checked": 0, "mismatches": [], "reasoner_stats": [], "passes": 0,
            "loads": [],
        }
        started = time.perf_counter()
        try:
            # Whole passes over every run, so each run weighs the same in
            # the percentiles however many passes fit in ``seconds``.  Each
            # pass starts from a collected heap, so the program's own
            # collections fall at the same points of every pass.
            while True:
                gc.collect()
                for round_ in self.rounds:
                    for case in round_:
                        self._cycle(warehouse, case, out, tracer)
                out["passes"] += 1
                if reload:
                    gc.collect()
                    path, elapsed = self._load()
                    remove_db(path)
                    out["loads"].append(elapsed)
                if time.perf_counter() - started >= seconds:
                    break
        finally:
            warehouse.close()
        return out

    @staticmethod
    def check(out: Dict[str, Any]) -> Tuple[int, int, int, List[str]]:
        failures = out["mismatches"]
        return out["checked"], len(failures), len(failures), failures

    # -- results --------------------------------------------------------

    @staticmethod
    def headline(out: Dict[str, List]) -> Dict[str, float]:
        return {
            "latency_ms.p50": ms(percentile(out["cold"], 50)),
            "latency_ms.mean": ms(mean_of_run_medians(out["cold"], out["passes"])),
            "second_ms.p50": ms(percentile(out["ublackbox"], 50)),
        }

    def end_to_end(self, out: Dict[str, List], setup: Dict[str, float]) -> Tuple[Dict, Dict, Dict]:
        bytes_per_row = store_footprint(self.path) / self.io_rows
        loads = self.setup_times + out["loads"]
        rows_per_s = self.io_rows / percentile(loads, 50)
        metrics = dict(self.headline(out))
        metrics["throughput_per_s"] = rows_per_s
        metrics["store_bytes_per_row"] = bytes_per_row
        metrics["setup_s"] = setup["setup_s"]
        named = {
            "cold_deep_ms.p50": (metrics["latency_ms.p50"], "ms"),
            "cold_deep_ms.p90": (ms(percentile(out["cold"], 90)), "ms"),
            "cold_deep_ms.mean": (metrics["latency_ms.mean"], "ms"),
            "view_switch_ms.p50": (metrics["second_ms.p50"], "ms"),
            "view_switch_ms.p90": (ms(percentile(out["ublackbox"], 90)), "ms"),
            "uadmin_deep_ms.p50": (ms(percentile(out["uadmin"], 50)), "ms"),
            "uadmin_deep_ms.mean": (ms(sum(out["uadmin"]) / len(out["uadmin"])), "ms"),
            "reverse_ms.p50": (ms(percentile(out["reverse"], 50)), "ms"),
            "load_rows_per_s": (rows_per_s, "rows/s"),
            "store_bytes_per_row": (bytes_per_row, "B/row"),
        }
        samples = {
            "cold_deep_ms": len(out["cold"]),
            "view_switch_ms": len(out["ublackbox"]),
            "uadmin_deep_ms": len(out["uadmin"]),
            "reverse_ms": len(out["reverse"]),
            "setup_s": len(self.setup_times),
            "load_rows_per_s": len(loads),
            "cold_deep_ms.mean": out["passes"],
        }
        return metrics, named, samples

    def traced_layers(
        self, tracer: Tracer, out: Dict[str, List], sql_statements: int,
        load_tracer: Tracer,
    ) -> Dict[str, float]:
        requests = sum(len(out[op]) for op in ("cold", "uadmin", "ublackbox", "reverse"))
        layers = per_request_layers(layer_totals(tracer.spans), requests, sql_statements)
        set_relevant = [
            s.end - s.start for s in tracer.spans if s.name == "session.set_relevant"
        ]
        layers["session.set_relevant_ms.p50"] = ms(percentile(set_relevant, 50))
        # Reasoner caches: one fresh Session per run, so ratios are per cycle.
        merged: Dict[str, Dict[str, int]] = {}
        for stats in out["reasoner_stats"]:
            for name, entry in stats.items():
                slot = merged.setdefault(name, {"hits": 0, "misses": 0, "evictions": 0})
                for key in slot:
                    slot[key] += int(entry.get(key, 0))
        layers.update(cache_ratios(merged))
        load = layer_totals(load_tracer.spans)
        krows = self.io_rows / 1000.0
        layers["warehouse.store_many.ms"] = ms(
            load.get("warehouse.store_many", {}).get("total", 0.0)) / krows
        # ingest_dataset minus every nested warehouse call: prepare + gate.
        layers["pipeline.prepare.self_ms"] = ms(
            load.get("pipeline.ingest_dataset", {}).get("self", 0.0)) / krows
        return layers

    @staticmethod
    def freeze_inputs() -> None:
        """Move the generated runs and reference answers out of the
        collector's reach (``gc.freeze``), so the heap it scans while we
        time holds the program's objects, not ours.  The loads between
        passes still read the runs."""
        gc.collect()
        gc.freeze()

    def run_e2e(self, seconds: float) -> Result:
        setup = self.setup()
        self.freeze_inputs()
        out = self.measure(seconds, reload=True)
        attempted, failed, mismatched, failures = self.check(out)
        metrics, named, samples = self.end_to_end(out, setup)
        return Result(metrics, named, samples, attempted, failed, mismatched, failures)

    def run_traced(self, seconds: float, registry: Any) -> Result:
        """Traced load, then untraced and traced passes of half the time."""
        self.setup(repeats=1)
        load_tracer = Tracer()
        load_path, _elapsed = self._load(load_tracer)
        remove_db(load_path)
        self.freeze_inputs()
        base = self.measure(seconds / 2)
        tracer = Tracer()
        sql_counter = registry.counter("warehouse.sql")
        before = sql_counter.value
        traced = self.measure(seconds / 2, tracer)
        layers = self.traced_layers(
            tracer, traced, sql_counter.value - before, load_tracer
        )
        samples = {"traced_requests": sum(
            len(traced[op]) for op in ("cold", "uadmin", "ublackbox", "reverse"))}
        return traced_result(layers, samples, self.headline(base),
                             self.headline(traced),
                             [self.check(base), self.check(traced)], tracer.spans)
