"""``serve-zipf``: open-loop Zipf traffic against a labeled QueryService.

Set-up stores 320 runs (Class 1-4, 4 corpus specs per class, per spec 12
small, 7 medium and 1 large stratified run; see ``inputs``) through ``ingest_dataset(jobs=0, labels=True)``,
so the reachability labels are built at load, then starts
``QueryService(strategy="labeled", workers=2)`` and warms every run on the
owner thread.  320 runs exceed the reasoner's 256-run cache, and the
request universe (about 10k distinct answers) exceeds the 4096-entry
result cache: the head of the distribution fits the caches, the tail not.

One generator thread sends requests on a fixed schedule (evenly spaced at
the offered rate), never waiting for answers; each request is timed from
its scheduled send time to the completion of its future.  Requests draw a
run by Zipf rank (exponent :data:`ZIPF_S`); ranks are laid out in blocks of
20 with a fixed small/medium/large pattern, so every seed puts the same
kinds of run at the same popularity.  Per draw: deep provenance of the
final output under UAdmin (15%), UBio (15%) or UBlackBox (10%), reverse
provenance of a random user input under UBio (20%), zoom under one of the
three views (40%) -- the mix of ``repro.serve.bench.build_requests``.

Phases: a closed-loop warm-up of :data:`PREFILL_REQUESTS` requests (not
timed, answers checked), the nominal rate (``serve_ms``), then the rate
ladder (``serve_max_qps``).  A ladder rate
passes when its p99 is within :data:`LATENCY_LIMIT_MS`, nothing is
rejected or fails, and the backlog never exceeds :data:`BACKLOG_LIMIT`
outstanding requests (the generator stops a rate as soon as it does, so
overload never turns into admission rejections).
"""

from __future__ import annotations

import gc
import random
import threading
import time
from collections import deque
from concurrent.futures import wait
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.errors import HiddenDataError, ZoomError
from repro.core.view import admin_view, blackbox_view
from repro.provenance.queries import deep_provenance, reverse_provenance
from repro.serve import AdmissionError, QueryService
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import WORKFLOW_CLASSES

from common import (
    GcPauses, Result, cache_ratios, encode_answer, layer_totals, ms,
    per_request_layers, percentile, serve_overheads, traced_result,
    wrap_reasoner, wrap_warehouse,
)
import inputs
from spans import Tracer
from store import fresh_db, io_row_count, remove_db, store_footprint

SPECS_PER_CLASS = 4
#: Kinds of the 20 runs per spec, and of every block of 20 Zipf ranks.
BLOCK = "smssmssmssmssmsmsmsL"
ZIPF_S = 1.0
WORKERS = 2
SETUP_REPEATS = 3

#: Closed-loop warm-up before any timing: this many requests, at most
#: PREFILL_WINDOW in flight.
PREFILL_REQUESTS = 3000
PREFILL_WINDOW = 32
NOMINAL_QPS = 100.0
LADDER_QPS = (400.0, 600.0, 800.0, 1000.0, 1200.0, 1600.0)
LATENCY_LIMIT_MS = 100.0
BACKLOG_LIMIT = 100
#: Share of ``--seconds`` at the nominal rate; the ladder gets the rest,
#: the same number of requests per rate.
NOMINAL_SHARE = 0.6

KIND_NAMES = {"s": "small", "m": "medium", "L": "large"}

#: The request mix: (share, kind, view).
MIX = (
    (0.15, "deep", "uadmin"),
    (0.15, "deep", "ubio"),
    (0.10, "deep", "ublackbox"),
    (0.20, "reverse", "ubio"),
    (0.40 / 3, "zoom", "uadmin"),
    (0.40 / 3, "zoom", "ubio"),
    (0.40 / 3, "zoom", "ublackbox"),
)


@dataclass
class Handle:
    """One stored run and what requests about it need."""

    run_id: str
    spec_id: str
    final: str
    inputs: List[str]
    views: Dict[str, Any]
    sim: Any  # the generated run; dropped once reference answers exist


def make_inputs(seed: int) -> Tuple[List, List[List[Handle]]]:
    """Workload items and, per kind letter, the stored runs' handles."""
    rng = random.Random(seed)
    items = []
    by_kind: Dict[str, List[Handle]] = {"s": [], "m": [], "L": []}
    per_spec = {letter: BLOCK.count(letter) for letter in by_kind}
    for class_name in sorted(WORKFLOW_CLASSES):
        for spec_index, generated in enumerate(inputs.specs(class_name, SPECS_PER_CLASS)):
            spec = generated.spec
            views = {
                "uadmin": None,
                "ubio": build_user_view(
                    spec, generated.suggested_relevant, name="UBio"),
                "ublackbox": blackbox_view(spec),
            }
            sims = []
            seen = {letter: 0 for letter in by_kind}
            for letter in BLOCK:
                sim = inputs.run(
                    spec, KIND_NAMES[letter],
                    seen[letter] * SPECS_PER_CLASS + spec_index,
                    per_spec[letter] * SPECS_PER_CLASS, rng,
                    run_id="r%d" % (len(sims) + 1),
                )
                seen[letter] += 1
                sims.append(sim)
                by_kind[letter].append(Handle(
                    run_id="%s/run%d" % (spec.name, len(sims)),
                    spec_id=spec.name,
                    final=min(sim.run.final_outputs()),
                    inputs=sorted(sim.run.user_inputs()),
                    views=views,
                    sim=sim,
                ))
            items.append((spec, sims))
    for handles in by_kind.values():
        rng.shuffle(handles)
    ranked: List[Handle] = []
    cursors = {letter: iter(handles) for letter, handles in by_kind.items()}
    for _block in range(len(by_kind["L"])):
        ranked.extend(next(cursors[letter]) for letter in BLOCK)
    return items, ranked


@dataclass
class Request:
    kind: str
    handle: Handle
    data_id: Optional[str]
    view_name: str

    def key(self) -> Tuple:
        return (self.handle.run_id, self.kind, self.data_id, self.view_name)


def draw_requests(ranked: List[Handle], count: int, rng: random.Random) -> List[Request]:
    """``count`` requests with Zipf-by-rank and kind-mix *quotas*.

    Each rank gets its expected share of the requests and each request kind
    its share of the mix (largest remainders), and the seed only shuffles
    them.  Independent draws would let the number of requests that hit the
    few expensive runs vary from seed to seed, and with it every tail figure.
    """
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(ranked) + 1)]
    handles = [ranked[i] for i in quota(weights, count)]
    kinds = quota([share for share, _kind, _view in MIX], count)
    rng.shuffle(handles)
    rng.shuffle(kinds)
    out = []
    for handle, mix_index in zip(handles, kinds):
        _share, kind, view_name = MIX[mix_index]
        if kind == "deep":
            out.append(Request("deep", handle, handle.final, view_name))
        elif kind == "reverse":
            out.append(Request("reverse", handle, rng.choice(handle.inputs), view_name))
        else:
            out.append(Request("zoom", handle, None, view_name))
    return out


def quota(weights: List[float], count: int) -> List[int]:
    """Indices of ``weights``, each repeated its share of ``count`` times."""
    total = sum(weights)
    exact = [w * count / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i],
                          reverse=True)
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    return [i for i, c in enumerate(counts) for _ in range(c)]


def reference_answers(requests: List[Request]) -> Dict[Tuple, bytes]:
    """Expected bytes per distinct request, from ``provenance.queries``."""
    by_run: Dict[str, List[Request]] = {}
    for request in requests:
        by_run.setdefault(request.handle.run_id, []).append(request)
    expected: Dict[Tuple, bytes] = {}
    for run_requests in by_run.values():
        composites: Dict[str, CompositeRun] = {}
        for request in run_requests:
            key = request.key()
            if key in expected:
                continue
            run = request.handle.sim.run
            view = request.handle.views[request.view_name] or admin_view(run.spec)
            composite = composites.get(request.view_name)
            if composite is None:
                composite = composites[request.view_name] = CompositeRun(run, view)
            try:
                if request.kind == "deep":
                    answer = deep_provenance(composite, request.data_id)
                elif request.kind == "reverse":
                    answer = reverse_provenance(composite, request.data_id)
                else:
                    answer = tuple(sorted(composite.visible_data()))
            except HiddenDataError as exc:
                # The service must raise the same error; ``check`` compares
                # an error by its class name.
                expected[key] = type(exc).__name__.encode()
                continue
            expected[key] = encode_answer(request.kind, answer)
    return expected


class Phase:
    """Outcome of driving one offered rate."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.latencies: List[float] = []
        self.windows: List[Tuple[float, float]] = []
        self.lags: List[float] = []
        self.answers: List[Tuple[Request, Any]] = []
        self.errors: List[str] = []
        self.rejected = 0
        self.aborted = False
        self.sent = 0
        self.span = 0.0
        self.gc = GcPauses()

    def passed(self) -> bool:
        return (
            not self.aborted and not self.rejected and not self.errors
            and bool(self.latencies)
            and ms(percentile(self.latencies, 99)) <= LATENCY_LIMIT_MS
        )

    def latencies_outside_gc(self) -> List[float]:
        """Latencies of requests whose window overlaps no full collection."""
        pauses = self.gc.pauses
        return [
            done - sched for sched, done in self.windows
            if not any(start < done and end > sched for start, end in pauses)
        ]

    def achieved_qps(self) -> float:
        return len(self.latencies) / self.span if self.span > 0 else 0.0


def prefill(service: QueryService, requests: List[Request]) -> Phase:
    """Closed-loop warm-up: fill the caches before anything is timed."""
    phase = Phase(0.0)
    slots = threading.Semaphore(PREFILL_WINDOW)
    futures = []
    for request in requests:
        slots.acquire()
        future = service.submit(request.kind, request.handle.run_id,
                                data_id=request.data_id,
                                view=request.handle.views[request.view_name])
        future.add_done_callback(lambda _future: slots.release())
        futures.append((request, future))
    wait([future for _r, future in futures], timeout=120)
    phase.sent = len(futures)
    collect(phase, [(request, future, None) for request, future in futures])
    return phase


def collect(
    phase: Phase, sent: List[Tuple[Request, Any, Optional[Tuple[float, float]]]]
) -> None:
    """Record each answer (or its error) and, when timed, its
    (scheduled, done) window."""
    for request, future, window in sent:
        try:
            answer = future.result(timeout=0)
        except ZoomError as exc:
            answer = exc
        except Exception as exc:  # noqa: BLE001 - counted, reported
            phase.errors.append("%s: %s" % (type(exc).__name__, exc))
            continue
        phase.answers.append((request, answer))
        if window is not None:
            phase.windows.append(window)
            phase.latencies.append(window[1] - window[0])


def drive(service: QueryService, requests: List[Request], rate: float,
          backlog_limit: Optional[int] = None) -> Phase:
    """Send ``requests`` open-loop at ``rate``; wait for every answer.

    With ``backlog_limit``, stop sending once more requests than that are
    outstanding (the rate is then marked ``aborted``).
    """
    phase = Phase(rate)
    n = len(requests)
    done: List[Optional[float]] = [None] * n
    finished: deque = deque()
    futures = []
    now = time.perf_counter
    start = now() + 0.005
    for index, request in enumerate(requests):
        target = start + index / rate
        delay = target - now()
        if delay > 0:
            time.sleep(delay)
        phase.lags.append(max(0.0, now() - target))
        if backlog_limit is not None and index - len(finished) > backlog_limit:
            phase.aborted = True
            break
        view = request.handle.views[request.view_name]
        try:
            future = service.submit(request.kind, request.handle.run_id,
                                    data_id=request.data_id, view=view)
        except AdmissionError:
            phase.rejected += 1
            continue

        def on_done(_future: Any, index: int = index) -> None:
            done[index] = now()
            finished.append(index)

        future.add_done_callback(on_done)
        futures.append((index, request, future))
    phase.sent = len(futures)
    wait([future for _i, _r, future in futures], timeout=60)
    collect(phase, [
        (request, future, (start + index / rate, done[index]))
        for index, request, future in futures
    ])
    last = max((done[index] for index, _r, _f in futures), default=start)
    phase.span = last - start
    return phase


class ServeZipf:
    name = "serve-zipf"

    def __init__(self, workdir: str, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.items, self.ranked = make_inputs(seed)
        self.path: Optional[str] = None
        self.warehouse: Optional[SqliteWarehouse] = None

    # -- set-up ---------------------------------------------------------

    def _start(self, timing: bool = False, tracer: Optional[Tracer] = None) -> QueryService:
        warehouse = SqliteWarehouse(self.path, timing=timing)
        if tracer is not None:
            wrap_warehouse(tracer, warehouse)
        service = QueryService(warehouse, strategy="labeled", workers=WORKERS)
        if tracer is not None:
            wrap_reasoner(tracer, service.reasoner)
            tracer.wrap(service._results, ("get_or_build",), "serve.cache")
            tracer.wrap_service(service)
        service.warm([h.run_id for h in self.ranked])
        self.warehouse = warehouse
        return service.start()

    def _stop(self, service: QueryService) -> None:
        service.close()
        self.warehouse.close()

    def setup(self, repeats: int = SETUP_REPEATS) -> Dict[str, float]:
        times = []
        for _ in range(repeats):
            if self.path is not None:
                remove_db(self.path)
            gc.collect()
            self.path = fresh_db(self.workdir, "serve")
            started = time.perf_counter()
            warehouse = SqliteWarehouse(self.path)
            ingest_dataset(warehouse, self.items, jobs=0, labels=True)
            warehouse.close()
            service = self._start()
            times.append(time.perf_counter() - started)
            self._stop(service)
        self.io_rows = io_row_count(self.path)
        self.setup_times = times
        return {"setup_s": sorted(times)[len(times) // 2]}

    def plan(self, seconds: float, ladder: bool) -> List[Tuple[str, float, List[Request]]]:
        rng = random.Random(self.seed * 104729 + 3)
        phases = [
            ("prefill", 0.0, PREFILL_REQUESTS),
            ("nominal", NOMINAL_QPS, int(NOMINAL_QPS * seconds * NOMINAL_SHARE)),
        ]
        if ladder:
            per_rate = int(seconds * (1.0 - NOMINAL_SHARE)
                           / sum(1.0 / rate for rate in LADDER_QPS))
            phases += [("ladder", rate, per_rate) for rate in LADDER_QPS]
        return [
            (name, rate, draw_requests(self.ranked, count, rng))
            for name, rate, count in phases
        ]

    def release_inputs(self) -> None:
        """Drop the generated runs once loaded and answered, so the heap the
        program's collector scans holds the program's objects, not ours."""
        for handle in self.ranked:
            handle.sim = None
        self.items = None
        gc.collect()

    # -- measurement ----------------------------------------------------

    def measure(self, plan, tracer: Optional[Tracer] = None,
                sql: Any = None) -> Dict[str, Any]:
        """Drive every phase; with a tracer, keep only the nominal phase's spans."""
        service = self._start(timing=tracer is not None, tracer=tracer)
        phases: Dict[str, Any] = {"ladder": []}
        try:
            for name, rate, requests in plan:
                if name == "nominal":
                    phases["stats_before"] = service.stats()
                    if tracer is not None:
                        tracer.spans.clear()
                        phases["sql_before"] = sql.value
                if name == "prefill":
                    phases[name] = prefill(service, requests)
                    continue
                # Start each timed phase from a collected heap, so that a
                # collection owed to earlier phases does not land at random
                # inside this one; collections its own allocations trigger
                # stay in its figures.
                gc.collect()
                with GcPauses() as pauses:
                    phase = drive(service, requests, rate,
                                  BACKLOG_LIMIT if name == "ladder" else None)
                phase.gc = pauses
                if name == "ladder":
                    phases["ladder"].append(phase)
                else:
                    phases[name] = phase
                if name == "nominal":
                    phases["stats"] = service.stats()
                    if tracer is not None:
                        phases["sql"] = sql.value - phases["sql_before"]
        finally:
            self._stop(service)
        return phases

    @staticmethod
    def check(phases: Dict[str, Any], expected: Dict[Tuple, bytes]) -> Tuple[int, int, int, List[str]]:
        attempted = failed = mismatched = 0
        failures: List[str] = []
        for phase in [phases["prefill"], phases["nominal"]] + phases["ladder"]:
            attempted += phase.sent + phase.rejected
            failed += phase.rejected + len(phase.errors)
            failures += phase.errors
            for request, answer in phase.answers:
                if isinstance(answer, Exception):
                    got = type(answer).__name__.encode()
                else:
                    got = encode_answer(request.kind, answer)
                if got != expected[request.key()]:
                    failed += 1
                    mismatched += 1
                    failures.append("%s: answer differs from reference" % (request.key(),))
        return attempted, failed, mismatched, failures

    @staticmethod
    def headline(phases: Dict[str, Any]) -> Dict[str, float]:
        nominal = phases["nominal"]
        view_level = [
            latency for (request, _a), latency in zip(nominal.answers, nominal.latencies)
            if request.kind == "deep" and request.view_name != "uadmin"
        ]
        return {
            "latency_ms.p50": ms(percentile(nominal.latencies, 50)),
            "latency_ms.mean": ms(sum(nominal.latencies) / len(nominal.latencies)),
            "second_ms.p50": ms(percentile(view_level, 50)),
        }

    def run_e2e(self, seconds: float) -> Result:
        setup = self.setup()
        plan = self.plan(seconds, ladder=True)
        expected = reference_answers([r for _n, _q, reqs in plan for r in reqs])
        self.release_inputs()
        phases = self.measure(plan)
        attempted, failed, mismatched, failures = self.check(phases, expected)
        passing = [p for p in phases["ladder"] if p.passed()]
        max_qps = max((p.achieved_qps() for p in passing), default=0.0)
        bytes_per_row = store_footprint(self.path) / self.io_rows
        metrics = dict(self.headline(phases))
        metrics.update({
            "throughput_per_s": max_qps,
            "store_bytes_per_row": bytes_per_row,
            "setup_s": setup["setup_s"],
        })
        nominal = phases["nominal"]
        named = {
            "serve_ms.p50": (metrics["latency_ms.p50"], "ms"),
            "serve_ms.p90": (ms(percentile(nominal.latencies, 90)), "ms"),
            "serve_ms.p99": (ms(percentile(nominal.latencies, 99)), "ms"),
            "serve_gen_lag_ms.p99": (ms(percentile(nominal.lags, 99)), "ms"),
            "serve_ms.p99_outside_gc": (ms(percentile(nominal.latencies_outside_gc(), 99)), "ms"),
            "serve_ms.mean": (metrics["latency_ms.mean"], "ms"),
            "nominal_full_gc_count": (float(len(nominal.gc.pauses)), "count"),
            "nominal_full_gc_max_ms": (nominal.gc.max_ms(), "ms"),
            "serve_view_deep_ms.p50": (metrics["second_ms.p50"], "ms"),
            "serve_max_qps": (max_qps, "1/s"),
            "store_bytes_per_row": (bytes_per_row, "B/row"),
            "nominal_achieved_qps": (nominal.achieved_qps(), "1/s"),
            "result_cache_hit_ratio": (
                phases["stats"]["cache"]["hit_rate"], "ratio"),
        }
        for phase in phases["ladder"]:
            named["ladder.%d.p99_ms" % phase.rate] = (
                ms(percentile(phase.latencies, 99)) if phase.latencies else 0.0,
                "PASS" if phase.passed() else
                ("FAIL backlog" if phase.aborted else "FAIL"))
        samples = {
            "serve_ms": len(nominal.latencies),
            "ladder": [len(p.latencies) for p in phases["ladder"]],
            "setup_s": len(self.setup_times),
        }
        return Result(metrics, named, samples, attempted, failed, mismatched, failures)

    def run_traced(self, seconds: float, registry: Any) -> Result:
        """Untraced and traced passes at the nominal rate only, each of
        half the nominal requests."""
        self.setup(repeats=1)
        plan = self.plan(seconds / 2, ladder=False)
        expected = reference_answers([r for _n, _q, reqs in plan for r in reqs])
        self.release_inputs()
        base = self.measure(plan)
        tracer = Tracer()
        traced = self.measure(plan, tracer, registry.counter("warehouse.sql"))
        spans = tracer.spans
        nominal = traced["nominal"]
        layers = per_request_layers(
            layer_totals(spans), len(nominal.latencies), traced["sql"])
        overheads = serve_overheads(spans)
        before, after = traced["stats_before"], traced["stats"]
        cache_before, cache_after = before["cache"], after["cache"]
        hits = cache_after["hits"] - cache_before["hits"]
        lookups = hits + cache_after["misses"] - cache_before["misses"]
        layers.update({
            "serve.overhead_ms.p50": ms(percentile(overheads, 50)),
            "serve.overhead_ms.p99": ms(percentile(overheads, 99)),
            "serve.results.hit_ratio": hits / lookups if lookups else 0.0,
            "serve.results.evictions": cache_after["evictions"] - cache_before["evictions"],
            "serve.results.stale_drops":
                cache_after["stale_drops"] - cache_before["stale_drops"],
            "serve.rejected": after["rejected"],
            "serve.gen_lag_ms.p99": ms(percentile(nominal.lags, 99)),
        })
        layers.update(cache_ratios({
            name: {key: entry[key] - before["reasoner"][name][key]
                   for key in ("hits", "misses", "evictions")}
            for name, entry in after["reasoner"].items()
        }))
        return traced_result(
            layers, {"traced_requests": len(nominal.latencies)},
            self.headline(base), self.headline(traced),
            [self.check(base, expected), self.check(traced, expected)], spans)
