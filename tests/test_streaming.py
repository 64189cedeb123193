"""Chaos tests for crash-safe streaming ingestion (epoch appends).

The central guarantee under test: a producer streams a run epoch by
epoch, a kill lands at any of the five ``stream.*`` fault sites, on any
backend (memory, SQLite, sharded) — and ``recover()`` +
``open_run(resume=True)`` + a replay of the same append sequence
converge to a warehouse fingerprint byte-identical to BOTH an
uninterrupted stream AND a cold batch load of the finished logs.  On
top of that: incremental label deltas stay byte-identical to full
rebuilds, labeled answers after a crash, recovery and resume equal the
reference semantics, and concurrent readers never observe a torn epoch.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.errors import WarehouseError
from repro.core.view import admin_view, blackbox_view
from repro.faults import FaultPlan, InjectedCrash
from repro.lint import Linter, lint_warehouse
from repro.obs import MetricsRegistry, set_registry
from repro.provenance.labels import (
    label_table_rows,
    labels_from_rows,
    try_extend,
)
from repro.provenance.queries import deep_provenance
from repro.provenance.reasoner import ProvenanceReasoner
from repro.run.log import EventLog, log_from_run
from repro.warehouse.loader import load_dataset
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.recovery import checksum_stored_run, recover
from repro.warehouse.sharded import ShardedWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor, chunk_log, stream_log
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run
from repro.zoom.cli import main
from repro.zoom.session import Session

STREAM_SITES = (
    "stream.epoch.pending",
    "stream.append",
    "stream.epoch.mark",
    "stream.delta",
    "stream.finalize",
)

BACKENDS = ("memory", "sqlite", "sharded")

MAX_EVENTS = 4


def streaming_workload(n_specs=2, n_runs=2, size=8, seed=23):
    """(spec, [(run_id, EventLog)]) pairs, the shape a producer streams.

    Run ids follow the batch pipeline's ``spec/runN`` naming so the
    streamed warehouse is directly comparable with ``load_dataset`` of
    the same generated runs.
    """
    rng = random.Random(seed)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for i in range(n_specs):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[i % len(classes)]], rng,
            target_size=size, name="sw%d" % i,
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES["small"], rng,
                         run_id="r%d" % n)
            for n in range(n_runs)
        ]
        logs = [
            ("%s/run%d" % (generated.spec.name, n + 1),
             log_from_run(record.run))
            for n, record in enumerate(runs)
        ]
        items.append((generated.spec, runs, logs))
    return items


def fingerprint(warehouse):
    """Backend-independent observable state, content-addressed.

    Same shape as the batch chaos suite's (tests/test_recovery.py): run
    rows enter as order-independent checksums, journal entries as
    (state, checksum) — batch/epoch numbers deliberately excluded,
    because a resumed append legitimately re-batches the remaining work.
    """
    return {
        "specs": sorted(warehouse.list_specs()),
        "views": sorted(warehouse.list_views()),
        "runs": {
            run_id: checksum_stored_run(warehouse, run_id)
            for run_id in warehouse.list_runs()
        },
        "journal": {
            entry.run_id: (entry.state, entry.checksum)
            for entry in warehouse.journal_entries()
        },
        "quarantine": warehouse.quarantine_list(),
    }


def make_warehouse(backend, tmp_path, faults=None):
    if backend == "memory":
        return InMemoryWarehouse(faults=faults)
    if backend == "sqlite":
        return SqliteWarehouse(str(tmp_path / "stream.sqlite"), faults=faults)
    return ShardedWarehouse(str(tmp_path / "stream-fed"), shards=2,
                            faults=faults)


def reopen(backend, tmp_path, warehouse):
    """Simulate process death + restart: only the files survive."""
    if backend == "memory":
        warehouse.faults = None
        return warehouse
    warehouse.close()
    if backend == "sqlite":
        return SqliteWarehouse(str(tmp_path / "stream.sqlite"))
    return ShardedWarehouse(str(tmp_path / "stream-fed"))


def stream_workload(warehouse, workload, *, faults=None, resume=False):
    """Stream every log of the workload; specs stored idempotently."""
    ingestor = StreamingIngestor(warehouse, faults=faults)
    stored = set(warehouse.list_specs())
    for spec, _runs, logs in workload:
        if spec.name not in stored:
            warehouse.store_spec(spec)
        for run_id, log in logs:
            open_for_resume = resume and warehouse.stream_state(run_id)
            if resume and run_id in set(warehouse.list_runs()) and not open_for_resume:
                continue  # this run converged before the crash
            stream_log(
                ingestor, run_id, spec.name, log,
                max_events=MAX_EVENTS, resume=bool(open_for_resume),
            )
    return ingestor


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def workload():
    return streaming_workload()


@pytest.fixture(scope="module")
def reference(workload):
    """Fingerprint of an uninterrupted *stream* of the workload — proven
    identical to a cold batch load of the same runs."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        streamed = InMemoryWarehouse()
        stream_workload(streamed, workload)
        streamed_print = fingerprint(streamed)

        batch = InMemoryWarehouse()
        load_dataset(
            batch, [(spec, runs) for spec, runs, _logs in workload],
            with_standard_views=False, batch_size=3,
        )
        assert streamed_print == fingerprint(batch)
        return streamed_print
    finally:
        set_registry(previous)


class TestStreamCrashMatrix:
    """Every stream.* kill × every backend: recover + resume converge."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("site", STREAM_SITES)
    def test_crash_recover_resume_converges(
        self, site, backend, workload, reference, registry, tmp_path
    ):
        plan = FaultPlan().crash_at(site, hit=2)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            stream_workload(warehouse, workload, faults=plan)
        assert plan.fired == ["crash:%s" % site]

        warehouse = reopen(backend, tmp_path, warehouse)
        recover(warehouse)
        stream_workload(warehouse, workload, resume=True)
        assert fingerprint(warehouse) == reference
        assert warehouse.stream_states() == {}
        if backend != "memory":
            warehouse.close()

    @pytest.mark.parametrize("site", STREAM_SITES)
    def test_resume_without_explicit_recover(
        self, site, workload, reference, registry, tmp_path
    ):
        """open_run(resume=True) runs recovery itself."""
        plan = FaultPlan().crash_at(site)
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            stream_workload(warehouse, workload, faults=plan)
        warehouse = reopen("sqlite", tmp_path, warehouse)
        stream_workload(warehouse, workload, resume=True)
        assert fingerprint(warehouse) == reference
        warehouse.close()

    def test_pending_epoch_is_truncated(self, workload, registry, tmp_path):
        """A kill after the journal promise but before the rows: the
        stream is truncated back to the previous epoch."""
        plan = FaultPlan().crash_at("stream.epoch.pending", hit=3)
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            stream_workload(warehouse, workload, faults=plan)
        warehouse = reopen("sqlite", tmp_path, warehouse)

        report = recover(warehouse)
        assert len(report.stream_truncated) == 1
        assert registry.counter("recovery.stream_truncated").value == 1
        (victim,) = report.stream_truncated
        state = warehouse.stream_state(victim)
        assert state is not None
        assert checksum_stored_run(warehouse, victim) == state.checksum
        warehouse.close()

    def test_committed_epoch_is_rolled_forward(
        self, workload, registry, tmp_path
    ):
        """A kill between the atomic epoch commit and the journal mark:
        the stored rows hash to the pending checksum, so recovery marks
        the epoch committed instead of discarding it."""
        plan = FaultPlan().crash_at("stream.epoch.mark", hit=3)
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        with pytest.raises(InjectedCrash):
            stream_workload(warehouse, workload, faults=plan)
        warehouse = reopen("sqlite", tmp_path, warehouse)

        report = recover(warehouse)
        assert len(report.stream_rolled_forward) == 1
        assert registry.counter("recovery.stream_rolled_forward").value == 1
        (victim,) = report.stream_rolled_forward
        entries = {e.run_id: e for e in warehouse.journal_entries()}
        assert entries[victim].state == "committed"
        assert entries[victim].checksum == checksum_stored_run(
            warehouse, victim
        )
        warehouse.close()

    def test_trailing_delta_watermark_drops_indexes(
        self, registry, tmp_path
    ):
        """A kill between the epoch commit and the label delta: recovery
        detects the trailing watermark and drops the stale labels."""
        spec, log = _chain_fixture()
        warehouse = make_warehouse("sqlite", tmp_path)
        spec_id = warehouse.store_spec(spec)
        chunks = chunk_log(log, max_events=MAX_EVENTS)

        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/live", spec_id)
        ingestor.ingest_events("sw/live", chunks[0])
        warehouse.build_label_index("sw/live")

        plan = FaultPlan().crash_at("stream.delta")
        crasher = StreamingIngestor(warehouse, faults=plan)
        crasher.open_run("sw/live", resume=True)
        crasher.ingest_events("sw/live", chunks[0])  # durable: skipped
        with pytest.raises(InjectedCrash):
            crasher.ingest_events("sw/live", chunks[1])
        state = warehouse.stream_state("sw/live")
        assert state.delta_epoch < state.epoch
        assert warehouse.has_label_index("sw/live")

        report = recover(warehouse)
        assert report.stream_desynced == ["sw/live"]
        assert registry.counter("recovery.stream_desynced").value == 1
        assert not warehouse.has_label_index("sw/live")
        state = warehouse.stream_state("sw/live")
        assert state.delta_epoch == state.epoch
        warehouse.close()

    def test_corrupt_stream_is_rolled_back(self, registry, tmp_path):
        """Stored rows matching neither the pending nor the committed
        checksum are half-applied garbage: the run is deleted and the
        producer starts the stream over."""
        spec, log = _chain_fixture()
        plan = FaultPlan().crash_at("stream.epoch.mark")
        warehouse = make_warehouse("sqlite", tmp_path, faults=plan)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse, faults=plan)
        ingestor.open_run("sw/corrupt", spec_id)
        with pytest.raises(InjectedCrash):
            ingestor.ingest_events("sw/corrupt", list(log))
        warehouse = reopen("sqlite", tmp_path, warehouse)
        # The journal promise is still pending; vandalise the stored rows
        # so they hash to neither the pending nor the committed checksum.
        with warehouse._conn:
            warehouse._conn.execute(
                "DELETE FROM io WHERE run_id = 'sw/corrupt'"
            )
        report = recover(warehouse)
        assert "sw/corrupt" in report.rolled_back
        assert warehouse.stream_state("sw/corrupt") is None
        assert "sw/corrupt" not in warehouse.list_runs()

        fresh = StreamingIngestor(warehouse)
        checksum = stream_log(
            fresh, "sw/corrupt", spec_id, log, max_events=MAX_EVENTS
        )
        assert checksum == checksum_stored_run(warehouse, "sw/corrupt")
        warehouse.close()


class TestResumeSemantics:
    def test_resume_skips_durable_epochs(self, registry, tmp_path):
        spec, log = _chain_fixture()
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        assert len(chunks) >= 3

        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/r", spec_id)
        for chunk in chunks[:2]:
            ingestor.ingest_events("sw/r", chunk)

        resumed = StreamingIngestor(warehouse)
        epoch = resumed.open_run("sw/r", resume=True)
        assert epoch == 2
        for chunk in chunks:  # the full sequence, from the start
            resumed.ingest_events("sw/r", chunk)
        resumed.finalize_run("sw/r")
        assert registry.counter("stream.skipped").value == 2
        assert registry.counter("stream.resumed").value == 1

        cold = InMemoryWarehouse()
        cold.store_spec(spec)
        cold.store_log(log, spec_id, run_id="sw/r")
        assert (checksum_stored_run(warehouse, "sw/r")
                == checksum_stored_run(cold, "sw/r"))

    def test_resume_requires_an_open_stream(self, registry, tmp_path):
        warehouse = make_warehouse("memory", tmp_path)
        ingestor = StreamingIngestor(warehouse)
        with pytest.raises(WarehouseError, match="nothing to resume"):
            ingestor.open_run("sw/ghost", resume=True)

    def test_fresh_open_requires_spec(self, registry, tmp_path):
        ingestor = StreamingIngestor(make_warehouse("memory", tmp_path))
        with pytest.raises(WarehouseError, match="requires a spec_id"):
            ingestor.open_run("sw/r")

    def test_double_open_is_rejected(self, registry, tmp_path):
        spec, _log = _chain_fixture()
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/r", spec_id)
        with pytest.raises(WarehouseError):
            ingestor.open_run("sw/r", spec_id)

    def test_append_to_unopened_run_is_rejected(self, registry, tmp_path):
        ingestor = StreamingIngestor(make_warehouse("memory", tmp_path))
        with pytest.raises(WarehouseError, match="not open"):
            ingestor.ingest_events("sw/r", [])

    def test_batch_resume_refuses_open_streams(self, registry, tmp_path):
        """load_dataset(resume=True) must not trample a mid-flight
        stream — the two protocols disagree about who owns the run."""
        workload = streaming_workload(n_specs=1, n_runs=1)
        spec, runs, logs = workload[0]
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        run_id, log = logs[0]
        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run(run_id, spec_id)
        ingestor.ingest_events(run_id, chunk_log(log, MAX_EVENTS)[0])

        with pytest.raises(WarehouseError, match="open for streaming"):
            load_dataset(warehouse, [(spec, runs)], resume=True)


class TestIncrementalIndexes:
    """Epoch deltas leave the labels byte-identical to a cold rebuild."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_closure_and_label_parity_after_n_epochs(
        self, backend, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        warehouse = make_warehouse(backend, tmp_path)
        spec_id = warehouse.store_spec(spec)
        chunks = chunk_log(log, max_events=MAX_EVENTS)

        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/idx", spec_id)
        ingestor.ingest_events("sw/idx", chunks[0])
        warehouse.build_label_index("sw/idx")
        for chunk in chunks[1:]:
            ingestor.ingest_events("sw/idx", chunk)
        ingestor.finalize_run("sw/idx")
        # Every epoch after the build maintained the labels (a chain's
        # epochs reshape the forest, so they take the rebuild path).
        maintained = (registry.counter("stream.delta").value
                      + registry.counter("stream.rebuild").value)
        assert maintained == len(chunks) - 1

        live_labels = set(warehouse.label_rows_raw("sw/idx"))
        warehouse.build_label_index("sw/idx", rebuild=True)
        assert live_labels == set(warehouse.label_rows_raw("sw/idx"))
        if backend != "memory":
            warehouse.close()

    def test_all_strategies_match_cold_rebuild(self, registry, tmp_path):
        """After streaming with live label maintenance, every reasoner
        strategy answers byte-identically to a cold batch warehouse."""
        spec, log = _chain_fixture()
        streamed = make_warehouse("sqlite", tmp_path)
        spec_id = streamed.store_spec(spec)
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        ingestor = StreamingIngestor(streamed)
        ingestor.open_run("sw/q", spec_id)
        ingestor.ingest_events("sw/q", chunks[0])
        streamed.build_label_index("sw/q")
        for chunk in chunks[1:]:
            ingestor.ingest_events("sw/q", chunk)
        ingestor.finalize_run("sw/q")

        cold = InMemoryWarehouse()
        cold.store_spec(spec)
        cold.store_log(log, spec_id, run_id="sw/q")

        data_ids = sorted({d for _s, d, _dir in cold.io_rows("sw/q")})
        for strategy in ("cached", "uncached", "labeled"):
            hot = ProvenanceReasoner(streamed, strategy=strategy)
            ref = ProvenanceReasoner(cold, strategy="cached")
            for data_id in data_ids:
                assert hot.admin_deep("sw/q", data_id) == ref.admin_deep(
                    "sw/q", data_id
                ), (strategy, data_id)
        streamed.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("site", [None, "stream.append", "stream.delta"])
    def test_labeled_answers_after_streaming(
        self, site, backend, registry, tmp_path
    ):
        """Labels built mid-stream, optionally a kill, recover() and a
        resumed replay: labeled answers equal provenance/queries.py under
        UAdmin, UBio and UBlackBox."""
        spec, log = _chain_fixture()
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        plan = FaultPlan() if site is None else FaultPlan().crash_at(site, hit=3)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse, faults=plan)
        ingestor.open_run("sw/lab", spec_id)
        ingestor.ingest_events("sw/lab", chunks[0])
        warehouse.build_label_index("sw/lab")
        if site is None:
            for chunk in chunks[1:]:
                ingestor.ingest_events("sw/lab", chunk)
            ingestor.finalize_run("sw/lab")
        else:
            with pytest.raises(InjectedCrash):
                for chunk in chunks[1:]:
                    ingestor.ingest_events("sw/lab", chunk)
            warehouse = reopen(backend, tmp_path, warehouse)
            recover(warehouse)
            resumed = StreamingIngestor(warehouse)
            resumed.open_run("sw/lab", resume=True)
            for chunk in chunks:
                resumed.ingest_events("sw/lab", chunk)
            resumed.finalize_run("sw/lab")

        run = warehouse.get_run("sw/lab")
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        for view in (None, build_user_view(spec, {"M2"}),
                     blackbox_view(spec)):
            induced = CompositeRun(run, view or admin_view(spec))
            for data_id in sorted(run.final_outputs()):
                assert reasoner.deep("sw/lab", data_id, view=view) == \
                    deep_provenance(induced, data_id), (view, data_id)
        assert warehouse.has_label_index("sw/lab")
        if backend != "memory":
            warehouse.close()

    def test_non_frontier_epoch_falls_back_to_rebuild(
        self, registry, tmp_path
    ):
        """Chunking that splits a step block forces the rebuild path —
        and the result still matches a cold rebuild."""
        spec, log = _chain_fixture()
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        events = list(log)

        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/split", spec_id)
        ingestor.ingest_events("sw/split", events[:2])
        warehouse.build_label_index("sw/split")
        # Split mid-block: io rows arrive pointing at steps from this
        # very epoch *and* earlier ones in non-frontier order.
        for index in range(2, len(events)):
            ingestor.ingest_events("sw/split", [events[index]])
        ingestor.finalize_run("sw/split")
        assert registry.counter("stream.rebuild").value > 0

        live = set(warehouse.label_rows_raw("sw/split"))
        warehouse.build_label_index("sw/split", rebuild=True)
        assert live == set(warehouse.label_rows_raw("sw/split"))


class TestChunkLog:
    def test_chunks_concatenate_to_the_original(self):
        _spec, log = _chain_fixture()
        events = list(log)
        chunks = chunk_log(log, max_events=3)
        assert [e for chunk in chunks for e in chunk] == events

    def test_blocks_are_never_split(self):
        _spec, log = _chain_fixture()
        for chunk in chunk_log(log, max_events=3):
            started = {e.step_id for e in chunk if e.kind == "start"}
            for event in chunk:
                if event.kind in ("read", "write"):
                    assert event.step_id in started

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            chunk_log(EventLog(), max_events=0)


class TestDeltaPrimitives:
    """Unit tests for try_extend."""

    def test_try_extend_appends_forest_roots(self):
        steps = [("s1", "M1")]
        io_rows = [("s1", "a", "in"), ("s1", "b", "out")]
        labels = labels_from_rows("r", steps, io_rows, ["a"])
        extended = try_extend(
            labels, [("s2", "M2")],
            [("s2", "c", "in"), ("s2", "d", "out")], ["c"],
        )
        assert extended is not None
        expected = label_table_rows(
            "r", steps + [("s2", "M2")],
            io_rows + [("s2", "c", "in"), ("s2", "d", "out")], ["a", "c"],
        )
        assert set(extended.iter_table_rows()) == expected

    def test_try_extend_refuses_chained_steps(self):
        steps = [("s1", "M1")]
        io_rows = [("s1", "a", "in"), ("s1", "b", "out")]
        labels = labels_from_rows("r", steps, io_rows, ["a"])
        assert try_extend(
            labels, [("s2", "M2")],
            [("s2", "b", "in"), ("s2", "c", "out")], [],
        ) is None

    def test_try_extend_no_new_steps_is_identity_on_rows(self):
        steps = [("s1", "M1")]
        io_rows = [("s1", "a", "in"), ("s1", "b", "out")]
        labels = labels_from_rows("r", steps, io_rows, ["a"])
        extended = try_extend(labels, [], [], ["z"])
        assert extended is not None
        assert set(extended.iter_table_rows()) == set(
            labels.iter_table_rows()
        )


class TestTransientLocks:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_locked_append_is_retried_to_success(
        self, backend, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        plan = FaultPlan().lock_at("stream.append", times=2)
        warehouse = make_warehouse(backend, tmp_path, faults=plan)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse)
        checksum = stream_log(
            ingestor, "sw/locky", spec_id, log, max_events=MAX_EVENTS
        )
        assert plan.fired == ["lock:stream.append"] * 2
        assert registry.counter("retry.attempts").value == 2
        assert registry.counter("retry.giveup").value == 0
        assert checksum == checksum_stored_run(warehouse, "sw/locky")


def _legal_prefix_answers(spec, chunks):
    """The visible-data answer after each committed epoch, 0..N.

    Computed by replaying each epoch prefix into a scratch warehouse and
    asking a fresh session — the oracle for what a degraded read may
    legally return while the live run converges.
    """
    answers = []
    oracle = InMemoryWarehouse()
    spec_id = oracle.store_spec(spec)
    session = Session(oracle, spec_id)
    ingestor = StreamingIngestor(oracle)
    ingestor.open_run("oracle/run", spec_id)
    answers.append(frozenset(session.visible_data("oracle/run")))
    for chunk in chunks:
        ingestor.ingest_events("oracle/run", chunk)
        session.refresh_run("oracle/run")
        answers.append(frozenset(session.visible_data("oracle/run")))
    return answers


class TestDegradedReads:
    """Readers racing the appender see complete prefixes, never tears."""

    def test_concurrent_session_reads_observe_only_epoch_prefixes(
        self, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        legal = set(_legal_prefix_answers(spec, chunks))

        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        session = Session(warehouse, spec_id)
        ingestor = StreamingIngestor(warehouse, reasoner=session.reasoner)
        ingestor.open_run("sw/live", spec_id)

        errors: list = []
        observed: set = set()
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    observed.add(frozenset(session.visible_data("sw/live")))
                except Exception as exc:  # noqa: BLE001 - test collects
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for chunk in chunks:
            ingestor.ingest_events("sw/live", chunk)
        ingestor.finalize_run("sw/live")
        stop.set()
        for thread in threads:
            thread.join(timeout=10)

        assert not errors
        assert observed  # the race actually read something
        assert observed <= legal, observed - legal

    def test_query_service_mid_append_never_errors(
        self, registry, tmp_path
    ):
        """A QueryService fed by the session's reasoner keeps answering
        while epochs land; every answer is a complete prefix."""
        spec, log = _chain_fixture()
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        prefix_answers = _legal_prefix_answers(spec, chunks)
        legal = set(prefix_answers)

        warehouse = make_warehouse("sqlite", tmp_path)
        spec_id = warehouse.store_spec(spec)
        session = Session(warehouse, spec_id)
        service = session.serve(workers=2, queue_size=64)
        ingestor = StreamingIngestor(warehouse, reasoner=session.reasoner)
        ingestor.open_run("sw/live", spec_id)
        ingestor.ingest_events("sw/live", chunks[0])

        with service:
            for chunk in chunks[1:]:
                answer = frozenset(service.query("zoom", "sw/live", timeout=30))
                assert answer in legal, answer
                ingestor.ingest_events("sw/live", chunk)
            ingestor.finalize_run("sw/live")
            final = frozenset(service.query("zoom", "sw/live", timeout=30))
        assert final == prefix_answers[-1]
        # The ingestor notifies the shared reasoner; the generation bumps
        # reach the service's result cache through the listener fan-out.
        assert registry.counter("reasoner.refreshes").value >= len(chunks)
        warehouse.close()


class TestWatch:
    def test_watch_follows_convergence(self, registry, tmp_path):
        spec, log = _chain_fixture()
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        session = Session(warehouse, spec_id)
        ingestor = StreamingIngestor(warehouse, reasoner=session.reasoner)
        ingestor.open_run("sw/w", spec_id)

        watch = session.watch("sw/w")
        first = watch.poll()
        assert first is not None and first.epoch == 0 and not first.final
        assert watch.poll() is None  # nothing advanced

        updates = [first]
        for chunk in chunks:
            ingestor.ingest_events("sw/w", chunk)
            update = watch.poll()
            assert update is not None and not update.final
            updates.append(update)
        ingestor.finalize_run("sw/w")
        last = watch.poll()
        assert last is not None and last.final
        assert watch.converged()
        assert watch.poll() is None

        epochs = [u.epoch for u in updates]
        assert epochs == sorted(epochs)
        assert updates[-1].steps == len(warehouse.steps_of_run("sw/w"))
        assert registry.counter("reasoner.refreshes").value >= len(chunks)

    def test_watch_updates_generator_terminates(self, registry, tmp_path):
        spec, log = _chain_fixture()
        warehouse = make_warehouse("memory", tmp_path)
        spec_id = warehouse.store_spec(spec)
        session = Session(warehouse, spec_id)
        ingestor = StreamingIngestor(warehouse)
        stream_log(ingestor, "sw/done", spec_id, log, max_events=MAX_EVENTS)

        collected = list(session.watch("sw/done").updates(interval=0.0))
        assert len(collected) == 1
        assert collected[0].final


class TestShardedStreaming:
    def test_appends_route_to_owner_and_recover_merges(
        self, workload, reference, registry, tmp_path
    ):
        warehouse = make_warehouse("sharded", tmp_path)
        stream_workload(warehouse, workload)
        assert fingerprint(warehouse) == reference

        report = warehouse.recover_shards()
        assert report.clean
        assert report.integrity_ok
        warehouse.close()

    def test_recover_on_facade_delegates_to_shards(
        self, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        plan = FaultPlan().crash_at("stream.epoch.mark")
        warehouse = make_warehouse("sharded", tmp_path, faults=plan)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse, faults=plan)
        ingestor.open_run("sw/s", spec_id)
        with pytest.raises(InjectedCrash):
            ingestor.ingest_events(
                "sw/s", chunk_log(log, MAX_EVENTS)[0]
            )
        warehouse = reopen("sharded", tmp_path, warehouse)

        report = recover(warehouse)  # recover() delegates to the facade
        assert report.stream_rolled_forward == ["sw/s"]
        resumed = StreamingIngestor(warehouse)
        checksum = stream_log(
            resumed, "sw/s", spec_id, log,
            max_events=MAX_EVENTS, resume=True,
        )
        assert checksum == checksum_stored_run(warehouse, "sw/s")
        assert warehouse.stream_states() == {}
        warehouse.close()


class TestLintRules:
    def test_wh046_flags_open_run_and_finalize_clears_it(
        self, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        warehouse = make_warehouse("sqlite", tmp_path)
        spec_id = warehouse.store_spec(spec)
        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/open", spec_id, opened_at=0.0)
        ingestor.ingest_events(
            "sw/open", chunk_log(log, MAX_EVENTS)[0]
        )

        findings = [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH046"
        ]
        assert [f.subject for f in findings] == ["sw/open"]
        assert "never finalized" in findings[0].message

        # A live producer is not a finding once the threshold is raised
        # (opened_at=0.0 makes the run as old as the epoch, so the
        # suppressing threshold must exceed that).
        linter = Linter(open_run_age=float("inf"))
        assert not [
            f for f in linter.lint_warehouse(warehouse).findings
            if f.rule_id == "WH046"
        ]

        for chunk in chunk_log(log, MAX_EVENTS)[1:]:
            ingestor.ingest_events("sw/open", chunk)
        ingestor.finalize_run("sw/open")
        assert not [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH046"
        ]
        warehouse.close()

    def test_wh047_flags_trailing_deltas_and_recover_clears_it(
        self, registry, tmp_path
    ):
        spec, log = _chain_fixture()
        warehouse = make_warehouse("sqlite", tmp_path)
        spec_id = warehouse.store_spec(spec)
        chunks = chunk_log(log, max_events=MAX_EVENTS)
        ingestor = StreamingIngestor(warehouse)
        ingestor.open_run("sw/trail", spec_id)
        ingestor.ingest_events("sw/trail", chunks[0])
        warehouse.build_label_index("sw/trail")

        plan = FaultPlan().crash_at("stream.delta")
        crasher = StreamingIngestor(warehouse, faults=plan)
        crasher.open_run("sw/trail", resume=True)
        crasher.ingest_events("sw/trail", chunks[0])  # skipped
        with pytest.raises(InjectedCrash):
            crasher.ingest_events("sw/trail", chunks[1])

        findings = [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH047"
        ]
        assert [f.subject for f in findings] == ["sw/trail"]

        recover(warehouse)
        assert not [
            f for f in lint_warehouse(warehouse) if f.rule_id == "WH047"
        ]
        warehouse.close()

    def test_corrupt_example_plants_both_rules(self, registry, tmp_path):
        import sys

        sys.path.insert(0, "examples")
        try:
            from corrupt_warehouse import build
        finally:
            sys.path.pop(0)
        path = build(str(tmp_path / "corrupt.sqlite"))
        with SqliteWarehouse(path) as warehouse:
            report = lint_warehouse(warehouse)
        by_rule = {f.rule_id for f in report}
        assert {"WH046", "WH047"} <= by_rule


class TestCli:
    def test_stream_status_lists_open_runs(self, registry, tmp_path, capsys):
        spec, log = _chain_fixture()
        db = str(tmp_path / "wh.sqlite")
        with SqliteWarehouse(db) as warehouse:
            spec_id = warehouse.store_spec(spec)
            ingestor = StreamingIngestor(warehouse)
            ingestor.open_run("sw/cli", spec_id)
            ingestor.ingest_events("sw/cli", chunk_log(log, MAX_EVENTS)[0])

        assert main(["stream", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "sw/cli" in out and "epoch 1" in out

        with SqliteWarehouse(db) as warehouse:
            resumed = StreamingIngestor(warehouse)
            resumed.open_run("sw/cli", resume=True)
            for chunk in chunk_log(log, MAX_EVENTS):
                resumed.ingest_events("sw/cli", chunk)
            resumed.finalize_run("sw/cli")
        assert main(["stream", "status", "--db", db]) == 0
        assert "no open streams" in capsys.readouterr().out

    def test_recover_reports_stream_repairs(self, registry, tmp_path, capsys):
        spec, log = _chain_fixture()
        db = str(tmp_path / "wh.sqlite")
        plan = FaultPlan().crash_at("stream.epoch.mark")
        with SqliteWarehouse(db, faults=plan) as warehouse:
            spec_id = warehouse.store_spec(spec)
            ingestor = StreamingIngestor(warehouse)
            ingestor.open_run("sw/r", spec_id)
            with pytest.raises(InjectedCrash):
                ingestor.ingest_events("sw/r", chunk_log(log, MAX_EVENTS)[0])

        assert main(["recover", "--db", db]) == 0
        assert "stream epochs rolled forward" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------


def _chain_fixture():
    """A 4-step chain spec and its canonical log — small but deep enough
    that chunking at MAX_EVENTS produces several epochs."""
    from repro.core.spec import WorkflowSpec

    spec = WorkflowSpec(
        ["M1", "M2", "M3", "M4"],
        [("input", "M1"), ("M1", "M2"), ("M2", "M3"), ("M3", "M4"),
         ("M4", "output")],
        name="sw",
    )
    log = EventLog()
    log.user_input("d0")
    for index in range(1, 5):
        step = "s%d" % index
        log.start(step, "M%d" % index)
        log.read(step, "d%d" % (index - 1))
        log.write(step, "d%d" % index)
    log.final_output("d4")
    return spec, log
