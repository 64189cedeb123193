"""Crash-safe streaming ingestion: journaled live-run appends.

The batch pipeline (:mod:`repro.warehouse.pipeline`) assumes a run is
*finished* before it is ingested.  Real workflow engines emit provenance
while the run executes; waiting for the end means the warehouse cannot
answer "what produced this intermediate file?" until hours later.  This
module closes that gap: a run is **opened**, its event log is appended in
**epochs**, and every epoch rides the same checksummed journal protocol
that makes batch loads crash-safe — so a kill at any instruction leaves
the warehouse recoverable to a consistent prefix of the stream.

Protocol (one :class:`StreamingIngestor` per producer):

1. :meth:`~StreamingIngestor.open_run` — one transaction creates the run
   definition and an open-run row (``_stream_state``: committed epoch,
   cumulative checksum, label watermark), then journals the empty run
   ``committed`` at epoch 0.
2. :meth:`~StreamingIngestor.ingest_events` — each call is one epoch
   ``N``: the journal entry is re-written ``pending`` with the cumulative
   checksum ``C_N`` (fault site ``stream.epoch.pending``), the epoch's
   rows and the state row advance **atomically** in one backend
   transaction (:meth:`~repro.warehouse.base.ProvenanceWarehouse.stream_apply`,
   fault site ``stream.append``), and the entry is marked ``committed``
   (fault site ``stream.epoch.mark``).  A crash in the first window
   truncates cleanly back to epoch ``N-1``; a crash in the last is rolled
   *forward* by checksum — :func:`~repro.warehouse.recovery.recover`
   settles both.
3. After the epoch commits, already-built reachability labels are
   maintained **incrementally**: :func:`~repro.provenance.labels.try_extend`
   grows them when the delta shape allows and falls back to a full
   rebuild otherwise — the ``stream.delta`` / ``stream.rebuild``
   counters record which path ran.  A crash between the epoch commit and
   the label delta (fault site ``stream.delta``) leaves the
   ``delta_epoch`` watermark trailing — lint rule ``WH047`` flags it and
   recovery drops the stale labels.
4. :meth:`~StreamingIngestor.finalize_run` deletes the open-run row
   (fault site ``stream.finalize``), leaving rows, labels and journal
   byte-identical to a cold batch load of the same events.

**Resume.**  After a crash, re-open with ``resume=True`` and re-send the
same append sequence from the start: recovery settles the torn epoch
first, then every call up to the durable epoch is skipped
(``stream.skipped`` counter) and appends continue seamlessly — the chaos
suite (``tests/test_streaming.py``) asserts the final warehouse
fingerprint matches both the uninterrupted stream and a cold batch load.

**Degraded reads.**  Because the rows and the state row move in one
transaction and labels are only ever extended *after* the commit,
concurrent readers (:class:`~repro.serve.service.QueryService`, zoom
sessions) always observe a complete epoch prefix — stale, never torn.
``Session.watch`` polls the open-run row to follow convergence.

See ``docs/streaming.md`` for the crash matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import WarehouseError
from ..faults import FaultPlan
from ..faults import hit as fault_hit
from ..obs.metrics import get_registry
from ..run.log import Event, EventLog
from ..sanitize import make_lock
from .base import ProvenanceWarehouse
from .recovery import JournalEntry, recover, run_checksum
from .schema import DIR_IN, DIR_OUT


@dataclass
class _OpenRun:
    """The ingestor's local view of one run it holds open."""

    spec_id: str
    epoch: int                       #: last epoch this process committed
    skip_through: int                #: epochs durable before (re-)open
    calls: int = 0                   #: ingest_events calls seen
    step_rows: List[Tuple[str, str]] = field(default_factory=list)
    io_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    user_inputs: List[str] = field(default_factory=list)
    final_outputs: List[str] = field(default_factory=list)
    checksum: str = ""


def chunk_log(
    events: Iterable[Event], max_events: int = 32
) -> List[List[Event]]:
    """Split a canonical event log into frontier-shaped epochs.

    A canonical log (:func:`~repro.run.log.log_from_run`) interleaves
    whole step blocks — a start, then the step's reads, then its writes —
    between singleton user-input and final-output events.  Chunking at
    arbitrary event counts can split a block, which forces the label
    delta path to rebuild; this helper packs **whole blocks** greedily up
    to ``max_events`` per chunk (a block larger than the budget becomes
    its own oversized chunk), so every chunk's io rows reference only
    steps declared in that same chunk and the delta path never falls
    back.  Any concatenation of the chunks replays to the original log.
    """
    if max_events < 1:
        raise ValueError("max_events must be >= 1, got %r" % max_events)
    blocks: List[List[Event]] = []
    for event in events:
        if event.kind in ("read", "write") and blocks:
            blocks[-1].append(event)
        else:
            blocks.append([event])
    chunks: List[List[Event]] = []
    current: List[Event] = []
    for block in blocks:
        if current and len(current) + len(block) > max_events:
            chunks.append(current)
            current = []
        current.extend(block)
    if current:
        chunks.append(current)
    return chunks


class StreamingIngestor:
    """Append a live run to a warehouse, one crash-safe epoch at a time.

    Parameters
    ----------
    warehouse:
        Any backend implementing the streaming hooks — memory, SQLite, or
        the sharded federation (appends route to the owning shard's
        writer thread).
    reasoner:
        Optional :class:`~repro.provenance.reasoner.ProvenanceReasoner`
        (or anything with ``refresh_run(run_id)``): notified after every
        committed epoch and on finalize, so serving caches flip to the
        new generation without discarding the persistent labels.
    faults:
        A :class:`~repro.faults.FaultPlan` for the ``stream.*`` sites;
        defaults to the warehouse's own plan, so one plan covers the
        backend and the protocol choreography.

    One ingestor may hold many runs open concurrently; each *run's*
    appends must come from a single producer in order (the epoch number
    is the append sequence number).
    """

    def __init__(
        self,
        warehouse: ProvenanceWarehouse,
        *,
        reasoner: Optional[object] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self._warehouse = warehouse
        self._reasoner = reasoner
        self._plan = (
            faults if faults is not None
            else getattr(warehouse, "faults", None)
        )
        self._lock = make_lock("warehouse.streaming")
        self._open: Dict[str, _OpenRun] = {}     # guarded-by: _lock
        self._listeners: List[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open_run(
        self,
        run_id: str,
        spec_id: Optional[str] = None,
        *,
        resume: bool = False,
        opened_at: Optional[float] = None,
    ) -> int:
        """Open ``run_id`` for appends; returns the committed epoch.

        Fresh opens (``resume=False``) require ``spec_id`` and create the
        empty run at epoch 0.  ``resume=True`` re-opens a run a crashed
        producer left open: :func:`~repro.warehouse.recovery.recover`
        settles any torn epoch first, the local view is rebuilt from the
        stored rows, and subsequent :meth:`ingest_events` calls skip the
        epochs that are already durable — re-send the full append
        sequence from the start.
        """
        warehouse = self._warehouse
        if resume:
            recover(warehouse)
            state = warehouse.stream_state(run_id)
            if state is None:
                raise WarehouseError(
                    "run %r is not open for streaming; nothing to resume"
                    % run_id
                )
            if spec_id is not None and spec_id != state.spec_id:
                raise WarehouseError(
                    "run %r streams spec %r, not %r"
                    % (run_id, state.spec_id, spec_id)
                )
            record = _OpenRun(
                spec_id=state.spec_id,
                epoch=state.epoch,
                skip_through=state.epoch,
                step_rows=list(warehouse.steps_of_run(run_id)),
                io_rows=list(warehouse.io_rows(run_id)),
                user_inputs=sorted(warehouse.user_inputs(run_id)),
                final_outputs=sorted(warehouse.final_outputs(run_id)),
                checksum=state.checksum,
            )
            with self._lock:
                self._open[run_id] = record
            get_registry().counter("stream.resumed").increment()
            return state.epoch
        if spec_id is None:
            raise WarehouseError(
                "opening a fresh stream for run %r requires a spec_id"
                % run_id
            )
        checksum = run_checksum(spec_id, [], [], [], [])
        warehouse.stream_begin(
            run_id, spec_id, checksum=checksum,
            opened_at=time.time() if opened_at is None else opened_at,
        )
        # Epoch 0 — the empty run — goes straight to ``committed``: a
        # kill between stream_begin and this journal write is the gap
        # recovery's stream pass re-journals from the state row.
        warehouse.journal_begin([JournalEntry(
            run_id=run_id, spec_id=spec_id, checksum=checksum, batch=0,
        )])
        warehouse.journal_commit([run_id])
        with self._lock:
            self._open[run_id] = _OpenRun(
                spec_id=spec_id, epoch=0, skip_through=0, checksum=checksum,
            )
        get_registry().counter("stream.opened").increment()
        return 0

    def open_runs(self) -> List[str]:
        """Run ids this ingestor currently holds open, sorted."""
        with self._lock:
            return sorted(self._open)

    def subscribe(self, listener: Callable[[str, int], None]) -> None:
        """Call ``listener(run_id, epoch)`` after every committed epoch
        (and on finalize, with the final epoch)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def ingest_events(
        self, run_id: str, events: Iterable[Event]
    ) -> int:
        """Append one epoch of events; returns the committed epoch number.

        The epoch either commits completely — rows, state row and journal
        mark — or leaves a pending journal entry that recovery truncates;
        no intermediate state is ever observable.  On a resumed run,
        calls up to the durable epoch are skipped (``stream.skipped``).
        """
        record = self._record(run_id)
        registry = get_registry()
        batch = list(events)
        record.calls += 1
        if record.calls <= record.skip_through:
            # This append is already durable from before the crash.
            registry.counter("stream.skipped").increment()
            return record.calls
        warehouse = self._warehouse
        plan = self._plan
        epoch = record.epoch + 1

        new_steps, new_io, new_inputs, new_final = self._shape(record, batch)
        cum_steps = record.step_rows + new_steps
        cum_io = record.io_rows + new_io
        cum_inputs = record.user_inputs + [d for d, _who in new_inputs]
        cum_final = record.final_outputs + new_final
        checksum = run_checksum(
            record.spec_id, cum_steps, cum_io, cum_inputs, cum_final
        )

        warehouse.journal_begin([JournalEntry(
            run_id=run_id, spec_id=record.spec_id,
            checksum=checksum, batch=epoch,
        )])
        # Crash window: the journal promises epoch N but the rows are
        # still at N-1 — recovery truncates back by the state checksum.
        fault_hit(plan, "stream.epoch.pending")
        with registry.time("stream.apply"):
            warehouse.stream_apply(
                run_id, epoch=epoch, checksum=checksum,
                step_rows=new_steps, io_rows=new_io,
                user_inputs=new_inputs, final_outputs=new_final,
            )
        # Crash window: rows and state row committed atomically, journal
        # still pending — recovery rolls the epoch forward by checksum.
        fault_hit(plan, "stream.epoch.mark")
        warehouse.journal_commit([run_id])

        record.epoch = epoch
        record.step_rows = cum_steps
        record.io_rows = cum_io
        record.user_inputs = cum_inputs
        record.final_outputs = cum_final
        record.checksum = checksum
        registry.counter("stream.epochs").increment()
        registry.counter("stream.events").increment(len(batch))

        # Crash window: the epoch is durably committed but the label
        # delta below never ran — ``delta_epoch`` trails (WH047) and
        # recovery drops the stale labels for lazy rebuild.
        fault_hit(plan, "stream.delta")
        self._maintain_labels(run_id, new_steps, new_io,
                               [d for d, _who in new_inputs])
        warehouse.stream_mark_delta(run_id, epoch)
        self._notify(run_id, epoch)
        return epoch

    def finalize_run(self, run_id: str) -> str:
        """Close the stream; returns the run's final content checksum.

        Idempotent against crashes: a kill at the ``stream.finalize``
        site leaves the run open (lint rule ``WH046`` flags it at rest)
        and a resumed producer's replayed finalize converges.  After
        closing, the warehouse holds exactly what a cold batch load of
        the same events would hold.
        """
        record = self._record(run_id)
        fault_hit(self._plan, "stream.finalize")
        self._warehouse.stream_close(run_id)
        with self._lock:
            self._open.pop(run_id, None)
        get_registry().counter("stream.finalized").increment()
        self._notify(run_id, record.epoch)
        return record.checksum

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _record(self, run_id: str) -> _OpenRun:
        with self._lock:
            record = self._open.get(run_id)
        if record is None:
            raise WarehouseError(
                "run %r is not open in this ingestor — call open_run"
                " (resume=True to pick up a crashed stream)" % run_id
            )
        return record

    @staticmethod
    def _shape(
        record: _OpenRun, events: Sequence[Event]
    ) -> Tuple[
        List[Tuple[str, str]],
        List[Tuple[str, str, str]],
        List[Tuple[str, str]],
        List[str],
    ]:
        """Shape one epoch's events into relational delta rows.

        Rows the warehouse already holds (or that repeat within the
        epoch) are dropped, so a replayed event is harmless and the
        cumulative checksum matches the stored relations exactly.
        """
        steps: List[Tuple[str, str]] = []
        io_rows: List[Tuple[str, str, str]] = []
        user_inputs: List[Tuple[str, str]] = []
        final_outputs: List[str] = []
        seen_steps = set(record.step_rows)
        seen_io = set(record.io_rows)
        seen_inputs = set(record.user_inputs)
        seen_final = set(record.final_outputs)
        for event in events:
            kind = event.kind
            if kind == "start":
                row = (event.step_id, event.module)
                if row not in seen_steps:
                    seen_steps.add(row)
                    steps.append(row)
            elif kind == "read":
                io = (event.step_id, event.data_id, DIR_IN)
                if io not in seen_io:
                    seen_io.add(io)
                    io_rows.append(io)
            elif kind == "write":
                io = (event.step_id, event.data_id, DIR_OUT)
                if io not in seen_io:
                    seen_io.add(io)
                    io_rows.append(io)
            elif kind == "user_input":
                if event.data_id not in seen_inputs:
                    seen_inputs.add(event.data_id)
                    user_inputs.append((event.data_id, event.who))
            elif kind == "final_output":
                if event.data_id not in seen_final:
                    seen_final.add(event.data_id)
                    final_outputs.append(event.data_id)
            else:
                raise WarehouseError(
                    "unknown event kind %r in streaming append" % (kind,)
                )
        return steps, io_rows, user_inputs, final_outputs

    def _maintain_labels(
        self,
        run_id: str,
        new_steps: List[Tuple[str, str]],
        new_io: List[Tuple[str, str, str]],
        new_user_inputs: List[str],
    ) -> None:
        """Advance already-built reachability labels past the epoch.

        Labels that were never built stay unbuilt (queries build lazily
        as usual).  The incremental path bumps ``stream.delta``; a
        fallback full rebuild bumps ``stream.rebuild``.
        """
        from ..provenance.labels import try_extend

        warehouse = self._warehouse
        if not warehouse.has_label_index(run_id):
            return
        registry = get_registry()
        stored = warehouse.lineage_labels(run_id)
        with registry.time("stream.index.delta"):
            extended = try_extend(stored, new_steps, new_io, new_user_inputs)
        if extended is None:
            with registry.time("stream.index.rebuild"):
                warehouse.build_label_index(run_id, rebuild=True)
            registry.counter("stream.rebuild").increment()
        else:
            warehouse.drop_label_index(run_id)
            warehouse._store_lineage_labels(extended)
            registry.counter("stream.delta").increment()

    def _notify(self, run_id: str, epoch: int) -> None:
        reasoner = self._reasoner
        if reasoner is not None:
            reasoner.refresh_run(run_id)  # type: ignore[attr-defined]
        for listener in self._listeners:
            listener(run_id, epoch)


def stream_log(
    ingestor: StreamingIngestor,
    run_id: str,
    spec_id: str,
    log: EventLog,
    *,
    max_events: int = 32,
    resume: bool = False,
) -> str:
    """Stream a whole event log through open/append/finalize.

    Convenience wrapper over :func:`chunk_log` — the reference way to
    ingest a finished log *as if* it had arrived live, used by the chaos
    suite and the benchmark.  Returns the final checksum.
    """
    ingestor.open_run(run_id, spec_id, resume=resume)
    for chunk in chunk_log(log, max_events=max_events):
        ingestor.ingest_events(run_id, chunk)
    return ingestor.finalize_run(run_id)


__all__ = [
    "StreamingIngestor",
    "chunk_log",
    "stream_log",
]
