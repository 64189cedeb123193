"""Crash recovery for batched ingestion: journal, checksums, quarantine.

PR 4's bulk pipeline trades durability for throughput (``synchronous=OFF``,
multi-run transactions, deferred indexes) — a crash mid-load can leave the
warehouse partially loaded with no record of how far it got.  This module
is the write-ahead manifest that makes those loads **crash-safe and
resumable**:

* Before a batch commits, the pipeline journals one ``pending`` row per
  run — warehouse id, spec id and a :func:`run_checksum` over the exact
  relational rows about to be stored.  After the commit the rows are
  marked ``committed``.  The journal lives next to the data it describes
  (a ``_ingest_journal`` table in SQLite, a dict in memory), so it crashes
  and recovers with it.
* :func:`recover` replays the journal on the crashed warehouse: a pending
  run whose stored rows match its checksum is rolled **forward** (marked
  committed); a mismatching one is rolled **back** (deleted, left pending);
  a pending entry with no stored run is a **torn** ingest, reported and
  left for ``load_dataset(resume=True)`` to re-ingest.  The warehouse's
  own integrity probe (``PRAGMA quick_check`` + expected-index repair)
  runs first, so a kill between ``bulk_load``'s index drop and rebuild is
  healed in the same pass.
* Runs that fail *individually* — lint-gate rejections, validation
  errors, mid-batch storage failures — can be diverted into a
  **quarantine** (``ingest_dataset(on_error="quarantine")``) instead of
  aborting the dataset: a :class:`QuarantineRecord` keeps the shaped rows,
  the original exception and the offending event index, inspectable and
  re-ingestable via ``zoom quarantine list|show|retry``.

The chaos suite (``tests/test_recovery.py``) drives every crash site of
:mod:`repro.faults` through this module and asserts byte-identical
convergence with an uninterrupted load.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import ZoomError
from ..obs.metrics import get_registry
from .base import ProvenanceWarehouse

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids import cycles
    from .pipeline import PreparedRun

#: Journal state: rows written, batch commit not yet confirmed.
JOURNAL_PENDING = "pending"

#: Journal state: the run's batch transaction is durably committed.
JOURNAL_COMMITTED = "committed"


@dataclass(frozen=True)
class JournalEntry:
    """One ingest-journal row: a run the pipeline intends (or managed) to
    store, with the checksum its stored rows must hash to."""

    run_id: str
    spec_id: str
    checksum: str
    batch: int
    state: str = JOURNAL_PENDING


@dataclass
class QuarantineRecord:
    """A failed run, preserved with enough context to inspect and retry.

    ``reason`` is the original exception (type and message);
    ``event_index`` names the offending log event when the error carries
    one.  The shaped relational rows ride along so ``retry`` can re-gate
    and re-store without the original workload in hand.
    """

    run_id: str
    spec_id: str
    source_run_id: str
    reason: str
    event_index: Optional[int] = None
    step_rows: List[Tuple[str, str]] = field(default_factory=list)
    io_rows: List[Tuple[str, str, str]] = field(default_factory=list)
    user_inputs: List[str] = field(default_factory=list)
    final_outputs: List[str] = field(default_factory=list)
    checksum: str = ""

    def to_payload(self) -> str:
        """The row payload persisted by the SQLite backend (JSON)."""
        return json.dumps({
            "source_run_id": self.source_run_id,
            "step_rows": [list(r) for r in self.step_rows],
            "io_rows": [list(r) for r in self.io_rows],
            "user_inputs": list(self.user_inputs),
            "final_outputs": list(self.final_outputs),
            "checksum": self.checksum,
        }, sort_keys=True)

    @classmethod
    def from_payload(
        cls,
        run_id: str,
        spec_id: str,
        reason: str,
        event_index: Optional[int],
        payload: str,
    ) -> "QuarantineRecord":
        data = json.loads(payload)
        return cls(
            run_id=run_id,
            spec_id=spec_id,
            source_run_id=data.get("source_run_id", run_id),
            reason=reason,
            event_index=event_index,
            step_rows=[tuple(r) for r in data.get("step_rows", [])],
            io_rows=[tuple(r) for r in data.get("io_rows", [])],
            user_inputs=list(data.get("user_inputs", [])),
            final_outputs=list(data.get("final_outputs", [])),
            checksum=data.get("checksum", ""),
        )

    def to_prepared(self) -> "PreparedRun":
        """Rebuild the bulk-storable form (for ``quarantine retry``)."""
        from .pipeline import PreparedRun

        return PreparedRun(
            run_id=self.run_id,
            spec_id=self.spec_id,
            source_run_id=self.source_run_id,
            step_rows=list(self.step_rows),
            io_rows=list(self.io_rows),
            user_inputs=list(self.user_inputs),
            final_outputs=list(self.final_outputs),
            checksum=self.checksum or run_checksum(
                self.spec_id, self.step_rows, self.io_rows,
                self.user_inputs, self.final_outputs,
            ),
        )


@dataclass
class RecoveryReport:
    """What :func:`recover` found and fixed.

    The ``stream_*`` lists cover runs that were *open for streaming*
    (:meth:`~repro.warehouse.base.ProvenanceWarehouse.stream_states`)
    when the crash hit: an epoch rolled forward by checksum, an append
    truncated back to the last committed epoch, or a run whose label
    index trailed its committed epoch and was dropped for lazy rebuild.
    """

    integrity_ok: bool = True
    repaired_indexes: List[str] = field(default_factory=list)
    marked_committed: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)
    torn_journal: List[str] = field(default_factory=list)
    stream_rolled_forward: List[str] = field(default_factory=list)
    stream_truncated: List[str] = field(default_factory=list)
    stream_desynced: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing needed fixing and nothing is left torn."""
        return (
            self.integrity_ok
            and not self.repaired_indexes
            and not self.marked_committed
            and not self.rolled_back
            and not self.torn_journal
            and not self.stream_rolled_forward
            and not self.stream_truncated
            and not self.stream_desynced
        )

    def summary(self) -> str:
        lines = [
            "integrity: %s" % ("ok" if self.integrity_ok else "FAILED"),
        ]
        if self.repaired_indexes:
            lines.append(
                "repaired indexes: %s" % ", ".join(self.repaired_indexes)
            )
        if self.marked_committed:
            lines.append(
                "rolled forward (marked committed): %s"
                % ", ".join(self.marked_committed)
            )
        if self.rolled_back:
            lines.append(
                "rolled back (left pending): %s" % ", ".join(self.rolled_back)
            )
        if self.torn_journal:
            lines.append(
                "torn journal (re-load with --resume): %s"
                % ", ".join(self.torn_journal)
            )
        if self.stream_rolled_forward:
            lines.append(
                "stream epochs rolled forward: %s"
                % ", ".join(self.stream_rolled_forward)
            )
        if self.stream_truncated:
            lines.append(
                "stream appends truncated (resume re-sends): %s"
                % ", ".join(self.stream_truncated)
            )
        if self.stream_desynced:
            lines.append(
                "stream labels dropped (delta_epoch trailed): %s"
                % ", ".join(self.stream_desynced)
            )
        if self.clean:
            lines.append("journal: clean")
        return "\n".join(lines)


def run_checksum(
    spec_id: str,
    step_rows: Iterable[Tuple[str, str]],
    io_rows: Iterable[Tuple[str, str, str]],
    user_inputs: Iterable[str],
    final_outputs: Iterable[str],
) -> str:
    """Content hash of a run's relational rows, order-independent.

    SHA-256 over a canonical JSON form with every relation sorted, so the
    same hash comes out of a :class:`~repro.warehouse.pipeline.PreparedRun`
    (rows in shaping order) and out of the stored warehouse rows (rows in
    backend iteration order).  The reachability labels are deliberately
    excluded: they are derived data, rebuildable from these rows.
    """
    payload = {
        "spec_id": spec_id,
        "steps": sorted([s, m] for s, m in step_rows),
        "io": sorted([s, d, direction] for s, d, direction in io_rows),
        "user_inputs": sorted(user_inputs),
        "final_outputs": sorted(final_outputs),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def checksum_stored_run(warehouse: ProvenanceWarehouse, run_id: str) -> str:
    """:func:`run_checksum` recomputed from what the warehouse holds."""
    return run_checksum(
        warehouse.run_spec_id(run_id),
        warehouse.steps_of_run(run_id),
        warehouse.io_rows(run_id),
        warehouse.user_inputs(run_id),
        warehouse.final_outputs(run_id),
    )


def event_index_of(exc: BaseException) -> Optional[int]:
    """The offending log-event index an ingestion error names, if any.

    ``run_from_log`` errors are prefixed ``"event %d (kind): ..."``; an
    explicit ``event_index`` attribute (future-proofing) wins over the
    message parse.
    """
    explicit = getattr(exc, "event_index", None)
    if isinstance(explicit, int):
        return explicit
    match = re.search(r"\bevent (\d+)\b", str(exc))
    return int(match.group(1)) if match else None


def _recover_streams(
    warehouse: ProvenanceWarehouse, report: RecoveryReport
) -> frozenset:
    """Settle every open streaming run; returns their run ids.

    A streaming run holds exactly one journal entry, re-written
    ``pending`` at the start of each epoch and ``committed`` after the
    epoch's rows landed; the ``_stream_state`` row — updated *in the same
    transaction* as the rows — is the last-committed watermark.  Per run:

    * pending entry whose checksum matches the stored rows → the crash
      hit between the atomic apply and the journal mark; roll the epoch
      **forward** (mark committed).
    * pending entry, stored rows matching the *state* checksum instead →
      the epoch never (durably) applied; **truncate** by re-journalling
      the last committed epoch, leaving a resumed append to re-send it.
    * stored rows matching neither checksum → corrupt; the run (and its
      state row) is deleted outright.
    * no journal entry at all → the crash hit inside ``open_run`` before
      its first journal write; re-journal the committed open state.

    After the journal settles, a run whose ``delta_epoch`` trails its
    committed epoch (crash between epoch commit and label delta — lint
    rule ``WH047``) has its label index dropped and the watermark
    advanced: queries rebuild lazily rather than read stale labels.
    """
    registry = get_registry()
    states = warehouse.stream_states()
    if not states:
        return frozenset()
    entries = {e.run_id: e for e in warehouse.journal_entries()}
    present = set(warehouse.list_runs())
    for run_id in sorted(states):
        state = states[run_id]
        if run_id not in present:  # pragma: no cover — state row is
            # written in the same transaction as the run definition, so
            # this needs external vandalism; settle it defensively.
            warehouse.stream_close(run_id)
            if run_id in entries:
                warehouse.journal_discard([run_id])
            report.rolled_back.append(run_id)
            continue
        entry = entries.get(run_id)
        stored = checksum_stored_run(warehouse, run_id)
        if entry is not None and entry.state == JOURNAL_COMMITTED:
            pass  # journal already settled; only the delta check remains
        elif entry is not None and stored == entry.checksum:
            warehouse.journal_commit([run_id])
            registry.counter("recovery.stream_rolled_forward").increment()
            report.stream_rolled_forward.append(run_id)
        elif stored == state.checksum:
            # Also covers entry=None: a kill between open_run's state
            # transaction and its journal write leaves epoch 0 committed
            # but unjournalled.
            warehouse.journal_begin([JournalEntry(
                run_id=run_id, spec_id=state.spec_id,
                checksum=state.checksum, batch=state.epoch,
            )])
            warehouse.journal_commit([run_id])
            registry.counter("recovery.stream_truncated").increment()
            report.stream_truncated.append(run_id)
        else:
            # Matches neither the in-flight epoch nor the last committed
            # one: the stored rows are garbage.  delete_run clears the
            # journal row and the stream state with it.
            warehouse.delete_run(run_id)
            registry.counter("recovery.rolled_back").increment()
            report.rolled_back.append(run_id)
            continue
        state = warehouse.stream_state(run_id)
        if state is not None and state.delta_epoch < state.epoch:
            if warehouse.has_label_index(run_id):
                warehouse.drop_label_index(run_id)
            warehouse.stream_mark_delta(run_id, state.epoch)
            registry.counter("recovery.stream_desynced").increment()
            report.stream_desynced.append(run_id)
    return frozenset(states)


def recover(warehouse: ProvenanceWarehouse) -> RecoveryReport:
    """Repair a warehouse after a crashed (or killed) ingestion.

    Safe to run any time — on a healthy warehouse it is a cheap no-op
    audit.  Four passes:

    1. **Integrity**: the backend's :meth:`integrity_report` with
       ``repair=True`` — ``PRAGMA quick_check`` plus recreation of any
       expected index a kill inside ``bulk_load`` left dropped.
    2. **Streams**: every run open for streaming appends is settled
       epoch-wise — rolled forward, truncated to its last committed
       epoch, or (when its rows match no checksum) deleted; stale index
       deltas are dropped.  See :func:`_recover_streams`.
    3. **Roll forward**: every ``pending`` journal entry whose run is
       stored with rows hashing to the journalled checksum is marked
       ``committed`` (the crash hit after the batch commit, before the
       journal mark).
    4. **Roll back**: a ``pending`` run stored with *mismatching* rows is
       half-applied garbage — it is deleted and its journal entry
       re-written as ``pending``, so a resumed load re-ingests it.

    Pending entries whose run is absent (torn journal, lint rule
    ``WH041``) are reported but left in place: they are precisely the
    work-list ``load_dataset(resume=True)`` needs.

    A warehouse exposing ``recover_shards`` (the sharded federation)
    takes over the whole procedure: each shard runs this function
    locally on its own writer thread, in parallel, and the reports merge
    into one.
    """
    recover_shards = getattr(warehouse, "recover_shards", None)
    if recover_shards is not None:
        return recover_shards()
    registry = get_registry()
    integrity = warehouse.integrity_report(repair=True)
    report = RecoveryReport(
        integrity_ok=bool(integrity.get("ok", True)),
        repaired_indexes=[str(n) for n in integrity.get("repaired", [])],
    )
    streaming = _recover_streams(warehouse, report)
    present = set(warehouse.list_runs())
    for entry in warehouse.journal_entries(state=JOURNAL_PENDING):
        if entry.run_id in streaming:
            continue
        if entry.run_id not in present:
            report.torn_journal.append(entry.run_id)
            continue
        if checksum_stored_run(warehouse, entry.run_id) == entry.checksum:
            warehouse.journal_commit([entry.run_id])
            registry.counter("recovery.marked_committed").increment()
            report.marked_committed.append(entry.run_id)
        else:
            # delete_run clears the journal row as well; re-journal the
            # entry as pending so the resume path re-ingests this run.
            warehouse.delete_run(entry.run_id)
            warehouse.journal_begin([JournalEntry(
                run_id=entry.run_id, spec_id=entry.spec_id,
                checksum=entry.checksum, batch=entry.batch,
            )])
            registry.counter("recovery.rolled_back").increment()
            report.rolled_back.append(entry.run_id)
    return report


def retry_quarantined(
    warehouse: ProvenanceWarehouse,
    run_ids: Optional[Sequence[str]] = None,
    force: bool = False,
) -> Dict[str, str]:
    """Re-gate and re-store quarantined runs; returns run id -> outcome.

    Each run's preserved rows are re-linted against the stored spec and
    pushed through the same journal-then-store protocol the pipeline uses.
    A run that fails the gate again stays quarantined (outcome
    ``"rejected: ..."``) unless ``force=True`` skips the gate.  Outcomes:
    ``"stored"``, ``"rejected: <error>"`` or ``"failed: <error>"``.
    """
    from ..lint import Linter
    from ..lint.findings import LintGateError
    from ..lint.rules_run import RunFacts, lint_run_facts

    linter = Linter()
    targets = list(run_ids) if run_ids is not None else warehouse.quarantine_list()
    outcomes: Dict[str, str] = {}
    for run_id in targets:
        record = warehouse.quarantine_get(run_id)
        prepared = record.to_prepared()
        try:
            if not force:
                facts = RunFacts.from_rows(
                    record.source_run_id,
                    list(record.step_rows),
                    list(record.io_rows),
                    frozenset(record.user_inputs),
                    frozenset(record.final_outputs),
                )
                spec_rows = warehouse.spec_rows(record.spec_id)
                facts.attach_spec(
                    spec_rows["modules"], spec_rows["edges"]  # type: ignore[arg-type]
                )
                report = linter.report_findings(lint_run_facts(facts))
                linter.gate(report, "run %r" % record.source_run_id, True)
            warehouse.journal_begin([JournalEntry(
                run_id=prepared.run_id, spec_id=prepared.spec_id,
                checksum=prepared.checksum, batch=0,
            )])
            warehouse.store_many([prepared])
            warehouse.journal_commit([prepared.run_id])
            warehouse.quarantine_delete(run_id)
        except LintGateError as exc:
            outcomes[run_id] = "rejected: %s" % exc
        except ZoomError as exc:
            outcomes[run_id] = "failed: %s" % exc
        else:
            outcomes[run_id] = "stored"
    return outcomes


__all__ = [
    "JOURNAL_COMMITTED",
    "JOURNAL_PENDING",
    "JournalEntry",
    "QuarantineRecord",
    "RecoveryReport",
    "checksum_stored_run",
    "event_index_of",
    "recover",
    "retry_quarantined",
    "run_checksum",
]
