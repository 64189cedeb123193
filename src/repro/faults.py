"""Deterministic fault injection for the ingestion and recovery paths.

Real provenance warehouses are loaded from logs by processes that crash,
race each other for the database and receive corrupt runs.  This module
makes those failures *reproducible*: a :class:`FaultPlan` schedules crashes,
transient SQLite lock errors and per-run corruption at named **sites** —
fixed points the warehouse and pipeline code was instrumented with — so the
chaos suite (``tests/test_recovery.py``) can prove that every crash point
leaves the warehouse either fully repaired or cleanly resumable.

Instrumented sites (see :data:`SITES`):

``store_many.begin``
    Entry of a backend's bulk write, *inside* the ``with_retries`` wrapper —
    the site for injecting transient "database is locked" errors.
``store_many.mid``
    Inside the batch transaction, after some rows were inserted — a crash
    here simulates a hard kill mid-commit (SQLite rolls the batch back on
    recovery; the in-memory backend is left genuinely half-applied).
``journal.pending``
    After the ingest journal's ``pending`` rows were durably written but
    before the batch commit — a crash here produces a **torn journal**
    (journal rows referencing runs the warehouse does not hold; lint rule
    ``WH041``).
``journal.mark``
    After the batch commit but before the journal rows are marked
    ``committed`` — the window recovery repairs by checksum.
``bulk_load.rebuild``
    Inside :meth:`SqliteWarehouse.bulk_load`'s exit bracket, before the
    deferred ``io`` secondary indexes are recreated — a crash here leaves
    the warehouse unindexed, the state the startup integrity probe and
    ``zoom recover`` repair.
``stream.epoch.pending``
    A streaming append's journal entry was durably re-written ``pending``
    but no epoch rows are stored yet — a crash here is the streaming
    flavour of the torn journal; recovery *truncates* back to the last
    committed epoch.
``stream.append``
    Inside :meth:`~repro.warehouse.base.ProvenanceWarehouse.stream_apply`,
    after the epoch's delta rows entered the transaction but before it
    commits — the site for both hard kills (the transaction rolls back)
    and injected lock errors on the open-run row (absorbed by
    ``with_retries``).
``stream.epoch.mark``
    The epoch's rows and stream state committed atomically but the journal
    entry is still ``pending`` — recovery rolls the epoch *forward* by
    checksum.
``stream.delta``
    The epoch is journalled committed but the incremental label delta did
    not run — the warehouse's ``delta_epoch`` trails its committed epoch
    (lint rule ``WH047``); recovery drops the stale labels so they
    rebuild lazily.
``stream.finalize``
    Inside :meth:`~repro.warehouse.streaming.StreamingIngestor.finalize_run`,
    before the open-run state row is deleted — the run stays open
    (lint rule ``WH046``) and a replayed finalize converges.

A sixth failure mode, per-run corruption, is scheduled with
:meth:`FaultPlan.fail_run` and raised by the pipeline's gate stage — under
``on_error="quarantine"`` the run is quarantined instead of aborting the
dataset.

Crashes are raised as :class:`InjectedCrash`, a :class:`BaseException`
subclass: it deliberately flies past ``except Exception`` handlers (and the
retry decorator), exactly as a process kill would, while transaction
context managers still roll back — the same database state a crashed
process leaves behind in WAL mode.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Dict, List, Optional, Tuple

from .core.errors import RunError
from .sanitize import YIELD_SITES, make_lock

#: The instrumented fault sites, for reference and validation.
SITES: Tuple[str, ...] = (
    "store_many.begin",
    "store_many.mid",
    "journal.pending",
    "journal.mark",
    "bulk_load.rebuild",
    "stream.epoch.pending",
    "stream.append",
    "stream.epoch.mark",
    "stream.delta",
    "stream.finalize",
)

#: Every site a plan may schedule against: the crash/lock sites above plus
#: the sanitizer's schedule-fuzzer yield sites (see ``repro.sanitize``).
ALL_SITES: Tuple[str, ...] = SITES + YIELD_SITES


class InjectedCrash(BaseException):
    """A scheduled hard-crash fired at an instrumented site.

    Subclasses :class:`BaseException` so generic ``except Exception``
    recovery code cannot accidentally swallow a simulated process kill.
    """

    def __init__(self, site: str) -> None:
        super().__init__("injected crash at %r" % site)
        self.site = site


class FaultPlan:
    """A schedule of failures to inject at instrumented sites.

    Build a plan, hand it to :class:`~repro.warehouse.sqlite.SqliteWarehouse`
    / :class:`~repro.warehouse.memory.InMemoryWarehouse` (``faults=``) and —
    automatically, via the warehouse — to
    :func:`~repro.warehouse.pipeline.ingest_dataset`.  Thread-safe; every
    trigger fires at most once and is recorded in :attr:`fired`.
    """

    def __init__(self) -> None:
        self._lock = make_lock("faults.plan")
        self._hits: Dict[str, int] = {}            # guarded-by: _lock
        self._crash_at: Dict[str, int] = {}        # guarded-by: _lock
        self._lock_at: Dict[str, int] = {}         # guarded-by: _lock
        self._fail_runs: Dict[str, str] = {}       # guarded-by: _lock
        self._yield_at: Dict[Tuple[str, int], float] = {}  # guarded-by: _lock
        #: Chronological record of what actually fired (for assertions).
        self.fired: List[str] = []                 # guarded-by: _lock

    # -- scheduling ----------------------------------------------------

    def crash_at(self, site: str, hit: int = 1) -> "FaultPlan":
        """Raise :class:`InjectedCrash` on the ``hit``-th pass of ``site``."""
        if site not in SITES:
            raise ValueError("unknown fault site %r (known: %s)"
                             % (site, ", ".join(SITES)))
        with self._lock:
            self._crash_at[site] = hit
        return self

    def lock_at(self, site: str, times: int = 1) -> "FaultPlan":
        """Raise ``sqlite3.OperationalError("database is locked")`` the next
        ``times`` passes of ``site`` (the transient-contention simulation
        the ``with_retries`` decorator absorbs)."""
        if site not in SITES:
            raise ValueError("unknown fault site %r (known: %s)"
                             % (site, ", ".join(SITES)))
        with self._lock:
            self._lock_at[site] = times
        return self

    def yield_at(self, site: str, hit: int = 1,
                 duration: float = 0.01) -> "FaultPlan":
        """Pause ``duration`` seconds on the ``hit``-th pass of ``site``.

        The schedule fuzzer's injection primitive: a pause at an
        instrumented yield site (``repro.sanitize.YIELD_SITES``) stretches
        a race window so a concurrent thread lands inside it
        deterministically.  A ``duration`` of zero still yields the GIL
        (``time.sleep(0)``).  Unlike crashes, yields may be scheduled at
        both the warehouse fault sites and the sanitizer yield sites.
        """
        if site not in ALL_SITES:
            raise ValueError("unknown yield site %r (known: %s)"
                             % (site, ", ".join(ALL_SITES)))
        if duration < 0:
            raise ValueError("duration must be >= 0, got %r" % duration)
        with self._lock:
            self._yield_at[(site, hit)] = duration
        return self

    def fail_run(self, run_id: str,
                 message: Optional[str] = None) -> "FaultPlan":
        """Schedule a per-run failure: the pipeline's gate stage raises a
        :class:`~repro.core.errors.RunError` for this warehouse run id."""
        with self._lock:
            self._fail_runs[run_id] = (
                message or "injected corrupt run %r" % run_id
            )
        return self

    def scheduled_yields(self) -> List[Tuple[str, int, float]]:
        """Every ``yield_at`` entry as ``(site, hit, duration)`` triples."""
        with self._lock:
            return [
                (site, hit, duration)
                for (site, hit), duration in self._yield_at.items()
            ]

    # -- firing (called by instrumented code) --------------------------

    def hit(self, site: str) -> None:
        """Record a pass of ``site``; raise or pause as scheduled.

        The pause itself happens *outside* the plan's lock so concurrent
        threads hitting other sites are never serialized by a sleeping
        sibling.
        """
        with self._lock:
            count = self._hits[site] = self._hits.get(site, 0) + 1
            remaining_locks = self._lock_at.get(site, 0)
            if remaining_locks > 0:
                self._lock_at[site] = remaining_locks - 1
                self.fired.append("lock:%s" % site)
                raise sqlite3.OperationalError(
                    "database is locked (injected at %r)" % site
                )
            if self._crash_at.get(site) == count:
                del self._crash_at[site]
                self.fired.append("crash:%s" % site)
                raise InjectedCrash(site)
            pause = self._yield_at.pop((site, count), None)
            if pause is not None:
                self.fired.append("yield:%s@%d" % (site, count))
        if pause is not None:
            time.sleep(pause)

    def check_run(self, run_id: str) -> None:
        """Raise the scheduled failure of ``run_id``, if any (fires once)."""
        with self._lock:
            message = self._fail_runs.pop(run_id, None)
            if message is not None:
                self.fired.append("fail-run:%s" % run_id)
        if message is not None:
            raise RunError(message)

    def pending(self) -> Dict[str, object]:
        """What is still scheduled (empty when every fault has fired)."""
        with self._lock:
            return {
                "crash": dict(self._crash_at),
                "lock": {s: n for s, n in self._lock_at.items() if n > 0},
                "fail_run": dict(self._fail_runs),
                "yield": {
                    "%s@%d" % key: duration
                    for key, duration in self._yield_at.items()
                },
            }


def hit(plan: Optional[FaultPlan], site: str) -> None:
    """``plan.hit(site)`` tolerating ``plan=None`` (the production case)."""
    if plan is not None:
        plan.hit(site)


__all__ = ["ALL_SITES", "SITES", "FaultPlan", "InjectedCrash", "hit"]
