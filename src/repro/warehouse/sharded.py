"""Sharded warehouse federation: N SQLite files behind one interface.

One SQLite file is the reproduction's scaling ceiling: ingestion (the
batch pipeline), recovery (the checksummed journal) and serving (the
query service) are all parallel, but every byte still funnels through a
single write connection.  :class:`ShardedWarehouse` removes that ceiling
by partitioning *runs* across N independent :class:`SqliteWarehouse`
files under one directory:

* **routing** — every run id is owned by exactly one shard, decided by a
  deterministic router (SHA-256 of the run id by default, so the mapping
  survives process restarts and ``PYTHONHASHSEED``); per-run operations
  (rows, annotations, label indexes, journal, quarantine,
  delete) go straight to the owning shard.
* **replication** — specifications and view definitions are tiny and
  referenced by every shard's runs, so they are written to *all* shards;
  any shard can then reconstruct any of its runs without cross-shard
  reads, and a shard file is self-contained for backup or migration.
* **scatter-gather** — cross-run operations (``list_runs``,
  ``journal_entries``, index status, integrity) fan out over a reusable
  thread pool and merge with deterministic (sorted) ordering, so answers
  are independent of shard arrival order.
* **parallel ingest** — :meth:`store_many` groups a prepared batch by
  owning shard and commits the groups concurrently, one transaction per
  shard; combined with per-shard ``bulk_load`` brackets this turns the
  pipeline's single-writer bottleneck into N independent writers.

**Thread affinity.**  A :class:`SqliteWarehouse` binds its write
connection to the thread that constructed it.  The facade therefore
gives every shard a dedicated *writer thread* (:class:`_ShardWriter`)
that constructs the shard and executes all mutating operations for it;
reads run on the calling thread through the shard's per-thread read-only
connections.  Callers never need to know: the facade routes.

**Crash semantics.**  The PR 5 journal protocol is per-shard: pending
rows live on the shard that owns the run, so a crash mid-batch leaves
each shard either fully committed (roll-forward finds matching
checksums) or rolled back (the transaction never landed), and
:func:`repro.warehouse.recovery.recover` — which only speaks the
warehouse interface — settles every shard through ordinary routing.  A
cross-shard batch is *not* atomic as a whole; it is exactly as resumable
as a sequence of single-shard batches, which is what the journal was
built for.

The shard layout is described by ``shard_manifest.json`` in the
directory (format version, shard count, routing scheme, labels version),
validated on every open so a federation cannot silently be opened with
the wrong shard count or router.  See ``docs/sharding.md``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from ..core.errors import WarehouseError
from ..core.spec import WorkflowSpec
from ..core.view import UserView
from ..faults import FaultPlan
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.retry import with_retries
from ..provenance.result import ProvenanceResult
from ..run.run import WorkflowRun
from ..sanitize import make_lock
from .base import ProvenanceWarehouse, StreamState
from .sqlite import SqliteWarehouse

if TYPE_CHECKING:  # pragma: no cover — annotation-only
    from ..provenance.labels import LineageLabels
    from .pipeline import PreparedRun
    from .recovery import JournalEntry, QuarantineRecord, RecoveryReport

T = TypeVar("T")

#: Name of the layout descriptor inside a federation directory.
MANIFEST_NAME = "shard_manifest.json"

#: Format version of ``shard_manifest.json``.
MANIFEST_VERSION = 1

#: Shard count used when creating a fresh federation without an explicit
#: ``shards=``.
DEFAULT_SHARD_COUNT = 4

#: Filename pattern of the per-shard databases.
SHARD_FILE = "shard-%03d.db"


def _stable_bucket(key: str, shards: int) -> int:
    """SHA-256 bucket of ``key`` — stable across processes and platforms.

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    which would scatter a reopened federation's runs onto the wrong
    shards; a cryptographic digest costs nanoseconds per route and never
    moves.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def hash_router(run_id: str, shards: int) -> int:
    """Default routing: uniform SHA-256 hash of the full run id."""
    return _stable_bucket(run_id, shards)


def spec_router(run_id: str, shards: int) -> int:
    """Workflow-class affinity: route on the run id's spec prefix.

    Run ids follow the loader's ``<spec_id>/runN`` convention, so hashing
    the prefix co-locates all runs of one workflow on one shard — queries
    scoped to a spec touch a single file.  The price is skew when one
    workflow dominates the corpus (lint rule ``WH045`` watches for that).
    """
    return _stable_bucket(run_id.split("/", 1)[0], shards)


#: Named routing schemes accepted by ``router=`` (and recorded in the
#: manifest so a reopen validates the scheme matches).
ROUTERS: Dict[str, Callable[[str, int], int]] = {
    "hash": hash_router,
    "spec": spec_router,
}


class _ShardWriter:
    """Dedicated owner thread serializing one shard's mutations.

    The shard's :class:`SqliteWarehouse` is *constructed on this thread*,
    making it the owner of the shard's single write connection; every
    mutating operation is submitted as a callable and executed in FIFO
    order.  Results and exceptions — including the fault harness's
    :class:`~repro.faults.InjectedCrash`, a ``BaseException`` — travel
    back through a :class:`concurrent.futures.Future`, so a simulated
    crash on one shard surfaces in the caller exactly like the
    single-file backend while the other shards' transactions settle
    independently.
    """

    def __init__(
        self, name: str, factory: Callable[[], SqliteWarehouse]
    ) -> None:
        self._jobs: "queue.Queue[Optional[Tuple[Callable[[], object], Future]]]" = (
            queue.Queue()
        )
        self._thread = threading.Thread(
            target=self._loop, args=(factory,), name=name, daemon=True
        )
        ready: "Future[SqliteWarehouse]" = Future()
        self._ready = ready
        self._thread.start()
        #: The shard backend, constructed on (and owned by) the writer
        #: thread; reads may use it from any thread.
        self.warehouse: SqliteWarehouse = ready.result()

    def _loop(self, factory: Callable[[], SqliteWarehouse]) -> None:
        try:
            warehouse = factory()
        except BaseException as exc:  # pragma: no cover — bad directory
            self._ready.set_exception(exc)
            return
        self._ready.set_result(warehouse)
        while True:
            job = self._jobs.get()
            if job is None:
                return
            fn, future = job
            if not future.set_running_or_notify_cancel():
                continue  # pragma: no cover — nothing cancels these
            try:
                future.set_result(fn())
            except BaseException as exc:  # InjectedCrash must propagate
                future.set_exception(exc)

    def submit(self, fn: Callable[[], T]) -> "Future[T]":
        """Queue ``fn`` for the writer thread; returns its future."""
        future: "Future[T]" = Future()
        self._jobs.put((fn, future))
        return future

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn`` on the writer thread and wait for its result."""
        return self.submit(fn).result()

    def stop(self) -> None:
        """Drain outstanding work and end the thread."""
        self._jobs.put(None)
        self._thread.join()


class ShardedWarehouse(ProvenanceWarehouse):
    """A warehouse facade partitioning runs across N SQLite shard files.

    Parameters
    ----------
    directory:
        The federation directory.  Created (with a fresh manifest) when
        it does not yet hold one; otherwise the persisted manifest is
        validated against the arguments.
    shards:
        Shard count when *creating* a federation (default
        :data:`DEFAULT_SHARD_COUNT`).  On reopen the manifest's count is
        authoritative; passing a conflicting explicit count raises.
    router:
        A routing scheme name (``"hash"``/``"spec"``) or a callable
        ``(run_id, shards) -> shard_index``.  Named schemes are recorded
        in the manifest and checked on reopen; a custom callable records
        ``"custom"`` and the caller is responsible for passing the same
        function every time.  The default ``None`` honours the
        manifest's recorded scheme on reopen (``"hash"`` when creating),
        which is what lets the CLI open any federation without knowing
        how it was routed.
    timing / bulk / faults:
        Passed through to every shard's :class:`SqliteWarehouse`.  A
        fault plan is shared by all shards — sites fire on whichever
        shard reaches them, which is what the chaos suite exploits.
    """

    def __init__(
        self,
        directory: str,
        shards: Optional[int] = None,
        router: object = None,
        timing: bool = False,
        bulk: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        from ..provenance.labels import LABELS_VERSION  # late: import cycle

        if shards is not None and shards < 1:
            raise WarehouseError("shard count must be >= 1, got %r" % shards)
        self._directory = os.path.abspath(directory)
        os.makedirs(self._directory, exist_ok=True)

        manifest_path = os.path.join(self._directory, MANIFEST_NAME)
        manifest = self._read_manifest(manifest_path)
        preexisting = manifest is not None
        if router is None:
            recorded = manifest.get("routing") if preexisting else None
            if recorded == "custom":
                raise WarehouseError(
                    "federation %r was created with a custom router; pass"
                    " the same callable via router=" % self._directory
                )
            router = recorded if recorded is not None else "hash"
        self._router, self._routing = self._resolve_router(router)
        if manifest is not None:
            self._validate_manifest(manifest, shards)
            count = int(manifest["shards"])
        else:
            if self._existing_shard_files():
                raise WarehouseError(
                    "directory %r holds shard files but no %s — refusing to"
                    " guess the layout" % (self._directory, MANIFEST_NAME)
                )
            count = shards if shards is not None else DEFAULT_SHARD_COUNT
            manifest = {
                "version": MANIFEST_VERSION,
                "shards": count,
                "routing": self._routing,
                "labels_version": LABELS_VERSION,
            }
        self._count = count
        self._manifest: Dict[str, object] = dict(manifest)
        self._shard_paths = [
            os.path.join(self._directory, SHARD_FILE % i) for i in range(count)
        ]
        #: Shard files the manifest promised but the directory lacked at
        #: open — the backend recreates them *empty*, so their runs are
        #: gone; lint rule ``WH044`` reports this from here.
        self.missing_on_open: List[str] = [
            os.path.basename(p)
            for p in self._shard_paths
            if not os.path.exists(p)
        ] if preexisting else []

        #: The shared fault plan, also handed to every shard backend, so
        #: protocol layers (e.g. the streaming ingestor) can pick it up
        #: from the facade exactly as they do from a single-file backend.
        self.faults = faults
        self._writers: List[_ShardWriter] = []
        for i, path in enumerate(self._shard_paths):
            factory = self._shard_factory(path, timing, bulk, faults)
            self._writers.append(
                _ShardWriter("zoom-shard-writer-%d" % i, factory)
            )
        self._warehouses = [w.warehouse for w in self._writers]
        if not preexisting:
            self._write_manifest(manifest_path)

        self._pool_lock = make_lock("warehouse.sharded.pool")
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _pool_lock
        self._closed = False
        self._metrics = MetricsRegistry()
        self._shard_metrics = [
            self._metrics.child("shard%d" % i) for i in range(count)
        ]

    # ------------------------------------------------------------------
    # Layout: manifest, routing, lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_router(
        router: object,
    ) -> Tuple[Callable[[str, int], int], str]:
        if callable(router):
            return router, getattr(router, "routing_name", "custom")  # type: ignore[return-value]
        try:
            return ROUTERS[router], router  # type: ignore[index,return-value]
        except (KeyError, TypeError):
            raise WarehouseError(
                "unknown routing scheme %r (expected one of %s or a"
                " callable)" % (router, sorted(ROUTERS))
            ) from None

    @staticmethod
    def _read_manifest(path: str) -> Optional[Dict[str, object]]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise WarehouseError(
                "unreadable shard manifest %r: %s" % (path, exc)
            ) from exc
        if not isinstance(manifest, dict):
            raise WarehouseError("malformed shard manifest %r" % path)
        return manifest

    def _validate_manifest(
        self, manifest: Dict[str, object], shards: Optional[int]
    ) -> None:
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise WarehouseError(
                "shard manifest format v%r is not supported (this build"
                " speaks v%d)" % (version, MANIFEST_VERSION)
            )
        declared = manifest.get("shards")
        if not isinstance(declared, int) or declared < 1:
            raise WarehouseError(
                "shard manifest declares invalid shard count %r" % declared
            )
        if shards is not None and shards != declared:
            raise WarehouseError(
                "federation was created with %d shard(s); reopening with"
                " shards=%d would misroute every run" % (declared, shards)
            )
        recorded = manifest.get("routing")
        if self._routing != "custom" and recorded != self._routing:
            raise WarehouseError(
                "federation was created with routing %r; reopening with %r"
                " would misroute runs" % (recorded, self._routing)
            )

    def _write_manifest(self, path: str) -> None:
        payload = json.dumps(self._manifest, indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")

    def _existing_shard_files(self) -> List[str]:
        pattern = os.path.join(self._directory, "shard-*.db")
        return sorted(os.path.basename(p) for p in glob.glob(pattern))

    @staticmethod
    def _shard_factory(
        path: str,
        timing: bool,
        bulk: bool,
        faults: Optional[FaultPlan],
    ) -> Callable[[], SqliteWarehouse]:
        def factory() -> SqliteWarehouse:
            return SqliteWarehouse(
                path, timing=timing, bulk=bulk, faults=faults
            )
        return factory

    @property
    def shard_count(self) -> int:
        """How many shard files the federation spans."""
        return self._count

    @property
    def directory(self) -> str:
        """The federation directory (absolute)."""
        return self._directory

    @property
    def manifest(self) -> Dict[str, object]:
        """A copy of the persisted layout manifest."""
        return dict(self._manifest)

    @property
    def routing(self) -> str:
        """Name of the active routing scheme."""
        return self._routing

    def shard_index(self, run_id: str) -> int:
        """The shard owning ``run_id`` under the active router."""
        index = self._router(run_id, self._count)
        if not 0 <= index < self._count:
            raise WarehouseError(
                "router sent run %r to shard %r (federation has %d)"
                % (run_id, index, self._count)
            )
        return index

    def _owner(self, run_id: str) -> SqliteWarehouse:
        return self._warehouses[self.shard_index(run_id)]

    def _owner_writer(self, run_id: str) -> _ShardWriter:
        return self._writers[self.shard_index(run_id)]

    def close(self) -> None:
        """Close every shard (on its writer thread) and stop the threads."""
        if self._closed:
            return
        self._closed = True
        for writer in self._writers:
            writer.submit(writer.warehouse.close)
        for writer in self._writers:
            writer.stop()
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ShardedWarehouse":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Scatter-gather plumbing
    # ------------------------------------------------------------------

    def _scatter_pool(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is not None:
            return pool
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=min(self._count, 8),
                    thread_name_prefix="zoom-shard-gather",
                )
            return self._pool

    def _scatter(self, fn: Callable[[SqliteWarehouse], T]) -> List[T]:
        """Run a read over every shard; results in shard order.

        Single-shard federations skip the pool — the facade then costs
        one extra function call over the raw backend.  Each per-shard
        probe is wrapped in :func:`~repro.obs.retry.with_retries`: a
        shard momentarily locked by its writer thread (checkpoint, bulk
        bracket, streaming append) costs a backed-off retry on that one
        shard instead of failing the whole gather.
        """
        resilient = with_retries()(fn)
        if self._count == 1:
            return [resilient(self._warehouses[0])]
        registry = get_registry()
        registry.counter("shard.scatter.ops").increment()
        with registry.time("shard.scatter"):
            return list(self._scatter_pool().map(resilient, self._warehouses))

    def _fan_out_writers(
        self, fn: Callable[[SqliteWarehouse], T]
    ) -> List[T]:
        """Run a mutation on every shard, each on its own writer thread."""
        futures = [
            writer.submit(lambda wh=writer.warehouse: fn(wh))
            for writer in self._writers
        ]
        wait(futures)
        return [f.result() for f in futures]

    def _group_by_shard(
        self, keyed: Sequence[Tuple[str, T]]
    ) -> Dict[int, List[T]]:
        groups: Dict[int, List[T]] = {}
        for run_id, item in keyed:
            groups.setdefault(self.shard_index(run_id), []).append(item)
        return groups

    @staticmethod
    def _merge_sorted(parts: Sequence[List[str]]) -> List[str]:
        merged: Set[str] = set()
        for part in parts:
            merged.update(part)
        return sorted(merged)

    # ------------------------------------------------------------------
    # Specifications and views (replicated to every shard)
    # ------------------------------------------------------------------

    def store_spec(
        self, spec: WorkflowSpec, spec_id: Optional[str] = None
    ) -> str:
        ids = self._fan_out_writers(
            lambda wh: wh.store_spec(spec, spec_id=spec_id)
        )
        return ids[0]

    def get_spec(self, spec_id: str) -> WorkflowSpec:
        return self._warehouses[0].get_spec(spec_id)

    def list_specs(self) -> List[str]:
        return self._merge_sorted(self._scatter(lambda wh: wh.list_specs()))

    def spec_rows(self, spec_id: str) -> Dict[str, object]:
        return self._warehouses[0].spec_rows(spec_id)

    def store_view(
        self, view: UserView, spec_id: str, view_id: Optional[str] = None
    ) -> str:
        ids = self._fan_out_writers(
            lambda wh: wh.store_view(view, spec_id, view_id=view_id)
        )
        return ids[0]

    def get_view(self, view_id: str) -> UserView:
        return self._warehouses[0].get_view(view_id)

    def list_views(self, spec_id: Optional[str] = None) -> List[str]:
        return self._merge_sorted(
            self._scatter(lambda wh: wh.list_views(spec_id))
        )

    def view_rows(self, view_id: str) -> Tuple[str, str, Dict[str, List[str]]]:
        return self._warehouses[0].view_rows(view_id)

    # ------------------------------------------------------------------
    # Runs: routed writes, scatter-gathered listings
    # ------------------------------------------------------------------

    def store_run(
        self, run: WorkflowRun, spec_id: str, run_id: Optional[str] = None
    ) -> str:
        resolved = run_id or run.run_id
        index = self.shard_index(resolved)
        self._shard_metrics[index].counter("runs").increment()
        return self._writers[index].call(
            lambda: self._warehouses[index].store_run(
                run, spec_id, run_id=run_id
            )
        )

    def store_many(self, prepared: Sequence["PreparedRun"]) -> List[str]:
        """Commit a batch shard-by-shard, all shards in parallel.

        Each owning shard receives its group as one ordinary
        :meth:`SqliteWarehouse.store_many` transaction on its writer
        thread.  All groups are waited on — even when one shard raises —
        so the surviving shards' transactions settle before the first
        failure (in shard order) propagates; the journal protocol makes
        the partial batch recoverable exactly like a crash between two
        single-shard batches.  Returned ids preserve input order.
        """
        if not prepared:
            return []
        positions: Dict[int, List[int]] = {}
        groups: Dict[int, List["PreparedRun"]] = {}
        for position, p in enumerate(prepared):
            index = self.shard_index(p.run_id)
            groups.setdefault(index, []).append(p)
            positions.setdefault(index, []).append(position)
        futures: Dict[int, Future] = {}
        for index, group in sorted(groups.items()):
            wh = self._warehouses[index]
            metrics = self._shard_metrics[index]
            metrics.counter("ingest.batches").increment()
            metrics.counter("ingest.runs").increment(len(group))

            @with_retries()
            def commit(
                wh: SqliteWarehouse = wh,
                group: List["PreparedRun"] = group,
                metrics: MetricsRegistry = metrics,
            ) -> List[str]:
                with metrics.time("ingest.store_many"):
                    return wh.store_many(group)

            futures[index] = self._writers[index].submit(commit)
        wait(list(futures.values()))
        failure: Optional[BaseException] = None
        out: List[Optional[str]] = [None] * len(prepared)
        for index in sorted(futures):
            exc = futures[index].exception()
            if exc is not None:
                failure = failure or exc
                continue
            for position, stored in zip(positions[index], futures[index].result()):
                out[position] = stored
        if failure is not None:
            raise failure
        return [stored for stored in out if stored is not None]

    @contextmanager
    def bulk_load(self) -> Iterator[None]:
        """Enter every shard's bulk bracket, each on its writer thread.

        Index teardown/rebuild is a write, so the brackets are entered
        and exited via the writer threads; exits run even when the
        ingestion raised, mirroring the single-file contract.
        """
        entered: List[Tuple[_ShardWriter, object]] = []
        for writer in self._writers:
            ctx = writer.warehouse.bulk_load()
            writer.call(ctx.__enter__)
            entered.append((writer, ctx))
        try:
            yield
        except BaseException as exc:
            for writer, ctx in reversed(entered):
                writer.call(
                    lambda c=ctx: c.__exit__(type(exc), exc, exc.__traceback__)
                )
            raise
        else:
            for writer, ctx in reversed(entered):
                writer.call(lambda c=ctx: c.__exit__(None, None, None))

    def list_runs(self, spec_id: Optional[str] = None) -> List[str]:
        return self._merge_sorted(
            self._scatter(lambda wh: wh.list_runs(spec_id))
        )

    def run_spec_id(self, run_id: str) -> str:
        return self._owner(run_id).run_spec_id(run_id)

    def delete_run(self, run_id: str) -> None:
        writer = self._owner_writer(run_id)
        writer.call(lambda: writer.warehouse.delete_run(run_id))

    # ------------------------------------------------------------------
    # Row-level primitives (routed reads)
    # ------------------------------------------------------------------

    def steps_of_run(self, run_id: str) -> List[Tuple[str, str]]:
        return self._owner(run_id).steps_of_run(run_id)

    def io_rows(self, run_id: str) -> List[Tuple[str, str, str]]:
        return self._owner(run_id).io_rows(run_id)

    def user_inputs(self, run_id: str) -> FrozenSet[str]:
        return self._owner(run_id).user_inputs(run_id)

    def final_outputs(self, run_id: str) -> FrozenSet[str]:
        return self._owner(run_id).final_outputs(run_id)

    def producer_of(self, run_id: str, data_id: str) -> str:
        return self._owner(run_id).producer_of(run_id, data_id)

    def step_inputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        return self._owner(run_id).step_inputs(run_id, step_id)

    def step_outputs(self, run_id: str, step_id: str) -> FrozenSet[str]:
        return self._owner(run_id).step_outputs(run_id, step_id)

    def module_of_step(self, run_id: str, step_id: str) -> str:
        return self._owner(run_id).module_of_step(run_id, step_id)

    # ------------------------------------------------------------------
    # User-input metadata and annotations (routed)
    # ------------------------------------------------------------------

    def user_input_who(self, run_id: str, data_id: str) -> str:
        return self._owner(run_id).user_input_who(run_id, data_id)

    def _set_user_input_who(self, run_id: str, who: Dict[str, str]) -> None:
        writer = self._owner_writer(run_id)
        writer.call(
            lambda: writer.warehouse._set_user_input_who(run_id, who)
        )

    def annotate(
        self, run_id: str, subject: str, key: str, value: str
    ) -> None:
        writer = self._owner_writer(run_id)
        writer.call(
            lambda: writer.warehouse.annotate(run_id, subject, key, value)
        )

    def annotations_of(self, run_id: str, subject: str) -> Dict[str, str]:
        return self._owner(run_id).annotations_of(run_id, subject)

    def find_annotated(
        self, run_id: str, key: str, value: Optional[str] = None
    ) -> List[str]:
        return self._owner(run_id).find_annotated(run_id, key, value)

    # ------------------------------------------------------------------
    # Provenance closure and labels (routed; status scatter-gathered)
    # ------------------------------------------------------------------

    def admin_deep_provenance(
        self, run_id: str, data_id: str
    ) -> ProvenanceResult:
        return self._owner(run_id).admin_deep_provenance(run_id, data_id)

    def build_label_index(self, run_id: str, rebuild: bool = False) -> int:
        writer = self._owner_writer(run_id)
        return writer.call(
            lambda: writer.warehouse.build_label_index(run_id, rebuild=rebuild)
        )

    def _store_lineage_labels(self, labels: "LineageLabels") -> None:
        writer = self._owner_writer(labels.run_id)
        writer.call(lambda: writer.warehouse._store_lineage_labels(labels))

    def has_label_index(self, run_id: str) -> bool:
        return self._owner(run_id).has_label_index(run_id)

    def label_row_count(self, run_id: str) -> Optional[int]:
        return self._owner(run_id).label_row_count(run_id)

    def label_index_version(self, run_id: str) -> Optional[int]:
        return self._owner(run_id).label_index_version(run_id)

    def drop_label_index(self, run_id: Optional[str] = None) -> List[str]:
        if run_id is not None:
            writer = self._owner_writer(run_id)
            return writer.call(
                lambda: writer.warehouse.drop_label_index(run_id)
            )
        return self._merge_sorted(
            self._fan_out_writers(lambda wh: wh.drop_label_index())
        )

    def lineage_labels(self, run_id: str) -> "LineageLabels":
        return self._owner(run_id).lineage_labels(run_id)

    def label_rows_raw(
        self, run_id: str
    ) -> Set[Tuple[str, int, int, str, str]]:
        return self._owner(run_id).label_rows_raw(run_id)

    def label_index_status(self) -> Dict[str, Optional[int]]:
        merged: Dict[str, Optional[int]] = {}
        for status in self._scatter(lambda wh: wh.label_index_status()):
            merged.update(status)
        return dict(sorted(merged.items()))

    # ------------------------------------------------------------------
    # Ingest journal, quarantine and integrity (routed / merged)
    # ------------------------------------------------------------------

    def journal_begin(self, entries: Sequence["JournalEntry"]) -> None:
        groups = self._group_by_shard([(e.run_id, e) for e in entries])
        futures = [
            self._writers[index].submit(
                lambda wh=self._warehouses[index], group=group:
                wh.journal_begin(group)
            )
            for index, group in sorted(groups.items())
        ]
        wait(futures)
        for future in futures:
            future.result()

    def journal_commit(self, run_ids: Sequence[str]) -> None:
        groups = self._group_by_shard([(r, r) for r in run_ids])
        futures = [
            self._writers[index].submit(
                lambda wh=self._warehouses[index], group=group:
                wh.journal_commit(group)
            )
            for index, group in sorted(groups.items())
        ]
        wait(futures)
        for future in futures:
            future.result()

    def journal_discard(self, run_ids: Sequence[str]) -> None:
        groups = self._group_by_shard([(r, r) for r in run_ids])
        futures = [
            self._writers[index].submit(
                lambda wh=self._warehouses[index], group=group:
                wh.journal_discard(group)
            )
            for index, group in sorted(groups.items())
        ]
        wait(futures)
        for future in futures:
            future.result()

    def journal_entries(
        self, state: Optional[str] = None
    ) -> List["JournalEntry"]:
        merged: List["JournalEntry"] = []
        for part in self._scatter(lambda wh: wh.journal_entries(state)):
            merged.extend(part)
        return sorted(merged, key=lambda entry: entry.run_id)

    def quarantine_add(self, record: "QuarantineRecord") -> None:
        writer = self._owner_writer(record.run_id)
        writer.call(lambda: writer.warehouse.quarantine_add(record))

    def quarantine_list(self) -> List[str]:
        return self._merge_sorted(
            self._scatter(lambda wh: wh.quarantine_list())
        )

    def quarantine_get(self, run_id: str) -> "QuarantineRecord":
        return self._owner(run_id).quarantine_get(run_id)

    def quarantine_delete(self, run_id: str) -> None:
        writer = self._owner_writer(run_id)
        writer.call(lambda: writer.warehouse.quarantine_delete(run_id))

    def integrity_report(self, repair: bool = False) -> Dict[str, object]:
        """Per-shard physical probes merged into one report.

        Repair recreates missing indexes, i.e. writes, so every probe
        runs on its shard's writer thread.  Shard-specific entries are
        prefixed ``shard-<i>:`` so a repaired index is attributable.
        """
        reports = self._fan_out_writers(
            lambda wh: wh.integrity_report(repair=repair)
        )
        merged: Dict[str, object] = {
            "ok": all(bool(r["ok"]) for r in reports),
            "missing_indexes": [
                "shard-%d:%s" % (i, name)
                for i, r in enumerate(reports)
                for name in r["missing_indexes"]  # type: ignore[union-attr]
            ],
            "repaired": [
                "shard-%d:%s" % (i, name)
                for i, r in enumerate(reports)
                for name in r["repaired"]  # type: ignore[union-attr]
            ],
        }
        return merged

    def recover_shards(self) -> "RecoveryReport":
        """Run shard-local recovery on every writer thread, in parallel.

        :func:`repro.warehouse.recovery.recover` delegates here when the
        warehouse exposes this method, so ``zoom recover`` and
        ``zoom load --resume`` settle an N-shard federation in the time
        of its slowest shard instead of N sequential passes.  Each shard
        recovers through its own writer thread (recovery mutates: journal
        marks, deletions, index repair) and the per-shard
        :class:`~repro.warehouse.recovery.RecoveryReport` objects are
        merged — run-level lists concatenate sorted (run ids are unique
        to their owning shard), repaired indexes keep the
        ``shard-<i>:`` prefix idiom of :meth:`integrity_report`.
        """
        from .recovery import RecoveryReport, recover

        futures = [
            writer.submit(lambda wh=writer.warehouse: recover(wh))
            for writer in self._writers
        ]
        wait(futures)
        reports = [f.result() for f in futures]
        merged = RecoveryReport(
            integrity_ok=all(r.integrity_ok for r in reports),
            repaired_indexes=[
                "shard-%d:%s" % (i, name)
                for i, r in enumerate(reports)
                for name in r.repaired_indexes
            ],
        )
        for attr in (
            "marked_committed",
            "rolled_back",
            "torn_journal",
            "stream_rolled_forward",
            "stream_truncated",
            "stream_desynced",
        ):
            getattr(merged, attr).extend(sorted(
                run_id for r in reports for run_id in getattr(r, attr)
            ))
        return merged

    # ------------------------------------------------------------------
    # Streaming appends (routed to the owning shard's writer thread)
    # ------------------------------------------------------------------

    def stream_begin(
        self,
        run_id: str,
        spec_id: str,
        *,
        checksum: str,
        opened_at: Optional[float] = None,
    ) -> None:
        writer = self._owner_writer(run_id)
        writer.call(lambda: writer.warehouse.stream_begin(
            run_id, spec_id, checksum=checksum, opened_at=opened_at
        ))

    def stream_state(self, run_id: str) -> Optional[StreamState]:
        return self._owner(run_id).stream_state(run_id)

    def stream_states(self) -> Dict[str, StreamState]:
        merged: Dict[str, StreamState] = {}
        for part in self._scatter(lambda wh: wh.stream_states()):
            merged.update(part)
        return dict(sorted(merged.items()))

    def stream_apply(
        self,
        run_id: str,
        *,
        epoch: int,
        checksum: str,
        step_rows: Sequence[Tuple[str, str]],
        io_rows: Sequence[Tuple[str, str, str]],
        user_inputs: Sequence[Tuple[str, str]],
        final_outputs: Sequence[str],
    ) -> None:
        writer = self._owner_writer(run_id)
        writer.call(lambda: writer.warehouse.stream_apply(
            run_id, epoch=epoch, checksum=checksum,
            step_rows=step_rows, io_rows=io_rows,
            user_inputs=user_inputs, final_outputs=final_outputs,
        ))

    def stream_mark_delta(self, run_id: str, epoch: int) -> None:
        writer = self._owner_writer(run_id)
        writer.call(
            lambda: writer.warehouse.stream_mark_delta(run_id, epoch)
        )

    def stream_close(self, run_id: str) -> None:
        writer = self._owner_writer(run_id)
        writer.call(lambda: writer.warehouse.stream_close(run_id))

    # ------------------------------------------------------------------
    # Health and observability
    # ------------------------------------------------------------------

    def runs_per_shard(self) -> Dict[int, int]:
        """Shard index → number of runs it currently owns."""
        counts = self._scatter(lambda wh: len(wh.list_runs()))
        return {i: count for i, count in enumerate(counts)}

    def shard_health(self) -> Dict[str, object]:
        """Layout facts for lint (``WH044``/``WH045``) and the CLI.

        Re-probes the directory, so a shard file deleted *after* open is
        reported alongside anything recorded missing at open time.
        """
        on_disk = set(self._existing_shard_files())
        declared = [os.path.basename(p) for p in self._shard_paths]
        missing = sorted(
            set(self.missing_on_open)
            | {name for name in declared if name not in on_disk}
        )
        return {
            "declared": self._count,
            "routing": self._routing,
            "files": declared,
            "missing": missing,
            "extra": sorted(on_disk - set(declared)),
            "runs_per_shard": self.runs_per_shard(),
        }

    def shard_stats(self) -> Dict[str, object]:
        """Per-shard and merged facade metrics plus layout facts."""
        return {
            "shards": self._count,
            "routing": self._routing,
            "runs_per_shard": {
                "shard-%d" % i: count
                for i, count in self.runs_per_shard().items()
            },
            "per_shard": self._metrics.snapshot(children=True),
            "merged": self._metrics.merged().snapshot(),
        }

    def stats(self) -> Dict[str, object]:
        """Alias of :meth:`shard_stats` (the CLI's ``zoom shard status``)."""
        return self.shard_stats()
