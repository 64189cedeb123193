"""The provenance reasoner: warehouse-backed, view-aware, cache-friendly.

The paper's best-performing strategy computes the finest-grained (UAdmin)
provenance once per run, stores it in a temporary structure, and answers
subsequent queries — in particular *view switches* on the same run — from
that cached state, making the switch one to two orders of magnitude cheaper
than the initial query (avg 13 ms vs up to seconds).  The
:class:`ProvenanceReasoner` reproduces this design:

* the first query on a run materialises the run graph from the warehouse
  and runs the warehouse's recursive closure (the expensive part);
* per-view composite-execution structures are built lazily and memoised, so
  switching the user view re-traverses only in-memory state;
* ``strategy="uncached"`` disables all memoisation, giving the naive
  baseline the ablation benchmark compares against;
* ``strategy="labeled"`` goes one step further than the paper: UAdmin
  closures come from the compact reachability labels of
  :mod:`repro.provenance.labels` (O(V) stored rows per run, per Bao &
  Davidson's labeling schemes), built lazily on a run's first query and
  persisted, so even a cold process answers deep provenance without
  recursion.  The labels are read from the warehouse once per run and
  generation and kept resident; view-level answers are projected from
  the admin closures they yield (:func:`project_closure`).

All memoisation lives in bounded LRU caches
(:class:`~repro.obs.cache.BoundedCache`): a long-lived reasoner serving
many runs keeps at most ``run_cache_size`` materialised runs (and as many
runs' labels), and evicting a run cascades — its composite structures,
UAdmin closures and labels are invalidated in the same stroke, so the
caches never hold derived state for a run that is no longer resident.
:meth:`stats` exposes per-cache hit, miss, eviction and size counters; the
hot paths are timed in the default
:class:`~repro.obs.metrics.MetricsRegistry` under ``reasoner.admin_deep``
and ``reasoner.view_switch``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..core.composite import CompositeRun
from ..core.errors import HiddenDataError, QueryError, UnknownEntityError
from ..core.spec import INPUT
from ..core.view import UserView, admin_view
from ..obs import BoundedCache, get_registry
from ..run.run import WorkflowRun
from ..warehouse.base import ProvenanceWarehouse
from .labels import LineageLabels
from .queries import deep_provenance, immediate_provenance, reverse_provenance
from .result import ProvenanceResult, ProvenanceRow, ReverseProvenanceResult

_STRATEGIES = ("cached", "uncached", "labeled")

#: Default capacities: generous for one service process, but bounded.
DEFAULT_RUN_CACHE_SIZE = 256
DEFAULT_COMPOSITE_CACHE_SIZE = 1024
DEFAULT_CLOSURE_CACHE_SIZE = 4096


def project_closure(
    composite_run: CompositeRun,
    admin_lookup: Callable[[str], ProvenanceResult],
    data_id: str,
) -> ProvenanceResult:
    """Deep provenance under a view, projected from UAdmin closures.

    ``admin_lookup`` must return the UAdmin deep provenance of a data
    object (typically a memoised label lookup).  The projection folds
    whole admin closures into the induced run: every ancestor step maps to
    its virtual step, and — because composite executions can pull in data
    that is *not* in the target's admin lineage (a merged step's other
    inputs) — the fold iterates until no virtual step adds new visible
    inputs.  The fixpoint equals the reference BFS of
    :func:`~repro.provenance.queries.deep_provenance` row for row.
    """
    if not composite_run.is_visible(data_id):
        raise HiddenDataError(
            "data %r is internal to a composite execution under view %r"
            % (data_id, composite_run.view.name)
        )
    result = ProvenanceResult(
        target=data_id, view_name=composite_run.view.name
    )
    reached: Set[str] = set()
    seen_data: Set[str] = set()
    frontier: Deque[str] = deque([data_id])
    while frontier:
        current = frontier.popleft()
        if current in seen_data:
            continue
        seen_data.add(current)
        virtual_producer = composite_run.producer(current)
        if virtual_producer == INPUT:
            result.user_inputs.add(current)
            continue
        if virtual_producer in reached:
            continue
        # One lookup covers the whole admin lineage of ``current``; every
        # ancestor's virtual step joins in a single stroke.
        admin = admin_lookup(current)
        fresh = {composite_run.group_of(s) for s in admin.steps()}
        fresh.add(virtual_producer)
        fresh -= reached
        reached |= fresh
        for virtual_step in fresh:
            frontier.extend(composite_run.inputs_of(virtual_step))
    for virtual_step in sorted(reached):
        composite = composite_run.composite_step(virtual_step).composite
        for data_in in sorted(composite_run.inputs_of(virtual_step)):
            result.rows.append(
                ProvenanceRow(
                    step_id=virtual_step, module=composite, data_in=data_in
                )
            )
    return result


class ProvenanceReasoner:
    """Answers provenance queries against a warehouse, through user views.

    Parameters
    ----------
    warehouse:
        Any :class:`~repro.warehouse.base.ProvenanceWarehouse`.
    strategy:
        ``"cached"`` (default) memoises materialised runs, composite-run
        structures and UAdmin closures; ``"uncached"`` recomputes
        everything on each query; ``"labeled"`` memoises like ``cached``
        *and* serves UAdmin closures from the run's reachability labels
        (``build_label_index`` / ``lineage_labels``), building them (once,
        persistently) on the run's first query.
    run_cache_size, composite_cache_size, closure_cache_size:
        LRU capacities of the caches (runs — and, under ``labeled``, the
        runs' resident labels — per-view composite structures, UAdmin
        closures).  Evicting a run invalidates its dependent composite,
        closure and label entries.
    """

    def __init__(
        self,
        warehouse: ProvenanceWarehouse,
        strategy: str = "cached",
        run_cache_size: int = DEFAULT_RUN_CACHE_SIZE,
        composite_cache_size: int = DEFAULT_COMPOSITE_CACHE_SIZE,
        closure_cache_size: int = DEFAULT_CLOSURE_CACHE_SIZE,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise QueryError(
                "unknown strategy %r (expected one of %s)" % (strategy, _STRATEGIES)
            )
        self.warehouse = warehouse
        self.strategy = strategy
        self._run_cache: BoundedCache[str, WorkflowRun] = BoundedCache(
            run_cache_size, name="runs"
        )
        # Keyed on the view's *presentation* identity, not UserView
        # equality: equal-but-relabelled views must not share an entry,
        # or one would be served answers spelled with the other's
        # composite names.
        self._composite_cache: BoundedCache[
            Tuple[str, object], CompositeRun
        ] = BoundedCache(composite_cache_size, name="composites")
        self._admin_closure_cache: BoundedCache[
            Tuple[str, str], ProvenanceResult
        ] = BoundedCache(closure_cache_size, name="closures")
        # The labeled strategy's resident labels, read from the warehouse
        # once per run and generation.
        self._labels_cache: BoundedCache[str, LineageLabels] = BoundedCache(
            run_cache_size, name="labels"
        )
        # A run leaving the run cache (eviction or explicit invalidation)
        # takes its derived state with it.
        self._run_cache.add_invalidation_hook(self._on_run_removed)
        # Callables fired (with the run id) by invalidate_run, so layers
        # holding caches derived from this reasoner's answers — e.g. the
        # serve layer's per-view result cache — drop theirs in the same
        # stroke.
        self._invalidation_listeners: List[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _on_run_removed(
        self, run_id: str, _run: WorkflowRun, _reason: str
    ) -> None:
        self._composite_cache.invalidate_where(lambda key: key[0] == run_id)
        self._admin_closure_cache.invalidate_where(lambda key: key[0] == run_id)
        self._labels_cache.invalidate(run_id)

    def clear_cache(self) -> None:
        """Drop all memoised state and zero the cache counters.

        The warehouse's persistent label index survives; only this
        reasoner's resident copy is forgotten (re-read on the next
        labeled query).
        """
        for cache in self._caches():
            cache.clear()
            cache.reset_stats()

    def add_invalidation_listener(self, listener: Callable[[str], None]) -> None:
        """Register ``listener(run_id)`` to be fired by :meth:`invalidate_run`."""
        self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(
        self, listener: Callable[[str], None]
    ) -> None:
        """Unregister a listener (no-op when it was never registered)."""
        try:
            self._invalidation_listeners.remove(listener)
        except ValueError:
            pass

    def invalidate_run(self, run_id: str) -> None:
        """Drop one run's cached state (run, composites, closures, labels).

        Call after the underlying warehouse data for ``run_id`` changes —
        e.g. new annotations or a re-execution stored under the same id —
        so no stale derived state survives.  The run's *persistent* label
        index is dropped too: it was derived from the rows that changed.
        The next labeled query rebuilds it from the fresh rows.

        The persistent labels are dropped **before** the run's generation
        is bumped on every cache, so a concurrent ``get_or_build`` whose
        factory read the pre-invalidation rows or labels cannot publish
        its stale result afterwards (it is returned to that one caller but
        never cached).  Registered invalidation listeners fire last,
        giving higher layers (the serve result cache) the same fan-out.
        """
        try:
            self.warehouse.drop_label_index(run_id)
        except UnknownEntityError:
            pass  # the run itself is gone; nothing left to drop
        self._drop_run_state(run_id, "invalidated")
        for listener in list(self._invalidation_listeners):
            listener(run_id)

    def refresh_run(self, run_id: str) -> None:
        """Flip one run's cached state to the next generation, gently.

        The streaming counterpart of :meth:`invalidate_run`: a committed
        epoch *extended* the run's rows — it did not corrupt them — so
        the in-process memos (run, composites, closures, resident labels)
        are stale and must go, but the warehouse's persistent label index
        was already advanced by the streaming ingestor's delta path and
        MUST survive.  Generations are bumped first for the same
        stale-publish race :meth:`invalidate_run` documents.  Registered
        invalidation listeners fire last so the serve layer drops its
        derived results for the run in the same stroke.
        """
        self._drop_run_state(run_id, "refreshed")
        get_registry().counter("reasoner.refreshes").increment()
        for listener in list(self._invalidation_listeners):
            listener(run_id)

    def _drop_run_state(self, run_id: str, reason: str) -> None:
        for cache in self._caches():
            cache.bump_generation(run_id)
        if not self._run_cache.invalidate(run_id):
            # The run itself was not cached; derived state may still be.
            self._on_run_removed(run_id, None, reason)  # type: ignore[arg-type]

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-cache hit/miss/eviction/size counters, by cache name."""
        return {
            cache.name: cache.stats().as_dict() for cache in self._caches()
        }

    def _caches(self) -> Tuple[BoundedCache, ...]:
        return (
            self._run_cache,
            self._composite_cache,
            self._admin_closure_cache,
            self._labels_cache,
        )

    def _materialize_run(self, run_id: str) -> WorkflowRun:
        if self.strategy == "uncached":
            return self.warehouse.get_run(run_id)
        return self._run_cache.get_or_build(
            run_id, lambda: self.warehouse.get_run(run_id), scope=run_id
        )

    def composite_run(self, run_id: str, view: UserView) -> CompositeRun:
        """The (possibly cached) composite-execution structure of a run."""
        if self.strategy == "uncached":
            return CompositeRun(self._materialize_run(run_id), view)
        return self._composite_cache.get_or_build(
            (run_id, view.presentation_key()),
            lambda: CompositeRun(self._materialize_run(run_id), view),
            scope=run_id,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def admin_deep(self, run_id: str, data_id: str) -> ProvenanceResult:
        """Deep provenance at UAdmin granularity via the warehouse closure.

        This is the recursive-SQL (or BFS) query whose cost dominates the
        paper's response-time experiment; under the cached strategy it runs
        once per (run, data) pair.  Under the labeled strategy it is an
        upward traversal over the run's resident reachability labels
        (built on the run's first query, persisted in the warehouse).
        """
        if self.strategy == "labeled":
            return self._admin_closure_cache.get_or_build(
                (run_id, data_id),
                lambda: self._labeled_lookup(run_id, data_id),
                scope=run_id,
            )
        if self.strategy == "uncached":
            return self._timed_closure(run_id, data_id)
        return self._admin_closure_cache.get_or_build(
            (run_id, data_id),
            lambda: self._timed_closure(run_id, data_id),
            scope=run_id,
        )

    def _labels(self, run_id: str) -> LineageLabels:
        """The run's resident labels: built if missing, read once per
        generation."""
        return self._labels_cache.get_or_build(
            run_id, lambda: self._read_labels(run_id), scope=run_id
        )

    def _read_labels(self, run_id: str) -> LineageLabels:
        self.warehouse.build_label_index(run_id)
        return self.warehouse.lineage_labels(run_id)

    def ensure_run_ready(self, run_id: str) -> None:
        """Build the labels the ``labeled`` strategy serves from.

        The owner-thread prebuild hook: label builds are warehouse
        *writes*, so a multi-threaded caller (the serve layer's
        ``warm()``) runs this on the owning thread before fanning queries
        out to workers.  The labels are read on the run's first query,
        not here.  A no-op for the cached/uncached strategies.
        """
        if self.strategy == "labeled":
            self.warehouse.build_label_index(run_id)

    def _labeled_lookup(self, run_id: str, data_id: str) -> ProvenanceResult:
        labels = self._labels(run_id)
        if data_id not in labels.producer:
            # Unknown to the run raises UnknownEntityError here; a known
            # object the labels do not cover falls through to
            # result_for's WarehouseError.
            self.warehouse.producer_of(run_id, data_id)
        with get_registry().time("labels.lookup"):
            return labels.result_for(data_id)

    def _timed_closure(self, run_id: str, data_id: str) -> ProvenanceResult:
        with get_registry().time("reasoner.admin_deep"):
            return self.warehouse.admin_deep_provenance(run_id, data_id)

    def _view_deep(
        self, run_id: str, composite: CompositeRun, data_id: str
    ) -> ProvenanceResult:
        if self.strategy == "labeled":
            return project_closure(
                composite, lambda d: self.admin_deep(run_id, d), data_id
            )
        return deep_provenance(composite, data_id)

    def deep(
        self, run_id: str, data_id: str, view: Optional[UserView] = None
    ) -> ProvenanceResult:
        """Deep provenance of ``data_id`` under ``view`` (UAdmin if None)."""
        if view is None:
            return self.admin_deep(run_id, data_id)
        with get_registry().time("reasoner.view_switch"):
            composite = self.composite_run(run_id, view)
            return self._view_deep(run_id, composite, data_id)

    def deep_many(
        self,
        run_id: str,
        data_ids: Iterable[str],
        view: Optional[UserView] = None,
    ) -> Dict[str, ProvenanceResult]:
        """Deep provenance of many objects of one run, batched.

        Per-query setup is paid once for the whole batch: the run's labels
        are read (or built) once and the composite structure is
        materialised once per call even under the uncached strategy — the
        batch is one query, not N.  Duplicate data ids are answered once:
        the batch is deduplicated (first-occurrence order) before fan-out,
        so a duplicate-heavy batch costs one computation — not one memo
        probe, or under the uncached strategy one recomputation, per copy.
        """
        deduped = list(dict.fromkeys(data_ids))
        results: Dict[str, ProvenanceResult] = {}
        self.ensure_run_ready(run_id)
        if view is None:
            for data_id in deduped:
                results[data_id] = self.admin_deep(run_id, data_id)
            return results
        composite = self.composite_run(run_id, view)
        for data_id in deduped:
            with get_registry().time("reasoner.view_switch"):
                results[data_id] = self._view_deep(run_id, composite, data_id)
        return results

    def immediate(
        self, run_id: str, data_id: str, view: Optional[UserView] = None
    ) -> ProvenanceResult:
        """Immediate provenance of ``data_id`` under ``view``."""
        if view is None:
            view = admin_view(self._materialize_run(run_id).spec)
        composite = self.composite_run(run_id, view)
        return immediate_provenance(composite, data_id)

    def reverse(
        self, run_id: str, data_id: str, view: Optional[UserView] = None
    ) -> ReverseProvenanceResult:
        """Everything derived from ``data_id`` under ``view``."""
        if view is None:
            view = admin_view(self._materialize_run(run_id).spec)
        composite = self.composite_run(run_id, view)
        return reverse_provenance(composite, data_id)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def final_output_deep(
        self, run_id: str, view: Optional[UserView] = None
    ) -> ProvenanceResult:
        """Deep provenance of the run's (first) final output.

        The paper's evaluation uses "the deep provenance of the final
        output of the run" as the most expensive query; runs in this
        reproduction may have several final outputs, in which case the
        lexicographically smallest is taken for determinism.
        """
        outputs = self.warehouse.final_outputs(run_id)
        if not outputs:
            raise QueryError("run %r has no final output" % run_id)
        return self.deep(run_id, min(outputs), view=view)
