"""Strategy parity and bounded-cache behaviour of the reasoner.

The caches and the compact reachability labels are optimisations, never
semantics: for any generated workload, the ``cached``, ``uncached`` and
``labeled`` strategies must return identical deep, immediate and reverse
answers —
warm or cold, under eviction pressure from a deliberately tiny capacity,
and all of them must equal the reference semantics of
:mod:`repro.provenance.queries` computed over the raw composite run.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.view import admin_view
from repro.provenance.queries import deep_provenance
from repro.provenance.reasoner import ProvenanceReasoner
from repro.run.executor import ExecutionParams, simulate
from repro.warehouse.memory import InMemoryWarehouse
from repro.workloads.phylogenomic import (
    JOE_RELEVANT,
    phylogenomic_run,
    phylogenomic_spec,
)

from .conftest import specs_with_relevant

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_PARAMS = ExecutionParams(
    user_input_range=(1, 3),
    data_per_edge_range=(1, 3),
    loop_iterations_range=(1, 3),
)


def _warehoused(spec, seed):
    result = simulate(spec, params=_PARAMS, rng=random.Random(seed))
    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(result.run, spec_id)
    return warehouse, run_id, result.run


@given(specs_with_relevant(), st.integers(min_value=0, max_value=3))
@_SETTINGS
def test_strategies_agree_on_all_query_kinds(case, seed):
    """deep / immediate / reverse parity across generated workloads."""
    spec, relevant = case
    warehouse, run_id, run = _warehoused(spec, seed)
    view = build_user_view(spec, relevant)
    cached = ProvenanceReasoner(warehouse, strategy="cached")
    uncached = ProvenanceReasoner(warehouse, strategy="uncached")
    labeled = ProvenanceReasoner(warehouse, strategy="labeled")
    # The reference semantics, straight from queries.py over the raw run.
    reference = CompositeRun(run, view)
    targets = sorted(run.final_outputs())
    sources = sorted(run.user_inputs())
    for target in targets:
        # Twice on the cached reasoner: the warm (pure cache) answer must
        # equal both the cold one and the uncached baseline.
        cold = cached.deep(run_id, target, view=view)
        warm = cached.deep(run_id, target, view=view)
        assert cold == warm == uncached.deep(run_id, target, view=view)
        assert cold == labeled.deep(run_id, target, view=view)
        assert cold == deep_provenance(reference, target)
        admin = cached.deep(run_id, target)
        assert admin == uncached.deep(run_id, target)
        assert admin == labeled.deep(run_id, target)
        immediate = cached.immediate(run_id, target, view=view)
        assert immediate == uncached.immediate(run_id, target, view=view)
        assert immediate == labeled.immediate(run_id, target, view=view)
    for source in sources:
        reverse = cached.reverse(run_id, source, view=view)
        assert reverse == uncached.reverse(run_id, source, view=view)
        assert reverse == labeled.reverse(run_id, source, view=view)
    # The labeled reasoner built the persistent labels as a side effect.
    assert warehouse.has_label_index(run_id)


@given(specs_with_relevant(), st.integers(min_value=0, max_value=3))
@_SETTINGS
def test_deep_many_matches_per_query_answers(case, seed):
    """The batched API is the loop, per strategy and per view."""
    spec, relevant = case
    warehouse, run_id, run = _warehoused(spec, seed)
    view = build_user_view(spec, relevant)
    data_ids = sorted(run.final_outputs() | run.user_inputs())
    reference = ProvenanceReasoner(warehouse, strategy="uncached")
    for strategy in ("cached", "uncached", "labeled"):
        reasoner = ProvenanceReasoner(warehouse, strategy=strategy)
        for batch_view in (None, view):
            batch = reasoner.deep_many(run_id, data_ids, view=batch_view)
            assert sorted(batch) == data_ids
            for data_id in data_ids:
                assert batch[data_id] == \
                    reference.deep(run_id, data_id, view=batch_view)


def test_deep_many_dedupes_repeated_pairs_before_fanout():
    """A duplicate-heavy batch computes each unique pair exactly once.

    Regression: ``deep_many`` used to fan every copy out to
    ``admin_deep``, so a batch with N duplicates cost N-1 pointless memo
    probes (and N-1 recomputations under the uncached strategy).  The
    closures-cache counters prove the fix: all unique pairs miss once,
    nothing hits.
    """
    spec = phylogenomic_spec()
    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    run = phylogenomic_run(spec)
    run_id = warehouse.store_run(run, spec_id)
    unique = sorted(run.final_outputs() | run.user_inputs())
    heavy = unique * 5 + list(reversed(unique)) * 3
    reasoner = ProvenanceReasoner(warehouse, strategy="cached")
    batch = reasoner.deep_many(run_id, heavy)
    assert sorted(batch) == unique
    closures = reasoner.stats()["closures"]
    assert closures["misses"] == len(unique)
    assert closures["hits"] == 0
    # The deduped batch still answers exactly like the per-query API.
    reference = ProvenanceReasoner(warehouse, strategy="uncached")
    for data_id in unique:
        assert batch[data_id] == reference.deep(run_id, data_id)


@given(specs_with_relevant(), st.integers(min_value=0, max_value=3))
@_SETTINGS
def test_parity_survives_eviction_pressure(case, seed):
    """A capacity-1 reasoner evicts constantly yet stays correct."""
    spec, relevant = case
    warehouse, run_id, run = _warehoused(spec, seed)
    tiny = ProvenanceReasoner(
        warehouse, run_cache_size=1, composite_cache_size=1,
        closure_cache_size=1,
    )
    tiny_labeled = ProvenanceReasoner(
        warehouse, strategy="labeled", run_cache_size=1,
        composite_cache_size=1, closure_cache_size=1,
    )
    reference = ProvenanceReasoner(warehouse, strategy="uncached")
    views = [build_user_view(spec, relevant), admin_view(spec)]
    for target in sorted(run.final_outputs()):
        for view in views:
            expected = reference.deep(run_id, target, view=view)
            assert tiny.deep(run_id, target, view=view) == expected
            assert tiny_labeled.deep(run_id, target, view=view) == expected


class TestBoundedReasonerCaches:
    def _warehouse_with_runs(self, count):
        spec = phylogenomic_spec()
        warehouse = InMemoryWarehouse()
        spec_id = warehouse.store_spec(spec)
        run = phylogenomic_run(spec)
        run_ids = [
            warehouse.store_run(run, spec_id, run_id="run%d" % index)
            for index in range(count)
        ]
        return warehouse, spec, run_ids

    def test_run_capacity_is_respected_with_lru_order(self):
        warehouse, spec, run_ids = self._warehouse_with_runs(3)
        reasoner = ProvenanceReasoner(warehouse, run_cache_size=2)
        view = admin_view(spec)
        joe = build_user_view(spec, JOE_RELEVANT, name="joe")
        reasoner.composite_run(run_ids[0], view)
        reasoner.composite_run(run_ids[1], view)
        # A composite miss on a new view re-touches run0 in the run cache
        # (a composite *hit* never reaches it).
        reasoner.composite_run(run_ids[0], joe)
        reasoner.composite_run(run_ids[2], view)  # evicts run1 (LRU)
        stats = reasoner.stats()
        assert stats["runs"]["size"] == 2
        assert stats["runs"]["evictions"] == 1
        assert reasoner._run_cache.keys() == [run_ids[0], run_ids[2]]

    def test_run_eviction_cascades_to_derived_caches(self):
        warehouse, spec, run_ids = self._warehouse_with_runs(2)
        reasoner = ProvenanceReasoner(warehouse, run_cache_size=1)
        view = admin_view(spec)
        reasoner.deep(run_ids[0], "d447", view=view)
        reasoner.admin_deep(run_ids[0], "d447")
        assert reasoner.stats()["composites"]["size"] == 1
        assert reasoner.stats()["closures"]["size"] == 1
        reasoner.deep(run_ids[1], "d447", view=view)  # evicts run0
        composite_keys = reasoner._composite_cache.keys()
        closure_keys = reasoner._admin_closure_cache.keys()
        assert all(key[0] == run_ids[1] for key in composite_keys)
        assert all(key[0] == run_ids[1] for key in closure_keys)

    def test_invalidate_run_drops_derived_state(self):
        warehouse, spec, run_ids = self._warehouse_with_runs(1)
        reasoner = ProvenanceReasoner(warehouse)
        view = admin_view(spec)
        first = reasoner.composite_run(run_ids[0], view)
        reasoner.admin_deep(run_ids[0], "d447")
        reasoner.invalidate_run(run_ids[0])
        assert reasoner.stats()["composites"]["size"] == 0
        assert reasoner.stats()["closures"]["size"] == 0
        assert reasoner.composite_run(run_ids[0], view) is not first

    def test_clear_cache_resets_counters(self):
        warehouse, spec, run_ids = self._warehouse_with_runs(1)
        reasoner = ProvenanceReasoner(warehouse)
        reasoner.deep(run_ids[0], "d447", view=admin_view(spec))
        reasoner.deep(run_ids[0], "d447", view=admin_view(spec))
        stats = reasoner.stats()
        assert stats["composites"]["hits"] > 0 or stats["composites"]["misses"] > 0
        reasoner.clear_cache()
        for name in ("runs", "composites", "closures", "labels"):
            row = reasoner.stats()[name]
            assert (row["hits"], row["misses"], row["evictions"]) == (0, 0, 0)
            assert row["size"] == 0

    def test_equal_but_relabelled_views_do_not_share_answers(self):
        """UserView equality ignores composite names; the cache must not.

        Two views inducing the same partition under different labels used
        to collide on one composite-cache slot, so the second view's
        answers came back spelled with the first view's composite names.
        """
        from repro.core.view import blackbox_view

        warehouse, spec, run_ids = self._warehouse_with_runs(1)
        reasoner = ProvenanceReasoner(warehouse)
        built = build_user_view(spec, frozenset(), name="UView")
        boxed = blackbox_view(spec)
        assert built == boxed and built.composites != boxed.composites
        first = reasoner.deep(run_ids[0], "d447", view=built)
        second = reasoner.deep(run_ids[0], "d447", view=boxed)
        assert first.view_name == built.name
        assert second.view_name == boxed.name
        assert {row.module for row in first.rows} == set(built.composites)
        assert {row.module for row in second.rows} == set(boxed.composites)

    def test_stats_report_hits_and_misses_per_cache(self):
        warehouse, spec, run_ids = self._warehouse_with_runs(1)
        reasoner = ProvenanceReasoner(warehouse)
        view = build_user_view(spec, JOE_RELEVANT)
        reasoner.deep(run_ids[0], "d447", view=view)   # all misses
        reasoner.deep(run_ids[0], "d447", view=view)   # composite hit
        stats = reasoner.stats()
        assert set(stats) == {"runs", "composites", "closures", "labels"}
        assert stats["composites"] == {
            "capacity": 1024, "size": 1, "hits": 1, "misses": 1,
            "evictions": 0, "stale_drops": 0, "hit_rate": 0.5,
        }
        assert stats["runs"]["misses"] == 1
