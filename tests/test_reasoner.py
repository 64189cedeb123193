"""Unit and integration tests for the warehouse-backed reasoner."""

from __future__ import annotations

import pytest

from repro.core.composite import CompositeRun
from repro.core.errors import QueryError
from repro.core.view import admin_view, blackbox_view
from repro.provenance.queries import deep_provenance as reference_deep
from repro.provenance.reasoner import ProvenanceReasoner
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.phylogenomic import (
    joe_view,
    mary_view,
    phylogenomic_run,
    phylogenomic_spec,
)


@pytest.fixture(params=["memory", "sqlite"])
def setup(request):
    spec = phylogenomic_spec()
    run = phylogenomic_run(spec)
    if request.param == "memory":
        warehouse = InMemoryWarehouse()
    else:
        warehouse = SqliteWarehouse()
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)
    yield warehouse, spec, run, run_id
    if request.param == "sqlite":
        warehouse.close()


class TestAgainstReference:
    """The reasoner must match the in-memory reference semantics exactly."""

    @pytest.mark.parametrize("strategy", ["cached", "uncached"])
    def test_deep_matches_reference(self, setup, strategy):
        warehouse, spec, run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse, strategy=strategy)
        for view in (joe_view(spec), mary_view(spec), admin_view(spec),
                     blackbox_view(spec)):
            expected = reference_deep(CompositeRun(run, view), "d447")
            actual = reasoner.deep(run_id, "d447", view=view)
            assert actual == expected

    def test_admin_deep_matches_view_level_admin(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        via_closure = reasoner.deep(run_id, "d447", view=None)
        via_view = reasoner.deep(run_id, "d447", view=admin_view(spec))
        assert via_closure == via_view

    def test_immediate_and_reverse(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        immediate = reasoner.immediate(run_id, "d413", view=mary_view(spec))
        assert immediate.steps() == {"M11.2"}
        reverse = reasoner.reverse(run_id, "d308", view=joe_view(spec))
        assert reverse.steps() == {"M10.1", "M9.1"}

    def test_default_views_are_admin(self, setup):
        warehouse, _spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        immediate = reasoner.immediate(run_id, "d413")
        assert immediate.steps() == {"S6"}
        reverse = reasoner.reverse(run_id, "d446")
        assert reverse.steps() == {"S10"}


class TestCaching:
    def test_composite_run_cached(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        view = joe_view(spec)
        first = reasoner.composite_run(run_id, view)
        second = reasoner.composite_run(run_id, view)
        assert first is second

    def test_view_switch_uses_same_materialized_run(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        joe_composite = reasoner.composite_run(run_id, joe_view(spec))
        mary_composite = reasoner.composite_run(run_id, mary_view(spec))
        assert joe_composite.run is mary_composite.run

    def test_admin_closure_cached(self, setup):
        warehouse, _spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        first = reasoner.admin_deep(run_id, "d447")
        second = reasoner.admin_deep(run_id, "d447")
        assert first is second

    def test_uncached_strategy_rebuilds(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse, strategy="uncached")
        view = joe_view(spec)
        first = reasoner.composite_run(run_id, view)
        second = reasoner.composite_run(run_id, view)
        assert first is not second

    def test_clear_cache(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        view = joe_view(spec)
        first = reasoner.composite_run(run_id, view)
        reasoner.clear_cache()
        assert reasoner.composite_run(run_id, view) is not first

    def test_unknown_strategy_rejected(self, setup):
        warehouse, _spec, _run, _run_id = setup
        with pytest.raises(QueryError, match="unknown strategy"):
            ProvenanceReasoner(warehouse, strategy="magic")
        # "indexed" and "auto" are not strategies either.
        for retired in ("indexed", "auto"):
            with pytest.raises(QueryError, match="unknown strategy"):
                ProvenanceReasoner(warehouse, strategy=retired)


class TestConvenience:
    def test_final_output_deep(self, setup):
        warehouse, spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        result = reasoner.final_output_deep(run_id, view=joe_view(spec))
        assert result.target == "d447"
        assert result.steps() == {"M10.1", "M9.1", "S1", "S7"}

    def test_final_output_deep_admin(self, setup):
        warehouse, _spec, _run, run_id = setup
        reasoner = ProvenanceReasoner(warehouse)
        result = reasoner.final_output_deep(run_id)
        assert len(result.steps()) == 10
