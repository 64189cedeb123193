"""Tests for the interactive ZOOM session layer."""

from __future__ import annotations

import pytest

from repro.core.errors import ViewError
from repro.warehouse.memory import InMemoryWarehouse
from repro.workloads.phylogenomic import (
    JOE_RELEVANT,
    joe_view,
    phylogenomic_run,
    phylogenomic_spec,
)
from repro.zoom.session import Session


@pytest.fixture
def env():
    spec = phylogenomic_spec()
    run = phylogenomic_run(spec)
    warehouse = InMemoryWarehouse()
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)
    return warehouse, spec, spec_id, run_id


class TestViewBuilding:
    def test_starts_at_admin(self, env):
        warehouse, spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        assert session.view.size() == len(spec)

    def test_flagging_rebuilds(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id, user="joe")
        session.flag("M2", "M3")
        session.flag("M7")
        assert session.relevant == JOE_RELEVANT
        assert session.view == joe_view()

    def test_unflagging(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        session.unflag("M2")
        assert session.relevant == {"M3", "M7"}
        # The view history records every rebuild.
        assert session.view_history() == [frozenset(JOE_RELEVANT),
                                          frozenset({"M3", "M7"})]

    def test_zoom_into_composite(self, env):
        warehouse, spec, spec_id, run_id = env
        from repro.workloads.phylogenomic import mary_view

        session = Session(warehouse, spec_id, user="joe")
        session.set_relevant(JOE_RELEVANT)
        alignment = session.view.composite_of("M3")
        refined = session.zoom_into(alignment, {"M5"})
        assert refined == mary_view(spec)
        assert session.relevant == JOE_RELEVANT | {"M5"}
        # Queries now answer at the refined granularity.
        assert "d411" in session.visible_data(run_id)
        # And undo steps back out.
        session.undo()
        assert session.relevant == JOE_RELEVANT

    def test_undo_restores_previous_view(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        joe = session.view
        session.flag("M5")  # Mary's refinement
        assert session.view != joe
        restored = session.undo()
        assert restored == joe
        assert session.relevant == JOE_RELEVANT
        # Undo at the first state is a no-op.
        session2 = Session(warehouse, spec_id)
        session2.set_relevant({"M3"})
        before = session2.view
        assert session2.undo() == before

    def test_view_memoisation(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        first = session.view
        session.flag("M5")
        session.unflag("M5")
        # Returning to the same relevant set reuses the memoised view.
        assert session.view is first

    def test_zoom_into_overwrites_stale_cached_view(self, env):
        """Regression: ``setdefault`` kept a builder-built view cached for
        the same relevant set, so flagging away and back after a zoom
        silently discarded the refinement."""
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id, user="joe")
        session.set_relevant(JOE_RELEVANT)
        # Seed the view memo for JOE | {M5} with a builder-built view.
        session.flag("M5")
        session.unflag("M5")
        alignment = session.view.composite_of("M3")
        refined = session.zoom_into(alignment, {"M5"})
        # Flag away and back: the refined view must be restored, not the
        # builder-built one that was cached first.
        session.unflag("M5")
        session.flag("M5")
        assert session.view is refined

    def test_use_view_survives_noop_rebuild(self, env):
        """The adopted view is what the empty relevant set now shows; a
        no-op unflag must not swap it for a freshly built view."""
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id, user="joe")
        session.set_relevant(JOE_RELEVANT)
        view_id = session.save_view()
        other = Session(warehouse, spec_id, user="mary")
        adopted = other.use_view(warehouse.get_view(view_id))
        other.unflag()  # no-op rebuild of the (empty) relevant set
        assert other.view is adopted

    def test_stats_reports_every_cache(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        session.deep_provenance(run_id, "d447")
        session.deep_provenance(run_id, "d447")
        session.flag("M5")
        session.unflag("M5")
        session.flag("M5")  # back to a memoised relevant set
        stats = session.stats()
        assert set(stats) == {"views", "runs", "composites", "closures", "labels"}
        assert stats["views"]["hits"] >= 1
        assert stats["composites"]["hits"] >= 1
        assert stats["runs"]["misses"] == 1
        for row in stats.values():
            assert set(row) == {"capacity", "size", "hits", "misses",
                                "evictions", "stale_drops", "hit_rate"}

    def test_unknown_module_rejected(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        with pytest.raises(ViewError):
            session.flag("M99")
        with pytest.raises(ViewError):
            session.set_relevant({"M99"})

    def test_save_and_reuse_view(self, env):
        warehouse, spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id, user="joe")
        session.set_relevant(JOE_RELEVANT)
        view_id = session.save_view()
        restored = warehouse.get_view(view_id)
        assert restored == session.view
        other = Session(warehouse, spec_id, user="mary")
        other.use_view(restored)
        assert other.view == session.view

    def test_use_view_wrong_spec_rejected(self, env):
        warehouse, _spec, spec_id, _run_id = env
        from repro.core.spec import linear_spec
        from repro.core.view import admin_view

        session = Session(warehouse, spec_id)
        with pytest.raises(ViewError):
            session.use_view(admin_view(linear_spec(2)))


class TestQuerying:
    def test_deep_provenance_through_view(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id, user="joe")
        session.set_relevant(JOE_RELEVANT)
        result = session.deep_provenance(run_id, "d447")
        assert result.steps() == {"C[M3].1", "C[M7].1", "S1", "S7"}

    def test_final_output_provenance(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        assert session.final_output_provenance(run_id).target == "d447"

    def test_switching_views_changes_answer(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        joe_size = session.deep_provenance(run_id, "d447").num_tuples()
        session.flag("M5")  # Mary's extra module
        mary_size = session.deep_provenance(run_id, "d447").num_tuples()
        assert mary_size > joe_size

    def test_visible_data_and_edges(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        assert "d411" not in session.visible_data(run_id)
        assert session.data_between(run_id, "C[M3].1", "C[M7].1") == {"d413"}

    def test_how_query(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        chain = session.how(run_id, "d308", "d447")
        assert chain is not None
        assert chain.steps == ("C[M3].1", "C[M7].1")
        assert session.how(run_id, "d447", "d1") is None

    def test_immediate_and_derived(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        immediate = session.immediate_provenance(run_id, "d447")
        assert immediate.steps() == {"C[M7].1"}
        derived = session.derived_from(run_id, "d308")
        assert derived.final_outputs == {"d447"}


class TestRendering:
    def test_render_spec_is_dot(self, env):
        warehouse, _spec, spec_id, _run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        dot = session.render_spec()
        assert dot.startswith("digraph")
        assert "cluster" in dot  # composites rendered as clusters

    def test_render_run_is_dot(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        dot = session.render_run(run_id)
        assert "C[M3].1" in dot

    def test_render_provenance_is_dot(self, env):
        warehouse, _spec, spec_id, run_id = env
        session = Session(warehouse, spec_id)
        session.set_relevant(JOE_RELEVANT)
        dot = session.render_provenance(run_id, "d447")
        assert "d447" in dot
        assert dot.startswith("digraph")
