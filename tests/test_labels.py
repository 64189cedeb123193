"""The compact reachability-label index: build, serve, maintain, observe.

The labels are the warehouse's one persistent reachability index (O(V)
rows per run).  This suite covers the build/status/drop lifecycle on
both backends, lookup parity against the recursive reference for every
data object, the labeled reasoner strategy, incremental maintenance
(drop, delete, invalidation), ingestion-time labelling, the WH043 lint
rule, and the ``zoom index`` command-line surface.  It also unit-tests
the encoding itself: interval containment, remainder traversal,
determinism, and cycle rejection.
"""

from __future__ import annotations

import pytest

from repro.core.composite import CompositeRun
from repro.core.errors import UnknownEntityError, WarehouseError
from repro.core.view import admin_view
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.provenance.labels import (
    LABELS_VERSION,
    compute_lineage_labels,
    label_table_rows,
    labels_from_rows,
)
from repro.provenance.queries import deep_provenance
from repro.provenance.reasoner import ProvenanceReasoner
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.phylogenomic import (
    joe_view,
    phylogenomic_run,
    phylogenomic_spec,
)

_BACKENDS = {"memory": InMemoryWarehouse, "sqlite": SqliteWarehouse}


@pytest.fixture(params=sorted(_BACKENDS))
def backend(request):
    return request.param


@pytest.fixture
def warehouse(backend):
    if backend == "memory":
        yield InMemoryWarehouse()
    else:
        with SqliteWarehouse() as built:
            yield built


@pytest.fixture
def loaded(warehouse):
    """A warehouse preloaded with the paper example; returns the ids."""
    spec = phylogenomic_spec()
    run = phylogenomic_run(spec)
    spec_id = warehouse.store_spec(spec)
    run_id = warehouse.store_run(run, spec_id)
    return warehouse, spec, run, spec_id, run_id


@pytest.fixture
def registry():
    """A fresh metrics registry installed for the duration of one test."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


# ----------------------------------------------------------------------
# The encoding itself
# ----------------------------------------------------------------------


class TestEncoding:
    def _reference_reachability(self, labels):
        """Transitive closure over parent+remainder edges, by brute BFS."""
        reach = {}
        for step in labels.intervals:
            seen = set()
            stack = [step]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(labels._upstream(current))
            reach[step] = seen  # ancestors of ``step``, plus itself
        return reach

    def test_reaches_matches_brute_force_on_the_paper_run(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        labels = compute_lineage_labels(warehouse, run_id)
        reach = self._reference_reachability(labels)
        steps = sorted(labels.intervals)
        for a in steps:
            for b in steps:
                assert labels.reaches(a, b) == (a in reach[b]), (a, b)

    def test_one_label_row_per_step(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        labels = compute_lineage_labels(warehouse, run_id)
        assert labels.num_rows() == run.num_steps()
        rows = list(labels.iter_table_rows())
        assert len(rows) == run.num_steps()
        assert [r[0] for r in rows] == sorted(labels.intervals)

    def test_parent_and_remainder_are_exactly_the_predecessors(self, loaded):
        from repro.core.spec import INPUT

        warehouse, _spec, _run, _spec_id, run_id = loaded
        labels = compute_lineage_labels(warehouse, run_id)
        producer = labels.producer
        for step_id in labels.intervals:
            direct = {
                producer[d] for d in labels.step_inputs[step_id]
                if producer[d] not in (INPUT, step_id)
            }
            assert set(labels._upstream(step_id)) == direct

    def test_labelling_is_deterministic(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        first = compute_lineage_labels(warehouse, run_id)
        second = compute_lineage_labels(warehouse, run_id)
        assert list(first.iter_table_rows()) == list(second.iter_table_rows())

    def test_cyclic_rows_are_rejected(self):
        steps = [("a", "M"), ("x", "M"), ("y", "M")]
        # x and y form a cycle that hangs off the acyclic step a, so the
        # forest alone would happily label all three — the explicit
        # topological sweep must still refuse.
        io_rows = [
            ("a", "d0", "out"),
            ("x", "d0", "in"), ("x", "dy", "in"), ("x", "dx", "out"),
            ("y", "dx", "in"), ("y", "dy", "out"),
        ]
        with pytest.raises(WarehouseError, match="cyclic"):
            labels_from_rows("r", steps, io_rows, user_inputs=[])

    def test_unknown_step_and_data_raise(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        labels = compute_lineage_labels(warehouse, run_id)
        with pytest.raises(WarehouseError, match="carries no label"):
            labels.reaches("no-such-step", "S1")
        with pytest.raises(WarehouseError, match="not covered"):
            labels.lineage_steps_of("no-such-data")


# ----------------------------------------------------------------------
# Warehouse lifecycle
# ----------------------------------------------------------------------


class TestBuildAndStatus:
    def test_build_returns_row_count_and_is_idempotent(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        rows = warehouse.build_label_index(run_id)
        assert rows == run.num_steps()
        assert warehouse.label_row_count(run_id) == rows
        assert warehouse.build_label_index(run_id) == rows
        assert warehouse.build_label_index(run_id, rebuild=True) == rows

    def test_status_before_and_after(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert not warehouse.has_label_index(run_id)
        assert warehouse.label_row_count(run_id) is None
        assert warehouse.label_index_version(run_id) is None
        assert warehouse.label_index_status() == {run_id: None}
        rows = warehouse.build_label_index(run_id)
        assert warehouse.has_label_index(run_id)
        assert warehouse.label_index_version(run_id) == LABELS_VERSION
        assert warehouse.label_index_status() == {run_id: rows}

    def test_labels_are_independent_of_the_closure_index(self, loaded):
        """No closure index exists to depend on: the stub stays false and
        labelled answers match the recursive closure."""
        warehouse, _spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        assert not warehouse.has_lineage_index(run_id)
        assert warehouse.has_label_index(run_id)
        target = min(run.final_outputs())
        assert warehouse.label_lookup(run_id, target) == \
            warehouse.admin_deep_provenance(run_id, target)

    def test_drop_reports_what_it_dropped(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        assert warehouse.drop_label_index(run_id) == [run_id]
        assert not warehouse.has_label_index(run_id)
        assert warehouse.drop_label_index(run_id) == []  # already gone

    def test_drop_all_runs(self, loaded):
        warehouse, _spec, run, spec_id, run_id = loaded
        other = warehouse.store_run(run, spec_id, run_id="second")
        warehouse.build_label_index(run_id)
        warehouse.build_label_index(other)
        assert warehouse.drop_label_index() == sorted([run_id, other])
        assert warehouse.label_index_status() == {run_id: None, other: None}

    def test_unknown_run_is_rejected_everywhere(self, warehouse):
        for probe in (
            warehouse.build_label_index,
            warehouse.has_label_index,
            warehouse.label_row_count,
            warehouse.label_index_version,
            warehouse.drop_label_index,
            warehouse.label_rows_raw,
        ):
            with pytest.raises(UnknownEntityError):
                probe("nope")

    def test_stored_rows_equal_the_canonical_rows(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        expected = label_table_rows(
            run_id,
            warehouse.steps_of_run(run_id),
            warehouse.io_rows(run_id),
            sorted(warehouse.user_inputs(run_id)),
        )
        assert warehouse.label_rows_raw(run_id) == expected

    def test_build_timer_observes_each_build(self, registry, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        warehouse.build_label_index(run_id)  # no-op: not re-timed
        warehouse.build_label_index(run_id, rebuild=True)
        assert registry.timer("labels.build").count == 2


class TestLookupParity:
    def test_lookup_equals_the_reference_for_every_object(self, loaded):
        warehouse, spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        reference = CompositeRun(run, admin_view(spec))
        for data_id in sorted(run.data_ids() | run.user_inputs()):
            assert warehouse.label_lookup(run_id, data_id) == \
                deep_provenance(reference, data_id)

    def test_lookup_equals_the_closure_lookup(self, loaded):
        """Row-identical to the warehouse's recursive closure."""
        warehouse, _spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        for data_id in sorted(run.data_ids() | run.user_inputs()):
            assert warehouse.label_lookup(run_id, data_id) == \
                warehouse.admin_deep_provenance(run_id, data_id)

    def test_user_input_lineage_is_just_the_input(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        source = min(run.user_inputs())
        result = warehouse.label_lookup(run_id, source)
        assert result.rows == []
        assert result.user_inputs == {source}

    def test_lookup_without_labels_raises(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        with pytest.raises(WarehouseError, match="no label index"):
            warehouse.label_lookup(run_id, "d447")

    def test_lookup_validates_the_data_id(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        with pytest.raises(UnknownEntityError):
            warehouse.label_lookup(run_id, "no-such-data")


# ----------------------------------------------------------------------
# Reasoner strategies
# ----------------------------------------------------------------------


class TestLabeledStrategy:
    def test_labeled_reasoner_builds_lazily_and_persists(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        first = ProvenanceReasoner(warehouse, strategy="labeled")
        assert not warehouse.has_label_index(run_id)
        target = min(run.final_outputs())
        answer = first.deep(run_id, target)
        assert warehouse.has_label_index(run_id)
        # A second, cold reasoner finds the persisted labels: same
        # answer, no second build.
        second = ProvenanceReasoner(warehouse, strategy="labeled")
        assert second.deep(run_id, target) == answer

    def test_labeled_view_answers_match_the_reference(self, loaded):
        warehouse, spec, run, _spec_id, run_id = loaded
        labeled = ProvenanceReasoner(warehouse, strategy="labeled")
        reference = ProvenanceReasoner(warehouse, strategy="uncached")
        view = joe_view(spec)
        for data_id in sorted(run.final_outputs() | run.user_inputs()):
            assert labeled.deep(run_id, data_id, view=view) == \
                reference.deep(run_id, data_id, view=view)
            assert labeled.reverse(run_id, data_id, view=view) == \
                reference.reverse(run_id, data_id, view=view)

    def test_invalidate_run_drops_the_persistent_labels(self, loaded):
        warehouse, spec, run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        target = min(run.final_outputs())
        before = reasoner.deep(run_id, target, view=joe_view(spec))
        assert warehouse.has_label_index(run_id)
        reasoner.invalidate_run(run_id)
        assert not warehouse.has_label_index(run_id)
        assert reasoner.deep(run_id, target, view=joe_view(spec)) == before
        assert warehouse.has_label_index(run_id)

    def test_clear_cache_keeps_the_labels(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        reasoner.deep(run_id, min(run.final_outputs()))
        reasoner.clear_cache()
        assert warehouse.has_label_index(run_id)

    def test_lookup_timer_ticks_per_uncached_lookup(self, registry, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        target = min(run.final_outputs())
        reasoner.deep(run_id, target)
        reasoner.deep(run_id, target)  # memoised: not re-timed
        assert registry.timer("labels.lookup").count == 1

    def test_delete_run_removes_the_labels_with_the_run(self, loaded):
        warehouse, _spec, run, spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        warehouse.delete_run(run_id)
        with pytest.raises(UnknownEntityError):
            warehouse.has_label_index(run_id)
        assert warehouse.store_run(run, spec_id, run_id=run_id) == run_id
        assert not warehouse.has_label_index(run_id)


# ----------------------------------------------------------------------
# Ingestion-time labelling
# ----------------------------------------------------------------------


class TestIngestionTimeLabels:
    def test_ingest_dataset_persists_labels(self, warehouse):
        from repro.testing import simulate_small
        from repro.warehouse.pipeline import ingest_dataset

        spec = phylogenomic_spec()
        result = simulate_small(spec)
        record = ingest_dataset(
            warehouse, [(spec, [result])], labels=True,
        )[0]
        run_id = record.run_ids[0]
        assert warehouse.has_label_index(run_id)
        assert warehouse.label_index_version(run_id) == LABELS_VERSION
        # Ingestion-time labels are byte-identical to a post-hoc build.
        stored = warehouse.label_rows_raw(run_id)
        warehouse.build_label_index(run_id, rebuild=True)
        assert warehouse.label_rows_raw(run_id) == stored

    def test_build_lineage_indexes_kind_labeled(self, loaded):
        from repro.warehouse.pipeline import build_label_indexes

        warehouse, _spec, run, spec_id, run_id = loaded
        other = warehouse.store_run(run, spec_id, run_id="second")
        for jobs in (0, 2):
            warehouse.drop_label_index()
            results = build_label_indexes(warehouse, jobs=jobs)
            assert results == {
                run_id: run.num_steps(), other: run.num_steps()
            }
            assert warehouse.has_label_index(run_id)
            assert warehouse.has_label_index(other)


# ----------------------------------------------------------------------
# Lint: the WH043 staleness rule
# ----------------------------------------------------------------------


class TestLabelLint:
    def _lint(self, warehouse, run_id):
        from repro.lint.rules_warehouse import lint_label_index

        return lint_label_index(
            warehouse, run_id,
            warehouse.steps_of_run(run_id),
            warehouse.io_rows(run_id),
            sorted(warehouse.user_inputs(run_id)),
        )

    def test_fresh_labels_are_clean(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert self._lint(warehouse, run_id) == []  # no labels: no check
        warehouse.build_label_index(run_id)
        assert self._lint(warehouse, run_id) == []

    def test_wh043_flags_an_out_of_band_edit(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        if not isinstance(warehouse, SqliteWarehouse):
            pytest.skip("corrupting label rows needs direct SQL access")
        warehouse.build_label_index(run_id)
        with warehouse._conn:
            warehouse._conn.execute(
                "UPDATE lineage_labels SET pre = pre + 1000"
                " WHERE run_id = ? AND step_id = 'S1'",
                (run_id,),
            )
        findings = self._lint(warehouse, run_id)
        assert [f.rule_id for f in findings] == ["WH043"]
        assert "missing" in findings[0].message
        warehouse.build_label_index(run_id, rebuild=True)
        assert self._lint(warehouse, run_id) == []

    def test_wh043_flags_a_version_mismatch(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        if not isinstance(warehouse, SqliteWarehouse):
            pytest.skip("rewriting the version row needs direct SQL access")
        warehouse.build_label_index(run_id)
        with warehouse._conn:
            warehouse._conn.execute(
                "UPDATE labels_meta SET version = version + 1"
                " WHERE run_id = ?",
                (run_id,),
            )
        findings = self._lint(warehouse, run_id)
        assert [f.rule_id for f in findings] == ["WH043"]
        assert "version" in findings[0].message
        warehouse.build_label_index(run_id, rebuild=True)
        assert self._lint(warehouse, run_id) == []

    def test_wh043_reaches_lint_warehouse(self, loaded):
        from repro.lint import Linter

        warehouse, _spec, _run, _spec_id, run_id = loaded
        if not isinstance(warehouse, SqliteWarehouse):
            pytest.skip("corrupting label rows needs direct SQL access")
        warehouse.build_label_index(run_id)
        with warehouse._conn:
            warehouse._conn.execute(
                "DELETE FROM lineage_labels WHERE run_id = ?"
                " AND step_id = 'S1'",
                (run_id,),
            )
        report = Linter(emit_metrics=False).lint_warehouse(warehouse)
        assert "WH043" in {f.rule_id for f in report.findings}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "warehouse.sqlite")
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        with SqliteWarehouse(path) as built:
            run_id = built.store_run(run, built.store_spec(spec))
        return path, run_id

    def test_build_status_drop_cycle_kind_labeled(self, db, capsys):
        from repro.zoom.cli import main

        path, run_id = db
        assert main(["index", "status", "--db", path]) == 0
        assert "label index: 0 of 1 run(s) indexed" in capsys.readouterr().out
        assert main(["index", "build", "--db", path]) == 0
        out = capsys.readouterr().out
        assert ("labeled %s:" % run_id) in out and "label rows" in out
        assert main(["index", "status", "--db", path]) == 0
        assert "label index: 1 of 1 run(s) indexed" in capsys.readouterr().out
        with SqliteWarehouse(path) as warehouse:
            assert warehouse.has_label_index(run_id)
            assert not warehouse.has_lineage_index(run_id)
        assert main(["index", "drop", "--db", path, "--run-id", run_id]) == 0
        assert "dropped label index of 1 run(s)" in capsys.readouterr().out
        assert main(["index", "status", "--db", path]) == 0
        assert "not indexed" in capsys.readouterr().out
        # Labels are the only index: there is no kind to select.
        with pytest.raises(SystemExit):
            main(["index", "build", "--db", path, "--kind", "labeled"])

    @pytest.mark.parametrize("strategy", ["labeled"])
    def test_prov_with_labeled_strategies(self, db, capsys, strategy):
        from repro.zoom.cli import main

        path, run_id = db
        assert main(["prov", "--db", path, "--run-id", run_id,
                     "--strategy", strategy]) == 0
        assert "deep provenance of" in capsys.readouterr().out
