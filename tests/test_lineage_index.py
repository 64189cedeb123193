"""Labels as the warehouse's one persistent reachability index.

Covers the lifecycle of the reachability labels through the
``lineage_labels`` / ``label_lookup`` surface on both backends — building
(eager, lazy and at ingestion time), serving deep provenance with parity
against the recursive reference, maintenance (drop, delete, re-ingest,
reasoner invalidation), the reasoner's resident copy (read once per run
and generation), the WH043 staleness lint rule, the one-time migration
that drops the retired lineage-closure tables from old SQLite files, the
SQLite query plans (every hot lookup must be an index search, never a
table scan), and the ``zoom index`` command-line surface.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.core.composite import CompositeRun
from repro.core.errors import UnknownEntityError, WarehouseError
from repro.core.spec import INPUT, OUTPUT, WorkflowSpec
from repro.core.view import UserView, admin_view, blackbox_view
from repro.faults import FaultPlan, InjectedCrash
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.provenance.labels import compute_lineage_labels
from repro.provenance.queries import deep_provenance
from repro.provenance.reasoner import ProvenanceReasoner
from repro.run.executor import simulate
from repro.run.log import EventLog
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.pipeline import ingest_dataset
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor
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


class TestBuildAndStatus:
    def test_build_returns_row_count_and_is_idempotent(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        rows = warehouse.build_label_index(run_id)
        assert rows > 0
        assert warehouse.lineage_labels(run_id).num_rows() == rows
        # A second build is a no-op returning the stored count; a rebuild
        # recomputes and lands on the same labels.
        assert warehouse.build_label_index(run_id) == rows
        assert warehouse.build_label_index(run_id, rebuild=True) == rows

    def test_row_count_matches_the_closure(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        labels = compute_lineage_labels(warehouse, run_id)
        assert warehouse.build_label_index(run_id) == labels.num_rows()

    def test_status_before_and_after(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert not warehouse.has_label_index(run_id)
        with pytest.raises(WarehouseError, match="no label index"):
            warehouse.lineage_labels(run_id)
        rows = warehouse.build_label_index(run_id)
        assert warehouse.has_label_index(run_id)
        assert warehouse.label_index_status() == {run_id: rows}
        # No closure index exists beside the labels.
        assert not warehouse.has_lineage_index(run_id)

    def test_drop_reports_what_it_dropped(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        assert warehouse.drop_label_index(run_id) == [run_id]
        with pytest.raises(WarehouseError, match="no label index"):
            warehouse.lineage_labels(run_id)
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
            warehouse.drop_label_index,
            warehouse.label_rows_raw,
            warehouse.lineage_labels,
            warehouse.delete_run,
        ):
            with pytest.raises(UnknownEntityError):
                probe("nope")
        with pytest.raises(UnknownEntityError):
            warehouse.label_lookup("nope", "d447")


class TestLookupParity:
    def test_lookup_equals_the_reference_closure_for_every_object(self, loaded):
        warehouse, spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        labels = warehouse.lineage_labels(run_id)
        reference = CompositeRun(run, admin_view(spec))
        for data_id in sorted(run.data_ids() | run.user_inputs()):
            expected = deep_provenance(reference, data_id)
            assert warehouse.label_lookup(run_id, data_id) == expected
            assert labels.result_for(data_id) == expected

    def test_admin_deep_provenance_is_identical_with_and_without_index(
        self, loaded
    ):
        """The recursive closure always recurses: labels never change it."""
        warehouse, run, run_id = loaded[0], loaded[2], loaded[4]
        targets = sorted(run.final_outputs() | run.user_inputs())
        recursive = {d: warehouse.admin_deep_provenance(run_id, d)
                     for d in targets}
        warehouse.build_label_index(run_id)
        for data_id in targets:
            assert warehouse.admin_deep_provenance(run_id, data_id) == \
                recursive[data_id]
            assert warehouse.label_lookup(run_id, data_id) == \
                recursive[data_id]

    def test_user_input_lineage_is_just_the_input(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        source = min(run.user_inputs())
        result = warehouse.label_lookup(run_id, source)
        assert result.rows == []
        assert result.user_inputs == {source}

    def test_lookup_without_index_raises(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        with pytest.raises(WarehouseError, match="no label index"):
            warehouse.label_lookup(run_id, "d447")

    def test_lookup_validates_the_data_id(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        with pytest.raises(UnknownEntityError):
            warehouse.label_lookup(run_id, "no-such-data")

    def test_hit_and_miss_counters(self, loaded):
        """The reasoner's ``labels`` cache: one miss per run and
        generation, hits for every further closure it serves."""
        warehouse, spec, _run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        reasoner.deep(run_id, "d447", view=joe_view(spec))
        labels = reasoner.stats()["labels"]
        assert labels["misses"] == 1
        assert labels["size"] == 1
        reasoner.refresh_run(run_id)
        assert reasoner.stats()["labels"]["size"] == 0
        reasoner.deep(run_id, "d447")
        assert reasoner.stats()["labels"]["misses"] == 2

    def test_build_timer_observes_each_build(self, registry, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        warehouse.build_label_index(run_id)  # no-op: not re-timed
        warehouse.build_label_index(run_id, rebuild=True)
        assert registry.timer("labels.build").count == 2


class TestIngestionTimeIndexing:
    def test_loader_index_flag(self, backend, tmp_path):
        from repro.testing import simulate_small

        spec = phylogenomic_spec()
        result = simulate_small(spec)
        for labels in (False, True):
            warehouse = (
                InMemoryWarehouse() if backend == "memory"
                else SqliteWarehouse(str(tmp_path / ("w%d.sqlite" % labels)))
            )
            record = ingest_dataset(
                warehouse, [(spec, [result])], labels=labels
            )[0]
            (run_id,) = record.run_ids
            assert warehouse.has_label_index(run_id) == labels
            if labels:
                fresh = compute_lineage_labels(warehouse, run_id)
                assert warehouse.label_rows_raw(run_id) == set(
                    fresh.iter_table_rows()
                )


class TestIncrementalMaintenance:
    def test_delete_run_removes_the_index_with_the_run(self, loaded):
        warehouse, _spec, run, spec_id, run_id = loaded
        warehouse.build_label_index(run_id)
        warehouse.delete_run(run_id)
        with pytest.raises(UnknownEntityError):
            warehouse.has_label_index(run_id)
        assert warehouse.list_runs() == []
        # Re-ingesting under the same id starts unlabelled and labels to
        # the same rows as before.
        assert warehouse.store_run(run, spec_id, run_id=run_id) == run_id
        assert not warehouse.has_label_index(run_id)
        rebuilt = warehouse.build_label_index(run_id)
        assert rebuilt == warehouse.label_row_count(run_id) > 0

    def test_indexed_reasoner_builds_lazily_and_persists(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        first = ProvenanceReasoner(warehouse, strategy="labeled")
        assert not warehouse.has_label_index(run_id)
        target = min(run.final_outputs())
        answer = first.deep(run_id, target)
        assert warehouse.has_label_index(run_id)
        # A second, cold reasoner finds the persisted labels: same answer,
        # no second build.
        rows = warehouse.label_row_count(run_id)
        second = ProvenanceReasoner(warehouse, strategy="labeled")
        assert second.deep(run_id, target) == answer
        assert warehouse.label_row_count(run_id) == rows

    def test_invalidate_run_drops_the_persistent_index(self, loaded):
        warehouse, spec, run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        target = min(run.final_outputs())
        before = reasoner.deep(run_id, target, view=joe_view(spec))
        assert warehouse.has_label_index(run_id)
        reasoner.invalidate_run(run_id)
        assert not warehouse.has_label_index(run_id)
        # Querying again rebuilds from scratch and agrees with itself.
        assert reasoner.deep(run_id, target, view=joe_view(spec)) == before
        assert warehouse.has_label_index(run_id)

    def test_clear_cache_keeps_the_index(self, loaded):
        warehouse, _spec, run, _spec_id, run_id = loaded
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        reasoner.deep(run_id, min(run.final_outputs()))
        reasoner.clear_cache()
        assert reasoner.stats()["labels"]["size"] == 0
        assert warehouse.has_label_index(run_id)


class TestResidentLabels:
    """The labeled reasoner reads a run's labels once per generation."""

    @pytest.fixture
    def counted(self):
        # Composite BC joins B with C, whose other input comes from D —
        # outside the lineage of B's final output.  Projecting that output
        # under UBio therefore folds two admin closures (B's and D's).
        spec = WorkflowSpec(
            modules=["A", "B", "C", "D"],
            edges=[(INPUT, "A"), (INPUT, "D"), ("A", "B"), ("B", "C"),
                   ("D", "C"), ("B", OUTPUT), ("C", OUTPUT)],
            name="fork",
        )
        ubio = UserView(
            spec, {"A": {"A"}, "BC": {"B", "C"}, "D": {"D"}}, name="UBio"
        )
        with SqliteWarehouse() as warehouse:
            run_id = warehouse.store_run(
                simulate(spec, rng=random.Random(3)).run,
                warehouse.store_spec(spec),
            )
            target = min(
                d for d in warehouse.final_outputs(run_id)
                if warehouse.module_of_step(
                    run_id, warehouse.producer_of(run_id, d)
                ) == "B"
            )
            calls = []
            original = warehouse.lineage_labels

            def lineage_labels(run):
                calls.append(run)
                return original(run)

            warehouse.lineage_labels = lineage_labels
            yield warehouse, ubio, run_id, target, calls

    def test_view_query_reads_the_labels_once(self, counted):
        warehouse, ubio, run_id, target, calls = counted
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        answer = reasoner.deep(run_id, target, view=ubio)
        # The projection folded two admin closures ...
        assert reasoner.stats()["closures"]["misses"] == 2
        # ... both served from one read of the labels.
        assert calls == [run_id]
        induced = CompositeRun(warehouse.get_run(run_id), ubio)
        assert answer == deep_provenance(induced, target)

    @pytest.mark.parametrize("flip", ["refresh_run", "invalidate_run"])
    def test_next_generation_reads_them_once_more(self, counted, flip):
        warehouse, ubio, run_id, target, calls = counted
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        before = reasoner.deep(run_id, target, view=ubio)
        getattr(reasoner, flip)(run_id)
        assert reasoner.deep(run_id, target, view=ubio) == before
        assert reasoner.stats()["closures"]["misses"] == 4
        assert calls == [run_id, run_id]

    def test_error_types_are_unchanged(self, counted):
        warehouse, _ubio, run_id, target, _calls = counted
        reasoner = ProvenanceReasoner(warehouse, strategy="labeled")
        with pytest.raises(UnknownEntityError):
            reasoner.deep("nope", target)
        with pytest.raises(UnknownEntityError):
            reasoner.deep(run_id, "no-such-data")
        # A streamed epoch whose label delta never ran: its data is known
        # to the warehouse but not covered by the labels.
        log = EventLog()
        log.user_input("x0")
        for index in (1, 2):
            log.start("t%d" % index, "AB"[index - 1])
            log.read("t%d" % index, "x%d" % (index - 1))
            log.write("t%d" % index, "x%d" % index)
        events = list(log)
        plan = FaultPlan().crash_at("stream.delta", hit=2)
        ingestor = StreamingIngestor(warehouse, faults=plan)
        ingestor.open_run("live", "fork")
        ingestor.ingest_events("live", events[:4])
        warehouse.build_label_index("live")
        with pytest.raises(InjectedCrash):
            ingestor.ingest_events("live", events[4:])
        with pytest.raises(WarehouseError) as raised:
            reasoner.deep("live", "x2")
        assert not isinstance(raised.value, UnknownEntityError)
        with pytest.raises(WarehouseError) as raised:
            warehouse.label_lookup("live", "x2")
        assert not isinstance(raised.value, UnknownEntityError)
        assert reasoner.deep("live", "x1").user_inputs == {"x0"}


class TestStalenessLint:
    def _lint(self, warehouse, run_id):
        from repro.lint.rules_warehouse import lint_label_index

        return lint_label_index(
            warehouse, run_id,
            warehouse.steps_of_run(run_id),
            warehouse.io_rows(run_id),
            sorted(warehouse.user_inputs(run_id)),
        )

    def test_fresh_index_is_clean(self, loaded):
        warehouse, _spec, _run, _spec_id, run_id = loaded
        assert self._lint(warehouse, run_id) == []  # no index: nothing to check
        warehouse.build_label_index(run_id)
        assert self._lint(warehouse, run_id) == []


_OLD_CLOSURE_DDL = (
    """
    CREATE TABLE lineage (
        run_id  TEXT NOT NULL REFERENCES run_def(run_id),
        data_id TEXT NOT NULL,
        step_id TEXT NOT NULL,
        data_in TEXT NOT NULL,
        PRIMARY KEY (run_id, data_id, step_id, data_in)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE lineage_meta (
        run_id    TEXT PRIMARY KEY REFERENCES run_def(run_id),
        row_count INTEGER NOT NULL
    )
    """,
)


class TestClosureMigration:
    """Files written while the closure index existed open cleanly."""

    @pytest.fixture
    def old_file(self, tmp_path):
        path = str(tmp_path / "old.sqlite")
        spec = phylogenomic_spec()
        with SqliteWarehouse(path) as warehouse:
            run_id = warehouse.store_run(
                phylogenomic_run(spec), warehouse.store_spec(spec)
            )
            closure = warehouse.admin_deep_provenance(run_id, "d447")
        db = sqlite3.connect(path)
        with db:
            for statement in _OLD_CLOSURE_DDL:
                db.execute(statement)
            rows = [(run_id, "d447", row.step_id, row.data_in)
                    for row in closure.rows]
            rows += [(run_id, "d447", "input", d)
                     for d in closure.user_inputs]
            db.executemany("INSERT INTO lineage VALUES (?, ?, ?, ?)", rows)
            db.execute("INSERT INTO lineage_meta VALUES (?, ?)",
                       (run_id, len(rows)))
        db.close()
        return path, spec, run_id

    @staticmethod
    def tables(path):
        db = sqlite3.connect(path)
        try:
            return {name for (name,) in db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )}
        finally:
            db.close()

    def test_open_drops_the_closure_tables(self, old_file):
        path, spec, run_id = old_file
        assert {"lineage", "lineage_meta"} <= self.tables(path)
        with SqliteWarehouse(path) as warehouse:
            assert warehouse.integrity_report()["ok"]
            run = warehouse.get_run(run_id)
            views = (None, joe_view(spec), blackbox_view(spec))
            for strategy in ("cached", "labeled"):
                reasoner = ProvenanceReasoner(warehouse, strategy=strategy)
                for view in views:
                    induced = CompositeRun(run, view or admin_view(spec))
                    for data_id in sorted(run.final_outputs()):
                        assert reasoner.deep(run_id, data_id, view=view) \
                            == deep_provenance(induced, data_id)
        assert not {"lineage", "lineage_meta"} & self.tables(path)

    def test_lint_audits_the_migrated_file(self, old_file, capsys):
        from repro.zoom.cli import main

        path, _spec, _run_id = old_file
        assert main(["lint", "--db", path]) == 0
        assert "finding(s)" in capsys.readouterr().out
        assert not {"lineage", "lineage_meta"} & self.tables(path)


class TestSqliteQueryPlans:
    """EXPLAIN QUERY PLAN: every hot lookup is a search, never a scan."""

    @pytest.fixture
    def sqlite(self):
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        with SqliteWarehouse() as warehouse:
            run_id = warehouse.store_run(run, warehouse.store_spec(spec))
            warehouse.build_label_index(run_id)
            yield warehouse, run_id

    def _plan(self, warehouse, sql, params):
        cursor = warehouse._conn.execute("EXPLAIN QUERY PLAN " + sql, params)
        return [row[-1] for row in cursor.fetchall()]

    def _assert_no_table_scan(self, details):
        # "SCAN lineage" over the recursive CTE named ``lineage`` is fine;
        # scanning a base table is not.
        for detail in details:
            for table in ("io", "step", "annotation", "user_input"):
                assert not detail.startswith("SCAN %s" % table), detail

    def test_lineage_lookup_is_a_range_search(self, sqlite):
        """Rehydrating a run's labels reads one primary-key range."""
        warehouse, run_id = sqlite
        details = self._plan(
            warehouse,
            "SELECT step_id, pre, post, tree_parent, remainder"
            " FROM lineage_labels WHERE run_id = ?",
            (run_id,),
        )
        assert any("SEARCH lineage_labels" in d for d in details), details
        assert not any(d.startswith("SCAN") for d in details), details

    def test_recursive_closure_uses_the_io_indexes(self, sqlite):
        from repro.warehouse.schema import SQLITE_DEEP_PROVENANCE

        warehouse, run_id = sqlite
        details = self._plan(
            warehouse, SQLITE_DEEP_PROVENANCE,
            {"run_id": run_id, "data_id": "d447"},
        )
        self._assert_no_table_scan(details)
        assert any("io_by_data" in d for d in details), details
        assert any("io_by_step" in d for d in details), details

    def test_point_lookups_use_covering_indexes(self, sqlite):
        warehouse, run_id = sqlite
        probes = (
            ("SELECT step_id FROM io WHERE run_id = ? AND data_id = ?"
             " AND direction = 'out'", (run_id, "d447")),
            ("SELECT data_id FROM io WHERE run_id = ? AND step_id = ?"
             " AND direction = 'in'", (run_id, "S1")),
            ("SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
             " ORDER BY subject", (run_id, "quality")),
            ("SELECT subject FROM annotation WHERE run_id = ? AND key = ?"
             " AND value = ? ORDER BY subject", (run_id, "quality", "ok")),
        )
        for sql, params in probes:
            details = self._plan(warehouse, sql, params)
            self._assert_no_table_scan(details)
        # The (key, value) probe is the one the annotation PK cannot serve
        # without filtering; it must pick the covering secondary index.
        annotated = self._plan(warehouse, probes[3][0], probes[3][1])
        assert any("annotation_by_key" in d for d in annotated), annotated


class TestCli:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "warehouse.sqlite")
        spec = phylogenomic_spec()
        run = phylogenomic_run(spec)
        with SqliteWarehouse(path) as warehouse:
            run_id = warehouse.store_run(run, warehouse.store_spec(spec))
        return path, run_id

    def test_build_status_drop_cycle(self, db, capsys):
        from repro.zoom.cli import main

        path, run_id = db
        assert main(["index", "status", "--db", path]) == 0
        assert "0 of 1 run(s) indexed" in capsys.readouterr().out
        assert main(["index", "build", "--db", path]) == 0
        out = capsys.readouterr().out
        assert ("labeled %s:" % run_id) in out and "label rows" in out
        assert main(["index", "status", "--db", path]) == 0
        out = capsys.readouterr().out
        assert "1 of 1 run(s) indexed" in out and "rows" in out
        assert main(["index", "drop", "--db", path, "--run-id", run_id]) == 0
        assert "dropped label index of 1 run(s)" in capsys.readouterr().out
        assert main(["index", "status", "--db", path]) == 0
        assert "not indexed" in capsys.readouterr().out

    def test_load_with_index_flag(self, tmp_path, capsys):
        from repro.zoom.cli import main

        spec_path = tmp_path / "spec.json"
        db_path = str(tmp_path / "generated.sqlite")
        main(["generate", "--class", "Class2", "--seed", "5", "--name",
              "cli-wf", "--out", str(spec_path)])
        capsys.readouterr()
        assert main(["load", "--db", db_path, "--spec", str(spec_path),
                     "--run-class", "small", "--runs", "1", "--index"]) == 0
        assert "label index built:" in capsys.readouterr().out
        with SqliteWarehouse(db_path) as warehouse:
            assert warehouse.has_label_index("cli-wf/run1")

    def test_prov_with_indexed_strategy(self, db, capsys):
        from repro.zoom.cli import main

        path, run_id = db
        assert main(["prov", "--db", path, "--run-id", run_id,
                     "--strategy", "labeled"]) == 0
        assert "deep provenance of" in capsys.readouterr().out
        # The lazy build persisted the labels into the warehouse file.
        with SqliteWarehouse(path) as warehouse:
            assert warehouse.has_label_index(run_id)
        # Only the three strategies parse.
        for retired in ("indexed", "auto"):
            with pytest.raises(SystemExit):
                main(["prov", "--db", path, "--run-id", run_id,
                      "--strategy", retired])
