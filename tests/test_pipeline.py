"""Parity and behaviour tests for the batched ingestion pipeline.

The central guarantee under test: :func:`repro.warehouse.pipeline.ingest_dataset`
— at any ``jobs`` / ``batch_size``, on either backend — produces exactly the
warehouse contents, lint findings and ``lint.*`` metric counts of the serial
:func:`repro.warehouse.loader.load_dataset` reference path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import RunError, WarehouseError
from repro.core.spec import linear_spec
from repro.lint import LintGateError
from repro.obs import MetricsRegistry, set_registry
from repro.run.executor import simulate
from repro.run.run import Step
from repro.warehouse.base import ProvenanceWarehouse
from repro.warehouse.loader import load_dataset
from repro.warehouse.memory import InMemoryWarehouse
from repro.warehouse.pipeline import (
    PreparedRun,
    build_label_indexes,
    ingest_dataset,
    prepare_run,
)
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run
from repro.zoom.cli import main


def small_workload(n_specs=3, n_runs=4, size=12, seed=7):
    """Generated specs with runs, the shape load_dataset ingests."""
    rng = random.Random(seed)
    classes = sorted(WORKFLOW_CLASSES)
    items = []
    for i in range(n_specs):
        generated = generate_workflow(
            WORKFLOW_CLASSES[classes[i % len(classes)]], rng,
            target_size=size, name="wf%d" % i,
        )
        runs = [
            generate_run(generated.spec, RUN_CLASSES["small"], rng,
                         run_id="r%d" % n)
            for n in range(n_runs)
        ]
        items.append((generated.spec, runs))
    return items


def dump(warehouse):
    """Every observable row of a warehouse, in deterministic form."""
    out = {
        "specs": warehouse.list_specs(),
        "views": sorted(warehouse.list_views()),
    }
    for spec_id in warehouse.list_specs():
        out["spec:" + spec_id] = warehouse.spec_rows(spec_id)
    for run_id in warehouse.list_runs():
        out["run:" + run_id] = (
            warehouse.steps_of_run(run_id),
            warehouse.io_rows(run_id),
            sorted(warehouse.user_inputs(run_id)),
            sorted(warehouse.final_outputs(run_id)),
            warehouse.label_row_count(run_id),
            sorted(warehouse.label_rows_raw(run_id)),
        )
    return out


def lint_counters(registry):
    return {
        name: values
        for name, values in registry.snapshot().items()
        if name.startswith("lint.")
    }


@pytest.fixture
def registry():
    """A fresh default metrics registry, restored afterwards."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def reference(workload, tmp_path_factory):
    """Serial ingestion of the module workload: dump + lint counters."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        warehouse = SqliteWarehouse(
            str(tmp_path_factory.mktemp("ref") / "ref.sqlite")
        )
        load_dataset(warehouse, workload)
        build_label_indexes(warehouse)
        reference_dump = dump(warehouse)
        warehouse.close()
    finally:
        set_registry(previous)
    return reference_dump, lint_counters(registry)


class TestParity:
    @pytest.mark.parametrize("jobs", [0, 2])
    @pytest.mark.parametrize("batch_size", [1, 3, 100])
    @pytest.mark.parametrize("backend", ["sqlite", "sqlite-bulk", "memory"])
    def test_matches_serial(self, workload, reference, registry, tmp_path,
                            jobs, batch_size, backend):
        if backend == "memory":
            warehouse = InMemoryWarehouse()
        else:
            warehouse = SqliteWarehouse(
                str(tmp_path / "w.sqlite"), bulk=(backend == "sqlite-bulk")
            )
        ingest_dataset(
            warehouse, workload, jobs=jobs, batch_size=batch_size, labels=True
        )
        reference_dump, reference_lint = reference
        assert dump(warehouse) == reference_dump
        assert lint_counters(registry) == reference_lint

    def test_parallel_ingestion_is_deterministic(self, workload, tmp_path):
        dumps = []
        for attempt in range(2):
            warehouse = SqliteWarehouse(
                str(tmp_path / ("d%d.sqlite" % attempt)), bulk=True
            )
            ingest_dataset(warehouse, workload, jobs=3, batch_size=2,
                           labels=True)
            dumps.append(dump(warehouse))
            warehouse.close()
        assert dumps[0] == dumps[1]

    def test_load_dataset_routes_to_pipeline(self, workload, reference,
                                             registry, tmp_path):
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        records = load_dataset(warehouse, workload, parallel=2)
        build_label_indexes(warehouse, jobs=2)
        assert dump(warehouse) == reference[0]
        assert [r.spec_id for r in records] == ["wf0", "wf1", "wf2"]
        assert all(len(r.run_ids) == 4 for r in records)

    def test_process_pool_smoke(self, tmp_path):
        items = small_workload(n_specs=1, n_runs=2)
        serial = InMemoryWarehouse()
        load_dataset(serial, items)
        pooled = InMemoryWarehouse()
        ingest_dataset(pooled, items, jobs=2, pool="process")
        assert dump(pooled) == dump(serial)

    def test_run_against_wrong_spec_rejected(self):
        items = small_workload(n_specs=2, n_runs=1)
        (spec_a, runs_a), (_spec_b, runs_b) = items
        warehouse = InMemoryWarehouse()
        with pytest.raises(WarehouseError, match="does not match stored spec"):
            ingest_dataset(warehouse, [(spec_a, runs_a + runs_b)])


class TestStrictGate:
    def dup_workload(self):
        """Three runs; the second gets a second producer for one data id.

        ``add_edge`` enforces single producers at construction time, so
        the defect is injected on the edge attributes directly — the
        corruption the RUN012 lint rule exists to catch.  The run still
        passes ``validate()`` (which checks structure, not data ids), so
        only the lint gate stands between it and the warehouse — on both
        ingestion paths.
        """
        spec = linear_spec(2, name="gated")
        simulations = [simulate(spec, rng=random.Random(s)) for s in (1, 2, 3)]
        bad = simulations[1].run
        graph = bad._graph
        graph.edges["S1", "S2"]["data"].add("zz_dup")
        graph.edges["S2", "output"]["data"].add("zz_dup")
        return spec, simulations

    def test_strict_rejects_and_aborts_the_batch(self, tmp_path):
        spec, simulations = self.dup_workload()
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        with pytest.raises(LintGateError, match="RUN012"):
            ingest_dataset(warehouse, [(spec, simulations)], strict=True,
                           batch_size=2)
        # Batch 1 was [run1, run2]: gated as a unit, nothing stored.
        assert warehouse.list_runs() == []

    def test_strict_keeps_earlier_batches(self, tmp_path):
        spec, simulations = self.dup_workload()
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        with pytest.raises(LintGateError, match="run 'run1'"):
            ingest_dataset(warehouse, [(spec, simulations)], strict=True,
                           batch_size=1)
        assert warehouse.list_runs() == ["gated/run1"]

    def test_non_strict_stores_the_flagged_run(self, registry, tmp_path):
        spec, simulations = self.dup_workload()
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        ingest_dataset(warehouse, [(spec, simulations)], batch_size=2)
        assert len(warehouse.list_runs()) == 3
        assert registry.counter("lint.RUN012").value == 1

    def test_invalid_run_raises_like_store_run(self, tmp_path):
        """A run failing validate() is rejected after the lint gate."""
        spec = linear_spec(2, name="gated")
        simulations = [simulate(spec, rng=random.Random(s)) for s in (1, 2)]
        orphan = simulations[1].run
        orphan._steps["s99"] = Step("s99", "M1")
        orphan._graph.add_node("s99")  # unreachable: validate() rejects
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        with pytest.raises(RunError, match="unreachable"):
            ingest_dataset(warehouse, [(spec, simulations)], batch_size=1)
        assert warehouse.list_runs() == ["gated/run1"]


class TestStoreMany:
    def prepared(self, spec, result, run_id):
        from repro.warehouse.pipeline import _PrepareTask

        return prepare_run(_PrepareTask(
            run=result.run, spec_id=spec.name, run_id=run_id,
        ))

    def workload_prepared(self, n=3):
        spec = linear_spec(2, name="bulk")
        results = [simulate(spec, rng=random.Random(s)) for s in range(n)]
        return spec, [
            self.prepared(spec, result, "bulk/run%d" % (i + 1))
            for i, result in enumerate(results)
        ]

    @pytest.mark.parametrize("make", [
        lambda tmp_path: SqliteWarehouse(str(tmp_path / "w.sqlite")),
        lambda _tmp_path: InMemoryWarehouse(),
    ])
    def test_duplicate_id_aborts_whole_batch(self, tmp_path, make):
        spec, prepared = self.workload_prepared()
        warehouse = make(tmp_path)
        warehouse.store_spec(spec)
        prepared[2].run_id = prepared[0].run_id
        with pytest.raises(WarehouseError, match="already stored"):
            warehouse.store_many(prepared)
        assert warehouse.list_runs() == []

    def test_unknown_spec_rejected(self):
        _spec, prepared = self.workload_prepared(n=1)
        warehouse = InMemoryWarehouse()
        with pytest.raises(WarehouseError):
            warehouse.store_many(prepared)

    def test_empty_batch_is_a_noop(self):
        assert InMemoryWarehouse().store_many([]) == []

    def test_base_default_refuses(self):
        class _NoBulk:
            pass

        with pytest.raises(NotImplementedError, match="store_run"):
            ProvenanceWarehouse.store_many(
                _NoBulk(), [PreparedRun("r", "s", "r")]
            )

    def test_never_consults_auto_index(self, tmp_path):
        """store_many is a row primitive: it persists labels only when the
        pipeline prepared them."""
        spec, prepared = self.workload_prepared(n=1)
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        warehouse.store_spec(spec)
        warehouse.store_many(prepared)
        assert prepared[0].labels is None
        assert not warehouse.has_label_index(prepared[0].run_id)


class TestBulkPragmas:
    def synchronous(self, warehouse):
        return warehouse._conn.execute("PRAGMA synchronous").fetchone()[0]

    def io_indexes(self, warehouse):
        return sorted(row[0] for row in warehouse._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
            " AND name LIKE 'io_by_%'"
        ))

    def test_profiles(self, tmp_path):
        service = SqliteWarehouse(str(tmp_path / "service.sqlite"))
        assert self.synchronous(service) == 1  # NORMAL
        bulk = SqliteWarehouse(str(tmp_path / "bulk.sqlite"), bulk=True)
        assert self.synchronous(bulk) == 0  # OFF

    def test_store_many_restores_normal(self, tmp_path):
        spec = linear_spec(1, name="bulk")
        result = simulate(spec, rng=random.Random(1))
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        load_dataset(warehouse, [(spec, [result])], batch_size=8)
        assert self.synchronous(warehouse) == 1

    def test_bulk_load_defers_io_indexes(self, tmp_path):
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"), bulk=True)
        assert self.io_indexes(warehouse) == ["io_by_data", "io_by_step"]
        with warehouse.bulk_load():
            assert self.io_indexes(warehouse) == []
        assert self.io_indexes(warehouse) == ["io_by_data", "io_by_step"]

    def test_bulk_load_restores_indexes_on_error(self, tmp_path):
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"), bulk=True)
        with pytest.raises(RuntimeError):
            with warehouse.bulk_load():
                raise RuntimeError("mid-ingestion crash")
        assert self.io_indexes(warehouse) == ["io_by_data", "io_by_step"]

    def test_service_profile_keeps_indexes_live(self, tmp_path):
        warehouse = SqliteWarehouse(str(tmp_path / "w.sqlite"))
        with warehouse.bulk_load():
            assert self.io_indexes(warehouse) == ["io_by_data", "io_by_step"]


class TestBuildLineageIndexes:
    def loaded(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        warehouse = SqliteWarehouse(str(directory / "w.sqlite"))
        load_dataset(warehouse, small_workload(n_specs=2, n_runs=3))
        return warehouse

    def test_parallel_matches_serial(self, tmp_path):
        parallel = self.loaded(tmp_path / "p")
        serial = self.loaded(tmp_path / "s")
        counts = build_label_indexes(parallel, jobs=3)
        for run_id in serial.list_runs():
            serial.build_label_index(run_id)
            assert counts[run_id] == serial.label_row_count(run_id)
            assert (parallel.label_rows_raw(run_id)
                    == serial.label_rows_raw(run_id))

    def test_skips_indexed_unless_rebuild(self, tmp_path):
        warehouse = self.loaded(tmp_path)
        first = warehouse.list_runs()[0]
        warehouse.build_label_index(first)
        counts = build_label_indexes(warehouse, jobs=2)
        assert set(counts) == set(warehouse.list_runs())
        rebuilt = build_label_indexes(warehouse, [first], jobs=2,
                                        rebuild=True)
        assert rebuilt[first] == counts[first]


class TestFreshId:
    def test_checks_membership_only(self):
        existing = {"a", "b"}
        assert ProvenanceWarehouse._fresh_id("c", "d", existing) == "c"
        assert ProvenanceWarehouse._fresh_id(None, "d", existing) == "d"
        with pytest.raises(WarehouseError, match="already stored"):
            ProvenanceWarehouse._fresh_id("a", "d", existing)


class TestCli:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        main(["generate", "--class", "Class2", "--seed", "5", "--name",
              "cli-wf", "--out", str(path)])
        return str(path)

    def test_load_jobs_batch_matches_serial(self, tmp_path, spec_path,
                                            capsys):
        serial_db = str(tmp_path / "serial.sqlite")
        piped_db = str(tmp_path / "piped.sqlite")
        assert main(["load", "--db", serial_db, "--spec", spec_path,
                     "--runs", "3", "--seed", "9", "--index"]) == 0
        assert main(["load", "--db", piped_db, "--spec", spec_path,
                     "--runs", "3", "--seed", "9", "--index",
                     "--jobs", "2", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "cli-wf/run3" in out
        with SqliteWarehouse(serial_db) as serial, \
                SqliteWarehouse(piped_db) as piped:
            assert dump(piped) == dump(serial)

    def test_index_build_all_jobs(self, tmp_path, spec_path, capsys):
        db = str(tmp_path / "w.sqlite")
        main(["load", "--db", db, "--spec", spec_path, "--runs", "2"])
        capsys.readouterr()
        assert main(["index", "build", "--db", db, "--all",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "labeled cli-wf/run1" in out
        assert "labeled cli-wf/run2" in out
        with SqliteWarehouse(db) as warehouse:
            assert all(warehouse.has_label_index(run_id)
                       for run_id in warehouse.list_runs())
