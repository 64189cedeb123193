"""Parity and chaos suite for the sharded warehouse.

The sharding facade is an optimisation, never semantics: every query
strategy, every fingerprintable byte of warehouse state and every
concurrent serving answer must be identical to what the single-file
backend produces — and when one shard crashes mid-ingest, ``recover()``
plus a resumed load must converge the whole federation to exactly the
contents of an uninterrupted load.
"""

from __future__ import annotations

import random
import threading
import time
from typing import List, Tuple

import pytest

from repro.core.builder import build_user_view
from repro.core.composite import CompositeRun
from repro.core.view import admin_view, blackbox_view
from repro.faults import FaultPlan, InjectedCrash
from repro.provenance.queries import deep_provenance
from repro.provenance.reasoner import ProvenanceReasoner
from repro.serve import AdmissionError, QueryService
from repro.warehouse.loader import load_dataset
from repro.warehouse.recovery import checksum_stored_run, recover
from repro.warehouse.sharded import ShardedWarehouse
from repro.warehouse.sqlite import SqliteWarehouse
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
from repro.workloads.generator import generate_workflow
from repro.workloads.runs import generate_run

STRATEGIES = ("cached", "uncached", "labeled")


def workload(n_specs=2, n_runs=4, size=10, seed=17):
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


def fingerprint(warehouse):
    """Backend-independent observable state (see ``test_recovery``)."""
    return {
        "specs": sorted(warehouse.list_specs()),
        "views": sorted(warehouse.list_views()),
        "runs": {
            run_id: checksum_stored_run(warehouse, run_id)
            for run_id in warehouse.list_runs()
        },
        "journal": {
            entry.run_id: (entry.state, entry.checksum)
            for entry in warehouse.journal_entries()
        },
        "quarantine": warehouse.quarantine_list(),
    }


def canonical(answer) -> str:
    """A byte-stable serialisation of a provenance answer."""
    if isinstance(answer, tuple):
        return repr(answer)
    rows = answer.sorted_rows()
    return repr([(r.step_id, r.module, r.data_in) for r in rows])


class TestFingerprintParity:
    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_sharded_equals_single_file(self, tmp_path, batch_size):
        items = workload()
        single = SqliteWarehouse(str(tmp_path / "single.db"))
        sharded = ShardedWarehouse(str(tmp_path / "fed"), shards=4)
        try:
            load_dataset(single, items, batch_size=batch_size)
            load_dataset(sharded, items, batch_size=batch_size)
            assert fingerprint(sharded) == fingerprint(single)
        finally:
            single.close()
            sharded.close()

    def test_fingerprint_survives_reopen(self, tmp_path):
        items = workload(n_specs=1)
        directory = str(tmp_path / "fed")
        with ShardedWarehouse(directory, shards=3) as warehouse:
            load_dataset(warehouse, items, batch_size=2)
            before = fingerprint(warehouse)
        with ShardedWarehouse(directory) as reopened:
            assert fingerprint(reopened) == before


class TestStrategyParity:
    def test_all_strategies_byte_identical_on_sharded(self, tmp_path):
        """Every strategy on the federation equals the reference semantics
        of ``provenance/queries.py`` under UAdmin, UBio and UBlackBox."""
        items = workload(n_specs=1, n_runs=3)
        spec = items[0][0]
        relevant = sorted(spec.modules)[:2]
        views = (None, build_user_view(spec, relevant), blackbox_view(spec))

        single = SqliteWarehouse(str(tmp_path / "single.db"))
        sharded = ShardedWarehouse(str(tmp_path / "fed"), shards=4)
        try:
            load_dataset(single, items)
            load_dataset(sharded, items)
            reasoners = [
                ProvenanceReasoner(sharded, strategy=s) for s in STRATEGIES
            ]
            for run_id in sharded.list_runs():
                run = single.get_run(run_id)
                for view in views:
                    induced = CompositeRun(run, view or admin_view(spec))
                    for target in sorted(sharded.final_outputs(run_id)):
                        expected = canonical(deep_provenance(induced, target))
                        for strategy, reasoner in zip(STRATEGIES, reasoners):
                            got = canonical(
                                reasoner.deep(run_id, target, view=view)
                            )
                            assert got == expected, (
                                "strategy %r diverged on %s/%s"
                                % (strategy, run_id, target)
                            )
        finally:
            single.close()
            sharded.close()


class TestConcurrencyParity:
    def test_concurrent_sharded_answers_match_serial(self, tmp_path):
        items = workload(n_specs=1, n_runs=4)
        spec = items[0][0]
        view = build_user_view(spec, sorted(spec.modules)[:2])

        warehouse = ShardedWarehouse(str(tmp_path / "fed"), shards=4)
        try:
            load_dataset(warehouse, items)
            requests = []
            for run_id in warehouse.list_runs():
                output = sorted(warehouse.final_outputs(run_id))[0]
                requests.append(("deep", run_id, output, None))
                requests.append(("deep", run_id, output, view))

            serial = ProvenanceReasoner(warehouse, strategy="cached")
            reference = [
                canonical(serial.deep(rid, data_id, view=v))
                for _, rid, data_id, v in requests
            ]

            service = QueryService(warehouse, workers=4, queue_size=64)
            collected: List[Tuple[int, str]] = []
            errors: List[BaseException] = []
            lock = threading.Lock()

            def client(offset: int) -> None:
                for step in range(len(requests)):
                    index = (offset + step) % len(requests)
                    kind, rid, data_id, v = requests[index]
                    try:
                        answer = service.query(
                            kind, rid, data_id=data_id, view=v
                        )
                    except AdmissionError:
                        time.sleep(0.005)
                        answer = service.query(
                            kind, rid, data_id=data_id, view=v
                        )
                    except BaseException as exc:  # noqa: BLE001
                        with lock:
                            errors.append(exc)
                        return
                    with lock:
                        collected.append((index, canonical(answer)))

            with service:
                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "client deadlocked"

            assert not errors, errors
            assert len(collected) == 6 * len(requests)
            for index, got in collected:
                assert got == reference[index], (
                    "request %d diverged from serial reference" % index
                )
        finally:
            warehouse.close()


class TestShardChaos:
    def test_crash_on_one_shard_recovers_and_converges(self, tmp_path):
        items = workload()

        # The reference: what an uninterrupted batched load produces.
        with ShardedWarehouse(str(tmp_path / "ref"), shards=4) as ref:
            load_dataset(ref, items, batch_size=3)
            expected = fingerprint(ref)

        # The victim: one shard's writer dies mid-store_many; the other
        # shards' transactions settle independently.
        directory = str(tmp_path / "fed")
        plan = FaultPlan().crash_at("store_many.mid", hit=1)
        warehouse = ShardedWarehouse(directory, shards=4, faults=plan)
        try:
            with pytest.raises(InjectedCrash):
                load_dataset(warehouse, items, batch_size=3)
        finally:
            warehouse.close()

        # Process restart: only the files survive.  Recovery settles the
        # torn shard through ordinary routing, then the resumed load
        # skips every already-committed run.
        with ShardedWarehouse(directory) as reopened:
            report = recover(reopened)
            assert report.integrity_ok
            load_dataset(reopened, items, batch_size=3, resume=True)
            converged = fingerprint(reopened)

        assert converged == expected

    def test_other_shards_commit_despite_the_crash(self, tmp_path):
        items = workload()
        plan = FaultPlan().crash_at("store_many.mid", hit=1)
        directory = str(tmp_path / "fed")
        warehouse = ShardedWarehouse(directory, shards=4, faults=plan)
        try:
            with pytest.raises(InjectedCrash):
                load_dataset(warehouse, items, batch_size=3)
        finally:
            warehouse.close()
        with ShardedWarehouse(directory) as reopened:
            # The crash tore at most one shard's batch; the journal may
            # hold pending entries but committed runs must verify.
            for entry in reopened.journal_entries("committed"):
                assert (
                    checksum_stored_run(reopened, entry.run_id)
                    == entry.checksum
                )
