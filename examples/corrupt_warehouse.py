#!/usr/bin/env python
"""Build a deliberately corrupted SQLite provenance warehouse.

``zoom lint --db`` exists because real warehouses rot: partial ingests,
hand-edited rows, two log shippers racing each other.  This script
manufactures that rot on purpose — it stores one healthy specification,
view and run through the official API, then vandalises the database with
direct SQL so every analyzer layer (spec, run, view, warehouse) has
something to report.

Planted defects and the rules they trigger:

* a second spec whose module rows contain a duplicate, a reserved label,
  a dangling edge and an unreachable module (``SPEC001``/``SPEC002``/
  ``SPEC003``/``SPEC006``/``SPEC007``);
* a view that cites an unknown module and leaves part of the spec
  uncovered (``VIEW020``/``VIEW022``);
* a run with a data object written by two steps, a step executing an
  undeclared module, an io row for a step that does not exist, a read of
  data nothing produced and a final output that was never written
  (``WH030``–``WH034``), plus a run row pointing at a spec id that is
  not stored (``WH035``) and a stepless run (``WH037``);
* a pending ingest-journal row for a run the warehouse never received —
  the footprint of a bulk load killed between journalling and commit
  (``WH041``, torn ingest);
* a streaming run left open at rest — its producer died without
  finalizing (``WH046``) — and a second open stream whose label index
  was last maintained an epoch behind the committed rows, the footprint
  of a crash between the epoch commit and the label delta (``WH047``).

With ``--sharded`` the script instead vandalises a sharded federation:
a healthy spec-routed load whose runs all pile onto one shard
(``WH045``, imbalance), one shard file deleted outright and a stray
undeclared shard file planted next to the manifest (``WH044`` both
ways).

Usage::

    python examples/corrupt_warehouse.py [path.sqlite]
    python examples/corrupt_warehouse.py --sharded [directory]

Prints the path it wrote; lint it with::

    zoom lint --db corrupt.sqlite
    zoom lint --db corrupt.sqlite --strict   # exit code 1
    zoom lint --db corrupt-fed               # WH044 + WH045
    zoom shard status --db corrupt-fed       # the CLI view of the same
"""

from __future__ import annotations

import os
import random
import sqlite3
import sys

from repro.core.spec import INPUT, OUTPUT, WorkflowSpec
from repro.core.view import UserView
from repro.run.executor import simulate
from repro.run.log import EventLog
from repro.warehouse.sqlite import SqliteWarehouse
from repro.warehouse.streaming import StreamingIngestor, chunk_log


def build(path: str) -> str:
    """Write the corrupted warehouse to ``path`` and return ``path``."""
    warehouse = SqliteWarehouse(path)

    # A healthy baseline first: corruption is only interesting when it
    # sits next to rows that are fine.
    spec = WorkflowSpec(
        modules=["A", "B", "C"],
        edges=[(INPUT, "A"), ("A", "B"), ("B", "C"), ("C", OUTPUT)],
        name="healthy",
    )
    spec_id = warehouse.store_spec(spec, spec_id="healthy")
    warehouse.store_view(
        UserView(spec, {"P": {"A", "B"}, "Q": {"C"}}, name="ok-view"),
        spec_id,
        view_id="healthy/ok-view",
    )
    warehouse.store_run(simulate(spec).run, spec_id, run_id="healthy/run1")

    # Two streaming runs, appended through the official protocol but
    # never finalized — the footprint of producers that died mid-run.
    ingestor = StreamingIngestor(warehouse)
    for run_id in ("healthy/stream1", "healthy/stream2"):
        log = EventLog()
        log.user_input("d0")
        log.start("st1", "A")
        log.read("st1", "d0")
        log.write("st1", "d1")
        ingestor.open_run(run_id, spec_id)
        for chunk in chunk_log(log):
            ingestor.ingest_events(run_id, chunk)
    # stream2 additionally carries a label index, so winding its delta
    # watermark back (below) makes the labels verifiably stale.
    warehouse.build_label_index("healthy/stream2")
    warehouse.close()

    # Now the vandalism, straight into the tables.
    db = sqlite3.connect(path)
    with db:
        # -- spec layer: "mangled" has a reserved label, a duplicate
        #    module row, a dangling edge and modules off the input/output
        #    path.
        db.execute("INSERT INTO spec VALUES ('mangled', 'mangled')")
        db.executemany(
            "INSERT INTO module VALUES ('mangled', ?)",
            [("X",), ("Y",), ("input",)],
        )
        # The (spec_id, module) primary key forbids duplicate rows, so the
        # duplicate label hides in the edge set instead — lint reads both.
        db.executemany(
            "INSERT INTO spec_edge VALUES ('mangled', ?, ?)",
            [
                (INPUT, "X"),
                ("X", OUTPUT),
                ("X", "ghost"),      # dangling: 'ghost' is not a module
                ("Y", "Y"),          # self-loop, and Y is unreachable
            ],
        )

        # -- view layer: overlapping composites, a cited module that the
        #    spec does not declare, and 'C' left uncovered.
        db.execute(
            "INSERT INTO view_def VALUES ('healthy/bad-view', 'healthy', 'bad-view')"
        )
        db.executemany(
            "INSERT INTO view_member VALUES ('healthy/bad-view', ?, ?)",
            [
                ("P", "A"),
                ("Q", "B"),
                ("R", "phantom"),    # unknown module
            ],
        )
        # (Overlapping composites — VIEW021 — cannot be planted here: the
        # (view_id, module) primary key rules them out, which is itself a
        # nice property of the schema.)

        # -- run/warehouse layer: one run, many sins.
        db.execute("INSERT INTO run_def VALUES ('healthy/bad-run', 'healthy')")
        db.executemany(
            "INSERT INTO step VALUES ('healthy/bad-run', ?, ?)",
            [("s1", "A"), ("s2", "B"), ("s3", "imposter")],  # WH031
        )
        db.executemany(
            "INSERT INTO io VALUES ('healthy/bad-run', ?, ?, ?)",
            [
                ("s1", "d1", "out"),
                ("s2", "d1", "out"),        # WH030: two producers
                ("s2", "d_missing", "in"),  # WH033: read, never produced
                ("s9", "d2", "out"),        # WH032: step 's9' not declared
            ],
        )
        db.execute(
            "INSERT INTO final_output VALUES ('healthy/bad-run', 'd_final')"
        )  # WH034: never produced

        # -- a run whose spec row dangles (WH035) and that has no steps
        #    at all (WH037).
        db.execute("INSERT INTO run_def VALUES ('lost/run', 'no-such-spec')")

        # -- a torn ingest (WH041): the journal promised 'healthy/run9'
        #    but the load died before the batch committed.
        db.execute(
            "INSERT INTO _ingest_journal VALUES"
            " ('healthy/run9', 'healthy', 'deadbeef', 1, 'pending')"
        )

        # -- abandoned streams (WH046): both open-run rows are aged an
        #    hour so the default --open-run-age of 0 and any realistic
        #    threshold both flag them.
        db.execute(
            "UPDATE _stream_state SET opened_at = opened_at - 3600"
        )
        # -- a trailing index watermark (WH047): the epoch committed but
        #    the crash hit before the incremental index maintenance, so
        #    stream2's lineage index still answers for the epoch before.
        db.execute(
            "UPDATE _stream_state SET delta_epoch = epoch - 1"
            " WHERE run_id = 'healthy/stream2'"
        )
    db.close()
    return path


def build_sharded(directory: str) -> str:
    """Write a corrupted sharded federation to ``directory``.

    The damage is the kind ``WH044``/``WH045`` exist for: a healthy
    load first (through the official API), then one shard file deleted,
    one stray shard file planted, and a routing choice that piles every
    run onto a single shard.
    """
    from repro.warehouse.loader import load_dataset
    from repro.warehouse.sharded import ShardedWarehouse
    from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES
    from repro.workloads.generator import generate_workflow
    from repro.workloads.runs import generate_run

    # Spec-affinity routing with one dominant workflow: every run of
    # 'hotspot' lands on the same shard, which is exactly the skew WH045
    # warns about.
    rng = random.Random(44)
    generated = generate_workflow(
        WORKFLOW_CLASSES["Class2"], rng, target_size=10, name="hotspot"
    )
    runs = [
        generate_run(generated.spec, RUN_CLASSES["small"], rng,
                     run_id="r%d" % n)
        for n in range(36)
    ]
    warehouse = ShardedWarehouse(directory, shards=4, router="spec")
    load_dataset(warehouse, [(generated.spec, runs)])
    warehouse.close()

    # WH044, missing flavour: a shard file the manifest still declares.
    busy = ShardedWarehouse(directory)
    victim = next(
        index for index, count in busy.runs_per_shard().items() if count == 0
    )
    busy.close()
    os.remove(os.path.join(directory, "shard-%03d.db" % victim))
    # WH044, extra flavour: a shard file the router never consults.
    with open(os.path.join(directory, "shard-099.db"), "wb"):
        pass
    return directory


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "--sharded":
        print(build_sharded(args[1] if len(args) > 1 else "corrupt-fed"))
        return 0
    path = args[0] if args else "corrupt.sqlite"
    print(build(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
