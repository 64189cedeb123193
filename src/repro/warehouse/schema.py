"""Relational schema of the provenance warehouse (Section IV).

The paper stores workflow specifications, user-view definitions and run
logs in an Oracle warehouse.  This module fixes the analogous relational
schema used by both backends of this reproduction:

``spec(spec_id, name)``
    one row per workflow specification;
``module(spec_id, module)``
    the specification's modules;
``spec_edge(spec_id, src, dst)``
    the specification's edges (``src``/``dst`` may be ``input``/``output``);
``view_def(view_id, spec_id, name)`` and ``view_member(view_id, composite, module)``
    user-view definitions as (composite, member) pairs;
``run_def(run_id, spec_id)`` and ``step(run_id, step_id, module)``
    runs and their steps;
``io(run_id, step_id, data_id, direction)``
    the immediate-provenance relation extracted from the workflow log: one
    row per read (``direction = 'in'``) or write (``'out'``) event;
``user_input(run_id, data_id, who)`` and ``final_output(run_id, data_id)``
    the data fed into and produced by the run as a whole.

Deep provenance is the transitive closure of ``io`` — computed by the
paper with Oracle ``CONNECT BY`` and here with a SQLite ``WITH RECURSIVE``
CTE (or plain BFS in the in-memory backend).  ``lineage_labels`` and
``labels_meta`` hold the compact reachability labels of
:mod:`repro.provenance.labels`, which answer the same closure without
recursion.
"""

from __future__ import annotations

from typing import Tuple

#: ``direction`` value for a step reading a data object.
DIR_IN = "in"

#: ``direction`` value for a step writing a data object.
DIR_OUT = "out"

#: The secondary indexes over the ``io`` relation, by name.  Kept apart
#: from :data:`SQLITE_DDL` so the bulk loader can drop and recreate them
#: around a large ingestion (one sorted build beats per-row maintenance)
#: without duplicating the definitions.
SQLITE_IO_INDEXES: Tuple[Tuple[str, str], ...] = (
    ("io_by_data", """
    CREATE INDEX IF NOT EXISTS io_by_data
        ON io (run_id, data_id, direction, step_id)
    """),
    ("io_by_step", """
    CREATE INDEX IF NOT EXISTS io_by_step
        ON io (run_id, step_id, direction, data_id)
    """),
)

#: One-time migrations, executed before :data:`SQLITE_DDL`.  The
#: materialised pairwise lineage closure (a row table plus a per-run
#: metadata table) was retired in favour of the reachability labels;
#: files written before that lose both tables on their first open.  On
#: any other file the statements are no-ops.
SQLITE_MIGRATIONS: Tuple[str, ...] = (
    "DROP TABLE IF EXISTS lineage",
    "DROP TABLE IF EXISTS lineage_meta",
)

#: DDL creating all warehouse tables, executed once per SQLite connection.
SQLITE_DDL: Tuple[str, ...] = (
    """
    CREATE TABLE IF NOT EXISTS spec (
        spec_id TEXT PRIMARY KEY,
        name    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS module (
        spec_id TEXT NOT NULL REFERENCES spec(spec_id),
        module  TEXT NOT NULL,
        PRIMARY KEY (spec_id, module)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS spec_edge (
        spec_id TEXT NOT NULL REFERENCES spec(spec_id),
        src     TEXT NOT NULL,
        dst     TEXT NOT NULL,
        PRIMARY KEY (spec_id, src, dst)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS view_def (
        view_id TEXT PRIMARY KEY,
        spec_id TEXT NOT NULL REFERENCES spec(spec_id),
        name    TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS view_member (
        view_id   TEXT NOT NULL REFERENCES view_def(view_id),
        composite TEXT NOT NULL,
        module    TEXT NOT NULL,
        PRIMARY KEY (view_id, module)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS run_def (
        run_id  TEXT PRIMARY KEY,
        spec_id TEXT NOT NULL REFERENCES spec(spec_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS step (
        run_id  TEXT NOT NULL REFERENCES run_def(run_id),
        step_id TEXT NOT NULL,
        module  TEXT NOT NULL,
        PRIMARY KEY (run_id, step_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS io (
        run_id    TEXT NOT NULL REFERENCES run_def(run_id),
        step_id   TEXT NOT NULL,
        data_id   TEXT NOT NULL,
        direction TEXT NOT NULL CHECK (direction IN ('in', 'out')),
        PRIMARY KEY (run_id, step_id, data_id, direction)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS user_input (
        run_id  TEXT NOT NULL REFERENCES run_def(run_id),
        data_id TEXT NOT NULL,
        who     TEXT NOT NULL DEFAULT 'user',
        PRIMARY KEY (run_id, data_id)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS final_output (
        run_id  TEXT NOT NULL REFERENCES run_def(run_id),
        data_id TEXT NOT NULL,
        PRIMARY KEY (run_id, data_id)
    )
    """,
    # Free-form annotations on steps or data objects of a run — the
    # "whatever metadata information is recorded" of Section II, made
    # queryable.
    """
    CREATE TABLE IF NOT EXISTS annotation (
        run_id  TEXT NOT NULL REFERENCES run_def(run_id),
        subject TEXT NOT NULL,
        key     TEXT NOT NULL,
        value   TEXT NOT NULL,
        PRIMARY KEY (run_id, subject, key)
    )
    """,
    # The indexes the paper's "variety of indexes" experiments converged
    # on: deep provenance walks io by (run, data, direction) to find the
    # writer, then by (run, step, direction) to find that writer's reads —
    # one covering index per access path.
    SQLITE_IO_INDEXES[0][1],
    SQLITE_IO_INDEXES[1][1],
    # find_annotated probes by (run, key[, value]); the annotation PK only
    # covers the run prefix, so give the probe its own covering index.
    """
    CREATE INDEX IF NOT EXISTS annotation_by_key
        ON annotation (run_id, key, value, subject)
    """,
    # The compact reachability labels (repro.provenance.labels): one row
    # per step — interval [pre, post] over the spanning forest plus the
    # tree parent and the space-joined non-tree remainder set.  O(V) rows
    # per run — the warehouse's one persistent reachability index;
    # WITHOUT ROWID clusters a run's labels into one range scan.
    """
    CREATE TABLE IF NOT EXISTS lineage_labels (
        run_id      TEXT NOT NULL REFERENCES run_def(run_id),
        step_id     TEXT NOT NULL,
        pre         INTEGER NOT NULL,
        post        INTEGER NOT NULL,
        tree_parent TEXT NOT NULL,
        remainder   TEXT NOT NULL,
        PRIMARY KEY (run_id, step_id)
    ) WITHOUT ROWID
    """,
    # One row per labelled run: existence check plus the encoding version
    # the labels were computed under (lint rule WH043 compares it with
    # repro.provenance.labels.LABELS_VERSION).
    """
    CREATE TABLE IF NOT EXISTS labels_meta (
        run_id    TEXT PRIMARY KEY REFERENCES run_def(run_id),
        version   INTEGER NOT NULL,
        row_count INTEGER NOT NULL
    )
    """,
    # The ingest journal (repro.warehouse.recovery): one row per run a
    # bulk load intends to store, written 'pending' before the batch
    # commit and flipped to 'committed' after.  Deliberately NOT a
    # foreign key into run_def — a torn journal (pending rows whose run
    # never landed; lint rule WH041) must be representable so recovery
    # and resumed loads can see it.
    """
    CREATE TABLE IF NOT EXISTS _ingest_journal (
        run_id   TEXT PRIMARY KEY,
        spec_id  TEXT NOT NULL,
        checksum TEXT NOT NULL,
        batch    INTEGER NOT NULL,
        state    TEXT NOT NULL CHECK (state IN ('pending', 'committed'))
    )
    """,
    # Quarantined runs (ingest_dataset(on_error="quarantine")): the shaped
    # rows ride along as a JSON payload so `zoom quarantine retry` can
    # re-gate and re-store without the original workload.
    """
    CREATE TABLE IF NOT EXISTS _ingest_quarantine (
        run_id      TEXT PRIMARY KEY,
        spec_id     TEXT NOT NULL,
        reason      TEXT NOT NULL,
        event_index INTEGER,
        payload     TEXT NOT NULL
    )
    """,
    # Streaming open-run state (repro.warehouse.streaming): one row per
    # run currently being appended to.  ``epoch`` counts committed
    # appends, ``checksum`` is the cumulative run checksum *as of* that
    # epoch (what a torn append is truncated back to), ``delta_epoch``
    # is the epoch through which the label index was incrementally
    # maintained (lint rule WH047 reports it trailing), and ``opened_at`` feeds the WH046 staleness threshold.  The row is
    # deleted by finalize_run — its presence *is* the open-run marker.
    """
    CREATE TABLE IF NOT EXISTS _stream_state (
        run_id      TEXT PRIMARY KEY,
        spec_id     TEXT NOT NULL,
        epoch       INTEGER NOT NULL,
        delta_epoch INTEGER NOT NULL,
        checksum    TEXT NOT NULL,
        opened_at   REAL,
        state       TEXT NOT NULL CHECK (state IN ('open'))
    )
    """,
)

#: Every secondary index the warehouse is expected to hold when healthy —
#: what the startup integrity probe (and ``zoom recover``) verifies and
#: recreates after a kill inside ``bulk_load`` skipped the rebuild.
SQLITE_EXPECTED_INDEXES: Tuple[Tuple[str, str], ...] = SQLITE_IO_INDEXES + (
    ("annotation_by_key", """
    CREATE INDEX IF NOT EXISTS annotation_by_key
        ON annotation (run_id, key, value, subject)
    """),
)

#: Recursive deep-provenance query (the SQLite analogue of Oracle's
#: ``CONNECT BY``): starting from one data object, repeatedly join the
#: writer of each object in the lineage with that writer's reads.
#:
#: ``CROSS JOIN`` is SQLite's documented way of pinning the join order:
#: without it the planner may pick the reads table as the outer loop and
#: re-scan the whole ``io`` relation per lineage row, turning a linear
#: traversal quadratic on large runs.
SQLITE_DEEP_PROVENANCE = """
WITH RECURSIVE lineage(data_id) AS (
    VALUES (:data_id)
    UNION
    SELECT io_in.data_id
    FROM lineage
    CROSS JOIN io AS io_out
      ON io_out.run_id = :run_id
     AND io_out.data_id = lineage.data_id
     AND io_out.direction = 'out'
    CROSS JOIN io AS io_in
      ON io_in.run_id = :run_id
     AND io_in.step_id = io_out.step_id
     AND io_in.direction = 'in'
)
SELECT DISTINCT io_out.step_id, step.module, io_in.data_id
FROM lineage
CROSS JOIN io AS io_out
  ON io_out.run_id = :run_id
 AND io_out.data_id = lineage.data_id
 AND io_out.direction = 'out'
CROSS JOIN io AS io_in
  ON io_in.run_id = :run_id
 AND io_in.step_id = io_out.step_id
 AND io_in.direction = 'in'
CROSS JOIN step
  ON step.run_id = :run_id
 AND step.step_id = io_out.step_id
"""

#: Companion query: which objects in the lineage are user inputs.
SQLITE_LINEAGE_USER_INPUTS = """
WITH RECURSIVE lineage(data_id) AS (
    VALUES (:data_id)
    UNION
    SELECT io_in.data_id
    FROM lineage
    CROSS JOIN io AS io_out
      ON io_out.run_id = :run_id
     AND io_out.data_id = lineage.data_id
     AND io_out.direction = 'out'
    CROSS JOIN io AS io_in
      ON io_in.run_id = :run_id
     AND io_in.step_id = io_out.step_id
     AND io_in.direction = 'in'
)
SELECT lineage.data_id
FROM lineage
CROSS JOIN user_input
  ON user_input.run_id = :run_id
 AND user_input.data_id = lineage.data_id
"""
