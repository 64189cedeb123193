"""Provenance warehouse: relational storage with a recursive closure.

Interchangeable backends implement the same interface: a pure-Python
in-memory store, a SQLite store whose deep-provenance query uses a
recursive common table expression (the stdlib analogue of the Oracle
``CONNECT BY`` queries in the paper's prototype), and a sharded
federation of SQLite files.  Each persists one reachability index, the
compact labels of :mod:`repro.provenance.labels`
(``build_label_index`` / ``lineage_labels``).
"""

from .base import ProvenanceWarehouse, StreamState
from .jsonfile import (
    dump_warehouse,
    load_warehouse,
    restore_warehouse,
    save_warehouse,
)
from .loader import LoadedSpec, load_dataset, load_simulation, load_spec
from .memory import InMemoryWarehouse
from .pipeline import (
    PreparedRun,
    build_label_indexes,
    ingest_dataset,
    prepare_run,
)
from .recovery import (
    JOURNAL_COMMITTED,
    JOURNAL_PENDING,
    JournalEntry,
    QuarantineRecord,
    RecoveryReport,
    checksum_stored_run,
    recover,
    retry_quarantined,
    run_checksum,
)
from .schema import DIR_IN, DIR_OUT, SQLITE_DDL, SQLITE_DEEP_PROVENANCE
from .sharded import (
    DEFAULT_SHARD_COUNT,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ROUTERS,
    ShardedWarehouse,
    hash_router,
    spec_router,
)
from .sqlite import SqliteWarehouse
from .streaming import StreamingIngestor, chunk_log, stream_log
from .stats import (
    RunStats,
    WarehouseReport,
    hottest_modules,
    module_execution_counts,
    run_stats,
    runs_executing_module,
    warehouse_report,
)

__all__ = [
    "DEFAULT_SHARD_COUNT",
    "DIR_IN",
    "DIR_OUT",
    "InMemoryWarehouse",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ROUTERS",
    "JOURNAL_COMMITTED",
    "JOURNAL_PENDING",
    "JournalEntry",
    "LoadedSpec",
    "PreparedRun",
    "ProvenanceWarehouse",
    "QuarantineRecord",
    "RecoveryReport",
    "RunStats",
    "SQLITE_DDL",
    "SQLITE_DEEP_PROVENANCE",
    "ShardedWarehouse",
    "SqliteWarehouse",
    "StreamState",
    "StreamingIngestor",
    "WarehouseReport",
    "build_label_indexes",
    "checksum_stored_run",
    "chunk_log",
    "dump_warehouse",
    "hash_router",
    "hottest_modules",
    "ingest_dataset",
    "load_dataset",
    "load_simulation",
    "load_spec",
    "load_warehouse",
    "module_execution_counts",
    "prepare_run",
    "recover",
    "restore_warehouse",
    "retry_quarantined",
    "run_checksum",
    "run_stats",
    "runs_executing_module",
    "save_warehouse",
    "spec_router",
    "stream_log",
    "warehouse_report",
]
