"""Warehouse-layer lint rules (``WH0xx``) and the at-rest audit.

:func:`lint_warehouse` sweeps every stored artifact through the raw-row
accessors of :class:`~repro.warehouse.base.ProvenanceWarehouse` —
``spec_rows``, ``view_rows`` and the step/io primitives — so a corrupted
database is *audited*, not merely crashed into:

* stored spec rows run through the ``SPEC0xx`` payload rules,
* stored view rows run through the ``VIEW0xx`` partition rules (plus the
  loop rule when the view still reconstructs),
* stored run rows get the relational-integrity ``WH0xx`` rules below plus
  the dataflow ``RUN0xx`` rules over the same rows.

The referential-integrity rules mirror the corruption modes the paper's
Oracle warehouse guards with constraints and this reproduction's SQLite
schema cannot fully express (multi-producer data is a query-time property,
not a key).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, cast

from ..core.errors import ZoomError
from ..core.spec import INPUT
from .findings import ERROR, LAYER_WAREHOUSE, WARNING, Finding
from .registry import RULES
from .rules_run import RunFacts, lint_run_facts
from .rules_spec import lint_spec_payload
from .rules_view import lint_view, lint_view_payload

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids an import cycle
    from ..warehouse.base import ProvenanceWarehouse

RULES.register("WH030", LAYER_WAREHOUSE, ERROR,
               "io table records more than one producing step for a data"
               " object")
RULES.register("WH031", LAYER_WAREHOUSE, ERROR,
               "step row references a module absent from the spec's module"
               " table")
RULES.register("WH032", LAYER_WAREHOUSE, ERROR,
               "dangling io row: references a step the run does not declare")
RULES.register("WH033", LAYER_WAREHOUSE, ERROR,
               "io row reads a data object no row produces")
RULES.register("WH034", LAYER_WAREHOUSE, ERROR,
               "final_output row references a data object no row produces")
RULES.register("WH035", LAYER_WAREHOUSE, ERROR,
               "run references a specification the warehouse does not hold")
RULES.register("WH036", LAYER_WAREHOUSE, ERROR,
               "view references a specification the warehouse does not hold")
RULES.register("WH037", LAYER_WAREHOUSE, WARNING,
               "run has no step rows")
RULES.register("WH040", LAYER_WAREHOUSE, WARNING,
               "warehouse is missing an expected secondary index (a crashed"
               " bulk load skipped the rebuild)")
RULES.register("WH041", LAYER_WAREHOUSE, ERROR,
               "ingest journal row references a run the warehouse does not"
               " hold (torn ingest)")
RULES.register("WH043", LAYER_WAREHOUSE, ERROR,
               "materialised label index is stale or version-mismatched:"
               " stored reachability labels disagree with the run's io rows")
RULES.register("WH044", LAYER_WAREHOUSE, ERROR,
               "shard layout disagrees with the manifest: a declared shard"
               " file is missing or an undeclared one is present")
RULES.register("WH045", LAYER_WAREHOUSE, WARNING,
               "shard imbalance: one shard owns disproportionately many"
               " runs (beyond the configured skew factor)")
RULES.register("WH046", LAYER_WAREHOUSE, WARNING,
               "streaming run is still open at rest (its producer crashed"
               " or never finalized)")
RULES.register("WH047", LAYER_WAREHOUSE, ERROR,
               "streaming run's label deltas trail its committed epoch"
               " (the label index is stale)")

#: Default skew factor for :func:`lint_shard_topology` (``WH045``): the
#: busiest shard may own up to this multiple of the mean runs-per-shard
#: before the imbalance is reported.  Hash routing stays well under it;
#: spec-affinity routing with one dominant workflow trips it.
DEFAULT_SHARD_SKEW = 2.0

#: Minimum runs per shard (on average) before ``WH045`` engages — at low
#: volume even uniform hash routing shows multinomial noise well past any
#: reasonable skew factor, and a handful of runs is not an imbalance
#: worth rebalancing anyway.
SHARD_SKEW_MIN_RUNS_PER_SHARD = 8

#: Default age (seconds since ``opened_at``) before ``WH046`` reports an
#: open streaming run.  Zero flags *every* open run — right for an
#: at-rest audit, where no producer can still be appending; raise it
#: (``--open-run-age``) when auditing a warehouse with live producers.
DEFAULT_OPEN_RUN_AGE = 0.0


def lint_run_rows(
    run_id: str,
    steps: Sequence[Tuple[str, str]],
    io_rows: Sequence[Tuple[str, str, str]],
    user_inputs: Sequence[str],
    final_outputs: Sequence[str],
    spec_modules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Relational-integrity rules over one run's raw rows."""
    findings: List[Finding] = []
    step_ids = {step_id for step_id, _module in steps}

    if not steps:
        findings.append(RULES.finding(
            "WH037", run_id,
            "run has no step rows",
            hint="an ingested run should carry at least one step",
        ))

    if spec_modules is not None:
        for step_id, module in sorted(steps):
            if module not in spec_modules:
                findings.append(RULES.finding(
                    "WH031", run_id,
                    "step %r references module %r absent from the module"
                    " table" % (step_id, module),
                    location=step_id,
                    hint="the step and module tables disagree; re-ingest"
                         " the run",
                ))

    producers: Dict[str, List[str]] = {}
    reads: List[Tuple[str, str]] = []
    for step_id, data_id, direction in io_rows:
        if step_id not in step_ids:
            findings.append(RULES.finding(
                "WH032", run_id,
                "io row (%s, %s, %s) references an undeclared step"
                % (step_id, data_id, direction),
                location=step_id,
                hint="delete the orphan row or restore the step row",
            ))
        if direction == "out":
            producers.setdefault(data_id, []).append(step_id)
        else:
            reads.append((step_id, data_id))

    produced = set(producers) | set(user_inputs)
    for data_id, writers in sorted(producers.items()):
        distinct = sorted(set(writers))
        if len(distinct) > 1 or data_id in set(user_inputs):
            owners = distinct + ([INPUT] if data_id in set(user_inputs) else [])
            findings.append(RULES.finding(
                "WH030", run_id,
                "data %r has %d producers (%s)"
                % (data_id, len(owners), ", ".join(owners)),
                location=data_id,
                hint="deep provenance over multi-producer data is"
                     " ill-defined; repair the io table",
            ))

    for _step_id, data_id in sorted(set(reads)):
        if data_id not in produced:
            findings.append(RULES.finding(
                "WH033", run_id,
                "io row reads %r which no out-row or user input produces"
                % data_id,
                location=data_id,
                hint="restore the producing out-row or the user_input row",
            ))

    for data_id in sorted(final_outputs):
        if data_id not in produced:
            findings.append(RULES.finding(
                "WH034", run_id,
                "final output %r is produced by no io row" % data_id,
                location=data_id,
                hint="restore the producing out-row or drop the"
                     " final_output row",
            ))
    return findings


def lint_warehouse(
    warehouse: ProvenanceWarehouse,
    spec_ids: Optional[Sequence[str]] = None,
    run_ids: Optional[Sequence[str]] = None,
    check_minimality: bool = False,
    shard_skew_factor: float = DEFAULT_SHARD_SKEW,
    open_run_age: float = DEFAULT_OPEN_RUN_AGE,
) -> List[Finding]:
    """Audit every artifact a warehouse holds (optionally narrowed).

    ``check_minimality`` is accepted for signature parity with the view
    linter but stored views carry no relevant set, so only the structural
    view rules apply here.
    """
    del check_minimality  # stored views have no relevant set to check
    findings: List[Finding] = []
    selected_specs = list(spec_ids) if spec_ids is not None else warehouse.list_specs()

    spec_modules: Dict[str, Set[str]] = {}
    spec_payloads: Dict[str, Dict[str, object]] = {}
    for spec_id in selected_specs:
        try:
            payload = warehouse.spec_rows(spec_id)
        except ZoomError:
            continue  # unknown spec id: nothing to audit
        spec_payloads[spec_id] = payload
        spec_modules[spec_id] = {
            m for m in payload.get("modules", []) if isinstance(m, str)
        }
        findings.extend(lint_spec_payload(payload))

    for view_id in warehouse.list_views():
        try:
            view_spec_id, name, composites = warehouse.view_rows(view_id)
        except ZoomError:
            continue
        if spec_ids is not None and view_spec_id not in selected_specs:
            continue
        if view_spec_id not in spec_modules:
            try:
                modules = set(warehouse.spec_rows(view_spec_id).get("modules", []))
            except ZoomError:
                findings.append(RULES.finding(
                    "WH036", view_id,
                    "view references unknown spec %r" % view_spec_id,
                    hint="store the specification first or drop the view",
                ))
                continue
            spec_modules[view_spec_id] = {
                m for m in modules if isinstance(m, str)
            }
        payload_findings = lint_view_payload(
            view_id, composites, frozenset(spec_modules[view_spec_id])
        )
        findings.extend(payload_findings)
        if not payload_findings:
            try:
                view = warehouse.get_view(view_id)
            except ZoomError:
                view = None
            if view is not None:
                findings.extend(lint_view(view, relevant=None))

    selected_runs = list(run_ids) if run_ids is not None else warehouse.list_runs()
    for run_id in selected_runs:
        try:
            run_spec_id = warehouse.run_spec_id(run_id)
        except ZoomError:
            continue
        if spec_ids is not None and run_spec_id not in selected_specs:
            continue
        modules = spec_modules.get(run_spec_id)
        if modules is None and run_spec_id not in spec_payloads:
            try:
                payload = warehouse.spec_rows(run_spec_id)
                modules = {
                    m for m in payload.get("modules", [])
                    if isinstance(m, str)
                }
                spec_modules[run_spec_id] = modules
            except ZoomError:
                findings.append(RULES.finding(
                    "WH035", run_id,
                    "run references unknown spec %r" % run_spec_id,
                    hint="store the specification first or drop the run",
                ))
        steps = warehouse.steps_of_run(run_id)
        io_rows = warehouse.io_rows(run_id)
        user_inputs = sorted(warehouse.user_inputs(run_id))
        final_outputs = sorted(warehouse.final_outputs(run_id))
        findings.extend(lint_run_rows(
            run_id, steps, io_rows, user_inputs, final_outputs,
            spec_modules=modules,
        ))
        facts = RunFacts.from_rows(
            run_id, list(steps), list(io_rows),
            frozenset(user_inputs), frozenset(final_outputs),
        )
        payload = spec_payloads.get(run_spec_id)
        if payload is not None:
            facts.attach_spec(
                spec_modules.get(run_spec_id, set()),
                [tuple(e) for e in payload.get("edges", [])],
            )
        # Keep only the dataflow rules with no WH0xx counterpart: the
        # integrity concepts (multi-producer, unknown module, dangling
        # rows, unproduced reads/finals) were already reported at rest.
        dataflow_only = {"RUN015", "RUN018", "RUN019"}
        findings.extend(
            f for f in lint_run_facts(facts) if f.rule_id in dataflow_only
        )
        findings.extend(lint_label_index(
            warehouse, run_id, steps, io_rows, user_inputs,
        ))

    if spec_ids is None and run_ids is None:
        # Warehouse-wide physical checks only make sense on a full sweep;
        # a narrowed audit should not drag in unrelated findings.
        findings.extend(lint_integrity(warehouse))
        findings.extend(lint_ingest_journal(warehouse))
        findings.extend(
            lint_shard_topology(warehouse, skew_factor=shard_skew_factor)
        )
        findings.extend(
            lint_stream_states(warehouse, open_run_age=open_run_age)
        )
    return findings


def lint_integrity(warehouse: ProvenanceWarehouse) -> List[Finding]:
    """``WH040``: expected secondary indexes the warehouse does not hold.

    ``bulk_load()`` drops the ``io`` secondary indexes for the duration of
    a bulk ingestion and rebuilds them in a ``finally`` — but a hard kill
    skips ``finally``.  The startup probe repairs this on the next open;
    this rule reports the live state in between (and on backends opened
    without the probe), because every deep-provenance query silently
    degrades to full scans while an index is missing.
    """
    report = warehouse.integrity_report()
    missing = cast("Sequence[str]", report.get("missing_indexes") or ())
    findings = [
        RULES.finding(
            "WH040", str(name),
            "expected secondary index %r is missing" % str(name),
            hint="run 'zoom recover' (or reopen the database) to rebuild it",
        )
        for name in missing
    ]
    if not report.get("ok", True):
        findings.append(RULES.finding(
            "WH040", "quick_check",
            "PRAGMA quick_check reports physical corruption",
            hint="restore from backup or re-ingest into a fresh database",
        ))
    return findings


def lint_ingest_journal(warehouse: ProvenanceWarehouse) -> List[Finding]:
    """``WH041``: journal rows whose run the warehouse does not hold.

    The ingest journal records every run a bulk load intended to store; a
    row with no matching ``run_def`` means the load tore — it crashed
    after journalling but before (or during) the batch commit.  The data
    is not corrupt, but the warehouse is *incomplete* relative to its own
    manifest.
    """
    try:
        entries = warehouse.journal_entries()
    except ZoomError:
        return []
    if not entries:
        return []
    present = set(warehouse.list_runs())
    return [
        RULES.finding(
            "WH041", entry.run_id,
            "ingest journal holds a %s entry for run %r which the"
            " warehouse does not hold (torn ingest)"
            % (entry.state, entry.run_id),
            hint="run 'zoom recover', then re-load the dataset with"
                 " --resume to ingest the missing runs",
        )
        for entry in entries
        if entry.run_id not in present
    ]


def lint_stream_states(
    warehouse: ProvenanceWarehouse,
    open_run_age: float = DEFAULT_OPEN_RUN_AGE,
    now: Optional[float] = None,
) -> List[Finding]:
    """``WH046``/``WH047``: open streaming runs and trailing label deltas.

    ``WH046`` (warning) fires for every run still open for streaming
    appends whose ``opened_at`` is at least ``open_run_age`` seconds old
    — at rest that means the producer died (or forgot to finalize): the
    stored rows are a consistent prefix, but the run will never converge
    on its own.  Resume the stream (``open_run(resume=True)``) or
    finalize it.

    ``WH047`` (error) fires when a run's ``delta_epoch`` watermark
    trails its committed epoch while a label index is materialised: the
    epoch's rows committed but the crash hit before the incremental
    label maintenance ran, so the labels answer with the previous
    epoch's reachability.  ``recover()`` settles this by dropping the
    stale labels for lazy rebuild.
    """
    stream_states = getattr(warehouse, "stream_states", None)
    if not callable(stream_states):
        return []
    try:
        states = stream_states()
    except ZoomError:
        return []
    if not states:
        return []
    if now is None:
        import time

        now = time.time()
    findings: List[Finding] = []
    for run_id, state in sorted(states.items()):
        age = (
            now - state.opened_at if state.opened_at is not None else None
        )
        if age is None or age >= open_run_age:
            since = (
                "" if age is None else ", open for %.0f s" % max(age, 0.0)
            )
            findings.append(RULES.finding(
                "WH046", run_id,
                "run %r is open for streaming appends at epoch %d%s —"
                " its producer is gone or never finalized"
                % (run_id, state.epoch, since),
                hint="resume the stream (StreamingIngestor.open_run(...,"
                     " resume=True)) and finalize it, or raise"
                     " --open-run-age when producers are live",
            ))
        if state.delta_epoch < state.epoch:
            try:
                indexed = warehouse.has_label_index(run_id)
            except ZoomError:
                indexed = False
            if indexed:
                findings.append(RULES.finding(
                    "WH047", run_id,
                    "run %r committed epoch %d but its labels were last"
                    " maintained at epoch %d — labeled answers are"
                    " stale" % (run_id, state.epoch, state.delta_epoch),
                    hint="run 'zoom recover' to drop the stale labels"
                         " (they rebuild lazily on the next query)",
                ))
    return findings


def lint_shard_topology(
    warehouse: ProvenanceWarehouse,
    skew_factor: float = DEFAULT_SHARD_SKEW,
) -> List[Finding]:
    """``WH044``/``WH045``: shard layout and balance of a federation.

    Only engages on warehouses exposing ``shard_health()`` (the sharded
    facade); the single-file backends have no layout to disagree with.

    ``WH044`` (error) fires when the directory disagrees with the
    manifest: a declared shard file was missing at open (the backend
    recreated it *empty*, so its runs are gone) or is missing now, or an
    undeclared ``shard-*.db`` is present (a manifest edited after the
    fact, or files copied in from another federation — either way the
    router will never look at it).

    ``WH045`` (warning) fires when the busiest shard owns more than
    ``skew_factor`` times the mean runs-per-shard (once the federation
    holds enough runs for the ratio to mean anything): ingest and
    scatter-gather latency degrade toward the single-file case because
    one writer does most of the work.
    """
    health_probe = getattr(warehouse, "shard_health", None)
    if not callable(health_probe):
        return []
    try:
        health = health_probe()
    except ZoomError:
        return []
    findings: List[Finding] = []
    declared = int(cast(int, health.get("declared", 0)))
    for name in cast("Sequence[str]", health.get("missing") or ()):
        findings.append(RULES.finding(
            "WH044", str(name),
            "manifest declares shard file %r but the directory does not"
            " hold it (its runs are unreachable)" % str(name),
            hint="restore the shard file from backup, or re-load the"
                 " dataset with --resume to re-ingest the lost runs",
        ))
    for name in cast("Sequence[str]", health.get("extra") or ()):
        findings.append(RULES.finding(
            "WH044", str(name),
            "directory holds shard file %r which the manifest (shards=%d)"
            " does not declare — the router never consults it"
            % (str(name), declared),
            hint="the manifest and directory disagree; remove the stray"
                 " file or recreate the federation with the intended"
                 " shard count",
        ))
    runs_per_shard = cast(
        "Dict[object, int]", health.get("runs_per_shard") or {}
    )
    counts = [int(c) for c in runs_per_shard.values()]
    if counts and len(counts) > 1:
        total = sum(counts)
        mean = total / len(counts)
        busiest = max(counts)
        if (
            mean >= SHARD_SKEW_MIN_RUNS_PER_SHARD
            and busiest > skew_factor * mean
        ):
            hot = max(runs_per_shard, key=lambda k: runs_per_shard[k])
            findings.append(RULES.finding(
                "WH045", "shard-%s" % hot,
                "shard %s owns %d of %d runs (%.1fx the per-shard mean of"
                " %.1f, skew factor %.1f)"
                % (hot, busiest, total, busiest / mean if mean else 0.0,
                   mean, skew_factor),
                hint="check the router (spec-affinity routing skews when"
                     " one workflow dominates); 'zoom shard"
                     " rebalance-check' quantifies a re-rout under more"
                     " shards",
            ))
    return findings


def lint_label_index(
    warehouse: ProvenanceWarehouse,
    run_id: str,
    steps: Sequence[Tuple[str, str]],
    io_rows: Sequence[Tuple[str, str, str]],
    user_inputs: Sequence[str],
) -> List[Finding]:
    """``WH043``: detect a stale or version-mismatched label index.

    The compact reachability labels are derived state, so an out-of-band
    edit to the run's rows (or an encoding change between releases)
    leaves them silently answering with the wrong reachability.  The rule
    recomputes the labels from the current rows and compares them with
    what the warehouse stores, row for row, and additionally checks the
    persisted encoding version against the library's.  Runs whose rows cannot be labeled (cycles,
    multi-producer data — already reported by other rules) are skipped
    rather than crashed into.
    """
    from ..provenance.labels import LABELS_VERSION, label_table_rows

    try:
        if not warehouse.has_label_index(run_id):
            return []
        version = warehouse.label_index_version(run_id)
    except ZoomError:
        return []
    if version != LABELS_VERSION:
        return [RULES.finding(
            "WH043", run_id,
            "label index was written with encoding version %s but the"
            " library expects %d" % (version, LABELS_VERSION),
            hint="rebuild with warehouse.build_label_index(run_id,"
                 " rebuild=True) or 'zoom index build --rebuild'",
        )]
    try:
        stored = warehouse.label_rows_raw(run_id)
        expected = label_table_rows(run_id, steps, io_rows, user_inputs)
    except ZoomError:
        return []  # rows too corrupt to label; other rules report why
    if stored == expected:
        return []
    missing = len(expected - stored)
    extra = len(stored - expected)
    return [RULES.finding(
        "WH043", run_id,
        "label index disagrees with the io rows:"
        " %d row(s) missing, %d stale" % (missing, extra),
        hint="rebuild with warehouse.build_label_index(run_id,"
             " rebuild=True) or 'zoom index build --rebuild'",
    )]
