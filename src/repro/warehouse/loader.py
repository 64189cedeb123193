"""Bulk loading of specifications, views and runs into a warehouse.

The ZOOM architecture (paper Fig. 8) has the system designer load workflow
specifications and view definitions, while run information arrives from
workflow logs.  This module packages those ingestion paths: one call loads
a specification together with its standard views, another loads a finished
simulation (run + log), and :func:`load_dataset` ingests a whole workload.

Every ingestion path runs the artifacts through :mod:`repro.lint` first.
By default findings only *warn*: they are counted per rule id in the
default metrics registry (``lint.<RULE_ID>`` counters) and ingestion
proceeds — the behaviour a high-volume service wants.  Passing
``strict=True`` turns the lint pass into a gate: error-severity findings
reject the artifact with :class:`~repro.lint.findings.LintGateError`
*before* anything touches the warehouse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.spec import WorkflowSpec
from ..core.view import UserView, admin_view, blackbox_view
from ..run.executor import SimulationResult
from .base import ProvenanceWarehouse


@dataclass
class LoadedSpec:
    """Identifiers returned by :func:`load_spec`."""

    spec_id: str
    view_ids: Dict[str, str] = field(default_factory=dict)
    run_ids: List[str] = field(default_factory=list)


def _linter():
    """The ingestion-gate linter (lazy import to avoid a package cycle)."""
    from ..lint import Linter

    return Linter()


def load_spec(
    warehouse: ProvenanceWarehouse,
    spec: WorkflowSpec,
    views: Optional[Mapping[str, UserView]] = None,
    spec_id: Optional[str] = None,
    with_standard_views: bool = False,
    strict: bool = False,
) -> LoadedSpec:
    """Store a specification and (optionally) a set of views.

    Parameters
    ----------
    warehouse:
        The target warehouse.
    spec:
        The specification to store.
    views:
        Mapping of view id to view; each must view ``spec``.
    spec_id:
        Explicit spec identifier (defaults to the spec name).
    with_standard_views:
        Also store the UAdmin and UBlackBox views under ids
        ``"<spec_id>/UAdmin"`` and ``"<spec_id>/UBlackBox"``.
    strict:
        Gate ingestion on the lint pass: reject the spec (or any supplied
        view) carrying error-severity findings.  The default lints but
        only counts findings in metrics.
    """
    linter = _linter()
    linter.gate(linter.lint_spec(spec), "spec %r" % spec.name, strict)
    for view_id, view in (views or {}).items():
        linter.gate(
            linter.lint_view(view), "view %r (%s)" % (view.name, view_id), strict
        )
    stored = LoadedSpec(spec_id=warehouse.store_spec(spec, spec_id=spec_id))
    if with_standard_views:
        admin = admin_view(spec)
        blackbox = blackbox_view(spec)
        for view in (admin, blackbox):
            view_id = "%s/%s" % (stored.spec_id, view.name)
            warehouse.store_view(view, stored.spec_id, view_id=view_id)
            stored.view_ids[view.name] = view_id
    for view_id, view in (views or {}).items():
        warehouse.store_view(view, stored.spec_id, view_id=view_id)
        stored.view_ids[view.name] = view_id
    return stored


def load_simulation(
    warehouse: ProvenanceWarehouse,
    result: SimulationResult,
    spec_id: str,
    run_id: Optional[str] = None,
    from_log: bool = False,
    strict: bool = False,
) -> str:
    """Store one simulated execution against an already-stored spec.

    ``from_log=True`` ingests through the event log (exercising the
    reconstruction path a real deployment would use); the default stores
    the run graph directly — both produce identical warehouse contents.
    ``strict=True`` rejects the artifact when the lint pass finds errors.
    """
    linter = _linter()
    if from_log:
        linter.gate(
            linter.lint_log(result.log, result.run.spec),
            "log %r" % result.log.run_id,
            strict,
        )
        return warehouse.store_log(result.log, spec_id, run_id=run_id)
    linter.gate(
        linter.lint_run(result.run), "run %r" % result.run.run_id, strict
    )
    return warehouse.store_run(result.run, spec_id, run_id=run_id)


def load_dataset(
    warehouse: ProvenanceWarehouse,
    items: Iterable[Tuple[WorkflowSpec, Sequence[SimulationResult]]],
    with_standard_views: bool = True,
    strict: bool = False,
    parallel: Optional[int] = None,
    batch_size: Optional[int] = None,
    resume: bool = False,
    on_error: str = "abort",
) -> List[LoadedSpec]:
    """Ingest a collection of specifications, each with its runs.

    Run ids are qualified as ``"<spec_id>/run<N>"`` so that several
    specifications can reuse the simulator's default run naming.
    ``strict`` is forwarded to every :func:`load_spec` /
    :func:`load_simulation` call.

    Passing ``parallel`` (prepare-stage worker count; ``0`` = inline) or
    ``batch_size`` (runs per bulk transaction) routes the workload through
    the batched pipeline of :func:`repro.warehouse.pipeline.ingest_dataset`,
    which produces identical warehouse contents and lint findings several
    times faster on large workloads.  ``resume=True`` (continue a crashed
    load: recover the journal, skip already-committed runs) and
    ``on_error="quarantine"`` (divert failing runs instead of aborting)
    also route through the pipeline — the crash-safety machinery lives
    there.  With everything left at the defaults the run-at-a-time loop
    below remains the reference semantics.
    """
    if (
        parallel is not None
        or batch_size is not None
        or resume
        or on_error != "abort"
    ):
        from .pipeline import DEFAULT_BATCH_SIZE, ingest_dataset

        return ingest_dataset(
            warehouse, items,
            jobs=parallel or 0,
            batch_size=batch_size or DEFAULT_BATCH_SIZE,
            with_standard_views=with_standard_views,
            strict=strict, resume=resume, on_error=on_error,
        )
    loaded: List[LoadedSpec] = []
    for spec, simulations in items:
        record = load_spec(
            warehouse, spec, with_standard_views=with_standard_views,
            strict=strict,
        )
        for number, simulation in enumerate(simulations, start=1):
            run_id = "%s/run%d" % (record.spec_id, number)
            record.run_ids.append(
                load_simulation(
                    warehouse, simulation, record.spec_id, run_id=run_id,
                    strict=strict,
                )
            )
        loaded.append(record)
    return loaded
