"""The provlint engine: one pass, every diagnostic, optional metrics.

:class:`Linter` fronts the four analyzer layers behind a single object
holding the run-wide policy — which rules are enabled, whether the
quadratic minimality oracle runs, whether findings are counted in the
:mod:`repro.obs` metrics registry.  Unlike the constructors' fail-fast
exceptions, every ``lint_*`` method returns a full
:class:`~repro.lint.findings.LintReport` for the artifact.

Metrics: each emitted finding increments the counter
``lint.<RULE_ID>`` in the default registry, so a service ingesting
thousands of logs can alert on rule frequencies without parsing reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Sequence, Union

from ..core.spec import WorkflowSpec
from ..core.view import UserView
from ..run.log import EventLog
from ..run.run import WorkflowRun
from .findings import Finding, LintGateError, LintReport
from .registry import RuleConfig
from .rules_run import lint_log as _lint_log
from .rules_run import lint_run as _lint_run
from .rules_source import lint_source_paths as _lint_source_paths
from .rules_spec import lint_spec_payload
from .rules_view import lint_view as _lint_view
from .rules_warehouse import DEFAULT_OPEN_RUN_AGE, DEFAULT_SHARD_SKEW
from .rules_warehouse import lint_warehouse as _lint_warehouse

if TYPE_CHECKING:  # pragma: no cover — annotation-only, avoids an import cycle
    from ..warehouse.base import ProvenanceWarehouse

SpecLike = Union[WorkflowSpec, Mapping[str, object]]


class Linter:
    """Configured facade over the spec/run/view/warehouse analyzers.

    Parameters
    ----------
    config:
        Per-rule enable/disable; ``None`` enables everything.
    emit_metrics:
        Count each finding under ``lint.<RULE_ID>`` in the default
        metrics registry (cheap; on by default).
    check_minimality:
        Run the quadratic minimality oracle in view lints.  Off by
        default — it re-validates every candidate merge and is meant for
        interactive audits, not bulk ingestion.
    """

    def __init__(
        self,
        config: Optional[RuleConfig] = None,
        emit_metrics: bool = True,
        check_minimality: bool = False,
        shard_skew_factor: float = DEFAULT_SHARD_SKEW,
        open_run_age: float = DEFAULT_OPEN_RUN_AGE,
    ) -> None:
        self.config = config or RuleConfig()
        self.emit_metrics = emit_metrics
        self.check_minimality = check_minimality
        self.shard_skew_factor = shard_skew_factor
        self.open_run_age = open_run_age

    # ------------------------------------------------------------------
    # Per-layer entry points
    # ------------------------------------------------------------------

    def lint_spec(self, spec: SpecLike) -> LintReport:
        """Lint a specification (object or raw JSON payload)."""
        payload = spec.to_dict() if isinstance(spec, WorkflowSpec) else spec
        return self._report(lint_spec_payload(payload))

    def lint_log(
        self, log: EventLog, spec: Optional[WorkflowSpec] = None
    ) -> LintReport:
        """Lint an event log without executing or reconstructing it."""
        return self._report(_lint_log(log, spec))

    def lint_run(self, run: WorkflowRun) -> LintReport:
        """Lint a constructed run graph, collecting every defect."""
        return self._report(_lint_run(run))

    def lint_view(
        self, view: UserView, relevant: Optional[Iterable[str]] = None
    ) -> LintReport:
        """Lint a view; Properties 1-3 apply when ``relevant`` is given."""
        return self._report(_lint_view(
            view, relevant=relevant, check_minimality=self.check_minimality
        ))

    def lint_warehouse(
        self,
        warehouse: ProvenanceWarehouse,
        spec_ids: Optional[Sequence[str]] = None,
        run_ids: Optional[Sequence[str]] = None,
    ) -> LintReport:
        """Audit a warehouse's raw rows across all four layers."""
        return self._report(_lint_warehouse(
            warehouse, spec_ids=spec_ids, run_ids=run_ids,
            shard_skew_factor=self.shard_skew_factor,
            open_run_age=self.open_run_age,
        ))

    def lint_source(self, paths: Sequence[str]) -> LintReport:
        """Run the ``SRC0xx`` concurrency rules over Python source files.

        ``paths`` mixes files and directory trees (recursed for
        ``*.py``); the nested-``with`` lock-order graph spans the whole
        set, so an ABBA pair split across modules is still caught.
        """
        return self._report(_lint_source_paths([str(p) for p in paths]))

    def report_findings(self, findings: Sequence[Finding]) -> LintReport:
        """Apply this linter's policy to findings computed elsewhere.

        The batch-ingestion pipeline runs the raw rule functions in worker
        threads/processes and reports here, in the parent, so rule
        filtering and the ``lint.<RULE_ID>`` counters behave exactly as if
        the artifact had been linted inline.
        """
        return self._report(list(findings))

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    def gate(self, report: LintReport, what: str, strict: bool) -> LintReport:
        """Reject ``report`` when strict and it carries errors.

        The non-strict path is the "warn" mode: findings were already
        counted in metrics by :meth:`_report`, so callers get the report
        back and ingestion proceeds.
        """
        if strict and report.has_errors:
            errors = report.errors()
            raise LintGateError(
                "%s rejected by lint gate: %d error(s) (%s)"
                % (what, len(errors),
                   ", ".join(sorted({f.rule_id for f in errors}))),
                report,
            )
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _report(self, findings: List[Finding]) -> LintReport:
        kept = [f for f in findings if self.config.enabled(f.rule_id)]
        if self.emit_metrics and kept:
            from ..obs import get_registry

            registry = get_registry()
            for finding in kept:
                registry.counter("lint.%s" % finding.rule_id).increment()
        return LintReport(findings=kept)


# ----------------------------------------------------------------------
# Module-level conveniences (default Linter policy)
# ----------------------------------------------------------------------

def lint_spec(spec: SpecLike, **kwargs: object) -> LintReport:
    """Lint one spec with a default :class:`Linter`."""
    return Linter(**kwargs).lint_spec(spec)  # type: ignore[arg-type]


def lint_log(
    log: EventLog, spec: Optional[WorkflowSpec] = None, **kwargs: object
) -> LintReport:
    """Lint one event log with a default :class:`Linter`."""
    return Linter(**kwargs).lint_log(log, spec)  # type: ignore[arg-type]


def lint_run(run: WorkflowRun, **kwargs: object) -> LintReport:
    """Lint one run graph with a default :class:`Linter`."""
    return Linter(**kwargs).lint_run(run)  # type: ignore[arg-type]


def lint_view(
    view: UserView,
    relevant: Optional[Iterable[str]] = None,
    check_minimality: bool = False,
    **kwargs: object,
) -> LintReport:
    """Lint one view with a default :class:`Linter`."""
    linter = Linter(check_minimality=check_minimality, **kwargs)  # type: ignore[arg-type]
    return linter.lint_view(view, relevant=relevant)


def lint_warehouse(
    warehouse: ProvenanceWarehouse,
    spec_ids: Optional[Sequence[str]] = None,
    run_ids: Optional[Sequence[str]] = None,
    **kwargs: object,
) -> LintReport:
    """Audit one warehouse with a default :class:`Linter`."""
    return Linter(**kwargs).lint_warehouse(  # type: ignore[arg-type]
        warehouse, spec_ids=spec_ids, run_ids=run_ids
    )


def lint_source(paths: Sequence[str], **kwargs: object) -> LintReport:
    """Lint source files with the ``SRC0xx`` rules and a default policy."""
    return Linter(**kwargs).lint_source(paths)  # type: ignore[arg-type]
