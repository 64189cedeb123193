"""Provenance semantics, the view-aware reasoner, OPM export, planning."""

from .derivation import (
    DerivationPath,
    derivation_exists,
    derivation_paths,
    shortest_derivation,
)
from .invalidation import ReexecutionPlan, ReexecutionPlanner
from .opm import account_overlap, export_account, export_opm, to_json
from .queries import deep_provenance, immediate_provenance, reverse_provenance
from .reasoner import ProvenanceReasoner, project_closure
from .result import ProvenanceResult, ProvenanceRow, ReverseProvenanceResult
from .rundiff import EdgeDelta, ModuleDelta, RunDiff, diff_runs

__all__ = [
    "DerivationPath",
    "EdgeDelta",
    "ModuleDelta",
    "ProvenanceReasoner",
    "ProvenanceResult",
    "ProvenanceRow",
    "ReexecutionPlan",
    "ReexecutionPlanner",
    "ReverseProvenanceResult",
    "RunDiff",
    "account_overlap",
    "deep_provenance",
    "derivation_exists",
    "derivation_paths",
    "diff_runs",
    "project_closure",
    "shortest_derivation",
    "export_account",
    "export_opm",
    "immediate_provenance",
    "reverse_provenance",
    "to_json",
]
