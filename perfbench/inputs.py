"""Workload inputs: a fixed specification corpus and seeded, stratified runs.

The workflow *specifications* are generated once from :data:`SPEC_SEED`,
the same for every workload seed, much as the paper evaluates a fixed
collection of workflows under varying runs.  Spec structure (how many
loops, where) sets most of a run's size, so a per-seed corpus of a dozen
specs would make every figure depend on which few specs the seed drew.

The workload seed drives everything else: the runs, the request draws and
the event logs.  Runs of one (class, kind) bucket are *stratified*: run
``j`` of ``k`` draws its user-input, data-per-edge and loop-iteration
counts from the ``j``-th of ``k`` equal slices of the run class's ranges
(Table II), so every seed covers the class's size range in the same way.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.run.executor import SimulationResult
from repro.workloads.classes import RUN_CLASSES, WORKFLOW_CLASSES, RunClass
from repro.workloads.generator import GeneratedWorkflow, generate_workflows
from repro.workloads.runs import generate_run

#: Seed of the specification corpus (the paper's ICDE 2008 date).
SPEC_SEED = 20080407
SPEC_SIZE = 20


def specs(class_name: str, count: int) -> List[GeneratedWorkflow]:
    """The first ``count`` corpus specs of a workflow class."""
    rng = random.Random("%d-%s" % (SPEC_SEED, class_name))
    return generate_workflows(
        WORKFLOW_CLASSES[class_name], count, rng, target_size=SPEC_SIZE
    )


def _slice(bounds: Tuple[int, int], j: int, k: int) -> Tuple[int, int]:
    lo, hi = bounds
    width = (hi - lo + 1) / k
    start = lo + int(j * width)
    return start, max(start, lo + int((j + 1) * width) - 1)


def stratum(kind: str, j: int, k: int) -> RunClass:
    """Run class ``kind`` narrowed to slice ``j`` of ``k`` of its ranges."""
    base = RUN_CLASSES[kind]
    return RunClass(
        name=base.name,
        user_input_range=_slice(base.user_input_range, j, k),
        data_per_edge_range=_slice(base.data_per_edge_range, j, k),
        loop_iterations_range=_slice(base.loop_iterations_range, j, k),
        max_nodes=base.max_nodes,
        max_edges=base.max_edges,
    )


def run(spec, kind: str, j: int, k: int, rng: random.Random,
        run_id: str) -> SimulationResult:
    """One simulated run of ``spec`` from stratum ``j`` of ``k``."""
    return generate_run(spec, stratum(kind, j, k), rng, run_id=run_id)
