"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-session --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Lines before it are a human-readable table (every metric
under its documented name, with its unit) and the run envelope.  See
``perfbench/README.md`` for workloads, definitions and the legacy mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-session", "serve-zipf", "stream-live")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str, workdir: str, seed: int):
    if name == "paper-session":
        from wl_paper import PaperSession as cls
    elif name == "serve-zipf":
        from wl_serve import ServeZipf as cls
    else:
        from wl_stream import StreamLive as cls
    return cls(workdir, seed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("no program sources under %s; run from a full checkout" % src,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from repro.obs import MetricsRegistry, set_registry

    from common import SELF_CHECK_TOLERANCE, envelope, print_table

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    registry = MetricsRegistry()
    set_registry(registry)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                               dir=str(work_root))
    try:
        workload = load_workload(args.workload, workdir, args.seed)
        if args.trace:
            result = workload.run_traced(args.seconds, registry)
        else:
            result = workload.run_e2e(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Wrong answers make a run incorrect.  Failed reads that raise (the
    # stream-live defects) are counted in ``failed``, not hidden.
    correct = result.mismatches == 0
    metrics = dict(result.metrics)
    if args.trace:
        worst = result.check.get("worst_rel_error", 0.0)
        metrics["trace.requests"] = result.check.get("requests", 0)
        metrics["trace.selfcheck.worst_err_pct"] = worst * 100.0
        orphans = result.check.get("orphans", 0)
        if worst > SELF_CHECK_TOLERANCE or orphans:
            print("self-check failed: layer self times miss a request's wall"
                  " time by %.2f%%; %d worker spans belong to no request"
                  % (worst * 100.0, orphans), file=sys.stderr)
            correct = False
        # Layers a workload does not cross read 0: the predicted pattern.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: float(metrics.get(name, 0.0)) for name in units}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        from spans import dump

        dump(result.spans,
             str(out_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed))))
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        named = dict(result.named)
        named["failed_share"] = (
            result.failed / result.attempted if result.attempted else 0.0, "share")
        print_table("%s (seed %d) by documented name" % (args.workload, args.seed),
                    [(k, v, u) for k, (v, u) in named.items()])
    print_table("%s (seed %d) %s" % (
        args.workload, args.seed, "per-layer" if args.trace else "end-to-end"),
        [(k, metrics[k], units[k]) for k in units])
    for failure in result.failures[:10]:
        print("FAILED: %s" % failure)
    print("envelope: " + json.dumps(envelope(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
        result.samples)))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
