"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
span tracing and prints the per-layer metrics, writing the spans to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.  Every run also
writes its per-unit record (calibration, times, samples) to
``.perfbench_out/units-<workload>-<seed>-trace<0|1>.json``, the raw
material of a steadiness record.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The program under test is imported from ``src/`` next to this
directory; without it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("warm_read", "write_mix", "service_fanout")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]

    from perfbench.common import REFERENCE_CALIB_MS
    from perfbench.report import end_to_end, per_layer
    from perfbench.tracing import Tracer
    from perfbench.workloads import run_workload

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    measured = run_workload(args.workload, args.seed, args.seconds, tracer, work_dir)
    if tracer is not None:
        tracer.spans = measured.build_spans + measured.timed_spans
        tracer.dump(str(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"))
    metrics = per_layer(measured) if args.trace else end_to_end(measured)
    record = OUT_DIR / f"units-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "builds": [dataclasses.asdict(unit) for unit in measured.builds],
        "units": [dataclasses.asdict(unit) for unit in measured.units],
        "probe_units": [dataclasses.asdict(unit) for unit in measured.probe_units],
    }))
    for error in measured.errors:
        print(f"failed operation: {error}", file=sys.stderr)
    calibrations = sorted(unit.calib_ms for unit in measured.units)
    reads = sorted(sample for unit in measured.units for sample in unit.read_ms)
    print(
        f"{args.workload} seed {args.seed}: {len(measured.builds)} set-ups, "
        f"{len(measured.units)} units in {measured.timed_s:.2f} s; host calibration "
        f"median {calibrations[len(calibrations) // 2]:.3f} ms "
        f"(reference {REFERENCE_CALIB_MS} ms); unscaled read p50 "
        f"{reads[len(reads) // 2]:.3f} ms",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
