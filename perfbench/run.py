"""xorcfi benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hard --seed 5000 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics untraced; with
--trace 1 it repeats round 0 under the span tracer and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Spans and exact counters go to a side file under
.perfbench_work/. The exit code is 0 when the run completed, whether or
not every operation succeeded (``correct`` says that); it is non-zero,
with no result printed, when the xorcfi sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["hard", "scale", "pebble"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to measure, after set-up and the reference round")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load xorcfi: {exc}", file=sys.stderr)
        return 2

    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result = workloads.run(args.workload, seed, args.seconds, bool(args.trace))

    workloads.WORK.mkdir(exist_ok=True)
    side = workloads.WORK / f"{args.workload}-s{seed}-trace{args.trace}.json"
    side.write_text(json.dumps({
        "workload": args.workload,
        "seed": seed,
        "summary": result.summary(),
        "info": result.info,
        "counters": result.counters,
        "failures": result.ledger.notes,
        "spans": [asdict(s) for s in result.spans],
    }), encoding="utf-8")

    print(f"perfbench {args.workload} seed={seed} trace={args.trace} "
          f"attempted={result.ledger.attempted} failed={result.ledger.failed}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for name, value in result.info.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value!s:>14}"
        print(f"  info {name:29s} {shown}")
    print(f"  counters round 0: {json.dumps(result.counters[0], sort_keys=True)}")
    print(f"  side file: {side}")
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
