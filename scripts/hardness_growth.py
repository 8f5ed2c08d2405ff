#!/usr/bin/env python3
"""Growth study: generate instances across an n grid and run the internal
IR solver on each, recording search nodes as the machine-independent cost.

Example:
    python scripts/hardness_growth.py --ns 15 20 25 30 --ratio 1.0 \
        --count 5 --gadget core --seed 5000 --out runs/growth
"""

import argparse
import statistics
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

from xorcfi.bench import STATUS_OK, STATUS_TIMEOUT, check_limits, run_internal, write_summary
from xorcfi.canon import CELL_FIRST_LARGEST, CELL_FIRST_SMALLEST
from xorcfi.pipeline import GADGET_CORE, GADGETS, PipelineConfig, trial_outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ns", type=int, nargs="+", default=[15, 20, 25, 30])
    parser.add_argument("--ratio", type=float, default=1.0)
    parser.add_argument("--count", type=int, default=5, help="accepted instances per n")
    parser.add_argument("--seed", type=int, default=5000)
    parser.add_argument("--gadget", choices=GADGETS, default=GADGET_CORE)
    parser.add_argument("--gauss-threshold", type=float, default=1.0)
    parser.add_argument("--max-trials", type=int, default=500)
    parser.add_argument("--max-nodes", type=int, default=5_000_000)
    parser.add_argument("--cell-strategy", default=CELL_FIRST_SMALLEST,
                        choices=[CELL_FIRST_SMALLEST, CELL_FIRST_LARGEST])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    try:
        if args.count < 1:
            raise ValueError(f"count must be >= 1, got {args.count}")
        check_limits(args.max_nodes)
        configs = [PipelineConfig(n=n, ratio=args.ratio, seed=args.seed,
                                  trials=args.max_trials, gadget_mode=args.gadget,
                                  gauss_threshold=args.gauss_threshold)
                   for n in args.ns]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = []
    for cfg in configs:
        n, m = cfg.n, cfg.sample_config.effective_m
        rows = []
        for outcome in islice((o for o in trial_outcomes(cfg) if o.accepted), args.count):
            g = outcome.graph
            res = run_internal(g, instance=outcome.record.instance_id,
                               cell_strategy=args.cell_strategy,
                               max_nodes=args.max_nodes)
            rows.append(replace(res, n_vars=n, m=m, vertices=g.vertex_count))
            print(f"n={n} {outcome.record.instance_id}: {res.status} "
                  f"nodes={res.nodes} time={res.time_s:.2f}s")
        results += rows
        # A TIMEOUT row's node count is only a bound; like growth.txt, take OK rows.
        nodes = [r.nodes for r in rows if r.status == STATUS_OK]
        if len(rows) < args.count:
            print(f"n={n}: {len(rows)} of {args.count} requested instances accepted in "
                  f"{args.max_trials} trials")
        if rows:
            print(f"n={n}: median nodes {statistics.median(nodes) if nodes else '-'} over "
                  f"{len(nodes)} OK instances, {len(rows) - len(nodes)} {STATUS_TIMEOUT} left out")
    write_summary(results, args.out)
    print(f"wrote results.csv, growth.txt and .dat files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
