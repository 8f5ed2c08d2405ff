#!/usr/bin/env python3
"""Run a generated instance directory through external GI solvers and the
internal IR solver, producing the comparison CSV and growth report.

External solvers (dreadnaut/Traces, nauty, bliss, conauto) are used when
their binaries are on PATH; missing ones degrade to ERROR rows and the
batch keeps going, and so does a manifest or a .dre file that cannot be
read. --timeout bounds each external solver's run; the internal solver
stops at --max-nodes only.

Example:
    xorcfi generate --n 30 --ratio 1.0 --seed 5000 --count 50 \
        --gauss-threshold 1 --out runs/batch
    python scripts/solver_shootout.py runs/batch --timeout 60 \
        --solvers traces nauty bliss internal --out runs/shootout
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from xorcfi.bench import (
    ADAPTERS,
    INTERNAL_SOLVER,
    STATUS_ERROR,
    BenchResult,
    check_limits,
    run_external,
    run_internal,
    write_summary,
)
from xorcfi.pipeline import from_dre, parse_manifest


def result_name(solver: str) -> str:
    """A solver's name in results.csv: `--solvers internal` writes its rows
    under the name that run_internal gives them."""
    return INTERNAL_SOLVER if solver == "internal" else solver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("batch_dir", type=Path, help="directory written by `xorcfi generate`")
    parser.add_argument("--solvers", nargs="+", choices=[*ADAPTERS, "internal"],
                        default=["traces", "nauty", "bliss", "conauto", "internal"])
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--max-nodes", type=int, default=10_000_000)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        check_limits(args.max_nodes, args.timeout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifests = sorted(args.batch_dir.glob("*/manifest.txt"))
    if not manifests:
        print(f"no manifests under {args.batch_dir}", file=sys.stderr)
        return 1
    results = []
    for manifest_path in manifests:
        try:
            record = parse_manifest(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            instance = manifest_path.parent.name
            for solver in args.solvers:
                results.append(BenchResult(instance, result_name(solver), 0.0,
                                           STATUS_ERROR, error=str(exc)))
                print(f"{instance} {solver}: {STATUS_ERROR} (unreadable manifest: {exc})")
            continue
        if record.graph_dre is None:
            print(f"{record.instance_id}: no .dre file, skipped", file=sys.stderr)
            continue
        dre_path = args.batch_dir / record.graph_dre
        for solver in args.solvers:
            if solver != "internal":
                res = run_external(solver, dre_path, timeout=args.timeout)
            else:
                try:
                    g = from_dre(dre_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    res = BenchResult(record.instance_id, result_name(solver), 0.0,
                                      STATUS_ERROR, error=str(exc))
                else:
                    res = run_internal(g, instance=record.instance_id,
                                       max_nodes=args.max_nodes)
            res = replace(res, n_vars=record.n, m=record.m, vertices=record.vertices)
            results.append(res)
            extra = f" ({res.error})" if res.error else ""
            print(f"{record.instance_id} {solver}: {res.status} "
                  f"time={res.time_s:.2f}s group={res.group_size}{extra}")
    write_summary(results, args.out)
    print(f"wrote results.csv, growth.txt and .dat files to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
