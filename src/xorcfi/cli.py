"""Command-line front end: sample / build / generate / check."""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Optional

from .formula import export_xor_dimacs, import_xor_dimacs
from .pipeline import (
    GADGET_FULL,
    GADGETS,
    GRAPH_FILES,
    PipelineConfig,
    _atomic_write,
    build_graph,
    export_graph,
    generate,
    validate,
)
from .sampler import SampleConfig, draw_name, draws


def _add_sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of variables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=float, help="clause/variable ratio (m = round(ratio*n))")
    group.add_argument("--m", type=int, help="number of clauses")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--count", type=int, default=1, help="number of trials")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, required=True, help="output directory")


def _config_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def cmd_sample(args) -> int:
    try:
        cfg = SampleConfig(n=args.n, m=args.m, ratio=args.ratio, seed=args.seed)
        if args.count < 1:
            raise ValueError("need at least one trial")
    except ValueError as exc:
        return _config_error(exc)
    args.out.mkdir(parents=True, exist_ok=True)
    for draw in draws(cfg, range(args.count)):
        path = args.out / f"{draw_name(cfg, draw.trial)}.xcnf"
        _atomic_write(path, export_xor_dimacs(draw.formula()))
        print(path)
    return 0


def cmd_build(args) -> int:
    out_paths = [args.out / (Path(p).stem + f".{args.format}") for p in args.formula]
    for i, out_path in enumerate(out_paths):
        if out_path in out_paths[:i]:
            first = args.formula[out_paths.index(out_path)]
            print(f"error: {first} and {args.formula[i]} would both write {out_path}",
                  file=sys.stderr)
            return 1
    graphs = []
    for formula_path in args.formula:
        try:
            f = import_xor_dimacs(Path(formula_path).read_text(encoding="utf-8"))
            graphs.append(build_graph(f, args.gadget))
        except (OSError, ValueError) as exc:
            print(f"error: {formula_path}: {exc}", file=sys.stderr)
            return 1
    args.out.mkdir(parents=True, exist_ok=True)
    for out_path, g in zip(out_paths, graphs):
        _atomic_write(out_path, export_graph(g, args.format))
        print(f"{out_path}  ({g.vertex_count} vertices, {g.edge_count} edges)")
    return 0


def cmd_generate(args) -> int:
    try:
        cfg = PipelineConfig(
            n=args.n,
            ratio=args.ratio,
            m=args.m,
            seed=args.seed,
            trials=args.count,
            gadget_mode=args.gadget,
            gauss_threshold=args.gauss_threshold,
            budget=args.budget_decisions,
            formats=tuple(args.format or PipelineConfig.formats),
        )
    except ValueError as exc:
        return _config_error(exc)
    records = generate(cfg, args.out)
    print(f"accepted {len(records)}/{args.count} trials into {args.out}")
    for r in records:
        print(f"  {r.instance_id}: {r.vertices} vertices, {r.edges} edges, "
              f"gauss_ratio={r.gauss_ratio}")
    return 0


def cmd_check(args) -> int:
    failures = 0
    for manifest in args.manifest:
        report = validate(manifest)
        for check in report.checks:
            mark = "ok" if check.passed else "FAIL"
            detail = f"  ({check.detail})" if (check.detail and not check.passed) else ""
            print(f"{report.instance_id}: {check.name}: {mark}{detail}")
        if not report.ok:
            failures += 1
    print(f"{len(args.manifest) - failures}/{len(args.manifest)} instances valid")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="xorcfi",
                                     description="generate graphs that are hard for "
                                                 "individualization-refinement isomorphism solvers")
    parser.add_argument("-v", "--verbose", action="store_true", help="log rejected trials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit random homogeneous formulas only")
    _add_sampling_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("build", help="lift formula files into graphs")
    p.add_argument("formula", nargs="+", help="xor-extension DIMACS files")
    p.add_argument("--gadget", choices=GADGETS, default=GADGET_FULL)
    p.add_argument("--format", choices=list(GRAPH_FILES), default="dre")
    _add_output_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("generate", help="run the full sample/filter/build pipeline")
    _add_sampling_args(p)
    p.add_argument("--gadget", choices=GADGETS, default=GADGET_FULL)
    p.add_argument("--gauss-threshold", type=float, default=PipelineConfig.gauss_threshold,
                   help="minimum decision-cost ratio to accept (default %(default)s)")
    p.add_argument("--budget-decisions", type=int, default=PipelineConfig.budget,
                   help="nodes of the IR search in the core-gadget asymmetry filter "
                        "(default %(default)s)")
    p.add_argument("--format", choices=list(GRAPH_FILES), action="append",
                   help="graph format(s) to write (repeatable)")
    _add_output_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="validate written instances")
    p.add_argument("manifest", nargs="+", help="manifest.txt paths")
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
