"""Command-line front end.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or parse
errors. All output is deterministic; --json switches any subcommand to a
machine-readable report on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .combinat import parse_partition
from .diagrams import LatticeDiagram, delta, normalize, parse_cells
from .errors import ResourceLimitError
from .hilbert import hilbert
from .operators import expand
from .tableaux import (
    enumerate_column_families,
    enumerate_cs_tableaux,
    parse_tableau,
    psi_step,
    shape_orbit_sign,
)
from .verify import (
    OP_KINDS,
    SuiteConfig,
    combinatorial_sum,
    parse_suite_config,
    run_suite,
    verify_instance,
)


def _load_diagram(text: str) -> LatticeDiagram:
    cells = parse_cells(text)
    diagram, sign = normalize(cells)
    if list(diagram.cells) != cells:
        print(f"note: input cells resorted, sign {sign:+d}", file=sys.stderr)
    return diagram


def _operator_param(op: str, text: str):
    if op == "s":
        return parse_partition(text)
    try:
        k = int(text)
    except ValueError as exc:
        raise ValueError(f"operator {op!r} needs an integer parameter, got {text!r}") from exc
    if k < 1:
        raise ValueError(f"operator {op!r} needs a parameter >= 1, got {k}")
    return k


def _cmd_delta(args) -> int:
    diagram = _load_diagram(args.diagram)
    poly = delta(diagram)
    if args.json:
        print(json.dumps({"diagram": str(diagram), "polynomial": str(poly)}))
    else:
        print(poly)
    return 0


def _cmd_apply(args) -> int:
    diagram = _load_diagram(args.diagram)
    param = _operator_param(args.op, args.param)
    total = combinatorial_sum(args.op, param, diagram, args.axis)
    if args.json:
        obj = total.to_json_obj()
        if args.expand:
            obj["polynomial"] = str(expand(total))
        print(json.dumps(obj))
        return 0
    print(total)
    if args.expand:
        print(f"expanded: {expand(total)}")
    return 0


def _cmd_verify(args) -> int:
    diagram = _load_diagram(args.diagram)
    param = _operator_param(args.op, args.param)
    report = verify_instance(args.op, param, diagram, args.axis)
    if args.json:
        print(json.dumps(report.to_json_obj()))
    else:
        print(report.describe())
    return 0 if report.match else 1


def _cmd_suite(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            cfg = parse_suite_config(handle.read())
    else:
        cfg = SuiteConfig()
    overrides = {}
    for key in ("max_cells", "box_rows", "box_cols", "max_weight"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    for key in ("axes", "operators"):
        text = getattr(args, key)
        if text is not None:
            overrides[key] = tuple(v.strip() for v in text.split(",") if v.strip())
    if args.no_fail_fast:
        overrides["fail_fast"] = False
    summary = run_suite(replace(cfg, **overrides), corrupt_stage_order=args.corrupt_stage_order)
    if args.json:
        print(json.dumps(summary.to_json_obj()))
    else:
        print(summary.describe())
    return 0 if summary.ok else 1


def _cmd_tableaux(args) -> int:
    if args.families:
        shape = tuple(int(v) for v in args.shape.split(","))
        items = enumerate_column_families(shape, args.max_entry)
    else:
        shape = parse_partition(args.shape)
        items = enumerate_cs_tableaux(shape, args.max_entry)
    if args.json:
        print(json.dumps({"count": len(items), "tableaux": [str(t) for t in items]}))
        return 0
    for t in items:
        print(t)
    return 0


def _cmd_psi(args) -> int:
    tableau = parse_tableau(args.tableau)
    lam = parse_partition(args.shape_lambda)
    step = psi_step(tableau, lam)
    again = psi_step(step.result, lam)
    involution_ok = again.result == tableau
    obj = {
        "input": str(tableau),
        "result": str(step.result),
        "fixed": step.fixed,
        "shape": ",".join(str(v) for v in tableau.shape),
        "result_shape": ",".join(str(v) for v in step.result.shape),
        "orbit_sign": shape_orbit_sign(tableau.shape, lam),
        "result_orbit_sign": shape_orbit_sign(step.result.shape, lam),
        "involution_ok": involution_ok,
    }
    if not step.fixed:
        i, j = step.pair
        obj.update({
            "moved_columns": f"T{j + 1},T{j + 2}",
            "row": i,
            "word": step.before.word_str(),
            "parens_before": step.before.marks_str(),
            "parens_after": step.after.marks_str(),
        })
    if args.json:
        print(json.dumps(obj))
        return 0 if involution_ok else 1
    print(f"input: {obj['input']}")
    print(f"result: {obj['result']}")
    print(f"fixed: {'yes (column-strict Young tableau)' if step.fixed else 'no'}")
    print(f"shape: {obj['shape']} -> {obj['result_shape']}")
    print(f"orbit sign: {obj['orbit_sign']:+d} -> {obj['result_orbit_sign']:+d}")
    if not step.fixed:
        print(f"moved columns: {obj['moved_columns']} (violating row {obj['row']}, from bottom)")
        print(f"word: {obj['word']}")
        print(f"parens: {obj['parens_before']} -> {obj['parens_after']}")
    print(f"involution check: {'ok' if involution_ok else 'FAILED'}")
    return 0 if involution_ok else 1


def _cmd_hilbert(args) -> int:
    table = hilbert(_load_diagram(args.diagram))
    if args.json:
        print(json.dumps(table.to_json_obj()))
        return 0
    print(table.to_tsv())
    print(f"total: {table.total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")

    parser = argparse.ArgumentParser(
        prog="latdiag",
        description="Lattice diagram determinants and their shift operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", parents=[common],
                             help="expand a lattice diagram determinant")
    p_delta.add_argument("--diagram", required=True, help='cells, e.g. "0,0;1,0"')
    p_delta.set_defaults(func=_cmd_delta)

    p_apply = sub.add_parser("apply", parents=[common],
                             help="apply an operator by the cell-movement rule")
    p_apply.add_argument("--op", required=True, choices=OP_KINDS)
    p_apply.add_argument("--param", required=True,
                         help="integer for p/e/h, partition like 2,1 for s")
    p_apply.add_argument("--axis", default="x", choices=("x", "y"))
    p_apply.add_argument("--diagram", required=True)
    p_apply.add_argument("--expand", action="store_true",
                         help="also print the expanded polynomial")
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="check one rule against symbolic differentiation")
    p_verify.add_argument("--op", required=True, choices=OP_KINDS)
    p_verify.add_argument("--param", required=True)
    p_verify.add_argument("--axis", default="x", choices=("x", "y"))
    p_verify.add_argument("--diagram", required=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("suite", parents=[common],
                             help="run the exhaustive desk-scale verification suite")
    p_suite.add_argument("--config", help="key=value config file")
    p_suite.add_argument("--max-cells", dest="max_cells", type=int)
    p_suite.add_argument("--box-rows", dest="box_rows", type=int)
    p_suite.add_argument("--box-cols", dest="box_cols", type=int)
    p_suite.add_argument("--max-weight", dest="max_weight", type=int)
    p_suite.add_argument("--axes", help="comma-separated subset of x,y")
    p_suite.add_argument("--operators", help="comma-separated subset of " + ",".join(OP_KINDS))
    p_suite.add_argument("--no-fail-fast", action="store_true")
    p_suite.add_argument("--corrupt-stage-order", action="store_true",
                         help=argparse.SUPPRESS)
    p_suite.set_defaults(func=_cmd_suite)

    p_tab = sub.add_parser("tableaux", parents=[common],
                           help="enumerate column-strict tableaux or column families")
    p_tab.add_argument("--shape", required=True,
                       help="partition (or composition with --families)")
    p_tab.add_argument("--max-entry", dest="max_entry", type=int, required=True)
    p_tab.add_argument("--families", action="store_true",
                       help="enumerate all column families, no row condition")
    p_tab.set_defaults(func=_cmd_tableaux)

    p_psi = sub.add_parser("psi", parents=[common],
                           help="apply the orbit involution to a column tableau")
    p_psi.add_argument("--tableau", required=True, help='e.g. "7,8,10|3,9|4,5,6,8"')
    p_psi.add_argument("--shape-lambda", dest="shape_lambda", required=True,
                       help="partition whose orbit the tableau lies in")
    p_psi.set_defaults(func=_cmd_psi)

    p_hilb = sub.add_parser("hilbert", parents=[common],
                            help="bigraded dimension table of the derivative span")
    p_hilb.add_argument("--diagram", required=True)
    p_hilb.set_defaults(func=_cmd_hilbert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
