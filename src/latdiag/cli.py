"""Command-line front end.

Each subcommand handler returns (exit code, JSON object, text) and prints
nothing on stdout; `main` prints json.dumps of the object under --json and
the text otherwise (nothing when the text is empty), then returns the code.
Exit codes: 0 on success, 1 when a verification fails, 2 on usage or parse
errors and on a refused cap, reported as "error: ..." on stderr. A reader
that closes the pipe early ends the output quietly. All output is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .combinat import parse_ints, parse_partition
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
        return int(text)
    except ValueError as exc:
        raise ValueError(f"operator {op!r} needs an integer parameter, got {text!r}") from exc


def _cmd_delta(args) -> tuple[int, dict, str]:
    diagram = _load_diagram(args.diagram)
    poly = str(delta(diagram))
    return 0, {"diagram": str(diagram), "polynomial": poly}, poly


def _cmd_apply(args) -> tuple[int, dict, str]:
    diagram = _load_diagram(args.diagram)
    total = combinatorial_sum(args.op, _operator_param(args.op, args.param), diagram, args.axis)
    obj, text = total.to_json_obj(), str(total)
    if args.expand:
        obj["polynomial"] = str(expand(total))
        text += f"\nexpanded: {obj['polynomial']}"
    return 0, obj, text


def _cmd_verify(args) -> tuple[int, dict, str]:
    diagram = _load_diagram(args.diagram)
    report = verify_instance(args.op, _operator_param(args.op, args.param), diagram, args.axis)
    return 0 if report.match else 1, report.to_json_obj(), report.describe()


def _cmd_suite(args) -> tuple[int, dict, str]:
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            cfg = parse_suite_config(handle.read())
    else:
        cfg = SuiteConfig()
    overrides = {}
    for key in ("max_cells", "box_rows", "box_cols", "max_weight", "axes", "operators"):
        value = getattr(args, key)
        if isinstance(value, str):
            value = tuple(v.strip() for v in value.split(",") if v.strip())
        if value is not None:
            overrides[key] = value
    if args.no_fail_fast:
        overrides["fail_fast"] = False
    summary = run_suite(replace(cfg, **overrides))
    return 0 if summary.ok else 1, summary.to_json_obj(), summary.describe()


def _cmd_tableaux(args) -> tuple[int, dict, str]:
    if args.families:
        items = enumerate_column_families(parse_ints(args.shape, "shape"), args.max_entry)
    else:
        items = enumerate_cs_tableaux(parse_partition(args.shape), args.max_entry)
    rendered = [str(t) for t in items]
    return 0, {"count": len(items), "tableaux": rendered}, "\n".join(rendered)


def _cmd_psi(args) -> tuple[int, dict, str]:
    tableau = parse_tableau(args.tableau)
    lam = parse_partition(args.shape_lambda)
    step = psi_step(tableau, lam)
    involution_ok = psi_step(step.result, lam).result == tableau
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
    lines = [
        f"input: {obj['input']}",
        f"result: {obj['result']}",
        f"fixed: {'yes (column-strict Young tableau)' if step.fixed else 'no'}",
        f"shape: {obj['shape']} -> {obj['result_shape']}",
        f"orbit sign: {obj['orbit_sign']:+d} -> {obj['result_orbit_sign']:+d}",
    ]
    if not step.fixed:
        i, j = step.pair
        obj.update({
            "moved_columns": f"T{j + 1},T{j + 2}",
            "row": i,
            "word": step.before.word_str(),
            "parens_before": step.before.marks_str(),
            "parens_after": step.after.marks_str(),
        })
        lines += [
            f"moved columns: {obj['moved_columns']} (violating row {i}, from bottom)",
            f"word: {obj['word']}",
            f"parens: {obj['parens_before']} -> {obj['parens_after']}",
        ]
    lines.append(f"involution check: {'ok' if involution_ok else 'FAILED'}")
    return 0 if involution_ok else 1, obj, "\n".join(lines)


def _cmd_hilbert(args) -> tuple[int, dict, str]:
    table = hilbert(_load_diagram(args.diagram))
    return 0, table.to_json_obj(), f"{table.to_tsv()}\ntotal: {table.total}"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--op", required=True, choices=OP_KINDS)
    instance.add_argument("--param", required=True,
                          help="integer for p/e/h, partition like 2,1 for s")
    instance.add_argument("--axis", default="x", choices=("x", "y"))
    instance.add_argument("--diagram", required=True)

    parser = argparse.ArgumentParser(
        prog="latdiag",
        description="Lattice diagram determinants and their shift operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser("delta", parents=[common],
                             help="expand a lattice diagram determinant")
    p_delta.add_argument("--diagram", required=True, help='cells, e.g. "0,0;1,0"')
    p_delta.set_defaults(func=_cmd_delta)

    p_apply = sub.add_parser("apply", parents=[common, instance],
                             help="apply an operator by the cell-movement rule")
    p_apply.add_argument("--expand", action="store_true",
                         help="also print the expanded polynomial")
    p_apply.set_defaults(func=_cmd_apply)

    p_verify = sub.add_parser("verify", parents=[common, instance],
                              help="check one rule against symbolic differentiation")
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
    args = build_parser().parse_args(argv)
    try:
        code, obj, text = args.func(args)
    except (ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(obj))
        elif text:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (as `| head` does). Point stdout at
        # devnull so the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
