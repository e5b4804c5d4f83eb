"""Brute-force differentiation oracle and the exhaustive desk-scale suite.

Every combinatorial rule is checked against honest symbolic differentiation
of the determinant, exactly: the rule's diagram sum, expanded, must equal the
derivative, and a mismatch is reported with a concrete witness monomial. The
suite enumerates a small universe of diagrams exhaustively, not by sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cache
from operator import index

from .combinat import check_partition, partitions_of
from .diagrams import LatticeDiagram, SignedDiagramSum, delta
from .errors import ResourceLimitError
from .operators import (
    apply_e_alpha,
    apply_elementary,
    apply_homogeneous,
    apply_power_sum,
    apply_schur,
    epsilon_prime,
    expand,
    staged_rule,
)
from .polynomials import Polynomial, check_axis, diff_operator
from .symmetric import elementary, homogeneous, power_sum, schur_tableaux
from .tableaux import ColumnTableau, enumerate_cs_tableaux

OP_KINDS = ("p", "e", "h", "s")
# Cap on the term pairs diff_operator visits: the operator's monomials times
# the n! terms of delta. `latdiag verify`, process start to exit, on CPython
# 3.11.7 and a 2-vCPU Xeon VM: p_2 on 8 cells (bound 322,560) and h_3 on 7
# (423,360) take 0.25-0.7 s; past the cap, s_(8) on 6 (926,640) takes 0.2-0.35 s
# and h_2 on 8 (1,451,520) 1.4-2.5 s.
ORACLE_CAP = 500_000


def _parts(op: str, param) -> tuple[int, ...]:
    """param as ints: (k,) for p, e and h, the partition for s, the composition for ea."""
    if op not in OP_KINDS + ("ea",):
        raise ValueError(f"unknown operator kind {op!r}")
    return check_partition(param) if op == "s" else tuple(map(index, param)) if op == "ea" else (index(param),)


def _check_oracle_cap(op: str, parts: tuple[int, ...], n: int) -> None:
    """operator_polynomial's refusal, before it builds anything."""
    k = sum(parts)
    monomials = 0 if k < 1 else n if op == "p" else math.comb(n, k) if op == "e" else math.comb(n + k - 1, k)
    if monomials * math.factorial(n) > ORACLE_CAP:
        raise ResourceLimitError(f"the oracle for degree {k} on {n} cells exceeds the cap {ORACLE_CAP}")


def operator_polynomial(op: str, param, n: int, axis: str = "x") -> Polynomial:
    """The symmetric polynomial whose derivative operator an instance tests.

    param is read by _parts. Raises ValueError for a p, e or h degree below 1,
    and ResourceLimitError before building anything when its monomials (n for
    p, comb(n, k) for e, at most comb(n+k-1, k) otherwise) times n! exceed
    ORACLE_CAP. s_lambda is built from its tableaux, under ENUMERATION_CAP."""
    check_axis(axis)
    parts = _parts(op, param)
    if op in ("p", "e", "h") and parts[0] < 1:
        raise ValueError(f"operator {op!r} needs a parameter >= 1, got {parts[0]}")
    _check_oracle_cap(op, parts, n)
    return _built_operator(op, parts, n, axis)


@cache
def _built_operator(op: str, parts: tuple[int, ...], n: int, axis: str) -> Polynomial:
    """operator_polynomial's value, one object per input, so the operator pairs
    diff_operator keeps on it are reused."""
    if op == "s":
        poly = schur_tableaux(parts, n)
    elif op == "ea":
        poly = math.prod((elementary(a, n) for a in parts), start=Polynomial.constant(n, 1))
    else:
        poly = {"p": power_sum, "e": elementary, "h": homogeneous}[op](*parts, n)
    return poly.swap_alphabets() if axis == "y" else poly


def combinatorial_sum(op: str, param, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """The cell-movement rule for the operator kind, on param as _parts reads it."""
    parts = _parts(op, param)
    if op == "s":
        return apply_schur(parts, diagram, axis)
    if op == "ea":
        return apply_e_alpha(parts, diagram, axis)
    return {"p": apply_power_sum, "e": apply_elementary, "h": apply_homogeneous}[op](*parts, diagram, axis)


def _param_str(op: str, param) -> str:
    if op in ("s", "ea"):
        return ",".join(str(v) for v in param)
    return str(param)


@dataclass(frozen=True)
class VerificationReport:
    """One exact oracle comparison: expected is the derivative, actual the expanded rule."""

    op: str
    param: object
    diagram: LatticeDiagram
    axis: str
    expected: Polynomial
    actual: Polynomial
    match: bool
    witness: str | None

    def describe(self) -> str:
        head = (f"op={self.op} param={_param_str(self.op, self.param)} "
                f"axis={self.axis} diagram=[{self.diagram}]")
        if self.match:
            return f"{head} PASS"
        return (f"{head} FAIL\n  witness: {self.witness}\n"
                f"  expected: {self.expected}\n  actual: {self.actual}")

    def to_json_obj(self) -> dict:
        obj = {
            "op": self.op,
            "param": _param_str(self.op, self.param),
            "diagram": str(self.diagram),
            "axis": self.axis,
            "match": self.match,
        }
        if not self.match:
            obj.update(witness=self.witness,
                       expected=str(self.expected), actual=str(self.actual))
        return obj


def verify_instance(op: str, param, diagram: LatticeDiagram, axis: str = "x") -> VerificationReport:
    """Compare a cell-movement rule against symbolic differentiation, exactly."""
    # The oracle comes first: operator_polynomial refuses a p, e or h degree
    # below 1 and an instance over ORACLE_CAP before delta or the rule runs.
    expected = diff_operator(operator_polynomial(op, param, len(diagram), axis), delta(diagram))
    actual = expand(combinatorial_sum(op, param, diagram, axis))
    match = actual == expected
    witness = None
    if not match:
        difference = expected - actual
        mono = difference._term_order()[0]
        witness = str(Polynomial(expected.nvars, {mono: difference.terms[mono]}))
    return VerificationReport(op, param, diagram, axis, expected, actual, match, witness)


# Most diagrams, or Schur parameters, a suite lists. The default universe has
# 255 diagrams; the 4x4 box with up to 5 cells has 6,884 and takes 193 s.
UNIVERSE_CAP = 10_000


def enumerate_universe(max_cells: int, box_rows: int, box_cols: int) -> tuple[LatticeDiagram, ...]:
    """All diagrams with 1..max_cells distinct cells inside the box, ordered by
    size then by cell combination. Raises ResourceLimitError when there would
    be more than UNIVERSE_CAP of them."""
    sizes = range(1, min(max_cells, box_rows * box_cols) + 1)
    for count in itertools.accumulate(math.comb(box_rows * box_cols, m) for m in sizes):
        if count > UNIVERSE_CAP:
            raise ResourceLimitError(f"the suite universe has at least {count} diagrams, cap is {UNIVERSE_CAP}")
    box = [(p, q) for q in range(box_cols) for p in range(box_rows)]
    return tuple(LatticeDiagram._trusted(combo) for m in sizes for combo in itertools.combinations(box, m))


@dataclass(frozen=True)
class SuiteConfig:
    max_cells: int = 4
    box_rows: int = 3
    box_cols: int = 3
    max_weight: int = 3
    axes: tuple[str, ...] = ("x", "y")
    operators: tuple[str, ...] = OP_KINDS
    fail_fast: bool = True

    def __post_init__(self):
        for key in ("max_cells", "box_rows", "box_cols", "max_weight"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not self.axes or not self.operators:
            raise ValueError("axes and operators must each list at least one entry")
        for key in ("axes", "operators"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"{key} lists an entry twice: {','.join(values)}")
        for axis in self.axes:
            check_axis(axis)
        for op in self.operators:
            if op not in OP_KINDS:
                raise ValueError(f"unknown operator kind {op!r}, expected one of {OP_KINDS}")


def parse_suite_config(text: str) -> SuiteConfig:
    """Parse the line-oriented key=value config format ('#' starts a comment)."""
    cfg = SuiteConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in ("max_cells", "box_rows", "box_cols", "max_weight"):
                cfg = replace(cfg, **{key: int(value)})
            elif key in ("axes", "operators"):
                cfg = replace(cfg, **{key: tuple(v.strip() for v in value.split(",") if v.strip())})
            elif key == "fail_fast":
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"bad fail_fast {value!r}")
                cfg = replace(cfg, fail_fast=value.lower() == "true")
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return cfg


def _params_for(op: str, max_weight: int):
    if op != "s":
        return list(range(1, max_weight + 1))
    params: list[tuple[int, ...]] = []
    for k in range(1, max_weight + 1):
        params += partitions_of(k)
        if len(params) > UNIVERSE_CAP:
            raise ResourceLimitError(f"the suite lists at least {len(params)} Schur parameters, cap is {UNIVERSE_CAP}")
    return params


def suite_instances(cfg: SuiteConfig):
    """Deterministic enumeration order: diagram, operator, parameter, axis."""
    universe = enumerate_universe(cfg.max_cells, cfg.box_rows, cfg.box_cols)
    for diagram in universe:
        for op in cfg.operators:
            for param in _params_for(op, cfg.max_weight):
                for axis in cfg.axes:
                    yield op, param, diagram, axis


@dataclass(frozen=True)
class SuiteSummary:
    total: int
    passed: int
    failed: int
    first_failure: VerificationReport | None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def describe(self) -> str:
        lines = [f"suite: total={self.total} passed={self.passed} failed={self.failed}"]
        if self.first_failure is not None:
            lines.append("first failure:")
            lines.append("  " + self.first_failure.describe().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        obj = {"total": self.total, "passed": self.passed, "failed": self.failed}
        if self.first_failure is not None:
            obj["first_failure"] = self.first_failure.to_json_obj()
        return obj


def schur_left_to_right(lam: tuple[int, ...], diagram: LatticeDiagram,
                        axis: str = "x") -> SignedDiagramSum:
    """apply_schur with the column stages applied in the wrong order.

    Kept in the harness as a counterexample generator; the library rule is
    rightmost-first."""
    lam = check_partition(lam)
    return staged_rule(lambda n: ((1, ColumnTableau(tab.columns[::-1], tab.max_entry))
                                  for tab in enumerate_cs_tableaux(lam, n)), diagram, axis, sum(lam))


def run_suite(cfg: SuiteConfig) -> SuiteSummary:
    """Run verify_instance on every instance of the configured universe, in
    suite_instances order; exact pass/fail counts and the first failure. With
    cfg.fail_fast the run stops at that failure. Every (size, operator,
    parameter) is checked against ORACLE_CAP first, in that order."""
    for n in sorted(set(map(len, enumerate_universe(cfg.max_cells, cfg.box_rows, cfg.box_cols)))):
        for op in cfg.operators:
            for param in _params_for(op, cfg.max_weight):
                _check_oracle_cap(op, _parts(op, param), n)
    total = failed = 0
    first_failure = None
    for op, param, diagram, axis in suite_instances(cfg):
        report = verify_instance(op, param, diagram, axis)
        total += 1
        if not report.match:
            failed += 1
            first_failure = first_failure or report
            if cfg.fail_fast:
                break
    return SuiteSummary(total, total - failed, failed, first_failure)


@dataclass(frozen=True)
class StageOrderWitness:
    """A (tableau, diagram) pair proving the stage order is not arbitrary."""

    lam: tuple[int, ...]
    diagram: LatticeDiagram
    tableau: ColumnTableau
    right_to_left_value: int
    left_to_right_value: int
    oracle: Polynomial
    right_to_left_sum: SignedDiagramSum
    left_to_right_sum: SignedDiagramSum


def find_stage_order_witness() -> StageOrderWitness | None:
    """Search the desk universe (the default SuiteConfig) for an instance
    where only the rightmost-first stage order reproduces the derivative."""
    desk = SuiteConfig()
    lams = [lam for lam in _params_for("s", desk.max_weight) if lam[0] >= 2]
    for lam in lams:
        for diagram in enumerate_universe(desk.max_cells, desk.box_rows, desk.box_cols):
            right = verify_instance("s", lam, diagram)
            if not right.match or expand(schur_left_to_right(lam, diagram)) == right.expected:
                continue
            for tab in enumerate_cs_tableaux(lam, len(diagram)):
                rl_eps = epsilon_prime(tab, diagram).value
                lr_eps = epsilon_prime(ColumnTableau(tab.columns[::-1], tab.max_entry), diagram).value
                if rl_eps != lr_eps:
                    return StageOrderWitness(lam, diagram, tab, rl_eps, lr_eps, right.expected,
                                             apply_schur(lam, diagram), schur_left_to_right(lam, diagram))
    return None
