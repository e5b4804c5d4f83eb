"""The benchmark's workloads: seeded inputs, the timed op, and exact checks.

One op is the public library call a ``latdiag`` subcommand makes, followed by
the text that subcommand prints. ``check`` runs after the op's clock stops
and returns a failure message or None; ``extra_checks`` runs once after a
pass, outside every timed window, for checks too slow to run on every op.

Library functions are looked up on the ``latdiag`` package at call time, so a
wrapper bound over them (tracing, or the fault injection in the tests) sees
every call the workload makes.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext

import latdiag
from latdiag.combinat import partitions_of
from latdiag.verify import SuiteConfig, suite_instances

BOX = [(p, q) for q in range(4) for p in range(4)]


def _random_diagrams(label: str, seed: int, count: int, cells: int) -> list:
    """Distinct seeded diagrams of the given size in the 4x4 box."""
    rng = random.Random(f"{label}:{seed}")
    out = []
    while len(out) < count:
        diagram, _ = latdiag.normalize(rng.sample(BOX, cells))
        if diagram not in out:
            out.append(diagram)
    return out


class Workload:
    name = ""

    def ops(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        raise NotImplementedError

    def extra_checks(self, ops: list, seed: int) -> list[tuple[int, str]]:
        return []

    def command(self, op) -> str:
        """The ``latdiag`` command line that replays one op."""
        raise NotImplementedError


class SuiteDesk(Workload):
    """verify_instance over the paper's desk universe (fixed, seed unused)."""

    name = "suite_desk"

    def ops(self, seed):
        return list(suite_instances(SuiteConfig()))

    def run(self, op):
        report = latdiag.verify_instance(*op)
        return report, report.describe()

    def check(self, op, out):
        report, text = out
        if not report.match:
            return f"oracle mismatch, witness {report.witness}"
        if not text.endswith(" PASS"):
            return f"report text {text!r} does not end in PASS"
        return None

    def command(self, op):
        kind, param, diagram, axis = op
        text = ",".join(map(str, param)) if kind == "s" else str(param)
        return f'latdiag verify --op {kind} --param {text} --axis {axis} --diagram "{diagram}"'


class HilbertSpan(Workload):
    """hilbert on the 5-cell Ferrers diagrams and two sparse 4-cell diagrams.

    6-cell Ferrers diagrams take 110-233 s each and (6,6)-bidegree diagrams
    15-22 s each, so neither fits a run.
    """

    name = "hilbert_span"
    FERRERS = ((4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))
    SPARSE = (("0,0;3,0;2,2;0,3", 1060), ("0,0;1,0;2,2;3,3", 1416))

    def ops(self, seed):
        ops = [(latdiag.ferrers(mu), 120) for mu in self.FERRERS]
        ops += [(latdiag.parse_diagram(text)[0], total) for text, total in self.SPARSE]
        return ops

    def run(self, op):
        table = latdiag.hilbert(op[0])
        return table, f"{table.to_tsv()}\ntotal: {table.total}"

    def check(self, op, out):
        table, text = out
        expected = op[1]
        if table.total != expected:
            return f"total {table.total}, expected {expected}"
        rows = [line.split("\t")[1:] for line in text.splitlines()[1:-1]]
        if sum(int(v) for row in rows for v in row) != expected:
            return "printed table does not sum to the total"
        x_top, y_top = table.x_top, table.y_top
        for a in range(x_top + 1):
            for b in range(y_top + 1):
                if table.dim(a, b) != table.dim(x_top - a, y_top - b):
                    return f"dim({a},{b}) != dim({x_top - a},{y_top - b})"
        return None

    def command(self, op):
        return f'latdiag hilbert --diagram "{op[0]}"'


class SchurApply(Workload):
    """apply_schur for every partition of 6 on seeded 8-cell diagrams, both axes.

    Partitions are the outer loop, so each one's first op pays the cold
    tableau enumeration.
    """

    name = "schur_apply"
    DIAGRAMS = 6
    # Jacobi-Trudi takes 53 s and 2.8 GB for (6), 11.6 s for (5,1) and 4.3 s
    # for (4,2) at 8 cells; every other partition of 6 takes at most 2 s.
    JT_SKIP = ((6,), (5, 1), (4, 2))
    JT_CHECKS = 3

    def ops(self, seed):
        diagrams = _random_diagrams(self.name, seed, self.DIAGRAMS, 8)
        return [(lam, d, axis) for lam in partitions_of(6) for d in diagrams for axis in "xy"]

    def run(self, op):
        total = latdiag.apply_schur(*op)
        return total, str(total)

    def check(self, op, out):
        lam, diagram, axis = op
        total, text = out
        weight = (lambda d: d.row_weight) if axis == "x" else (lambda d: d.column_weight)
        for d, coeff in total.items():
            if latdiag.epsilon(d) != 1:
                return f"output diagram [{d}] has epsilon 0"
            if weight(diagram) - weight(d) != sum(lam):
                return f"output diagram [{d}] does not drop the {axis} weight by {sum(lam)}"
            # Along x every surviving tableau adds +1, so coefficients are
            # positive but can exceed 1 when tableaux share a content: s_(2,1)
            # on [1,0;1,1;1,2] gives 2 * [0,0;0,1;0,2], which the oracle confirms.
            if axis == "x" and coeff < 1:
                return f"x-axis coefficient {coeff} on [{d}] is not positive"
        if text.count("\n") + 1 != max(len(total), 1):
            return "printed sum does not have one line per term"
        return None

    def extra_checks(self, ops, seed):
        rng = random.Random(f"{self.name}:jacobi-trudi:{seed}")
        eligible = [i for i, op in enumerate(ops) if op[0] not in self.JT_SKIP]
        failures = []
        for i in sorted(rng.sample(eligible, min(self.JT_CHECKS, len(eligible)))):
            if latdiag.apply_schur_via_jacobi_trudi(*ops[i]) != latdiag.apply_schur(*ops[i]):
                failures.append((i, "apply_schur differs from apply_schur_via_jacobi_trudi"))
        return failures

    def command(self, op):
        lam, diagram, axis = op
        return f'latdiag apply --op s --param {",".join(map(str, lam))} --axis {axis} --diagram "{diagram}"'


class DeltaLeibniz(Workload):
    """delta on distinct seeded 8-cell diagrams: every op is a cache miss.

    9 cells is excluded: one op takes 10 s and 335 MB.
    """

    name = "delta_leibniz"
    DIAGRAMS = 4
    CELLS = 8
    TERMS = 40320

    def ops(self, seed):
        return _random_diagrams(self.name, seed, self.DIAGRAMS, self.CELLS)

    def run(self, op):
        poly = latdiag.delta(op)
        return poly, str(poly)

    def check(self, op, out):
        poly, _ = out
        n = self.CELLS
        if len(poly.terms) != self.TERMS:
            return f"{len(poly.terms)} terms, expected {self.TERMS}"
        denom = 1
        for p, q in op:
            denom *= math.factorial(p) * math.factorial(q)
        bidegree = (op.row_weight, op.column_weight)
        for mono, coeff in poly.terms.items():
            if abs(coeff.numerator) != 1 or coeff.denominator != denom:
                return f"coefficient {coeff}, expected +-1/{denom}"
            if (sum(mono[:n]), sum(mono[n:])) != bidegree:
                return f"monomial {mono} is not of bidegree {bidegree}"
            # Swapping variables 1 and 2 in both alphabets must negate delta.
            swapped = (mono[1], mono[0]) + mono[2:n] + (mono[n + 1], mono[n]) + mono[n + 2:]
            if poly.terms.get(swapped) != -coeff:
                return f"not antisymmetric at monomial {mono}"
        return None

    def extra_checks(self, ops, seed):
        # Parsing 40320 terms back takes about 3.4 s, so one seeded op per pass.
        i = random.Random(f"{self.name}:parse:{seed}").randrange(len(ops))
        poly = latdiag.delta(ops[i])
        if latdiag.parse_polynomial(str(poly), self.CELLS) != poly:
            return [(i, "parse_polynomial(str(P)) != P")]
        return []

    def command(self, op):
        return f'latdiag delta --diagram "{op}"'


WORKLOADS = {w.name: w for w in (SuiteDesk(), HilbertSpan(), SchurApply(), DeltaLeibniz())}


def run_pass(workload: Workload, ops: list, op_context=None, pauses: list = ()):
    """Run every op once, each inside ``op_context(op index)`` when given.

    Returns (start, seconds) per op and (op index, message) failures.
    ``pauses`` holds (start, end) perf_counter intervals that a signal
    handler spent away from the op; they are subtracted from the op they fall
    in. Outputs are checked and dropped as the pass goes, so the pass holds
    no more memory than the library itself keeps.
    """
    timings = []
    failures = []
    for i, op in enumerate(ops):
        since = len(pauses)
        start = time.perf_counter()
        try:
            with op_context(i) if op_context else nullcontext():
                out = workload.run(op)
            end = time.perf_counter()
            message = workload.check(op, out)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            end = time.perf_counter()
            message = f"raised {type(exc).__name__}: {exc}"
        out = None
        paused = sum(e - s for s, e in pauses[since:] if start <= s and e <= end)
        timings.append((start, end - start - paused))
        if message:
            failures.append((i, message))
    return timings, failures


def gate(workload: Workload, ops: list, seed: int) -> tuple[int, list[tuple[int, str]]]:
    """Run and check one pass plus its extra checks: (ops attempted, failures)."""
    _, failures = run_pass(workload, ops)
    failures += workload.extra_checks(ops, seed)
    return len(ops), failures
