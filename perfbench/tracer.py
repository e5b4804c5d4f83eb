"""Spans and counters around latdiag's public functions, from outside the package.

``Tracer.install`` wraps each function listed in ``SPANS`` and ``COUNTS`` and
rebinds every name that refers to it in the loaded ``latdiag`` modules: the
defining module, each ``from .x import y`` copy and the package namespace.
A span is (name, start, end, parent span, op id); spans stay in memory until
``write_spans`` and ``layer_metrics`` read them after the pass.
"""

from __future__ import annotations

import bisect
import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every binding of ``original`` in latdiag's modules, and in the
    dicts of their classes, at ``replacement``. Returns what was rebound."""
    owners = []
    for name, module in list(sys.modules.items()):
        if name != "latdiag" and not name.startswith("latdiag."):
            continue
        owners.append(module)
        owners += [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == name]
    bound = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                bound.append((owner, attr))
    return bound


@contextmanager
def rebound(original, replacement):
    """``rebind`` for the duration of a with block."""
    bound = rebind(original, replacement)
    try:
        yield
    finally:
        for owner, attr in bound:
            setattr(owner, attr, original)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    value = sys.modules[f"latdiag.{module}"]
    for part in attr.split("."):
        value = vars(value)[part] if isinstance(value, type) else getattr(value, part)
    return value


def _seen(tracer, layer, key) -> bool:
    seen = tracer.seen.setdefault(layer, set())
    if key in seen:
        return True
    seen.add(key)
    return False


def _diff_operator(tr, args, kwargs, result):
    tr.counts["polynomials.diff_operator.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _delta(tr, args, kwargs, result):
    tr.counts["diagrams.delta.terms_out"] += len(result.terms)
    key = (args[0].cells, args[1] if len(args) > 1 else kwargs.get("max_cells"))
    tr.counts["diagrams.delta.repeats"] += _seen(tr, "delta", key)


def _families(tr, args, kwargs, result):
    if not _seen(tr, "families", (tuple(args[0]), args[1])):
        tr.counts["tableaux.enumerate_column_families.families_out"] += len(result)


def _cs_tableaux(tr, args, kwargs, result):
    if not _seen(tr, "cs", (tuple(args[0]), args[1])):
        tr.counts["tableaux.enumerate_cs_tableaux.tableaux_out"] += len(result)


def _epsilon_prime(tr, args, kwargs, result):
    tr.counts["operators.epsilon_prime.survivors"] += result.value


def _apply(tr, args, kwargs, result):
    tr.counts["operators.apply.terms_out"] += len(result)


def _exact_rank(tr, args, kwargs, result):
    rows = args[0]
    tr.counts["hilbert.generators"] += len(rows)
    tr.counts["hilbert.exact_rank.cells"] += len(rows) * len(rows[0]) if rows else 0
    tr.counts["hilbert.rank"] += result


# (function, layer, counter run on the result). Classes are patched in their
# own dict; __rmul__ is the same function as __mul__ and is rebound with it.
SPANS = [
    ("polynomials:Polynomial.__init__", "polynomials.Polynomial_init", None),
    ("polynomials:Polynomial.__add__", "polynomials.arith", None),
    ("polynomials:Polynomial.__sub__", "polynomials.arith", None),
    ("polynomials:Polynomial.__neg__", "polynomials.arith", None),
    ("polynomials:Polynomial.__mul__", "polynomials.arith", None),
    ("polynomials:Polynomial.__str__", "polynomials.str", None),
    ("polynomials:diff_operator", "polynomials.diff_operator", _diff_operator),
    ("diagrams:delta", "diagrams.delta", _delta),
    ("symmetric:power_sum", "symmetric.build", None),
    ("symmetric:elementary", "symmetric.build", None),
    ("symmetric:homogeneous", "symmetric.build", None),
    ("symmetric:schur_jacobi_trudi", "symmetric.build", None),
    ("symmetric:schur_tableaux", "symmetric.build", None),
    ("tableaux:enumerate_column_families", "tableaux.enumerate_column_families", _families),
    ("tableaux:enumerate_cs_tableaux", "tableaux.enumerate_cs_tableaux", _cs_tableaux),
    ("operators:epsilon_prime", "operators.epsilon_prime", _epsilon_prime),
    ("operators:apply_power_sum", "operators.apply", _apply),
    ("operators:apply_elementary", "operators.apply", _apply),
    ("operators:apply_homogeneous", "operators.apply", _apply),
    ("operators:apply_e_alpha", "operators.apply", _apply),
    ("operators:apply_schur", "operators.apply", _apply),
    ("operators:apply_schur_via_jacobi_trudi", "operators.apply", _apply),
    ("operators:expand", "operators.expand", None),
    ("verify:verify_instance", "verify.verify_instance", None),
    ("verify:operator_polynomial", "verify.operator_polynomial", None),
    ("hilbert:hilbert", "hilbert.hilbert", None),
    ("hilbert:exact_rank", "hilbert.exact_rank", _exact_rank),
]
# Called tens of thousands of times per op; counted without a span, so their
# time stays in the caller's self time.
COUNTS = [
    ("combinat:permutation_sign", "combinat.permutation_sign.calls"),
]
OP = "op"
COUNTERS = [
    "polynomials.diff_operator.term_pairs",
    "diagrams.delta.terms_out",
    "diagrams.delta.repeats",
    "combinat.permutation_sign.calls",
    "tableaux.enumerate_column_families.families_out",
    "tableaux.enumerate_cs_tableaux.tableaux_out",
    "operators.epsilon_prime.survivors",
    "operators.apply.terms_out",
    "hilbert.generators",
    "hilbert.exact_rank.cells",
    "hilbert.rank",
]


class Tracer:
    """In-memory span recorder. Records only while an op is open."""

    def __init__(self):
        self.layers = [OP]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.seen: dict[str, set] = {}

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _open(self, layer_id: int) -> int:
        index = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, layer: str, counter):
        layer_id = self._layer_id(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.current_op < 0:
                return fn(*args, **kwargs)
            index = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.current_op >= 0:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for path, layer, counter in SPANS:
            fn = _resolve(path)
            rebind(fn, self._span_wrapper(fn, layer, counter))
        for path, key in COUNTS:
            fn = _resolve(path)
            rebind(fn, self._count_wrapper(fn, key))

    @contextmanager
    def op(self, op_id: int):
        """Record spans for one op, under a root span named ``op``."""
        self.current_op = op_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)
            self.current_op = -1

    def self_times(self, pauses=()) -> dict[str, float]:
        """Total self time per layer: each span's duration minus the time its
        direct children cover (children of one span never overlap). Each
        (start, end) in ``pauses``, time a signal handler took, comes off the
        innermost span around it and is reported as ``reference``."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        totals = dict.fromkeys(self.layers, 0.0)
        totals["reference"] = 0.0
        for start, end in pauses:
            i = bisect.bisect_right(self.start, start) - 1
            while i >= 0 and self.end[i] < end:
                i = self.parent[i]
            if i >= 0:
                covered[i] += end - start
                totals["reference"] += end - start
        for i in range(n):
            totals[self.layers[self.name[i]]] += self.end[i] - self.start[i] - covered[i]
        return totals

    def layer_metrics(self, pauses=()) -> dict[str, float]:
        """Every per-layer quantity of one traced pass, zero for layers the
        pass never entered. ``pauses`` as for ``self_times``."""
        calls = Counter(self.layers[layer_id] for layer_id in self.name)
        self_s = self.self_times(pauses)
        c = self.counts
        m = dict(c)
        for layer in self.layers:
            m[f"{layer}.calls"] = calls[layer]
        m.update({f"{layer}.self_s": seconds for layer, seconds in self_s.items()})
        m["diagrams.delta.repeat_ratio"] = _ratio(c["diagrams.delta.repeats"], calls["diagrams.delta"])
        m["operators.epsilon_prime.survive_ratio"] = _ratio(
            c["operators.epsilon_prime.survivors"], calls["operators.epsilon_prime"])
        m["tableaux.cs_yield"] = _ratio(c["tableaux.enumerate_cs_tableaux.tableaux_out"],
                                        c["tableaux.enumerate_column_families.families_out"])
        m["hilbert.rank_yield"] = _ratio(c["hilbert.rank"], c["hilbert.generators"])
        m["trace.spans"] = len(self.start)
        return m

    def write_spans(self, path) -> None:
        """One tab-separated line per span, times in seconds from the first span."""
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                handle.write(f"{i}\t{self.layers[self.name[i]]}\t{self.start[i] - base:.9f}\t"
                             f"{self.end[i] - base:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
