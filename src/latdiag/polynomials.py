"""Exact sparse polynomial arithmetic in the paired alphabets x1..xn, y1..yn.

Coefficients are exact rationals: `Polynomial` takes a numbers.Rational and
raises TypeError for a float or a str. `diff_operator` scales each side to
integer numerators over one common denominator, multiplies ints, and shares
one Fraction per distinct numerator. A scalar product, negation included,
multiplies each distinct coefficient object once, keyed by id as str(P) is,
so c * delta(L) makes two products, not n!. Polynomials are immutable (all
arithmetic returns fresh objects), so they are safe to share across threads.

A monomial is a tuple of 2n exponents, the x-block first. The zero polynomial
has an empty term map, so it is falsy and has no bidegrees.

`Polynomial(...)` validates every term it is given: parsed text, builders
that pass ints, callers outside the package. Results whose terms are valid
by construction skip that through `Polynomial._trusted`: the arithmetic
operators, `partial`, `swap_alphabets`, `diff_operator`, `diagonal_action`
and the Leibniz expansion of `diagrams.delta`. Such a term map has tuples of
2n nonnegative ints as keys and nonzero Fractions as values.

The text form, written by str(P) and read by parse_polynomial: one or more
terms, with an optional sign before the first and "+" or "-" between terms.
A term is factors joined by "*", each an integer or a variable x<i> or y<i>
(1 <= i <= n) with an optional "^e", then an optional "/den" with den > 0.
Whitespace may separate any two tokens; "−" reads as "-"; "0" is zero.
str(P) makes each distinct x-block, y-block and coefficient text only once.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from numbers import Rational
from operator import getitem, index
from typing import Mapping, Sequence

from .errors import ResourceLimitError

Monomial = tuple[int, ...]


def check_axis(axis: str) -> None:
    """Reject any axis name other than "x" or "y"."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _axis_offset(nvars: int, axis: str, index: int) -> int:
    check_axis(axis)
    if not 1 <= index <= nvars:
        raise ValueError(f"variable index {index} out of range 1..{nvars}")
    return (0 if axis == "x" else nvars) + index - 1


class Polynomial:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(map(index, mono))
                if len(mono) != 2 * nvars:
                    raise ValueError(f"monomial {mono} needs {2 * nvars} exponents")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                if not isinstance(coeff, Rational):
                    raise TypeError(f"coefficient {coeff!r} is not an exact rational")
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap a term map without validating it: for callers whose keys are
        tuples of 2n nonnegative ints and whose values are nonzero Fractions
        by construction. The map is used as is, not copied."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * (2 * nvars): value})

    @classmethod
    def variable(cls, nvars: int, axis: str, index: int) -> "Polynomial":
        pos = _axis_offset(nvars, axis, index)
        return cls(nvars, {tuple(int(j == pos) for j in range(2 * nvars)): 1})

    @classmethod
    def monomial(cls, nvars: int, xexp: Sequence[int], yexp: Sequence[int], coeff=1) -> "Polynomial":
        xexp, yexp = tuple(xexp), tuple(yexp)
        if len(xexp) != nvars or len(yexp) != nvars:
            raise ValueError("exponent blocks must each have nvars entries")
        return cls(nvars, {xexp + yexp: coeff})

    # -- basic structure ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (x-degree, y-degree) pairs appearing among the terms."""
        n = self.nvars
        return {(sum(m[:n]), sum(m[n:])) for m in self.terms}

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched nvars: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial._trusted(self.nvars, {m: c for m, c in out.items() if c})

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict[Monomial, Fraction] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    key = tuple(ea + eb for ea, eb in zip(ma, mb))
                    out[key] = out.get(key, 0) + ca * cb
            return Polynomial._trusted(self.nvars, {m: c for m, c in out.items() if c})
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            terms = self.terms
            scaled = {key: c * other for key, c in {id(c): c for c in terms.values()}.items()}
            return Polynomial._trusted(self.nvars, dict(zip(terms, map(scaled.__getitem__, map(id, terms.values())))))
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus and substitution --------------------------------------

    def partial(self, axis: str, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index or y_index."""
        return diff_operator(Polynomial.variable(self.nvars, axis, index), self)

    def swap_alphabets(self) -> "Polynomial":
        """Exchange the x and y alphabets: p(X;Y) -> p(Y;X)."""
        n = self.nvars
        return Polynomial._trusted(n, {m[n:] + m[:n]: c for m, c in self.terms.items()})

    # -- canonical text form --------------------------------------------

    def _term_order(self) -> list[Monomial]:
        # total degree descending, then lexicographic on the concatenated
        # exponent vector; prints "x2 - x1" rather than "-x1 + x2". The
        # second sort is stable, so it keeps the lexicographic order of ties.
        order = sorted(self.terms)
        order.sort(key=sum, reverse=True)
        return order

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        n = self.nvars
        exponents = set().union(*terms) - {0}
        # xfactors[i][e] is the text of the factor x<i+1>^e, "x3^2"; "" for e = 0
        xfactors, yfactors = ([{0: "", **{e: f"{v}{i}" + (f"^{e}" if e > 1 else "") for e in exponents}}
                               for i in range(1, n + 1)] for v in "xy")
        # Each text is made once: a coefficient's is (sign, numerator alone,
        # numerator before a monomial, denominator), keyed by id, which is sound
        # as self.terms keeps the coefficients alive; delta(L)'s n! terms share
        # two. Every block text is cached before any term is written, so the
        # cache lies together in memory rather than among the terms.
        texts: dict[int, tuple[str, str, str, str]] = {}
        for coeff in {id(c): c for c in terms.values()}.values():
            num, den = abs(coeff.numerator), coeff.denominator
            try:
                texts[id(coeff)] = ("- " if coeff < 0 else "+ ", str(num),
                                    f"{num}*" if num != 1 else "", f"/{den}" if den != 1 else "")
            except ValueError:  # an integer longer than the interpreter writes
                raise ResourceLimitError(f"a coefficient has more than {sys.get_int_max_str_digits()}"
                                         " digits, the limit for integer text") from None
        order = self._term_order()
        constant = terms[order.pop()] if not any(order[-1]) else None  # sorts last
        xtexts, ytexts, xcol, ycol = {}, {}, [], []
        for mono in order:
            xb, yb = mono[:n], mono[n:]
            xs = xtexts.get(xb)
            if xs is None:
                xs = xtexts[xb] = "*".join(filter(None, map(getitem, xfactors, xb)))
            ys = ytexts.get(yb)
            if ys is None:
                ys = ytexts[yb] = "*".join(filter(None, map(getitem, yfactors, yb)))
            xcol.append(xs)
            ycol.append(ys)
        chunks = [f"{sign}{lead}{xs}{'*' if xs and ys else ''}{ys}{tail}" for (sign, _, lead, tail), xs, ys
                  in zip(map(texts.__getitem__, map(id, map(terms.__getitem__, order))), xcol, ycol)]
        if constant is not None:
            sign, alone, _, tail = texts[id(constant)]
            chunks.append(sign + alone + tail)
        first = chunks[0]
        chunks[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {str(self)!r})"


def diff_operator(operator: Polynomial, target: Polynomial) -> Polynomial:
    """Apply operator(dX; dY) to target, substituting each variable by the
    corresponding partial derivative."""
    if operator.nvars != target.nvars:
        raise ValueError(f"mismatched nvars: {operator.nvars} vs {target.nvars}")
    dden = math.lcm(*(c.denominator for c in operator.terms.values()))
    tden = math.lcm(*(c.denominator for c in target.terms.values()))
    # Each operator monomial as its nonzero (position, exponent) pairs.
    ops = [([(pos, a) for pos, a in enumerate(dmono) if a], c.numerator * (dden // c.denominator))
           for dmono, c in operator.terms.items()]
    nums = [(tmono, c.numerator * (tden // c.denominator)) for tmono, c in target.terms.items()]
    out: dict[Monomial, int] = {}
    for pairs, dnum in ops:
        for tmono, tnum in nums:
            coeff = dnum * tnum
            key = list(tmono)
            for pos, a in pairs:
                e = key[pos]
                if e < a:
                    break
                coeff *= math.perm(e, a)
                key[pos] = e - a
            else:
                k = tuple(key)
                out[k] = out.get(k, 0) + coeff
    den = dden * tden
    shared = {c: Fraction(c, den) for c in set(out.values()) if c}  # one Fraction per numerator
    return Polynomial._trusted(target.nvars, {m: shared[c] for m, c in out.items() if c})


def diagonal_action(sigma: Sequence[int], poly: Polynomial) -> Polynomial:
    """Permute both alphabets simultaneously: x_i -> x_{sigma_i}, y_i -> y_{sigma_i}.

    sigma is given in one-line notation with values 1..n.
    """
    n = poly.nvars
    sig = tuple(map(index, sigma))
    if sorted(sig) != list(range(1, n + 1)):
        raise ValueError(f"{sig} is not a permutation of 1..{n}")
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in poly.terms.items():
        xe = [0] * n
        ye = [0] * n
        for i in range(n):
            xe[sig[i] - 1] = mono[i]
            ye[sig[i] - 1] = mono[n + i]
        out[tuple(xe) + tuple(ye)] = coeff
    return Polynomial._trusted(n, out)


# One term of the text form in the module docstring; the sign is optional on
# the first term only.
_FACTOR = r"(?:\d+|[xy]\d+(?:\s*\^\s*\d+)?)"
_TERM_RE = re.compile(rf"\s*([+-]?)\s*({_FACTOR}(?:\s*\*\s*{_FACTOR})*)(?:\s*/\s*(\d+))?\s*")
_FACTOR_RE = re.compile(r"(\d+)|([xy])(\d+)(?:\s*\^\s*(\d+))?")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form produced by str(Polynomial).

    Raises ValueError on text outside the grammar in the module docstring.
    """
    text = text.replace("−", "-")
    terms: dict[Monomial, Fraction] = {}
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m[1]):
            raise ValueError(f"malformed polynomial text at position {pos}: {text[pos:pos + 20]!r}")
        num, exps = 1, [0] * (2 * nvars)
        for integer, axis, var, power in _FACTOR_RE.findall(m[2]):
            if integer:
                num *= int(integer)
            else:
                exps[_axis_offset(nvars, axis, int(var))] += int(power or 1)
        den = int(m[3] or 1)
        if not den:
            raise ValueError(f"zero denominator in the term {m[0].strip()!r}")
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + Fraction(-num if m[1] == "-" else num, den)
        pos = m.end()
        if pos == len(text):
            return Polynomial(nvars, terms)
