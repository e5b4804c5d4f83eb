"""Exact sparse polynomial arithmetic in the paired alphabets x1..xn, y1..yn.

Coefficients are arbitrary-precision rationals and every operation is exact;
there is no floating point anywhere. Polynomials are immutable values (all
arithmetic returns fresh objects), so they are safe to share across threads.

A monomial is a tuple of 2n exponents, the x-block first. The zero polynomial
has an empty term map and reports its degrees as None.

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
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import getitem
from typing import Mapping, Sequence

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
                mono = tuple(int(e) for e in mono)
                if len(mono) != 2 * nvars:
                    raise ValueError(f"monomial {mono} needs {2 * nvars} exponents")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
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
        return cls(nvars, {(0,) * (2 * nvars): Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, axis: str, index: int) -> "Polynomial":
        pos = _axis_offset(nvars, axis, index)
        mono = [0] * (2 * nvars)
        mono[pos] = 1
        return cls(nvars, {tuple(mono): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, xexp: Sequence[int], yexp: Sequence[int], coeff=1) -> "Polynomial":
        xexp, yexp = tuple(xexp), tuple(yexp)
        if len(xexp) != nvars or len(yexp) != nvars:
            raise ValueError("exponent blocks must each have nvars entries")
        return cls(nvars, {xexp + yexp: Fraction(coeff)})

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def total_degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def degree(self, axis: str) -> int | None:
        """Maximal degree in one alphabet, or None for the zero polynomial."""
        check_axis(axis)
        if not self.terms:
            return None
        n = self.nvars
        lo, hi = (0, n) if axis == "x" else (n, 2 * n)
        return max(sum(m[lo:hi]) for m in self.terms)

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (x-degree, y-degree) pairs appearing among the terms."""
        n = self.nvars
        return {(sum(m[:n]), sum(m[n:])) for m in self.terms}

    def bidegree(self) -> tuple[int, int] | None:
        """The unique bidegree of a bihomogeneous polynomial (None when zero)."""
        degs = self.bidegrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"polynomial is not bihomogeneous: bidegrees {sorted(degs)}")
        return next(iter(degs))

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
        return Polynomial._trusted(self.nvars, {m: -c for m, c in self.terms.items()})

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
            return Polynomial._trusted(self.nvars, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus and substitution --------------------------------------

    def partial(self, axis: str, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index or y_index."""
        pos = _axis_offset(self.nvars, axis, index)
        # lowering one exponent is injective on the monomials that keep a term
        return Polynomial._trusted(self.nvars, {
            mono[:pos] + (e - 1,) + mono[pos + 1:]: coeff * e
            for mono, coeff in self.terms.items() if (e := mono[pos])})

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
        top = max(map(max, terms))
        # factors[pos][e] is the text of one variable factor, "x3^2"; "" for e = 0
        factors = [[""] + [f"{v}{i}" + (f"^{e}" if e > 1 else "") for e in range(1, top + 1)]
                   for v in "xy" for i in range(1, n + 1)]
        # The text of each coefficient is made once: (sign, numerator alone,
        # numerator before a monomial, denominator). Keyed by id, which is
        # sound because self.terms keeps every coefficient alive meanwhile;
        # delta(L) shares two Fraction objects across all its terms.
        texts: dict[int, tuple[str, str, str, str]] = {}
        chunks = []
        for mono in self._term_order():
            coeff = terms[mono]
            text = texts.get(id(coeff))
            if text is None:
                num, den = abs(coeff.numerator), coeff.denominator
                text = texts[id(coeff)] = ("- " if coeff < 0 else "+ ", str(num),
                                           f"{num}*" if num != 1 else "",
                                           f"/{den}" if den != 1 else "")
            sign, alone, lead, tail = text
            ms = "*".join(filter(None, map(getitem, factors, mono)))
            chunks.append(sign + (lead + ms if ms else alone) + tail)
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
    width = 2 * operator.nvars
    out: dict[Monomial, Fraction] = {}
    for dmono, dcoeff in operator.terms.items():
        for tmono, tcoeff in target.terms.items():
            coeff = dcoeff * tcoeff
            key = []
            for pos in range(width):
                e, a = tmono[pos], dmono[pos]
                if e < a:
                    break
                if a:
                    coeff *= math.perm(e, a)
                key.append(e - a)
            else:
                k = tuple(key)
                out[k] = out.get(k, 0) + coeff
    return Polynomial._trusted(target.nvars, {m: c for m, c in out.items() if c})


def diagonal_action(sigma: Sequence[int], poly: Polynomial) -> Polynomial:
    """Permute both alphabets simultaneously: x_i -> x_{sigma_i}, y_i -> y_{sigma_i}.

    sigma is given in one-line notation with values 1..n.
    """
    n = poly.nvars
    sig = tuple(int(v) for v in sigma)
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
        for integer, axis, index, power in _FACTOR_RE.findall(m[2]):
            if integer:
                num *= int(integer)
            else:
                exps[_axis_offset(nvars, axis, int(index))] += int(power or 1)
        den = int(m[3] or 1)
        if not den:
            raise ValueError(f"zero denominator in the term {m[0].strip()!r}")
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + Fraction(-num if m[1] == "-" else num, den)
        pos = m.end()
        if pos == len(text):
            return Polynomial(nvars, terms)
