"""Exact sparse polynomial arithmetic in the paired alphabets x1..xn, y1..yn.

Coefficients are arbitrary-precision rationals and every operation is exact;
there is no floating point anywhere. Polynomials are immutable values (all
arithmetic returns fresh objects), so they are safe to share across threads.

A monomial is a tuple of 2n exponents, the x-block first. The zero polynomial
has an empty term map and reports its degrees as None.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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
        return Polynomial(self.nvars, {m: c for m, c in out.items() if c})

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

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
            return Polynomial(self.nvars, out)
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus and substitution --------------------------------------

    def partial(self, axis: str, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index or y_index."""
        pos = _axis_offset(self.nvars, axis, index)
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[pos]
            if e:
                key = mono[:pos] + (e - 1,) + mono[pos + 1:]
                out[key] = out.get(key, Fraction(0)) + coeff * e
        return Polynomial(self.nvars, out)

    def swap_alphabets(self) -> "Polynomial":
        """Exchange the x and y alphabets: p(X;Y) -> p(Y;X)."""
        n = self.nvars
        return Polynomial(n, {m[n:] + m[:n]: c for m, c in self.terms.items()})

    # -- canonical text form --------------------------------------------

    def _term_order(self):
        # total degree descending, then lexicographic on the concatenated
        # exponent vector; prints "x2 - x1" rather than "-x1 + x2"
        return sorted(self.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        n = self.nvars

        def mono_str(m: Monomial) -> str:
            parts = []
            for i in range(n):
                if m[i]:
                    parts.append(f"x{i + 1}" + (f"^{m[i]}" if m[i] > 1 else ""))
            for i in range(n):
                if m[n + i]:
                    parts.append(f"y{i + 1}" + (f"^{m[n + i]}" if m[n + i] > 1 else ""))
            return "*".join(parts)

        pieces = []
        for mono, coeff in self._term_order():
            num, den = abs(coeff.numerator), coeff.denominator
            ms = mono_str(mono)
            if not ms:
                body = str(num) + (f"/{den}" if den != 1 else "")
            else:
                body = (f"{num}*" if num != 1 else "") + ms + (f"/{den}" if den != 1 else "")
            pieces.append((coeff < 0, body))
        first_neg, first_body = pieces[0]
        chunks = [("-" if first_neg else "") + first_body]
        for neg, body in pieces[1:]:
            chunks.append(("- " if neg else "+ ") + body)
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
    return Polynomial(target.nvars, {m: c for m, c in out.items() if c})


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
    return Polynomial(n, out)


_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<var>[xy]\d+)|(?P<sym>[*^/+-])")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"unexpected character {text[pos]!r} in polynomial text")
        tokens.append((m.lastgroup, m.group()))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form produced by str(Polynomial).

    Accepts the ASCII minus "-" and the typographic minus "−".
    """
    tokens = _tokenize(text.replace("−", "-"))
    if not tokens:
        raise ValueError("empty polynomial text")
    terms: dict[Monomial, Fraction] = {}
    i = 0

    def parse_term() -> tuple[Fraction, Monomial]:
        nonlocal i
        num = 1
        den = 1
        exps = [0] * (2 * nvars)
        saw_factor = False
        while i < len(tokens):
            kind, value = tokens[i]
            if kind == "int":
                num *= int(value)
                saw_factor = True
                i += 1
            elif kind == "var":
                axis, index = value[0], int(value[1:])
                pos = _axis_offset(nvars, axis, index)
                i += 1
                e = 1
                if i < len(tokens) and tokens[i] == ("sym", "^"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        raise ValueError("expected integer exponent after '^'")
                    e = int(tokens[i][1])
                    i += 1
                exps[pos] += e
                saw_factor = True
            else:
                break
            if i < len(tokens) and tokens[i] == ("sym", "*"):
                i += 1
                continue
            if i < len(tokens) and tokens[i] == ("sym", "/"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    raise ValueError("expected integer denominator after '/'")
                den = int(tokens[i][1])
                i += 1
                break
            break
        if not saw_factor:
            raise ValueError("expected a term")
        return Fraction(num, den), tuple(exps)

    sign = 1
    if tokens[0] == ("sym", "-"):
        sign = -1
        i = 1
    elif tokens[0] == ("sym", "+"):
        i = 1
    while True:
        coeff, mono = parse_term()
        terms[mono] = terms.get(mono, 0) + sign * coeff
        if i >= len(tokens):
            break
        kind, value = tokens[i]
        if (kind, value) == ("sym", "+"):
            sign = 1
        elif (kind, value) == ("sym", "-"):
            sign = -1
        else:
            raise ValueError(f"unexpected token {value!r} in polynomial text")
        i += 1
    return Polynomial(nvars, terms)
