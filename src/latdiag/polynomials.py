"""Exact sparse polynomial arithmetic in the paired alphabets x1..xn, y1..yn.

A polynomial stores its coefficients as integer numerators over one positive
denominator `den`: `nums` maps each monomial to a nonzero int, and
gcd(den, *nums.values()) == 1, so equal polynomials store equal forms.
`terms` is a read-only view that yields each coefficient as Fraction(num,
den). `Polynomial` takes numbers.Rational coefficients and raises TypeError
for a float or a str. Polynomials are immutable: arithmetic makes new ones.

A monomial is a tuple of 2n exponents, the x-block first. The zero polynomial
has no terms and den 1, so it is falsy and has no bidegrees.

`Polynomial(...)` validates every term it is given. Results whose terms are
valid by construction skip that through `Polynomial._trusted`: arithmetic,
`partial`, `swap_alphabets`, `diff_operator`, `diagonal_action`,
`parse_polynomial`, `diagrams.delta`'s Leibniz expansion and `operators.expand`.

The text form, written by str(P) and read by parse_polynomial: one or more
terms, with an optional sign before the first and "+" or "-" between terms.
A term is factors joined by "*", each an integer or a variable x<i> or y<i>
(1 <= i <= n) with an optional "^e", then an optional "/den" with den > 0.
Whitespace may separate any two tokens; "−" reads as "-"; "0" is zero.
str(P) makes each distinct x-block, y-block and numerator text only once.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cache
from numbers import Rational
from operator import getitem, index

from .errors import ResourceLimitError

Monomial = tuple[int, ...]


def check_axis(axis: str) -> None:
    """Reject any axis name other than "x" or "y"."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def _axis_offset(nvars: int, axis: str, i: int) -> int:
    check_axis(axis)
    i = index(i)
    if not 1 <= i <= nvars:
        raise ValueError(f"variable index {i} out of range 1..{nvars}")
    return (0 if axis == "x" else nvars) + i - 1


class _Terms(Mapping):
    """Polynomial.terms: a read-only map from monomial to Fraction(num, den)."""

    __slots__ = ("den", "nums")

    def __init__(self, den: int, nums: dict[Monomial, int]):
        self.den, self.nums = den, nums

    def __getitem__(self, mono) -> Fraction:
        return Fraction(self.nums[mono], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)


class Polynomial:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "den", "nums", "_pairs")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be at least 1")
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
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
        # Over the lcm of reduced denominators, the numerators have no common factor with it.
        self.nvars, self.den = nvars, math.lcm(*(c.denominator for c in clean.values()))
        self.nums = {mono: c.numerator * (self.den // c.denominator) for mono, c in clean.items()}

    @classmethod
    def _trusted(cls, nvars: int, den: int, nums: dict[Monomial, int]) -> "Polynomial":
        """Wrap numerators over den, dividing out gcd(den, *nums.values()), without
        validating: for callers whose den is positive and whose map has tuples of 2n
        nonnegative ints as keys and nonzero ints as values (not copied if the gcd is 1)."""
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {mono: num // g for mono, num in nums.items()}
        poly = object.__new__(cls)
        poly.nvars, poly.den, poly.nums = nvars, den, nums
        return poly

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """The coefficients as Fractions, in the stored order; a read-only view."""
        return _Terms(self.den, self.nums)

    def _operator_pairs(self) -> list[tuple[list[tuple[int, int]], int]]:
        """Each term's nonzero (position, exponent) pairs and its numerator, kept."""
        if not hasattr(self, "_pairs"):
            self._pairs = [([(pos, a) for pos, a in enumerate(mono) if a], num)
                           for mono, num in self.nums.items()]
        return self._pairs

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
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.den == other.den and self.nums == other.nums

    def coefficient(self, mono: Monomial) -> Fraction:
        mono = tuple(mono)
        if len(mono) != 2 * self.nvars:
            raise ValueError(f"monomial {mono} needs {2 * self.nvars} exponents")
        return Fraction(self.nums.get(mono, 0), self.den)

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (x-degree, y-degree) pairs appearing among the terms."""
        n = self.nvars
        return {(sum(m[:n]), sum(m[n:])) for m in self.nums}

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mismatched nvars: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        out = dict(zip(self.nums, map((den // self.den).__mul__, self.nums.values())))
        for mono, num in zip(other.nums, map((den // other.den).__mul__, other.nums.values())):
            out[mono] = out.get(mono, 0) + num
        return Polynomial._trusted(self.nvars, den, {m: c for m, c in out.items() if c})

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            out: dict[Monomial, int] = {}
            for ma, ca in self.nums.items():
                for mb, cb in other.nums.items():
                    key = tuple(ea + eb for ea, eb in zip(ma, mb))
                    out[key] = out.get(key, 0) + ca * cb
            return Polynomial._trusted(self.nvars, self.den * other.den, {m: c for m, c in out.items() if c})
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial._trusted(self.nvars, self.den * other.denominator,
                                       dict(zip(self.nums, map(other.numerator.__mul__, self.nums.values()))))
        return NotImplemented

    __rmul__ = __mul__

    # -- calculus and substitution --------------------------------------

    def partial(self, axis: str, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index or y_index."""
        return diff_operator(Polynomial.variable(self.nvars, axis, index), self)

    def swap_alphabets(self) -> "Polynomial":
        """Exchange the x and y alphabets: p(X;Y) -> p(Y;X)."""
        n = self.nvars
        return Polynomial._trusted(n, self.den, {m[n:] + m[:n]: c for m, c in self.nums.items()})

    # -- canonical text form --------------------------------------------

    def _term_order(self) -> list[Monomial]:
        # total degree descending, then lexicographic on the concatenated
        # exponent vector; prints "x2 - x1" rather than "-x1 + x2". The
        # second sort is stable, so it keeps the lexicographic order of ties.
        order = sorted(self.nums)
        order.sort(key=sum, reverse=True)
        return order

    def __str__(self) -> str:
        nums, den = self.nums, self.den
        if not nums:
            return "0"
        n = self.nvars
        exponents = set().union(*nums) - {0}
        # xfactors[i][e] is the text of the factor x<i+1>^e, "x3^2"; "" for e = 0
        xfactors, yfactors = ([{0: "", **{e: f"{v}{i}" + (f"^{e}" if e > 1 else "") for e in exponents}}
                               for i in range(1, n + 1)] for v in "xy")
        # Each distinct numerator's text is made once: (sign, numerator alone,
        # numerator before a monomial, denominator) in lowest terms; delta(L)'s
        # n! terms have two. Every block text is cached before any term is
        # written, so the cache lies together in memory, not among the terms.
        texts: dict[int, tuple[str, str, str, str]] = {}
        for value in set(nums.values()):
            g = math.gcd(value, den)
            num, lowest = abs(value) // g, den // g
            try:
                texts[value] = ("- " if value < 0 else "+ ", str(num),
                                f"{num}*" if num != 1 else "", f"/{lowest}" if lowest != 1 else "")
            except ValueError:  # an integer longer than the interpreter writes
                raise ResourceLimitError(f"a coefficient has more than {sys.get_int_max_str_digits()}"
                                         " digits, the limit for integer text") from None
        order = self._term_order()
        constant = nums[order.pop()] if not any(order[-1]) else None  # sorts last
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
                  in zip(map(texts.__getitem__, map(nums.__getitem__, order)), xcol, ycol)]
        if constant is not None:
            sign, alone, _, tail = texts[constant]
            chunks.append(sign + alone + tail)
        first = chunks[0]
        chunks[0] = first[2:] if first[0] == "+" else "-" + first[2:]
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {str(self)!r})"


def diff_operator(operator: Polynomial, target: Polynomial) -> Polynomial:
    """Apply operator(dX; dY) to target, substituting each variable by the
    corresponding partial derivative: one product of numerators per term pair,
    over only the operator's nonzero (position, exponent) pairs, kept on it."""
    operator._check_compatible(target)
    nums = list(target.nums.items())
    out: dict[Monomial, int] = {}
    for pairs, dnum in operator._operator_pairs():
        for tmono, tnum in nums:
            for pos, a in pairs:
                if tmono[pos] < a:
                    break
            else:
                coeff, key = dnum * tnum, list(tmono)
                for pos, a in pairs:
                    coeff *= math.perm(key[pos], a)
                    key[pos] -= a
                k = tuple(key)
                out[k] = out.get(k, 0) + coeff
    return Polynomial._trusted(target.nvars, operator.den * target.den, {m: c for m, c in out.items() if c})


def diagonal_action(sigma: Sequence[int], poly: Polynomial) -> Polynomial:
    """Permute both alphabets simultaneously: x_i -> x_{sigma_i}, y_i -> y_{sigma_i}.

    sigma is given in one-line notation with values 1..n.
    """
    n = poly.nvars
    sig = tuple(map(index, sigma))
    if sorted(sig) != list(range(1, n + 1)):
        raise ValueError(f"{sig} is not a permutation of 1..{n}")
    out: dict[Monomial, int] = {}
    for mono, coeff in poly.nums.items():
        xe = [0] * n
        ye = [0] * n
        for i in range(n):
            xe[sig[i] - 1] = mono[i]
            ye[sig[i] - 1] = mono[n + i]
        out[tuple(xe) + tuple(ye)] = coeff
    return Polynomial._trusted(n, poly.den, out)


# One term of the text form in the module docstring; the sign is optional on
# the first term only.
_FACTOR = r"(?:\d+|[xy]\d+(?:\s*\^\s*\d+)?)"
_TERM_RE = re.compile(rf"\s*([+-]?)\s*({_FACTOR}(?:\s*\*\s*{_FACTOR})*)(?:\s*/\s*(\d+))?\s*")
_FACTOR_RE = re.compile(r"(\d+)|([xy])(\d+)(?:\s*\^\s*(\d+))?")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse the canonical text form produced by str(Polynomial).

    Raises ValueError on text outside the grammar in the module docstring.
    """
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    text = text.replace("−", "-")
    offset = cache(lambda axis, var: _axis_offset(nvars, axis, int(var)))  # once per variable text
    terms: list[tuple[Monomial, int, int]] = []
    pos = 0
    while pos < len(text) or not terms:
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m[1]):
            raise ValueError(f"malformed polynomial text at position {pos}: {text[pos:pos + 20]!r}")
        num, exps = 1, [0] * (2 * nvars)
        for integer, axis, var, power in _FACTOR_RE.findall(m[2]):
            if integer:
                num *= int(integer)
            else:
                exps[offset(axis, var)] += int(power or 1)
        den = int(m[3] or 1)
        if not den:
            raise ValueError(f"zero denominator in the term {m[0].strip()!r}")
        terms.append((tuple(exps), -num if m[1] == "-" else num, den))
        pos = m.end()
    lcm = math.lcm(*{den for _, _, den in terms})
    nums: dict[Monomial, int] = {}
    for mono, num, den in terms:
        nums[mono] = nums.get(mono, 0) + num * (lcm // den)
    return Polynomial._trusted(nvars, lcm, {mono: num for mono, num in nums.items() if num})
