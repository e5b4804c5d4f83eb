"""Bigraded dimension tables of the span of all derivatives of a determinant.

The span M_L of all partial derivatives of delta(L) is closed under
differentiation, so each homogeneous piece is spanned by the first partials
of a piece one degree above it. `hilbert` walks the bidegrees from the top,
(X, Y) = (row weight, column weight), down to (0, 0): the pieces (X, b) come
from the y-partials of (X, b+1), and every piece (a, b) with a < X from the
x-partials of (a+1, b). Any derivative of order (X-a, Y-b) with X-a >= 1
contains an x-partial, and partials commute, so that one predecessor is
enough.

The work happens in the divided-power basis x^[a] = x^a / a!, where delta(L)
has coefficients +-1 and a partial derivative only lowers one exponent.
Each piece is kept as integer rows in echelon form, keyed by leading
monomial: a candidate is reduced by fraction-free cross-multiplication and
divided by the gcd of its coefficients, and the dimension is the number of
rows that survive. `exact_rank` ranks any rational matrix with the same
routine, one column index per key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .diagrams import LatticeDiagram, delta, epsilon
from .errors import ResourceLimitError
from .polynomials import Polynomial

DEGREE_CAP = 12
# 7-cell Ferrers tables take 15-45 s; an 8-cell delta has eight times the
# terms (40,320) of a 7-cell one.
CELL_CAP = 7
# Rows in one bidegree piece. The largest piece of any 7-cell Ferrers diagram
# within the caps has 495 rows, (5,2); sparse 7-cell diagrams of high
# bidegree pass 1,000 rows and then run for minutes.
PIECE_CAP = 1000

# A polynomial in the divided-power basis: each monomial packed into an int,
# one fixed-width bit field per exponent with x1 lowest, mapped to its
# integer coefficient.
Row = dict[int, int]


def exact_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank of a matrix of numbers.Rational (TypeError otherwise) with rows of one
    length (ValueError otherwise): each row, scaled to integers, goes through `_insert`."""
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows differ in length")
    pivots: dict[int, Row] = {}
    for row in rows:
        if not all(isinstance(v, Rational) for v in row):
            raise TypeError(f"matrix row {list(row)!r} has an entry that is not an exact rational")
        scale = math.lcm(*(v.denominator for v in row))
        _insert(pivots, {col: v.numerator * (scale // v.denominator) for col, v in enumerate(row) if v})
    return len(pivots)


@dataclass(frozen=True, eq=True)
class HilbertTable:
    """Dimension of each bidegree piece of a derivative span."""

    x_top: int
    y_top: int
    dims: tuple[tuple[tuple[int, int], int], ...]

    def dim(self, a: int, b: int) -> int:
        return dict(self.dims).get((a, b), 0)

    @property
    def total(self) -> int:
        return sum(v for _, v in self.dims)

    def to_tsv(self) -> str:
        """Grid with rows indexed by x-degree and columns by y-degree."""
        table = dict(self.dims)
        lines = ["x\\y\t" + "\t".join(str(b) for b in range(self.y_top + 1))]
        for a in range(self.x_top + 1):
            lines.append(str(a) + "\t" + "\t".join(
                str(table.get((a, b), 0)) for b in range(self.y_top + 1)))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "x_top": self.x_top,
            "y_top": self.y_top,
            "total": self.total,
            "dims": [{"x": a, "y": b, "dim": v} for (a, b), v in self.dims],
        }


def hilbert(diagram: LatticeDiagram) -> HilbertTable:
    """The bigraded Hilbert series of the derivative span, as a table. Raises
    ResourceLimitError above DEGREE_CAP or CELL_CAP before expanding delta."""
    if not epsilon(diagram):
        raise ValueError("derivative span needs n distinct cells in the positive quadrant")
    x_top = diagram.row_weight
    y_top = diagram.column_weight
    if x_top > DEGREE_CAP or y_top > DEGREE_CAP:
        raise ResourceLimitError(
            f"bidegree ({x_top}, {y_top}) exceeds the degree cap {DEGREE_CAP}")
    n = len(diagram)
    if n > CELL_CAP:
        raise ResourceLimitError(f"diagram has {n} cells, expansion cap is {CELL_CAP}")
    # Expand through `delta`, not a Leibniz sweep of its own: the perfbench
    # tracer and the gate's injected faults reach `hilbert` through it.
    base = delta(diagram)
    width = max(map(max, base.nums)).bit_length() or 1
    mask = (1 << width) - 1
    shifts = [width * pos for pos in range(2 * n)]
    # column[b] is the echelon basis of the piece (a, b) for the current a
    column = [[_divided_powers(base, width)]]
    for _ in range(y_top):
        column.append(_partials_span(column[-1], shifts[n:], mask))
    column.reverse()
    dims = {}
    for a in range(x_top, -1, -1):
        if a < x_top:
            column = [_partials_span(basis, shifts[:n], mask) for basis in column]
        for b, basis in enumerate(column):
            if basis:
                dims[(a, b)] = len(basis)
    return HilbertTable(x_top, y_top, tuple(sorted(dims.items())))


def _divided_powers(poly: Polynomial, width: int) -> Row:
    """A polynomial whose divided-power coefficients are all +-1, as those of
    delta(L) are, as a Row with `width` bits per exponent."""
    row, den = {}, poly.den
    for mono, num in poly.nums.items():
        value = num * math.prod(math.factorial(e) for e in mono)
        if value not in (den, -den):
            raise RuntimeError(f"divided-power coefficient {value}/{den} of {mono} is not +-1")
        row[sum(e << (width * pos) for pos, e in enumerate(mono))] = value // den
    return row


def _partials_span(basis: list[Row], shifts: list[int], mask: int) -> list[Row]:
    """Echelon basis of the span of the partials of the basis rows, one
    partial per exponent field starting at a bit in shifts. Raises
    ResourceLimitError as soon as the basis has more than PIECE_CAP rows."""
    pivots: dict[int, Row] = {}
    for row in basis:
        for shift in shifts:
            unit = 1 << shift
            _insert(pivots, {m - unit: c for m, c in row.items() if m >> shift & mask})
            if len(pivots) > PIECE_CAP:
                raise ResourceLimitError(
                    f"a bidegree piece has more than {PIECE_CAP} basis rows")
    return list(pivots.values())


def _insert(pivots: dict[int, Row], row: Row) -> None:
    """Reduce a row against the echelon rows, keyed by leading monomial, and
    keep what survives as a new one: divided by the gcd of its coefficients,
    with a positive leading coefficient."""
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            g = math.gcd(*row.values())
            if row[lead] < 0:
                g = -g
            if g != 1:
                row = {m: c // g for m, c in row.items()}
            pivots[lead] = row
            return
        p, q = pivot[lead], row[lead]
        if p != 1:
            # fraction-free: row becomes p*row - q*pivot, with p and q coprime
            g = math.gcd(p, q)
            p, q = p // g, q // g
            for m in row:
                row[m] *= p
        for m, c in pivot.items():
            v = row.get(m, 0) - q * c
            if v:
                row[m] = v
            else:
                del row[m]
        if p != 1 and row:
            g = math.gcd(*row.values())
            if g > 1:
                row = {m: c // g for m, c in row.items()}
