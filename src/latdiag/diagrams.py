"""Lattice cells and diagrams, the determinant construction, and signed sums.

A cell (p, q) sits in row p+1, column q+1 of the positive quadrant. Diagrams
store their cells weakly increasing under the lexicographic order that
compares columns first. Cells with negative coordinates and repeated cells
are representable (movement rules produce them transiently); both force the
determinant to vanish.

`delta` expands the determinant in one sweep over the permutations in
lexicographic order: each sign comes from a per-n parity table
(`combinat.lex_parities`), and every term's numerator is +1 or -1 over the
one denominator prod(p! q!). An LRU cache of `DELTA_CACHE_SIZE` entries
keeps recent expansions of at most 6 cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterable, Iterator

from .combinat import DETERMINANT_CAP, check_partition, lex_parities, parse_ints, permutation_sign
from .errors import ResourceLimitError
from .polynomials import Polynomial

Cell = tuple[int, int]

# _delta_expand takes the factorial of every coordinate; factorial(1000)
# costs well under a millisecond.
COORDINATE_CAP = 1000


def lex_key(cell: Cell) -> tuple[int, int]:
    p, q = cell
    return (q, p)


@dataclass(frozen=True)
class LatticeDiagram:
    """An ordered list of cells, weakly increasing in the lexicographic order."""

    cells: tuple[Cell, ...]

    def __post_init__(self):
        cells = tuple((index(p), index(q)) for p, q in self.cells)
        object.__setattr__(self, "cells", cells)
        keys = [lex_key(c) for c in cells]
        if any(keys[i] > keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError(f"cells not in lexicographic order: {cells}")

    @classmethod
    def _trusted(cls, cells: tuple[Cell, ...]) -> "LatticeDiagram":
        """Wrap, unvalidated, a tuple of int pairs in lexicographic order."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "cells", cells)
        return diagram

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    @property
    def row_weight(self) -> int:
        """Sum of row coordinates; the x-degree of the determinant."""
        return sum(p for p, _ in self.cells)

    @property
    def column_weight(self) -> int:
        """Sum of column coordinates; the y-degree of the determinant."""
        return sum(q for _, q in self.cells)

    def __str__(self) -> str:
        return ";".join(f"{p},{q}" for p, q in self.cells)


def normalize(cells: Iterable[Cell]) -> tuple[LatticeDiagram, int]:
    """Sort cells lexicographically; return the diagram and the sorting sign.

    The sign is the parity of the permutation that reorders the input. When
    two cells are equal the sign is +1 by convention (the determinant is zero
    anyway, but the function stays total).
    """
    cells = [(index(p), index(q)) for p, q in cells]
    order = sorted(range(len(cells)), key=lambda i: lex_key(cells[i]))
    sign = 1 if len(set(cells)) != len(cells) else permutation_sign(order)
    return LatticeDiagram._trusted(tuple(cells[i] for i in order)), sign


def epsilon(diagram: LatticeDiagram | Iterable[Cell]) -> int:
    """1 when all cells are distinct and inside the positive quadrant, else 0."""
    cells = diagram.cells if isinstance(diagram, LatticeDiagram) else tuple(diagram)
    if len(set(cells)) != len(cells):
        return 0
    return 1 if all(p >= 0 and q >= 0 for p, q in cells) else 0


def ferrers(mu: Iterable[int]) -> LatticeDiagram:
    """The Ferrers diagram of a partition: row i holds mu[i] cells."""
    mu = check_partition(mu)
    cells = [(i, j) for i in range(len(mu)) for j in range(mu[i])]
    diagram, _ = normalize(cells)
    return diagram


def complement_cells(diagram: LatticeDiagram, row_bound: int, col_bound: int) -> tuple[Cell, ...]:
    """Cells of the box [0..row_bound] x [0..col_bound] not in the diagram, in
    lexicographic order. The full complement is infinite; callers choose
    bounds large enough for their purpose."""
    present = set(diagram.cells)
    return tuple(
        (p, q)
        for q in range(col_bound + 1)
        for p in range(row_bound + 1)
        if (p, q) not in present
    )


# A suite run over the default desk universe asks for 255 distinct diagrams;
# delta caches only expansions of at most 6 cells.
DELTA_CACHE_SIZE = 512


@lru_cache(maxsize=DELTA_CACHE_SIZE)
def _delta_expand(cells: tuple[Cell, ...]) -> Polynomial:
    n = len(cells)
    if not epsilon(cells):
        return Polynomial.zero(n)
    denom = 1
    for p, q in cells:
        denom *= math.factorial(p) * math.factorial(q)
    # Row i of the matrix holds x_i^p y_i^q / (p! q!) in column j, so a
    # permutation puts x_i^{p_perm(i)} y_i^{q_perm(i)} in its term. The cells
    # are distinct, so every permutation gives its own monomial, and its
    # numerator over denom is the permutation's sign.
    rows = [p for p, _ in cells]
    cols = [q for _, q in cells]
    keys = map(tuple.__add__, itertools.permutations(rows), itertools.permutations(cols))
    return Polynomial._trusted(n, denom, dict(zip(keys, map((1, -1).__getitem__, lex_parities(n)))))


def delta(diagram: LatticeDiagram) -> Polynomial:
    """The lattice diagram determinant with entries x_i^{p_j} y_i^{q_j} / (p_j! q_j!).

    Returns the zero polynomial when the diagram has a repeated cell or a
    negative coordinate. Expanded by the Leibniz sum: every matrix entry is a
    single monomial, so each permutation contributes one term. Raises
    ResourceLimitError above DETERMINANT_CAP cells or COORDINATE_CAP.
    """
    n = len(diagram)
    if n < 1:
        raise ValueError("determinant needs at least one cell")
    if n > DETERMINANT_CAP:
        raise ResourceLimitError(f"diagram has {n} cells, expansion cap is {DETERMINANT_CAP}")
    if max(max(cell) for cell in diagram.cells) > COORDINATE_CAP:
        raise ResourceLimitError(f"a coordinate of {diagram} exceeds the cap {COORDINATE_CAP}")
    # An entry holds n! terms, about 130 KB at 6 cells and 8 MB at 8, so a
    # full cache of larger expansions would hold gigabytes: they bypass it.
    return (_delta_expand if n <= 6 else _delta_expand.__wrapped__)(diagram.cells)


def transpose(diagram: LatticeDiagram) -> tuple[LatticeDiagram, int]:
    """Swap row and column coordinates of every cell, resorting afterwards.

    Satisfies delta(transpose(L)) == sign * delta(L) with the alphabets
    exchanged, where sign is the returned sorting sign.
    """
    return normalize((q, p) for p, q in diagram.cells)


def parse_cells(text: str) -> list[Cell]:
    """Parse a semicolon-separated cell list such as "0,0;1,0;0,1"."""
    cells = []
    for chunk in text.strip().split(";"):
        cell = parse_ints(chunk, "cell")
        if len(cell) != 2:
            raise ValueError(f"cannot parse cell {chunk!r}")
        cells.append(cell)
    return cells


def parse_diagram(text: str) -> tuple[LatticeDiagram, int]:
    """Parse a diagram, sorting the cells; returns the sorting sign as well."""
    return normalize(parse_cells(text))


class SignedDiagramSum:
    """Canonical integer combination of equal-size lattice diagrams.

    Terms with a zero coefficient are dropped, and only diagrams with
    epsilon = 1 are stored: every other diagram has a vanishing determinant.
    """

    __slots__ = ("ncells", "_terms")

    def __init__(self, ncells: int, terms=None):
        self.ncells = ncells
        self._terms: dict[LatticeDiagram, int] = {}
        if terms:
            pairs = terms.items() if hasattr(terms, "items") else terms
            for diagram, coeff in pairs:
                self.add(diagram, coeff)

    def add(self, diagram: LatticeDiagram, coeff: int) -> None:
        if len(diagram) != self.ncells:
            raise ValueError(f"diagram has {len(diagram)} cells, sum holds {self.ncells}")
        coeff = index(coeff)
        if coeff == 0 or not epsilon(diagram):
            return
        acc = self._terms.get(diagram, 0) + coeff
        if acc:
            self._terms[diagram] = acc
        else:
            del self._terms[diagram]

    def coefficient(self, diagram: LatticeDiagram) -> int:
        return self._terms.get(diagram, 0)

    def items(self) -> list[tuple[LatticeDiagram, int]]:
        """Terms sorted by the diagrams' cell lists under the lexicographic order,
        each cell read as its rank among the sum's distinct cells."""
        rank = {c: i for i, c in enumerate(sorted({c for d in self._terms for c in d.cells}, key=lex_key))}
        return sorted(self._terms.items(), key=lambda kv: list(map(rank.__getitem__, kv[0].cells)))

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedDiagramSum):
            return NotImplemented
        return self.ncells == other.ncells and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return "\n".join(f"{c:+d} * [{d}]" for d, c in self.items())

    def __repr__(self) -> str:
        return f"SignedDiagramSum({self.ncells}, {dict(self.items())!r})"

    def to_json_obj(self) -> dict:
        return {
            "ncells": self.ncells,
            "terms": [{"coeff": c, "diagram": str(d)} for d, c in self.items()],
        }
