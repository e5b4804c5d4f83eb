"""Column tableaux, merged-word parenthesization, and the shape involution.

A column tableau is a tuple of strictly increasing columns read bottom to
top; the shape is the composition of column heights. Column-strict Young
tableaux are the members whose shape is a partition and whose rows weakly
increase, which the pairing criterion detects without looking at rows. One
enumeration fills columns by row range: enumerate_cs_tableaux's start on the
bottom row, enumerate_column_families' are stacked so no two share a row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from operator import index

from .combinat import check_partition, conjugate, parse_ints, permutation_sign, staircase
from .errors import ResourceLimitError


@dataclass(frozen=True)
class ColumnTableau:
    """A tuple of strictly increasing columns with entries in 1..max_entry."""

    columns: tuple[tuple[int, ...], ...]
    max_entry: int

    def __post_init__(self):
        cols = tuple(tuple(map(index, col)) for col in self.columns)
        object.__setattr__(self, "columns", cols)
        for col in cols:
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                raise ValueError(f"column {col} is not strictly increasing")
            if col and (col[0] < 1 or col[-1] > self.max_entry):
                raise ValueError(f"column {col} has entries outside 1..{self.max_entry}")

    @classmethod
    def _trusted(cls, columns: tuple[tuple[int, ...], ...], max_entry: int) -> "ColumnTableau":
        """Wrap, unvalidated, columns that are strict int tuples in 1..max_entry."""
        tab = object.__new__(cls)
        object.__setattr__(tab, "columns", columns)
        object.__setattr__(tab, "max_entry", max_entry)
        return tab

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(col) for col in self.columns)

    def entry_multiplicities(self) -> dict[int, int]:
        """How many times each entry occurs across all columns."""
        mult: dict[int, int] = {}
        for col in self.columns:
            for v in col:
                mult[v] = mult.get(v, 0) + 1
        return mult

    def __str__(self) -> str:
        return "|".join(",".join(str(v) for v in col) if col else "_" for col in self.columns)


def parse_tableau(text: str) -> ColumnTableau:
    """Parse the "|"-separated column format, e.g. "7,8,10|3,9|4,5,6,8".

    An empty column is written "_". Entries are listed bottom to top, and
    max_entry is the largest entry.
    """
    chunks = [chunk.strip() for chunk in text.split("|")]
    cols = [() if chunk == "_" else parse_ints(chunk, "column") for chunk in chunks]
    return ColumnTableau(tuple(cols), max((col[-1] for col in cols if col), default=0))


@dataclass(frozen=True)
class WordPair:
    """Merged sorted word of two adjacent columns with parenthesis marks.

    Entries from the left column carry "(", entries from the right column
    carry ")"; a value occurring in both columns is read left-column-first.
    Pairing follows the usual nesting rule, so the unpaired marks always read
    ")...)(...(" in position order.
    """

    word: tuple[int, ...]
    marks: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    unpaired_rights: tuple[int, ...]
    unpaired_lefts: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.unpaired_rights)

    @property
    def l(self) -> int:
        return len(self.unpaired_lefts)

    def word_str(self) -> str:
        return " ".join(str(v) for v in self.word)

    def marks_str(self) -> str:
        return " ".join(self.marks)


def word_pair(left: tuple[int, ...], right: tuple[int, ...]) -> WordPair:
    """Merge two strict columns into the tagged word with its pairing."""
    for col in (left, right):
        if len(set(col)) != len(col):
            raise ValueError(f"column {col} has a repeated entry")
    tagged = sorted([(v, 0) for v in left] + [(v, 1) for v in right])
    word = tuple(v for v, _ in tagged)
    marks = tuple("(" if side == 0 else ")" for _, side in tagged)
    stack: list[int] = []
    pairs: list[tuple[int, int]] = []
    unpaired_rights: list[int] = []
    for pos, mark in enumerate(marks):
        if mark == "(":
            stack.append(pos)
        elif stack:
            pairs.append((stack.pop(), pos))
        else:
            unpaired_rights.append(pos)
    unpaired_lefts = stack
    if unpaired_rights and unpaired_lefts and unpaired_rights[-1] > unpaired_lefts[0]:
        raise RuntimeError(f"pairing of {left} and {right} left a '(' unpaired before a ')'")
    return WordPair(word, marks, tuple(sorted(pairs)), tuple(unpaired_rights), tuple(unpaired_lefts))


def two_column_move(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rewrite the unpaired marks of an incompatible column pair.

    With r unpaired right marks and l unpaired left marks: for l >= r > 0 the
    l-r+1 leftmost unpaired lefts become rights; for r > l the r-l-1 rightmost
    unpaired rights become lefts. Either way the merged word is unchanged and
    the column sizes go from (|left|, |right|) to (|right|-1, |left|+1).
    The caller handles the r = 0 fixed-point case.
    """
    wp = word_pair(left, right)
    r, l = wp.r, wp.l
    if r == 0:
        raise ValueError("columns are already compatible; no move is defined")
    marks = list(wp.marks)
    if l >= r:
        for pos in wp.unpaired_lefts[: l - r + 1]:
            marks[pos] = ")"
    else:
        flip = r - l - 1
        for pos in (wp.unpaired_rights[-flip:] if flip else ()):
            marks[pos] = "("
    new_left = tuple(v for v, mark in zip(wp.word, marks) if mark == "(")
    new_right = tuple(v for v, mark in zip(wp.word, marks) if mark == ")")
    return new_left, new_right


def is_column_strict(tableau: ColumnTableau) -> bool:
    """Pairing criterion: column-strict iff no adjacent column pair has an
    unpaired right parenthesis."""
    cols = tableau.columns
    return all(word_pair(cols[j], cols[j + 1]).r == 0 for j in range(len(cols) - 1))


# Most columns one enumeration may write, counted before each stage; the
# operators bound staged tableaux, and power-sum survivors, times cells by it.
# Slowest admitted, as measured: (1,1,1,1) on 71 entries, 971,635 tableaux, 2.5-3.2 s, 247 MB.
ENUMERATION_CAP = 10**6


def _check_count(count: int) -> None:
    if count > ENUMERATION_CAP:
        raise ResourceLimitError(f"{count} columns for column-strict tableaux, enumeration cap is {ENUMERATION_CAP}")


def _fillings(outer: tuple[int, ...], inner: tuple[int, ...], n: int) -> tuple[ColumnTableau, ...]:
    """Column-strict fillings, entries in 1..n, in increasing column reading
    word, of the shape whose column j covers rows inner[j] .. outer[j]-1
    (inner weakly decreasing). A candidate column is kept when it is row-wise
    at least the column before on the rows they share. Before each stage the
    partial tableaux times candidates times columns so far join one count."""
    built: list[tuple[tuple[int, ...], ...]] = [()]
    count = 0
    for j, (top, bottom) in enumerate(zip(outer, inner)):
        count += len(built) * math.comb(max(n, 0), top - bottom) * (j + 1)
        _check_count(count)
        pool = list(itertools.combinations(range(1, n + 1), top - bottom))
        skip = inner[j - 1] - bottom if j else 0  # rows below the previous column

        @cache  # the candidates kept after each previous column; an empty one keeps all
        def fits(prev: tuple[int, ...]) -> list[tuple[int, ...]]:
            return [col for col in pool if all(a >= b for a, b in zip(col[skip:], prev))] if prev else pool
        built = [cols + (col,) for cols in built for col in fits(cols[-1] if cols else ())]
    return tuple(ColumnTableau._trusted(cols, n) for cols in built)


@cache
def enumerate_column_families(alpha: tuple[int, ...], n: int) -> tuple[ColumnTableau, ...]:
    """All tuples of strict columns of the given heights with entries in 1..n,
    in itertools.product order; a negative height empties the family. Column
    j covers rows alpha_(j+1) + ... + alpha_m up to alpha_j + ... + alpha_m,
    so no two columns share a row."""
    alpha = tuple(map(index, alpha))
    if any(a < 0 for a in alpha):
        return ()
    outer = tuple(itertools.accumulate(reversed(alpha)))[::-1]
    return _fillings(outer, outer[1:] + (0,), n)


@cache
def enumerate_cs_tableaux(lam: tuple[int, ...], n: int) -> tuple[ColumnTableau, ...]:
    """All column-strict Young tableaux of partition shape lam, entries in 1..n,
    in increasing order of their column reading word. A shape with more than
    n rows has none; ENUMERATION_CAP bounds lam[0], the columns of the last
    stage, before the conjugate is built."""
    lam = check_partition(lam)
    if lam and len(lam) > n:
        return ()
    _check_count(max(lam, default=0))
    return _fillings(conjugate(lam), (0,) * max(lam, default=0), n)


def find_violating_pair(tableau: ColumnTableau) -> tuple[int, int] | None:
    """Locate the first breach of column-strictness.

    Adjacent column pairs are scanned right to left; within a pair, rows
    bottom to top. A breach at row i between columns j and j+1 is either an
    entry inversion T(i,j) > T(i,j+1) or a cell present at (i, j+1) but
    absent at (i, j). Returns (row, left column index) or None.
    """
    cols = tableau.columns
    for j in range(len(cols) - 2, -1, -1):
        left, right = cols[j], cols[j + 1]
        for i in range(max(len(left), len(right))):
            if i < len(left) and i < len(right):
                if left[i] > right[i]:
                    return (i, j)
            elif i < len(right):
                return (i, j)
    return None


def shape_orbit_sign(alpha: tuple[int, ...], lam: tuple[int, ...]) -> int:
    """Sign of the permutation placing a shape in the staircase orbit of lam.

    alpha lies in the orbit when alpha + staircase rearranges
    conjugate(lam) + staircase; the rearrangement is unique because the
    target is strictly decreasing, so its sign is read off without walking
    the orbit. Raises ValueError outside the orbit.
    """
    alpha = tuple(map(index, alpha))
    if not check_partition(lam):
        raise ValueError("need a nonempty partition")
    outside = f"shape {alpha} is not in the orbit of {lam}"
    if len(alpha) != lam[0]:  # the conjugate's length, checked before building it
        raise ValueError(outside)
    lam_conj = conjugate(lam)
    d = staircase(lam[0])
    position = {c + s: i for i, (c, s) in enumerate(zip(lam_conj, d))}
    shifted = [a + s for a, s in zip(alpha, d)]
    if sorted(shifted) != sorted(position):
        raise ValueError(outside)
    return permutation_sign([position[v] for v in shifted])


@dataclass(frozen=True)
class PsiStep:
    """One application of the involution, with diagnostics for the moved pair."""

    source: ColumnTableau
    result: ColumnTableau
    fixed: bool
    pair: tuple[int, int] | None
    before: WordPair | None
    after: WordPair | None


def psi_step(tableau: ColumnTableau, lam: tuple[int, ...]) -> PsiStep:
    """Apply the involution to a tableau in the staircase orbit of lam.

    Column-strict tableaux are fixed. Otherwise the two columns at the first
    violating pair are rewritten by two_column_move; the result lies in the
    adjacent orbit shape, keeps the merged word, and maps back under a second
    application.
    """
    shape_orbit_sign(tableau.shape, lam)
    violation = find_violating_pair(tableau)
    if violation is None:
        return PsiStep(tableau, tableau, True, None, None, None)
    i, j = violation
    cols = tableau.columns
    before = word_pair(cols[j], cols[j + 1])
    new_left, new_right = two_column_move(cols[j], cols[j + 1])
    result = ColumnTableau(cols[:j] + (new_left, new_right) + cols[j + 2:], tableau.max_entry)
    return PsiStep(tableau, result, False, (i, j), before, word_pair(new_left, new_right))


def psi(tableau: ColumnTableau, lam: tuple[int, ...]) -> ColumnTableau:
    """The sign-reversing, word-preserving involution on the orbit set of lam."""
    return psi_step(tableau, lam).result
