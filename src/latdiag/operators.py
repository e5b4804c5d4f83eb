"""Cell-movement rules for symmetric differential operators on diagrams.

Each rule turns an operator application into a signed sum of diagrams whose
determinants add up to the honest derivative. p_k moves one cell k steps
along its own axis, k rows down along x and k columns left along y, and
resorts with the sign. Every other rule is a staged sum over tableaux whose
entries drop cells one row at a time: s_lambda over the column-strict Young
tableaux of shape lambda, e_alpha over those of columns alpha sharing no row,
e_k the one-column e_(k) and h_k the one-row s_(k). Only these staged rules
transpose, because a one-column move can reorder the lexicographic positions
while a one-row move cannot: along y they run on the transposed diagram, and
each distinct moved diagram is transposed back once, with both resort signs.

Tableau entries always index cells of the *original* diagram in lex order.
This stays well defined across stages: a one-row move within a column either
collides (killing the term) or preserves the relative order of all cells,
so surviving intermediate diagrams never reorder.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable

from .combinat import check_partition, staircase_orbit
from .diagrams import (
    Cell,
    LatticeDiagram,
    SignedDiagramSum,
    delta,
    epsilon,
    lex_key,
    transpose,
)
from .errors import ResourceLimitError
from .polynomials import Polynomial, check_axis
from .tableaux import ENUMERATION_CAP, ColumnTableau, enumerate_column_families, enumerate_cs_tableaux


def _check_rule_input(diagram: LatticeDiagram, axis: str) -> None:
    check_axis(axis)
    if not epsilon(diagram):
        raise ValueError("movement rules need n distinct cells in the positive quadrant")


def apply_power_sum(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Power sum rule: move one cell k steps along the axis, by (k, 0) along
    x and by (0, k) along y, once per cell position.

    A move lowers the cell's lexicographic key: the cell is bisected into place,
    and its coefficient is (-1)^(cells it passes). It survives when its target is
    in the quadrant and free; survivors times cells past ENUMERATION_CAP raise
    ResourceLimitError before any diagram is built.
    """
    if index(k) < 1:
        raise ValueError("power sum needs k >= 1")
    _check_rule_input(diagram, axis)
    dp, dq = (index(k), 0) if axis == "x" else (0, index(k))
    cells, n = diagram.cells, len(diagram)
    occupied = set(cells)
    survivors = [(i, (p - dp, q - dq)) for i, (p, q) in enumerate(cells)
                 if p >= dp and q >= dq and (p - dp, q - dq) not in occupied]
    if len(survivors) * n > ENUMERATION_CAP:
        raise ResourceLimitError(f"{len(survivors) * n} moved cells for the power-sum rule,"
                                 f" enumeration cap is {ENUMERATION_CAP}")
    out = SignedDiagramSum(n)
    for i, target in survivors:
        j = bisect_left(cells, lex_key(target), 0, i, key=lex_key)
        out.add(LatticeDiagram._trusted(cells[:j] + (target,) + cells[j:i] + cells[i + 1:]), (-1) ** (i - j))
    return out


def apply_elementary(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Elementary rule: drop each cell of a k-subset by one row. This is
    apply_e_alpha with the single column (k,).

    Along x, surviving terms all carry coefficient +1: one-row moves within a
    column cannot cross another cell without colliding with it first.
    """
    if index(k) < 1:
        raise ValueError("elementary rule needs k >= 1")
    return apply_e_alpha((k,), diagram, axis)


def apply_homogeneous(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Homogeneous rule: h_k is the one-row Schur operator s_(k), so this is
    apply_schur((k,))."""
    if index(k) < 1:
        raise ValueError("homogeneous rule needs k >= 1")
    return apply_schur((k,), diagram, axis)


@dataclass(frozen=True)
class EpsilonPrimeResult:
    """The staged coefficient of a tableau move, with the intermediates.

    value is 1 when every stage keeps the cells distinct and inside the
    quadrant, else 0. Stages are recorded after each column application,
    rightmost column first; final lists the cells of the fully moved diagram
    in the original index order.
    """

    value: int
    final: tuple[Cell, ...]
    stages: tuple[tuple[Cell, ...], ...]
    stage_values: tuple[int, ...]


def epsilon_prime(tableau: ColumnTableau, diagram: LatticeDiagram) -> EpsilonPrimeResult:
    """Apply the tableau's columns right to left, cell i dropping one row per
    occurrence of i, and test every intermediate diagram. The order matters:
    left-to-right application, which is this function on the column-reversed
    tableau, gives wrong coefficients."""
    n = len(diagram)
    for col in tableau.columns:
        if col and col[-1] > n:
            raise ValueError(f"tableau entry {col[-1]} exceeds the diagram size {n}")
    cells = list(diagram.cells)
    stages = []
    stage_values = []
    for col in reversed(tableau.columns):
        for entry in col:
            p, q = cells[entry - 1]
            cells[entry - 1] = (p - 1, q)
        snapshot = tuple(cells)
        stages.append(snapshot)
        stage_values.append(epsilon(snapshot))
    value = 1 if all(stage_values) else 0
    return EpsilonPrimeResult(value, tuple(cells), tuple(stages), tuple(stage_values))


def _surviving_stage(cells: tuple[Cell, ...], col: tuple[int, ...]) -> tuple[Cell, ...] | None:
    """The cells after one epsilon_prime stage, each entry of col dropping one row,
    or None when a cell leaves the quadrant or collides; entries lie in 1..len(cells)."""
    moved, occupied = list(cells), set(cells)
    for entry in col:
        occupied.remove(cells[entry - 1])
    for entry in col:
        p, q = cells[entry - 1]
        if p == 0 or (p - 1, q) in occupied:
            return None
        moved[entry - 1] = (p - 1, q)
        occupied.add((p - 1, q))
    return tuple(moved)


def staged_rule(signed_tableaux: Callable[[int], Iterable[tuple[int, ColumnTableau]]],
                diagram: LatticeDiagram, axis: str, degree: int) -> SignedDiagramSum:
    """Sum of sign times the moved diagram over the (sign, tableau) pairs of
    signed_tableaux(n) whose every epsilon_prime stage survives, dropping each
    at its first dead stage; surviving moves never reorder the cells. Tableaux
    that end in the same columns share their stages: a tree local to the call,
    keyed by columns taken from the right, holds each stage's cells, or None
    once one is dead, so each stage is moved once, and a tableau's leftmost
    column is applied straight to its parent's cells. Signs are summed per
    moved cell tuple, whose order is checked when first seen; each tuple is
    then one term, along y transposed back with both resort signs. A degree
    above the diagram's weight on the axis gives the empty sum without any
    tableau. Tableaux times cells are counted as they are walked, and a
    count past ENUMERATION_CAP raises ResourceLimitError."""
    _check_rule_input(diagram, axis)
    if degree > (diagram.row_weight if axis == "x" else diagram.column_weight):
        return SignedDiagramSum(len(diagram))
    L, base_sign = (diagram, 1) if axis == "x" else transpose(diagram)
    n = len(L)
    counts: dict[tuple[Cell, ...], int] = {}
    tree: dict = {}  # column -> (cells after it or None, the tree of columns to its left)
    for count, (sign, tab) in enumerate(signed_tableaux(n), 1):
        if count * n > ENUMERATION_CAP:
            raise ResourceLimitError(f"{count * n} tableau cells for the staged rule,"
                                     f" enumeration cap is {ENUMERATION_CAP}")
        cells, below = L.cells, tree
        for col in tab.columns[:0:-1]:
            node = below.get(col)
            if node is None:
                node = below[col] = (_surviving_stage(cells, col), {})
            cells, below = node
            if cells is None:
                break
        else:
            final = _surviving_stage(cells, tab.columns[0]) if tab.columns else cells
            if final is not None:
                final = tuple(final)
                if final not in counts and sorted(final, key=lex_key) != list(final):
                    raise RuntimeError(f"staged move by {tab} reordered the cells of [{L}]")
                counts[final] = counts.get(final, 0) + sign
    out = SignedDiagramSum(n)
    for final, c in counts.items():
        d = LatticeDiagram._trusted(final)
        if axis == "y":
            d, resort_sign = transpose(d)
            c *= base_sign * resort_sign
        out.add(d, c)
    return out


def apply_e_alpha(alpha: tuple[int, ...], diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Product-of-elementaries rule: one term per column family of shape alpha,
    weighted by the staged coefficient. A negative part empties the sum."""
    alpha = tuple(map(index, alpha))
    return staged_rule(lambda n: ((1, tab) for tab in enumerate_column_families(alpha, n)),
                       diagram, axis, sum(alpha))


def apply_schur(lam: tuple[int, ...], diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Schur rule: sum over column-strict Young tableaux only, each weighted
    by the staged coefficient. Along x every coefficient is nonnegative;
    along y the transposition route can contribute resort signs."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("need a nonempty partition")
    return staged_rule(lambda n: ((1, tab) for tab in enumerate_cs_tableaux(lam, n)),
                       diagram, axis, sum(lam))


@dataclass(frozen=True)
class OrbitTerm:
    """One raw term of the pre-cancellation double sum (x axis)."""

    sigma: tuple[int, ...]
    sign: int
    shape: tuple[int, ...]
    tableau: ColumnTableau
    eps: EpsilonPrimeResult


def jacobi_trudi_orbit_terms(lam: tuple[int, ...], diagram: LatticeDiagram) -> tuple[OrbitTerm, ...]:
    """The signed double sum over staircase-orbit column families, before any
    cancellation. Debug/verification surface: apply_schur_via_jacobi_trudi is
    its canonicalized form."""
    n = len(diagram)
    return tuple(OrbitTerm(sigma, sign, alpha, tab, epsilon_prime(tab, diagram))
                 for sigma, sign, alpha in staircase_orbit(lam)
                 for tab in enumerate_column_families(alpha, n))


def apply_schur_via_jacobi_trudi(lam: tuple[int, ...], diagram: LatticeDiagram,
                                 axis: str = "x") -> SignedDiagramSum:
    """Schur rule computed the long way round, through the signed staircase
    orbit. Equals apply_schur after like diagrams combine; the equality is
    the executable content of the cancellation argument."""
    orbit = staircase_orbit(lam)
    return staged_rule(lambda n: ((sign, tab) for _, sign, alpha in orbit
                                  for tab in enumerate_column_families(alpha, n)),
                       diagram, axis, sum(lam))


def expand(total: SignedDiagramSum) -> Polynomial:
    """Replace every diagram by its determinant: the polynomial the sum denotes.
    The diagrams have distinct cell sets, so their determinants share no monomial,
    and each one's numerators are scaled to the lcm of their denominators. Terms
    come in the sum's stored order, not items()'s sorted one; str sorts its own."""
    dets = [(c, delta(d)) for d, c in total._terms.items()]
    den = math.lcm(*(det.den for _, det in dets))
    return Polynomial._trusted(total.ncells, den, {mono: c * (den // det.den) * num for c, det in dets
                                                   for mono, num in det.nums.items()})
