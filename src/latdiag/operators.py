"""Cell-movement rules for symmetric differential operators on diagrams.

Each rule turns an operator application into a signed sum of diagrams whose
determinants add up to the honest derivative. Along x, p_k drops one cell by
k rows; every other rule is a staged sum over tableaux whose entries drop
cells one row at a time: e_alpha over column families of shape alpha, and
s_lambda over column-strict Young tableaux of shape lambda, with e_k the
one-column e_(k) and h_k the one-row s_(k). y-axis applications go through
transposition, with the two resort signs multiplied into each coefficient,
because a single column move can reorder the lexicographic positions while
a row move cannot.

Tableau entries always index cells of the *original* diagram in lex order.
This stays well defined across stages: a one-row move within a column either
collides (killing the term) or preserves the relative order of all cells,
so surviving intermediate diagrams never reorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .combinat import check_partition, staircase_orbit
from .diagrams import (
    Cell,
    LatticeDiagram,
    SignedDiagramSum,
    delta,
    epsilon,
    normalize,
    transpose,
)
from .polynomials import Polynomial, check_axis
from .tableaux import ColumnTableau, enumerate_column_families, enumerate_cs_tableaux


def _on_axis(rule_x: Callable[[LatticeDiagram], SignedDiagramSum],
             diagram: LatticeDiagram, axis: str, degree: int) -> SignedDiagramSum:
    """Run an x-axis rule for an operator of the given degree along axis.

    Every rule enters here. A degree above the diagram's weight on the axis
    differentiates the determinant to zero, so the empty sum returns without
    running the rule.
    """
    check_axis(axis)
    if not epsilon(diagram):
        raise ValueError("movement rules need n distinct cells in the positive quadrant")
    out = SignedDiagramSum(len(diagram))
    if degree > (diagram.row_weight if axis == "x" else diagram.column_weight):
        return out
    if axis == "x":
        return rule_x(diagram)
    flipped, base_sign = transpose(diagram)
    for d, c in rule_x(flipped).items():
        back, resort_sign = transpose(d)
        out.add(back, c * base_sign * resort_sign)
    return out


def apply_power_sum(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Power sum rule: drop one cell by k rows, once per cell position.

    The coefficient of each surviving diagram is the sign of the permutation
    that resorts the moved cell list.
    """
    if k < 1:
        raise ValueError("power sum needs k >= 1")

    def rule(L: LatticeDiagram) -> SignedDiagramSum:
        out = SignedDiagramSum(len(L))
        for i in range(len(L)):
            cells = list(L.cells)
            p, q = cells[i]
            cells[i] = (p - k, q)
            moved, sign = normalize(cells)
            out.add(moved, sign)
        return out

    return _on_axis(rule, diagram, axis, k)


def apply_elementary(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Elementary rule: drop each cell of a k-subset by one row. This is
    apply_e_alpha with the single column (k,).

    Along x, surviving terms all carry coefficient +1: one-row moves within a
    column cannot cross another cell without colliding with it first.
    """
    if k < 1:
        raise ValueError("elementary rule needs k >= 1")
    return apply_e_alpha((k,), diagram, axis)


def apply_homogeneous(k: int, diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Homogeneous rule: h_k is the one-row Schur operator s_(k), so this is
    apply_schur((k,))."""
    if k < 1:
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


def staged_sum(L: LatticeDiagram,
               signed_tableaux: Iterable[tuple[int, ColumnTableau]]) -> SignedDiagramSum:
    """Sum of sign times the moved diagram over the tableaux whose every
    epsilon_prime stage survives. Surviving moves never reorder the cells."""
    out = SignedDiagramSum(len(L))
    for sign, tab in signed_tableaux:
        result = epsilon_prime(tab, L)
        if result.value:
            moved, resort_sign = normalize(result.final)
            if resort_sign != 1:
                raise RuntimeError(f"staged move by {tab} reordered the cells of [{L}]")
            out.add(moved, sign)
    return out


def apply_e_alpha(alpha: tuple[int, ...], diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Product-of-elementaries rule: one term per column family of shape alpha,
    weighted by the staged coefficient. A negative part empties the sum."""
    alpha = tuple(int(a) for a in alpha)

    def rule(L: LatticeDiagram) -> SignedDiagramSum:
        return staged_sum(L, ((1, tab) for tab in enumerate_column_families(alpha, len(L))))

    return _on_axis(rule, diagram, axis, sum(alpha))


def apply_schur(lam: tuple[int, ...], diagram: LatticeDiagram, axis: str = "x") -> SignedDiagramSum:
    """Schur rule: sum over column-strict Young tableaux only, each weighted
    by the staged coefficient. Along x every coefficient is nonnegative;
    along y the transposition route can contribute resort signs."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("need a nonempty partition")

    def rule(L: LatticeDiagram) -> SignedDiagramSum:
        return staged_sum(L, ((1, tab) for tab in enumerate_cs_tableaux(lam, len(L))))

    return _on_axis(rule, diagram, axis, sum(lam))


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

    def rule(L: LatticeDiagram) -> SignedDiagramSum:
        n = len(L)
        return staged_sum(L, ((sign, tab) for _, sign, alpha in orbit
                              for tab in enumerate_column_families(alpha, n)))

    return _on_axis(rule, diagram, axis, sum(lam))


def expand(total: SignedDiagramSum) -> Polynomial:
    """Replace every diagram by its determinant: the polynomial the sum denotes."""
    out: dict = {}
    for d, c in total.items():
        for mono, coeff in delta(d).terms.items():
            out[mono] = out.get(mono, 0) + c * coeff
    terms = {m: v for m, v in out.items() if v}
    return Polynomial._trusted(total.ncells, terms) if terms else Polynomial.zero(total.ncells)
