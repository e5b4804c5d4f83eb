"""Acceptance suite: one test per numbered criterion, all exact (tolerance
zero, rational arithmetic throughout). Run with -s to see one line per
criterion."""

import itertools
import math

from latdiag.combinat import conjugate, partitions_of, staircase
from latdiag.diagrams import delta, ferrers, normalize, parse_diagram
from latdiag.hilbert import hilbert
from latdiag.operators import (
    apply_elementary,
    apply_homogeneous,
    apply_schur,
    epsilon_prime,
    expand,
)
from latdiag.polynomials import diagonal_action, diff_operator
from latdiag.tableaux import (
    enumerate_column_families,
    enumerate_cs_tableaux,
    is_column_strict,
    parse_tableau,
    psi_step,
    shape_orbit_sign,
    word_pair,
)
from latdiag.verify import (
    enumerate_universe,
    find_stage_order_witness,
    operator_polynomial,
    verify_instance,
)

UNIVERSE = enumerate_universe(4, 3, 3)
AXES = ("x", "y")


def report(number: int, text: str) -> None:
    print(f"\nCRITERION {number}: PASS - {text}")


def test_criterion_1_schur_oracle_equivalence():
    lams = [lam for k in (1, 2, 3) for lam in partitions_of(k)]
    assert len(UNIVERSE) == 255
    assert len(lams) == 6
    checked = 0
    for diagram in UNIVERSE:
        for lam in lams:
            for axis in AXES:
                result = verify_instance("s", lam, diagram, axis)
                assert result.match, result.describe()
                checked += 1
    report(1, f"apply_schur equals symbolic differentiation on {checked} "
              "instances (255 diagrams x 6 partitions x 2 axes), exactly")


def test_criterion_2_classical_rules_oracle_equivalence():
    checked = 0
    for diagram in UNIVERSE:
        for op in ("p", "e", "h"):
            for k in (1, 2, 3):
                for axis in AXES:
                    result = verify_instance(op, k, diagram, axis)
                    assert result.match, result.describe()
                    checked += 1
        for k in (1, 2, 3):
            for axis in AXES:
                assert (apply_homogeneous(k, diagram, axis)
                        == apply_schur((k,), diagram, axis)), (k, diagram, axis)
                assert (apply_elementary(k, diagram, axis)
                        == apply_schur((1,) * k, diagram, axis)), (k, diagram, axis)
    report(2, f"p/e/h rules equal symbolic differentiation on {checked} instances; "
              "h_k == s_(k) and e_k == s_(1^k) as canonical sums")


def _orbit_set(lam, n):
    heights = conjugate(lam)
    ell = len(heights)
    d = staircase(ell)
    v = [heights[i] + d[i] for i in range(ell)]
    shapes = set()
    for sigma in itertools.permutations(range(ell)):
        alpha = tuple(v[sigma[i]] - d[i] for i in range(ell))
        if min(alpha) >= 0:
            shapes.add(alpha)
    return [t for alpha in sorted(shapes) for t in enumerate_column_families(alpha, n)]


def test_criterion_3_involution_suite():
    lams = [(2, 1), (2, 2), (3, 1), (2, 1, 1)]
    checked = 0
    for lam in lams:
        for n in range(1, 5):
            sample = [d for d in UNIVERSE if len(d) == n][:20]
            fixed = set()
            for tableau in _orbit_set(lam, n):
                step = psi_step(tableau, lam)
                assert psi_step(step.result, lam).result == tableau
                assert step.result.entry_multiplicities() == tableau.entry_multiplicities()
                if step.fixed:
                    fixed.add(tableau)
                    assert is_column_strict(tableau)
                else:
                    assert not is_column_strict(tableau)
                    assert (shape_orbit_sign(tableau.shape, lam)
                            == -shape_orbit_sign(step.result.shape, lam))
                    for diagram in sample:
                        assert (epsilon_prime(tableau, diagram).value
                                == epsilon_prime(step.result, diagram).value)
                checked += 1
            assert fixed == set(enumerate_cs_tableaux(lam, n))
    report(3, f"psi is a sign-reversing, word-preserving involution with the "
              f"column-strict tableaux as fixed points ({checked} tableaux); "
              "eps' matches across every pair on the diagram samples")


def test_criterion_4_paper_worked_examples():
    pair = word_pair((3, 9), (4, 5, 6, 9))
    assert pair.word_str() == "3 4 5 6 9 9"
    assert pair.marks_str() == "( ) ) ) ( )"
    assert pair.unpaired_rights == (2, 3)
    assert pair.unpaired_lefts == ()
    assert set(pair.pairs) == {(0, 1), (4, 5)}

    tableau = parse_tableau("7,8,10|3,9|4,5,6,8")
    step = psi_step(tableau, (3, 3, 3))
    assert str(step.result) == "7,8,10|3,8,9|4,5,6"
    assert step.before.marks_str() == "( ) ) ) ) ("
    assert step.after.marks_str() == "( ) ) ) ( ("
    assert psi_step(step.result, (3, 3, 3)).result == tableau

    assert ferrers((4, 2, 1)).cells == (
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (0, 3))
    report(4, "word 3 4 5 6 9 9 with ( ) ) ) ( ) and middle pair unpaired; "
              "psi moves ( ) ) ) ) ( to ( ) ) ) ( (; Ferrers((4,2,1)) cell list exact")


def test_criterion_5_stage_order_witness():
    witness = find_stage_order_witness()
    assert witness is not None
    assert len(witness.diagram) <= 4
    assert witness.right_to_left_value != witness.left_to_right_value
    assert expand(witness.right_to_left_sum) == witness.oracle
    assert expand(witness.left_to_right_sum) != witness.oracle
    report(5, f"lambda={witness.lam}, diagram=[{witness.diagram}], "
              f"tableau={witness.tableau}: right-to-left eps'="
              f"{witness.right_to_left_value}, left-to-right eps'="
              f"{witness.left_to_right_value}; only right-to-left matches the oracle")


def test_criterion_6_factorial_dimensions():
    values = {}
    for n in range(1, 5):
        for mu in partitions_of(n):
            dim = hilbert(ferrers(mu)).total
            assert dim == math.factorial(n), (mu, dim)
            values[mu] = dim
    report(6, f"total derivative-span dimensions {sorted(set(values.values()))} "
              "equal n! for every partition of n <= 4")


def test_criterion_7_alternants_and_bihomogeneity():
    checked = 0
    for diagram in UNIVERSE:
        n = len(diagram)
        base = delta(diagram)
        assert base.bidegrees() == {(diagram.row_weight, diagram.column_weight)}
        for sigma in itertools.permutations(range(1, n + 1)):
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if sigma[a] > sigma[b])
            sign = -1 if inversions % 2 else 1
            assert diagonal_action(sigma, base) == sign * base
            checked += 1
    report(7, f"delta is an alternant under all {checked} diagonal actions and "
              "bihomogeneous of bidegree (|p|, |q|) on the full universe")
