import importlib.util
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import latdiag.operators
from latdiag.combinat import partitions_of, staircase_orbit
from latdiag.diagrams import (
    LatticeDiagram,
    SignedDiagramSum,
    delta,
    epsilon,
    normalize,
    transpose,
)
from latdiag.operators import (
    apply_e_alpha,
    apply_elementary,
    apply_homogeneous,
    apply_power_sum,
    apply_schur,
    apply_schur_via_jacobi_trudi,
    epsilon_prime,
    expand,
    jacobi_trudi_orbit_terms,
)
from latdiag.polynomials import Polynomial, diff_operator
from latdiag.symmetric import elementary, homogeneous, power_sum, schur_jacobi_trudi
from latdiag.tableaux import ColumnTableau, enumerate_column_families, enumerate_cs_tableaux, psi_step
from latdiag.verify import SuiteConfig, combinatorial_sum, enumerate_universe, schur_left_to_right, suite_instances


def D(*cells):
    diagram, _ = normalize(cells)
    return diagram


def one_term(diagram, coeff=1):
    total = SignedDiagramSum(len(diagram))
    total.add(diagram, coeff)
    return total


def simulate_moves(tableau, diagram):
    """Independent reading of the staged coefficient: move the cells of the
    diagram down one row, column by column from right to left, watching for
    collisions and the quadrant boundary after every column."""
    occupied = set(diagram.cells)
    if len(occupied) != len(diagram):
        return 0
    position = list(diagram.cells)
    for col in reversed(tableau.columns):
        for entry in col:
            p, q = position[entry - 1]
            position[entry - 1] = (p - 1, q)
        occupied = set(position)
        if len(occupied) != len(position) or any(p < 0 or q < 0 for p, q in occupied):
            return 0
    return 1


# -- power sum ------------------------------------------------------------------


def test_power_sum_examples():
    assert apply_power_sum(1, D((1, 0))) == one_term(D((0, 0)))
    assert not apply_power_sum(1, D((0, 0), (1, 0)))
    assert apply_power_sum(1, D((0, 0), (2, 0))) == one_term(D((0, 0), (1, 0)))


def test_power_sum_signed_jump():
    # a k=2 jump over an occupied cell reorders the list and picks up a sign
    total = apply_power_sum(2, D((2, 0), (3, 0)))
    assert total.coefficient(D((0, 0), (3, 0))) == 1
    assert total.coefficient(D((1, 0), (2, 0))) == -1
    assert expand(total) == diff_operator(power_sum(2, 2), delta(D((2, 0), (3, 0))))


def test_power_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_power_sum(0, D((1, 0)))
    with pytest.raises(ValueError):
        apply_power_sum(1, D((1, 0)), axis="z")
    bad, _ = normalize([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        apply_power_sum(1, bad)


def _reference_power_sum(k, diagram, axis):
    """apply_power_sum as the loop that moves each cell and resorts the whole
    list with normalize; a collision or a negative cell drops out in add."""
    dp, dq = (k, 0) if axis == "x" else (0, k)
    out = SignedDiagramSum(len(diagram))
    for i, (p, q) in enumerate(diagram.cells):
        cells = list(diagram.cells)
        cells[i] = (p - dp, q - dq)
        out.add(*normalize(cells))
    return out


def test_power_sum_matches_normalize_reference():
    rng = random.Random(17)
    box = [(p, q) for p in range(8) for q in range(8)]
    seeded = [normalize(rng.sample(box, rng.randint(10, 16)))[0] for _ in range(60)]
    for diagram in list(enumerate_universe(4, 3, 3)) + seeded:
        for axis in ("x", "y"):
            for k in (1, 2, 3):
                total = apply_power_sum(k, diagram, axis)
                assert str(total) == str(_reference_power_sum(k, diagram, axis)), (k, str(diagram), axis)
                # the survivors are wrapped unvalidated; they must still be valid
                for d, _ in total.items():
                    assert type(d.cells) is tuple and LatticeDiagram(d.cells) == d


# -- elementary ------------------------------------------------------------------


def test_elementary_matches_power_sum_at_k1():
    for diagram in enumerate_universe(4, 3, 3):
        assert apply_elementary(1, diagram) == apply_power_sum(1, diagram)


def test_elementary_examples():
    assert not apply_elementary(2, D((0, 0), (1, 0)))
    assert apply_elementary(2, D((1, 0), (1, 1))) == one_term(D((0, 0), (0, 1)))
    oracle = diff_operator(elementary(2, 2), delta(D((1, 0), (1, 1))))
    assert expand(apply_elementary(2, D((1, 0), (1, 1)))) == oracle


# -- homogeneous -------------------------------------------------------------------


def test_homogeneous_examples():
    assert apply_homogeneous(1, D((1, 0))) == one_term(D((0, 0)))
    assert not apply_homogeneous(1, D((0, 0)))
    oracle = diff_operator(homogeneous(1, 1), delta(D((1, 0))))
    assert expand(apply_homogeneous(1, D((1, 0)))) == oracle


def test_homogeneous_equals_single_row_schur():
    for diagram in enumerate_universe(4, 3, 3):
        for k in (1, 2, 3):
            assert apply_homogeneous(k, diagram) == apply_schur((k,), diagram), (k, diagram)


# -- e_alpha -----------------------------------------------------------------------


def test_e_alpha_single_column_is_elementary():
    for diagram in enumerate_universe(3, 3, 3):
        for k in (1, 2, 3):
            assert apply_e_alpha((k,), diagram) == apply_elementary(k, diagram)


def test_e_alpha_examples():
    assert apply_e_alpha((1, 1), D((2, 0))) == one_term(D((0, 0)))
    oracle = diff_operator(elementary(1, 1) * elementary(1, 1), delta(D((2, 0))))
    assert expand(apply_e_alpha((1, 1), D((2, 0)))) == oracle
    assert apply_e_alpha((0, 1), D((1, 0))) == one_term(D((0, 0)))
    assert not apply_e_alpha((1, -1), D((1, 0)))


def test_e_alpha_oracle_over_compositions():
    from latdiag.verify import operator_polynomial

    compositions = [alpha
                    for parts in (1, 2, 3)
                    for alpha in itertools.product(range(0, 4), repeat=parts)
                    if 1 <= sum(alpha) <= 3]
    for diagram in enumerate_universe(4, 3, 3):
        for axis in ("x", "y"):
            base = delta(diagram)
            for alpha in compositions:
                expected = diff_operator(
                    operator_polynomial("ea", alpha, len(diagram), axis), base)
                assert expand(apply_e_alpha(alpha, diagram, axis)) == expected, (
                    alpha, diagram, axis)


# -- staged coefficient ---------------------------------------------------------------


def test_epsilon_prime_single_column():
    tab = ColumnTableau(((1, 2),), 2)
    result = epsilon_prime(tab, D((1, 0), (2, 0)))
    assert result.value == 1
    assert result.final == ((0, 0), (1, 0))
    assert result.stages == (((0, 0), (1, 0)),)


def test_epsilon_prime_hits_quadrant_boundary():
    # entry 1 in both columns sends the row-1 cell to row -1 at the second stage
    tab = ColumnTableau(((1,), (1,)), 2)
    result = epsilon_prime(tab, D((1, 0), (2, 0)))
    assert result.value == 0
    assert result.stage_values == (1, 0)


def test_epsilon_prime_validates_entries():
    with pytest.raises(ValueError):
        epsilon_prime(ColumnTableau(((1, 3),), 3), D((1, 0), (2, 0)))


def test_epsilon_prime_matches_cell_movement_simulation():
    # every tableau over every diagram: staged product == direct simulation
    for diagram in enumerate_universe(3, 3, 3):
        n = len(diagram)
        for k in range(1, 4):
            for lam in partitions_of(k):
                for tab in enumerate_cs_tableaux(lam, n):
                    assert epsilon_prime(tab, diagram).value == simulate_moves(tab, diagram)


def test_epsilon_prime_stage_order_witness():
    # left-to-right application disagrees: regression-pinned witness
    diagram = D((1, 0), (2, 0), (1, 1))
    tab = ColumnTableau(((1, 3), (2,)), 3)
    assert epsilon_prime(tab, diagram).value == 0
    cells = list(diagram.cells)
    ok = True
    for col in tab.columns:  # wrong order on purpose
        for entry in col:
            p, q = cells[entry - 1]
            cells[entry - 1] = (p - 1, q)
        if not epsilon(cells):
            ok = False
    assert ok, "left-to-right application survives on this witness"


# -- Schur -------------------------------------------------------------------------------


def test_schur_single_box_is_power_sum():
    for diagram in enumerate_universe(3, 3, 3):
        assert apply_schur((1,), diagram) == apply_power_sum(1, diagram)


def test_schur_needs_a_nonempty_partition():
    with pytest.raises(ValueError):
        apply_schur((), D((1, 0)))


def test_schur_examples():
    diagram = D((2, 0), (2, 1))
    assert apply_schur((1, 1), diagram) == apply_elementary(2, diagram)
    oracle = diff_operator(elementary(2, 2), delta(diagram))
    assert expand(apply_schur((1, 1), diagram)) == oracle

    from latdiag.diagrams import ferrers
    shape = ferrers((2, 1))
    oracle = diff_operator(schur_jacobi_trudi((2, 1), 3), delta(shape))
    assert expand(apply_schur((2, 1), shape)) == oracle


def test_schur_coefficients_nonnegative_on_x():
    # the y-axis route can pick up resort signs: column moves reorder the
    # lex order, e.g. p_1 on [1,0;0,1] gives -1 * [0,0;1,0] along y
    for diagram in enumerate_universe(3, 3, 3):
        for k in (1, 2, 3):
            for lam in partitions_of(k):
                total = apply_schur(lam, diagram, "x")
                assert all(c > 0 for _, c in total.items())


def test_y_axis_can_carry_resort_signs():
    diagram = D((1, 0), (0, 1))
    total = apply_schur((1,), diagram, "y")
    assert total.coefficient(D((0, 0), (1, 0))) == -1
    oracle = diff_operator(power_sum(1, 2).swap_alphabets(), delta(diagram))
    assert expand(total) == oracle


def test_schur_column_shape_is_elementary():
    for diagram in enumerate_universe(4, 3, 3):
        for k in (1, 2, 3):
            assert apply_schur((1,) * k, diagram) == apply_elementary(k, diagram)


def recorded_staged_rule(signed_tableaux, param, diagram, axis):
    """The staged sum read off epsilon_prime's full stage records: normalise
    the final cells of every tableau whose value is 1. Independent of the
    first-dead-stage walk in operators.staged_rule."""
    if sum(param) > (diagram.row_weight if axis == "x" else diagram.column_weight):
        return SignedDiagramSum(len(diagram))
    L, base_sign = (diagram, 1) if axis == "x" else transpose(diagram)
    moved = SignedDiagramSum(len(L))
    for sign, tab in signed_tableaux(param, len(L)):
        result = epsilon_prime(tab, L)
        if result.value:
            d, resort_sign = normalize(result.final)
            assert resort_sign == 1
            moved.add(d, sign)
    if axis == "x":
        return moved
    out = SignedDiagramSum(len(L))
    for d, c in moved.items():
        back, resort_sign = transpose(d)
        out.add(back, c * base_sign * resort_sign)
    return out


def schur_tableaux(lam, n):
    return ((1, tab) for tab in enumerate_cs_tableaux(lam, n))


PARTITIONS = [lam for k in (1, 2, 3, 4) for lam in partitions_of(k)]
# Each staged caller: the rule, its parameters, and its signed tableaux.
STAGED_CALLERS = {
    "apply_schur": (apply_schur, PARTITIONS, schur_tableaux),
    "schur_left_to_right": (schur_left_to_right, PARTITIONS, lambda lam, n: (
        (1, ColumnTableau(tab.columns[::-1], n)) for tab in enumerate_cs_tableaux(lam, n))),
    "apply_schur_via_jacobi_trudi": (apply_schur_via_jacobi_trudi, PARTITIONS, lambda lam, n: (
        (sign, tab) for _, sign, alpha in staircase_orbit(lam)
        for tab in enumerate_column_families(alpha, n))),
    "apply_e_alpha": (apply_e_alpha, [(1,), (2,), (1, 1), (2, 1), (1, 0, 2), (-1, 2)],
                      lambda alpha, n: ((1, tab) for tab in enumerate_column_families(alpha, n))),
}


def seeded_diagrams(count=40, box=6, seed=13):
    """count distinct-celled diagrams of 5 to 8 cells in a box x box square."""
    rng = random.Random(seed)
    cells = [(p, q) for p in range(box) for q in range(box)]
    return [normalize(rng.sample(cells, rng.randint(5, 8)))[0] for _ in range(count)]


@pytest.mark.parametrize("caller", STAGED_CALLERS)
def test_staged_rule_matches_recorded_stages(caller):
    rule, params, signed_tableaux = STAGED_CALLERS[caller]
    for diagram in list(enumerate_universe(4, 3, 3)) + seeded_diagrams():
        for axis in ("x", "y"):
            for param in params:
                expected = recorded_staged_rule(signed_tableaux, param, diagram, axis)
                assert str(rule(param, diagram, axis)) == str(expected), (
                    param, str(diagram), axis)


def test_staged_rule_matches_recorded_stages_on_the_benchmark_ops():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("schur_apply_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for lam, diagram, axis in workloads.SchurApply().ops(1):
        expected = recorded_staged_rule(schur_tableaux, lam, diagram, axis)
        assert str(apply_schur(lam, diagram, axis)) == str(expected), (lam, str(diagram), axis)


def test_staged_rule_moves_each_stage_once_on_the_benchmark_ops(monkeypatch):
    # A walk per tableau would move at least one stage per tableau walked.
    # Distinct column suffixes can reach equal cells, so an input is named by
    # the cells object its tree node holds; holding them keeps the ids apart.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("schur_apply_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    surviving_stage, inputs, walked = latdiag.operators._surviving_stage, [], []

    def recorded_stage(cells, col):
        inputs.append((cells, col))
        return surviving_stage(cells, col)

    def counted_tableaux(lam, n):
        walked.append(enumerate_cs_tableaux(lam, n))
        return walked[-1]

    monkeypatch.setattr(latdiag.operators, "_surviving_stage", recorded_stage)
    monkeypatch.setattr(latdiag.operators, "enumerate_cs_tableaux", counted_tableaux)
    stages = 0
    for lam, diagram, axis in workloads.SchurApply().ops(1):
        inputs.clear()
        apply_schur(lam, diagram, axis)
        assert len({(id(cells), col) for cells, col in inputs}) == len(inputs), (lam, str(diagram), axis)
        stages += len(inputs)
    assert 0 < stages * 5 < sum(map(len, walked))


# -- the signed orbit route ----------------------------------------------------------------


def test_jacobi_trudi_route_matches_direct():
    for diagram in enumerate_universe(4, 3, 3):
        for k in (1, 2, 3):
            for lam in partitions_of(k):
                assert (apply_schur_via_jacobi_trudi(lam, diagram)
                        == apply_schur(lam, diagram)), (lam, diagram)


def test_orbit_pairs_share_coefficients():
    # matched non-fixed terms satisfy eps'(T, L) == eps'(psi(T), L), and the
    # cancellation lemma holds stage by stage
    lams = [(2,), (2, 1), (3,)]
    for diagram in enumerate_universe(3, 3, 3):
        for lam in lams:
            terms = jacobi_trudi_orbit_terms(lam, diagram)
            by_tableau = {t.tableau: t for t in terms}
            for term in terms:
                step = psi_step(term.tableau, lam)
                if step.fixed:
                    continue
                partner = by_tableau[step.result]
                assert term.eps.value == partner.eps.value, (lam, diagram, term.tableau)
                assert term.sign == -partner.sign
                assert term.eps.final == partner.eps.final


def test_orbit_cancellation_lemma():
    # whenever both late stages of a pair survive, the partner's first moved
    # stage survives too
    lam = (2, 1)
    for diagram in enumerate_universe(3, 3, 3):
        terms = jacobi_trudi_orbit_terms(lam, diagram)
        by_tableau = {t.tableau: t for t in terms}
        for term in terms:
            step = psi_step(term.tableau, lam)
            if step.fixed:
                continue
            _, j = step.pair
            ell = len(term.tableau.columns)
            partner = by_tableau[step.result]
            # stages are recorded rightmost-first: stage index for column c is ell-1-c
            first_moved = ell - 1 - (j + 1)
            second_moved = ell - 1 - j
            if (term.eps.stage_values[first_moved]
                    and term.eps.stage_values[second_moved]):
                assert partner.eps.stage_values[first_moved] == 1


# -- expansion and axes ------------------------------------------------------------------


def test_expand_examples():
    assert not expand(SignedDiagramSum(2))
    assert expand(one_term(D((0, 0), (1, 0)))) == delta(D((0, 0), (1, 0)))
    assert expand(one_term(D((0, 0), (0, 1)), -3)) == -3 * delta(D((0, 0), (0, 1)))


def _reference_expand(total):
    """expand as the loop that multiplies every term's coefficient by its diagram's,
    in the sum's stored order."""
    terms = {}
    for d, c in total._terms.items():
        for mono, coeff in delta(d).terms.items():
            terms[mono] = c * coeff
    return Polynomial(total.ncells, terms)


def assert_expand_matches_reference_on_the_desk_universe():
    for op, param, diagram, axis in suite_instances(SuiteConfig()):
        total = combinatorial_sum(op, param, diagram, axis)
        result, expected = expand(total), _reference_expand(total)
        assert result == expected and list(result.terms) == list(expected.terms), (op, param, str(diagram), axis)
        assert all(type(c) is Fraction and c for c in result.terms.values())


def test_expand_matches_reference_on_the_desk_universe():
    assert_expand_matches_reference_on_the_desk_universe()


def test_expand_matches_reference_with_unshared_coefficients(monkeypatch):
    # delta rebuilt through the validating constructor from its Fraction view,
    # as the benchmark's gate does: the same stored form as delta's own.
    def rebuilt_delta(diagram):
        return Polynomial(len(diagram), dict(delta(diagram).terms))

    monkeypatch.setattr(latdiag.operators, "delta", rebuilt_delta)
    assert_expand_matches_reference_on_the_desk_universe()


def test_y_axis_through_transpose():
    diagram = D((0, 0), (0, 2))
    total = apply_homogeneous(2, diagram, axis="y")
    oracle = diff_operator(homogeneous(2, 2).swap_alphabets(), delta(diagram))
    assert expand(total) == oracle
    # mirror of the x-case under transpose
    flipped = D((0, 0), (2, 0))
    assert not apply_homogeneous(2, flipped, axis="x")
    assert not total


def test_y_axis_signed_case():
    diagram = D((0, 2), (0, 3))
    total = apply_power_sum(2, diagram, axis="y")
    oracle = diff_operator(power_sum(2, 2).swap_alphabets(), delta(diagram))
    assert expand(total) == oracle
    assert any(c < 0 for _, c in total.items())


def test_x_moves_shift_row_weight_only():
    for diagram in enumerate_universe(3, 3, 3):
        for k in (1, 2):
            for total in (apply_power_sum(k, diagram), apply_elementary(k, diagram),
                          apply_homogeneous(k, diagram), apply_schur((k,), diagram)):
                for moved, _ in total.items():
                    assert moved.row_weight == diagram.row_weight - k
                    assert moved.column_weight == diagram.column_weight


def test_degree_above_weight_returns_empty_at_once():
    # Each degree exceeds the column weight (5, then 6); full enumeration
    # would walk C(28, 8) hole sets or 4^9 column families, for seconds.
    cases = [(apply_homogeneous, 8, D((0, 0), (4, 5))),
             (apply_schur, (9,), D((0, 0), (0, 1), (0, 2), (0, 3)))]
    for rule, param, diagram in cases:
        start = time.perf_counter()
        total = rule(param, diagram, axis="y")
        assert time.perf_counter() - start < 1.0
        assert not total
