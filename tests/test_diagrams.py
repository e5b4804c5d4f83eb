import importlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdiag.combinat import lex_parities, permutation_sign
from latdiag.diagrams import (
    COORDINATE_CAP,
    LatticeDiagram,
    SignedDiagramSum,
    _delta_expand,
    complement_cells,
    delta,
    epsilon,
    ferrers,
    lex_key,
    normalize,
    parse_diagram,
    transpose,
)
from latdiag.errors import ResourceLimitError
from latdiag.polynomials import Polynomial, diagonal_action, diff_operator
from latdiag.verify import enumerate_universe

diagrams_module = importlib.import_module("latdiag.diagrams")


def brute_force_sign(cells):
    """Independent O(n^2) inversion count under the column-first order."""
    if len(set(cells)) != len(cells):
        return 1
    keys = [(q, p) for p, q in cells]
    inversions = sum(
        1 for i in range(len(keys)) for j in range(i + 1, len(keys)) if keys[i] > keys[j]
    )
    return -1 if inversions % 2 else 1


# -- lexicographic order ----------------------------------------------------


def test_lex_column_dominates():
    assert lex_key((1, 0)) < lex_key((0, 1))


def test_lex_same_column_row_decides():
    assert lex_key((0, 1)) < lex_key((1, 1))


def test_lex_equal():
    assert lex_key((2, 3)) == lex_key((2, 3))


# -- normalize ----------------------------------------------------------------


def test_normalize_single_transposition():
    diagram, sign = normalize([(0, 1), (0, 0)])
    assert diagram.cells == ((0, 0), (0, 1))
    assert sign == -1


def test_normalize_sorted_input():
    diagram, sign = normalize([(0, 0), (1, 0), (0, 1)])
    assert diagram.cells == ((0, 0), (1, 0), (0, 1))
    assert sign == 1


def test_normalize_cyclic_even():
    cells = [(2, 0), (0, 0), (1, 0)]
    diagram, sign = normalize(cells)
    assert diagram.cells == ((0, 0), (1, 0), (2, 0))
    assert sign == brute_force_sign(cells) == 1


def test_normalize_sign_matches_brute_force():
    rng = random.Random(7)
    box = [(p, q) for p in range(3) for q in range(3)]
    for _ in range(200):
        cells = rng.sample(box, rng.randint(1, 5))
        rng.shuffle(cells)
        _, sign = normalize(cells)
        assert sign == brute_force_sign(cells)


def test_normalize_equal_cells_sign_is_plus_one():
    cells = [(1, 1), (0, 0), (1, 1)]
    _, sign = normalize(cells)
    assert sign == 1


def test_unsorted_constructor_rejected():
    with pytest.raises(ValueError):
        LatticeDiagram(((0, 1), (0, 0)))


# -- epsilon -------------------------------------------------------------------


def test_epsilon_examples():
    assert epsilon(LatticeDiagram(((0, 0), (1, 0)))) == 1
    assert epsilon(LatticeDiagram(((0, 0), (0, 0)))) == 0
    assert epsilon([(-1, 0), (1, 0)]) == 0


# -- ferrers -------------------------------------------------------------------


def test_ferrers_421():
    assert ferrers((4, 2, 1)).cells == (
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (0, 3))


def test_ferrers_single_cell():
    assert ferrers((1,)).cells == ((0, 0),)


def test_ferrers_22_by_direct_enumeration():
    mu = (2, 2)
    expected = sorted(
        ((i, j) for i in range(len(mu)) for j in range(mu[i])),
        key=lambda c: (c[1], c[0]),
    )
    assert ferrers(mu).cells == tuple(expected)


def test_ferrers_rejects_non_partition():
    with pytest.raises(ValueError):
        ferrers((1, 2))
    with pytest.raises(ValueError):
        ferrers((2, 0))


# -- complement ----------------------------------------------------------------


def test_complement_examples():
    single = LatticeDiagram(((0, 0),))
    assert complement_cells(single, 1, 1) == ((1, 0), (0, 1), (1, 1))
    assert complement_cells(ferrers((2, 1)), 1, 1) == ((1, 1),)
    assert complement_cells(LatticeDiagram(()), 0, 0) == ((0, 0),)


# -- delta ----------------------------------------------------------------------


def test_delta_constant():
    assert delta(LatticeDiagram(((0, 0),))) == Polynomial.constant(1, 1)


def test_delta_vandermonde():
    expected = Polynomial.monomial(2, (0, 1), (0, 0)) - Polynomial.monomial(2, (1, 0), (0, 0))
    assert delta(LatticeDiagram(((0, 0), (1, 0)))) == expected


def test_delta_with_factorials():
    # 2x2 determinant with entries x_i^2/2! in the second column
    expected = Fraction(1, 2) * (Polynomial.monomial(2, (0, 2), (0, 0))
                                 - Polynomial.monomial(2, (2, 0), (0, 0)))
    assert delta(LatticeDiagram(((0, 0), (2, 0)))) == expected


def test_delta_zero_iff_epsilon_zero():
    box = [(p, q) for q in range(3) for p in range(3)]
    for m in range(1, 5):
        for cells in itertools.combinations_with_replacement(box, m):
            diagram = LatticeDiagram(cells)
            assert (not delta(diagram)) == (epsilon(diagram) == 0)
    negative, _ = normalize([(-1, 0), (1, 0)])
    assert not delta(negative)


def test_delta_bihomogeneous():
    diagram = ferrers((2, 2))
    assert delta(diagram).bidegrees() == {(diagram.row_weight, diagram.column_weight)}


def test_delta_needs_a_cell():
    with pytest.raises(ValueError):
        delta(LatticeDiagram(()))


def test_delta_cap(monkeypatch):
    diagram, _ = normalize([(p, 0) for p in range(5)])
    monkeypatch.setattr(diagrams_module, "DETERMINANT_CAP", 4)
    with pytest.raises(ResourceLimitError):
        delta(diagram)


def test_delta_alternates_small():
    for cells in [((0, 0), (1, 0)), ((0, 0), (1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1))]:
        diagram = LatticeDiagram(cells)
        n = len(cells)
        poly = delta(diagram)
        for sigma in itertools.permutations(range(1, n + 1)):
            inv = sum(1 for a in range(n) for b in range(a + 1, n) if sigma[a] > sigma[b])
            sgn = -1 if inv % 2 else 1
            assert diagonal_action(sigma, poly) == sgn * poly


# -- transpose -------------------------------------------------------------------


def test_transpose_examples():
    assert transpose(LatticeDiagram(((0, 0),))) == (LatticeDiagram(((0, 0),)), 1)
    assert transpose(LatticeDiagram(((0, 0), (1, 0)))) == (LatticeDiagram(((0, 0), (0, 1))), 1)


def test_transpose_ferrers_21():
    flipped, sign = transpose(ferrers((2, 1)))
    assert flipped.cells == ((0, 0), (1, 0), (0, 1))
    assert sign == brute_force_sign([(q, p) for p, q in ferrers((2, 1)).cells])


def test_transpose_involution_and_delta_identity():
    box = [(p, q) for q in range(3) for p in range(3)]
    for m in range(1, 4):
        for cells in itertools.combinations(box, m):
            diagram = LatticeDiagram(cells)
            flipped, sign = transpose(diagram)
            back, sign2 = transpose(flipped)
            assert back == diagram
            assert sign * sign2 == 1
            assert delta(flipped) == sign * delta(diagram).swap_alphabets()


# -- parsing ----------------------------------------------------------------------


def test_parse_diagram_round_trip():
    diagram, sign = parse_diagram("0,0;1,0;0,1")
    assert sign == 1
    assert str(diagram) == "0,0;1,0;0,1"
    resorted, sign = parse_diagram("0,1;0,0")
    assert sign == -1
    assert str(resorted) == "0,0;0,1"


def test_parse_diagram_rejects_garbage():
    with pytest.raises(ValueError):
        parse_diagram("0,0;nope")
    with pytest.raises(ValueError):
        parse_diagram("")


# -- signed sums --------------------------------------------------------------------


def test_sum_combines_and_prunes():
    a = LatticeDiagram(((0, 0), (1, 0)))
    total = SignedDiagramSum(2)
    total.add(a, 1)
    total.add(a, 2)
    assert total.coefficient(a) == 3
    total.add(a, -3)
    assert not total
    # invalid diagrams are pruned silently
    bad, _ = normalize([(-1, 0), (0, 0)])
    total.add(bad, 5)
    assert not total


def test_sum_text_and_json():
    total = SignedDiagramSum(2)
    total.add(LatticeDiagram(((0, 0), (0, 1))), -2)
    total.add(LatticeDiagram(((0, 0), (1, 0))), 1)
    assert str(total) == "+1 * [0,0;1,0]\n-2 * [0,0;0,1]"
    assert total.to_json_obj() == {
        "ncells": 2,
        "terms": [
            {"coeff": 1, "diagram": "0,0;1,0"},
            {"coeff": -2, "diagram": "0,0;0,1"},
        ],
    }
    assert str(SignedDiagramSum(2)) == "0"


def test_sum_rejects_wrong_size():
    total = SignedDiagramSum(2)
    with pytest.raises(ValueError):
        total.add(LatticeDiagram(((0, 0),)), 1)


@pytest.mark.parametrize("coeff", [Fraction(1, 2), 0.5, Fraction(2, 1)])
def test_sum_refuses_a_coefficient_that_is_not_an_integer(coeff):
    # stored, it would fail later, in str or in expand, far from the cause
    diagram = LatticeDiagram(((0, 0), (1, 0)))
    with pytest.raises(TypeError):
        SignedDiagramSum(2, {diagram: coeff})
    total = SignedDiagramSum(2)
    with pytest.raises(TypeError):
        total.add(diagram, coeff)
    assert not total


def test_sums_and_polynomials_are_unhashable_and_falsy_when_empty():
    total = SignedDiagramSum(2)
    poly = delta(LatticeDiagram(((0, 0), (1, 0))))
    for value in (total, poly):
        with pytest.raises(TypeError):
            hash(value)
    assert (bool(total), len(total)) == (False, 0)
    total.add(LatticeDiagram(((0, 0), (1, 0))), 2)
    assert (bool(total), len(total)) == (True, 1)
    assert poly and not poly - poly


def test_delta_coordinate_cap():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        delta(LatticeDiagram(((3000000, 0),)))
    assert time.perf_counter() - start < 1.0
    assert delta(LatticeDiagram(((COORDINATE_CAP, 0),))).terms


# -- the Leibniz sweep against the loop it replaced ----------------------------


def leibniz_reference(cells):
    """delta's first Leibniz loop: a sign from the cycle type of each
    permutation, a Fraction per term, and the validating constructor."""
    n = len(cells)
    if not epsilon(cells):
        return Polynomial.zero(n)
    denom = 1
    for p, q in cells:
        denom *= math.factorial(p) * math.factorial(q)
    terms = {}
    for perm in itertools.permutations(range(n)):
        key = tuple(cells[j][0] for j in perm) + tuple(cells[j][1] for j in perm)
        terms[key] = terms.get(key, 0) + permutation_sign(perm)
    return Polynomial(n, {k: Fraction(v, denom) for k, v in terms.items() if v})


DESK = enumerate_universe(4, 3, 3)
EIGHT_CELLS, _ = parse_diagram("0,0;1,0;3,0;3,1;0,2;1,2;2,2;1,3")


def test_lex_parities_match_permutation_sign():
    for n in range(7):
        parities = lex_parities(n)
        perms = list(itertools.permutations(range(n)))
        assert len(parities) == len(perms)
        assert [1 - 2 * odd for odd in parities] == [permutation_sign(p) for p in perms]


def test_delta_matches_reference_loop():
    assert len(DESK) == 255
    for diagram in DESK + (EIGHT_CELLS,):
        poly, reference = delta(diagram), leibniz_reference(diagram.cells)
        assert poly.terms == reference.terms, str(diagram)
        assert str(poly) == str(reference), str(diagram)
    assert len(delta(EIGHT_CELLS).terms) == 40320


def test_trusted_results_revalidate_unchanged():
    polys = [delta(d) for d in DESK if len(d) == 3]
    for p in polys:
        assert Polynomial(p.nvars, p.terms) == p
    for a, b in zip(polys, polys[1:]):
        for result in (a + b, a - b, -a, a * b, Fraction(-3, 2) * a,
                       diff_operator(a, b), diff_operator(b, a)):
            assert Polynomial(result.nvars, result.terms) == result


def test_delta_cache_covers_the_desk_universe():
    assert _delta_expand.cache_info().maxsize >= len(DESK)


def test_delta_caches_only_small_expansions():
    # an 8-cell entry holds 40,320 terms (about 8 MB), so it bypasses the cache
    _delta_expand.cache_clear()
    assert len(delta(EIGHT_CELLS).terms) == 40320
    assert _delta_expand.cache_info().currsize == 0
    delta(LatticeDiagram(((0, 0), (7, 0), (0, 11), (5, 13))))
    assert _delta_expand.cache_info().currsize == 1


cells_lists = st.lists(st.tuples(st.integers(-3, 20), st.integers(-3, 20)), min_size=1, max_size=9)


@settings(max_examples=200, deadline=None)
@given(cells_lists)
def test_diagram_text_round_trip(cells):
    diagram, _ = normalize(cells)
    assert parse_diagram(str(diagram)) == (diagram, 1)
