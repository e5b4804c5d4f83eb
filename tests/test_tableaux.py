import itertools
import math
from collections import Counter

import pytest

from latdiag.combinat import conjugate, partitions_of, staircase
from latdiag.errors import ResourceLimitError
from latdiag.tableaux import (
    ColumnTableau,
    enumerate_column_families,
    enumerate_cs_tableaux,
    find_violating_pair,
    is_column_strict,
    parse_tableau,
    psi,
    psi_step,
    shape_orbit_sign,
    two_column_move,
    word_pair,
)


def column_strict_by_rows(tableau):
    """Independent check: partition shape, rows weakly increasing."""
    cols = tableau.columns
    for j in range(len(cols) - 1):
        left, right = cols[j], cols[j + 1]
        if len(left) < len(right):
            return False
        if any(left[i] > right[i] for i in range(len(right))):
            return False
    return True


def brute_force_cs_tableaux(lam, n):
    """Fill the diagram cell by cell and keep the fillings satisfying
    T(i,j) <= T(i,j+1) and T(i,j) < T(i+1,j)."""
    heights = conjugate(lam)
    cells = [(i, j) for j in range(len(heights)) for i in range(heights[j])]
    results = set()
    for values in itertools.product(range(1, n + 1), repeat=len(cells)):
        entry = dict(zip(cells, values))
        ok = True
        for (i, j), v in entry.items():
            if (i, j + 1) in entry and v > entry[(i, j + 1)]:
                ok = False
                break
            if (i + 1, j) in entry and v >= entry[(i + 1, j)]:
                ok = False
                break
        if ok:
            cols = tuple(tuple(entry[(i, j)] for i in range(heights[j]))
                         for j in range(len(heights)))
            results.add(cols)
    return results


def orbit_set(lam, n):
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


# -- the tableau type ----------------------------------------------------------


def test_column_tableau_validation():
    with pytest.raises(ValueError):
        ColumnTableau(((1, 1),), 3)
    with pytest.raises(ValueError):
        ColumnTableau(((2, 1),), 3)
    with pytest.raises(ValueError):
        ColumnTableau(((1, 4),), 3)


def test_tableau_text_round_trip():
    text = "7,8,10|3,9|4,5,6,8"
    tab = parse_tableau(text)
    assert str(tab) == text
    assert tab.shape == (3, 2, 4)
    empty_col = parse_tableau("_|1,2")
    assert empty_col.columns == ((), (1, 2))
    assert str(empty_col) == "_|1,2"


def test_entry_multiplicities_and_word():
    tab = parse_tableau("3,9|4,5,6,9")
    assert tab.entry_multiplicities() == Counter((3, 4, 5, 6, 9, 9))
    assert tab.entry_multiplicities() == {3: 1, 4: 1, 5: 1, 6: 1, 9: 2}


# -- enumeration -----------------------------------------------------------------


def test_enumerate_cs_small():
    assert [t.columns for t in enumerate_cs_tableaux((1, 1), 2)] == [((1, 2),)]
    rows = sorted(t.columns for t in enumerate_cs_tableaux((2,), 2))
    assert rows == [((1,), (1,)), ((1,), (2,)), ((2,), (2,))]
    assert len(enumerate_cs_tableaux((2, 1), 3)) == 8


def test_enumerate_cs_matches_brute_force():
    for k in range(1, 5):
        for lam in partitions_of(k):
            for n in range(1, 5):
                mine = {t.columns for t in enumerate_cs_tableaux(lam, n)}
                assert mine == brute_force_cs_tableaux(lam, n), (lam, n)


def test_enumerate_families_counts():
    assert len(enumerate_column_families((1, 1), 2)) == 4
    fams = enumerate_column_families((0, 2), 2)
    assert [t.columns for t in fams] == [((), (1, 2))]
    assert enumerate_column_families((3,), 2) == ()
    assert enumerate_column_families((-1, 2), 3) == ()
    for alpha in [(2, 1), (1, 0, 3), (2, 2)]:
        for n in (2, 3, 4):
            expected = math.prod(math.comb(n, a) for a in alpha)
            assert len(enumerate_column_families(alpha, n)) == expected


def test_families_keep_product_order():
    # The reference is the product of each column's strict subsets, left
    # column slowest; a trailing zero part keeps its empty column.
    assert [str(t) for t in enumerate_column_families((2, 0), 2)] == ["1,2|_"]
    for m in range(1, 5):
        for alpha in itertools.product(range(-1, 4), repeat=m):
            for n in range(6):
                expected = [] if min(alpha) < 0 else list(itertools.product(
                    *(itertools.combinations(range(1, n + 1), a) for a in alpha)))
                assert [t.columns for t in enumerate_column_families(alpha, n)] == expected, (alpha, n)


def compositions_of(k):
    """Every composition of k into positive parts, one per set of cut points."""
    for r in range(k):
        for cuts in itertools.combinations(range(1, k), r):
            bounds = (0,) + cuts + (k,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_enumerated_tableaux_revalidate_unchanged():
    # Both enumerations skip ColumnTableau's validation; each result must be
    # what the validating constructor would have built.
    for k in range(1, 6):
        shapes = [(enumerate_cs_tableaux, lam) for lam in partitions_of(k)]
        shapes += [(enumerate_column_families, alpha) for alpha in compositions_of(k)]
        for enumerate_shape, shape in shapes:
            for n in range(1, 7):
                for t in enumerate_shape(shape, n):
                    assert t == ColumnTableau(t.columns, n), (shape, n, t)
                    assert type(t.columns) is tuple and type(t.max_entry) is int
                    assert all(type(col) is tuple and all(type(v) is int for v in col)
                               for col in t.columns), (shape, n, t)


# -- words and pairing --------------------------------------------------------------


def test_word_pair_paper_example():
    wp = word_pair((3, 9), (4, 5, 6, 9))
    assert wp.word_str() == "3 4 5 6 9 9"
    assert wp.marks_str() == "( ) ) ) ( )"
    # first two and last two paired, the middle two unpaired
    assert set(wp.pairs) == {(0, 1), (4, 5)}
    assert wp.unpaired_rights == (2, 3)
    assert wp.unpaired_lefts == ()


def test_word_pair_second_paper_example():
    wp = word_pair((3, 9), (4, 5, 6, 8))
    assert wp.word_str() == "3 4 5 6 8 9"
    assert wp.marks_str() == "( ) ) ) ) ("


def test_word_pair_rejects_repeat_in_column():
    with pytest.raises(ValueError):
        word_pair((3, 3), (4,))


def test_unpaired_structure_exhaustive():
    # unpaired marks always read ")...)(...(" in position order
    for na in range(0, 4):
        for nb in range(0, 4):
            for a in itertools.combinations(range(1, 5), na):
                for b in itertools.combinations(range(1, 5), nb):
                    wp = word_pair(a, b)
                    if wp.unpaired_rights and wp.unpaired_lefts:
                        assert max(wp.unpaired_rights) < min(wp.unpaired_lefts)


# -- two-column move -----------------------------------------------------------------


def test_move_paper_example():
    new_left, new_right = two_column_move((3, 9), (4, 5, 6, 8))
    assert new_left == (3, 8, 9)
    assert new_right == (4, 5, 6)
    after = word_pair(new_left, new_right)
    assert after.marks_str() == "( ) ) ) ( ("


def test_move_spec_two_column_case():
    # r=2 unpaired rights, no unpaired lefts: one mark flips, sizes go to (3,3)
    left, right = (3, 9), (4, 5, 6, 9)
    new_left, new_right = two_column_move(left, right)
    assert (len(new_left), len(new_right)) == (len(right) - 1, len(left) + 1) == (3, 3)
    assert tuple(sorted(new_left + new_right)) == tuple(sorted(left + right))
    back = two_column_move(new_left, new_right)
    assert back == (left, right)


def test_move_requires_incompatibility():
    with pytest.raises(ValueError):
        two_column_move((1, 2), (2, 3))


def test_move_is_involution_exhaustively():
    n = 3
    for na in range(0, n + 1):
        for nb in range(0, n + 1):
            for a in itertools.combinations(range(1, n + 1), na):
                for b in itertools.combinations(range(1, n + 1), nb):
                    wp = word_pair(a, b)
                    if wp.r == 0:
                        continue
                    new_a, new_b = two_column_move(a, b)
                    assert (len(new_a), len(new_b)) == (len(b) - 1, len(a) + 1)
                    assert tuple(sorted(new_a + new_b)) == tuple(sorted(a + b))
                    assert two_column_move(new_a, new_b) == (a, b)


# -- column-strictness criterion -------------------------------------------------------


def test_pairing_criterion_examples():
    assert not is_column_strict(parse_tableau("3,9|4,5,6,9"))
    assert is_column_strict(parse_tableau("2,5,9"))
    for t in enumerate_cs_tableaux((2, 2), 3):
        assert is_column_strict(t) and column_strict_by_rows(t)


def test_pairing_criterion_matches_row_test():
    for k in range(1, 5):
        for lam in partitions_of(k):
            for n in range(1, 5):
                for t in orbit_set(lam, n):
                    assert is_column_strict(t) == column_strict_by_rows(t), t


def test_non_partition_shapes_have_no_fixed_points():
    for alpha in [(1, 2), (0, 2), (1, 3), (2, 3)]:
        for t in enumerate_column_families(alpha, 4):
            assert not is_column_strict(t)


# -- the involution ----------------------------------------------------------------------


def test_psi_paper_example():
    tab = parse_tableau("7,8,10|3,9|4,5,6,8")
    step = psi_step(tab, (3, 3, 3))
    assert str(step.result) == "7,8,10|3,8,9|4,5,6"
    assert not step.fixed
    assert step.pair == (1, 1)
    assert step.before.word_str() == "3 4 5 6 8 9"
    assert step.before.marks_str() == "( ) ) ) ) ("
    assert step.after.marks_str() == "( ) ) ) ( ("
    assert psi(step.result, (3, 3, 3)) == tab


def test_psi_fixes_column_strict():
    for lam in [(2, 1), (3, 1), (2, 2)]:
        for t in enumerate_cs_tableaux(lam, 4):
            step = psi_step(t, lam)
            assert step.fixed and step.result == t


def test_psi_rejects_shape_outside_orbit():
    with pytest.raises(ValueError):
        psi(parse_tableau("1,2|1"), (3, 1))
    with pytest.raises(ValueError):
        shape_orbit_sign((2, 2), (2, 1))


def test_orbit_sign_needs_a_nonempty_partition():
    with pytest.raises(ValueError):
        shape_orbit_sign((1,), ())


def test_psi_exhaustive_involution():
    lams = [lam for k in range(1, 5) for lam in partitions_of(k) if lam[0] <= 3]
    for lam in lams:
        for n in range(1, 5):
            fixed = 0
            for t in orbit_set(lam, n):
                step = psi_step(t, lam)
                assert psi(step.result, lam) == t, (lam, n, t)
                assert step.result.entry_multiplicities() == t.entry_multiplicities()
                if step.fixed:
                    fixed += 1
                    assert is_column_strict(t)
                else:
                    assert not is_column_strict(t)
                    assert (shape_orbit_sign(t.shape, lam)
                            == -shape_orbit_sign(step.result.shape, lam))
            assert fixed == len(enumerate_cs_tableaux(lam, n))


def test_find_violating_pair_scan_order():
    # rightmost adjacent pair is examined first: the (9,5) inversion in
    # columns 2,3 wins over the (7,3) inversion in columns 1,2
    tab = parse_tableau("7,8,10|3,9|4,5,6,8")
    assert find_violating_pair(tab) == (1, 1)
    # with a single incompatible pair the scan finds it wherever it sits
    assert find_violating_pair(parse_tableau("2|1|1")) == (0, 0)


def test_cs_tableaux_strictly_increase_in_column_reading_word():
    for k in range(1, 6):
        for lam in partitions_of(k):
            for n in range(1, 6):
                words = [tuple(itertools.chain.from_iterable(t.columns))
                         for t in enumerate_cs_tableaux(lam, n)]
                assert all(a < b for a, b in zip(words, words[1:])), (lam, n)


def test_enumerations_above_the_cap_raise_before_building():
    # 10^12 column families, refused once the running count passes the cap
    # after 10^5 partial families, and C(41, 12) tableaux, refused at once
    with pytest.raises(ResourceLimitError):
        enumerate_column_families((1,) * 12, 10)
    with pytest.raises(ResourceLimitError):
        enumerate_cs_tableaux((12,), 30)
    assert len(enumerate_cs_tableaux((12,), 4)) == math.comb(15, 3)
