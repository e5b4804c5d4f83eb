import itertools
import random

import pytest

from latdiag import diagrams
from latdiag.combinat import (
    DETERMINANT_CAP,
    check_partition,
    conjugate,
    partitions_of,
    staircase,
    staircase_orbit,
    weak_compositions,
)
from latdiag.errors import ResourceLimitError
from latdiag.polynomials import Polynomial, diagonal_action
from latdiag.symmetric import (
    elementary,
    homogeneous,
    power_sum,
    schur_jacobi_trudi,
    schur_tableaux,
)


def x(n, i):
    return Polynomial.variable(n, "x", i)


# -- partitions ---------------------------------------------------------------


def test_check_partition():
    assert check_partition((4, 2, 1)) == (4, 2, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3,)) == (1, 1, 1)
    # independent count: column j of the Ferrers diagram has #{i : mu_i > j} cells
    mu = (4, 2, 1)
    expected = tuple(sum(1 for part in mu if part > j) for j in range(mu[0]))
    assert conjugate(mu) == expected == (3, 2, 1, 1)


def test_conjugate_is_involution():
    for k in range(1, 7):
        for lam in partitions_of(k):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_matches_column_counts():
    for k in range(13):
        for lam in partitions_of(k):
            counts = tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1)) if lam else ()
            assert conjugate(lam) == counts


def test_partitions_of_counts():
    assert [len(partitions_of(k)) for k in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_staircase():
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)


def test_weak_compositions_count():
    assert len(list(weak_compositions(4, 3))) == 15
    assert list(weak_compositions(0, 2)) == [(0, 0)]


def test_weak_compositions_into_no_parts():
    assert list(weak_compositions(0, 0)) == [()]
    assert list(weak_compositions(1, 0)) == []


# -- generators ------------------------------------------------------------------


def test_power_sum_examples():
    assert power_sum(1, 2) == x(2, 1) + x(2, 2)
    assert power_sum(2, 1) == Polynomial.monomial(1, (2,), (0,))
    assert power_sum(2, 3) == (Polynomial.monomial(3, (2, 0, 0), (0, 0, 0))
                               + Polynomial.monomial(3, (0, 2, 0), (0, 0, 0))
                               + Polynomial.monomial(3, (0, 0, 2), (0, 0, 0)))


def test_elementary_examples():
    assert elementary(2, 2) == x(2, 1) * x(2, 2)
    assert not elementary(3, 2)
    assert elementary(0, 5) == Polynomial.constant(5, 1)
    assert not elementary(-1, 3)


def test_homogeneous_examples():
    expected = (Polynomial.monomial(2, (2, 0), (0, 0))
                + Polynomial.monomial(2, (1, 1), (0, 0))
                + Polynomial.monomial(2, (0, 2), (0, 0)))
    assert homogeneous(2, 2) == expected
    for n in (1, 2, 3):
        assert homogeneous(1, n) == elementary(1, n) == power_sum(1, n)
    assert homogeneous(0, 3) == Polynomial.constant(3, 1)


def test_term_counts():
    # e_k has C(n,k) terms, h_k has C(n+k-1,k) terms
    import math
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            assert len(elementary(k, n).terms) == math.comb(n, k)
            assert len(homogeneous(k, n).terms) == math.comb(n + k - 1, k)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: partitions_of(-1), id="partitions_of-negative"),
    pytest.param(lambda: staircase(0), id="staircase-empty"),
    pytest.param(lambda: staircase_orbit(()), id="staircase_orbit-empty"),
    pytest.param(lambda: power_sum(0, 1), id="power_sum-k0"),
    pytest.param(lambda: elementary(1, 0), id="elementary-n0"),
    pytest.param(lambda: homogeneous(1, 0), id="homogeneous-n0"),
    pytest.param(lambda: schur_tableaux((), 2), id="schur_tableaux-empty"),
])
def test_out_of_range_arguments_are_refused(build):
    with pytest.raises(ValueError):
        build()


def test_homogeneous_of_negative_degree_is_zero():
    assert homogeneous(-1, 2) == Polynomial.zero(2)


# -- Schur polynomials -------------------------------------------------------------


def test_schur_small_cases():
    assert schur_jacobi_trudi((1,), 2) == x(2, 1) + x(2, 2)
    assert schur_jacobi_trudi((1, 1), 2) == x(2, 1) * x(2, 2)
    assert schur_tableaux((1,), 1) == x(1, 1)
    assert not schur_tableaux((1, 1, 1), 2)
    assert schur_tableaux((2,), 2) == homogeneous(2, 2)


def test_schur_routes_agree_exhaustively():
    # The oracle and apply_schur both read enumerate_cs_tableaux; Jacobi-Trudi
    # shares none of its code, so this is the independent check on it.
    for k in range(1, 7):
        for lam in partitions_of(k):
            for n in range(1, 7):
                assert schur_jacobi_trudi(lam, n) == schur_tableaux(lam, n), (lam, n)


def test_schur_specializations():
    for k in range(1, 5):
        for n in range(1, 5):
            assert schur_jacobi_trudi((1,) * k, n) == elementary(k, n)
            assert schur_jacobi_trudi((k,), n) == homogeneous(k, n)


def test_newton_identities():
    for n in range(1, 5):
        assert power_sum(1, n) == elementary(1, n) == homogeneous(1, n)
        p2 = elementary(1, n) * elementary(1, n) - 2 * elementary(2, n)
        assert power_sum(2, n) == p2


def test_outputs_are_symmetric():
    rng = random.Random(11)
    polys = [power_sum(2, 3), elementary(2, 3), homogeneous(3, 3),
             schur_jacobi_trudi((2, 1), 3)]
    perms = list(itertools.permutations((1, 2, 3)))
    for poly in polys:
        for _ in range(4):
            sigma = rng.choice(perms)
            assert diagonal_action(sigma, poly) == poly


def test_staircase_orbit_capped_like_a_determinant():
    # (14) has 14 conjugate parts: 14! orbit terms, refused before the walk
    with pytest.raises(ResourceLimitError):
        staircase_orbit((14,))
    with pytest.raises(ResourceLimitError):
        schur_jacobi_trudi((14,), 4)
    assert diagrams.DETERMINANT_CAP == DETERMINANT_CAP
