"""The classical symmetric polynomials as exact values in x1..xn.

Everything is built in the x alphabet; callers wanting the y version swap
alphabets on the result. The builders cache their results (Polynomial
values are immutable), except schur_jacobi_trudi, the independent check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache

from .combinat import staircase_orbit
from .polynomials import Polynomial

from . import tableaux


def _index_sum(index_tuples, n: int) -> Polynomial:
    """Sum of the monomials x_i1 x_i2 ... (0-based indices), one per index
    tuple, so tuples with the same multiset add up."""
    counts: Counter[tuple[int, ...]] = Counter()
    for combo in index_tuples:
        mono = [0] * (2 * n)
        for i in combo:
            mono[i] += 1
        counts[tuple(mono)] += 1
    return Polynomial(n, counts)


@cache
def power_sum(k: int, n: int) -> Polynomial:
    """Sum of x_i^k over i = 1..n."""
    if k < 1 or n < 1:
        raise ValueError("power sum needs k >= 1 and n >= 1")
    return _index_sum(((i,) * k for i in range(n)), n)


@cache
def elementary(k: int, n: int) -> Polynomial:
    """Sum of squarefree monomials over strictly increasing index tuples.

    e_0 = 1 and e_k = 0 for k < 0.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        return Polynomial.zero(n)
    return _index_sum(itertools.combinations(range(n), k), n)


@cache
def homogeneous(k: int, n: int) -> Polynomial:
    """Sum of all monomials of degree k, over weakly increasing index tuples."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        return Polynomial.zero(n)
    return _index_sum(itertools.combinations_with_replacement(range(n), k), n)


def schur_jacobi_trudi(lam: tuple[int, ...], n: int) -> Polynomial:
    """Schur polynomial via the dual Jacobi-Trudi determinant in the e_k,
    expanded over permutations of the staircase-shifted conjugate shape."""
    total = Polynomial.zero(n)
    for _, sign, alpha in staircase_orbit(lam):
        if min(alpha) < 0:
            continue
        product = Polynomial.constant(n, sign)
        for a in alpha:
            product = product * elementary(a, n)
        total = total + product
    return total


@cache
def schur_tableaux(lam: tuple[int, ...], n: int) -> Polynomial:
    """Schur polynomial as the generating function of column-strict Young
    tableaux: one monomial x^T per tableau."""
    if not lam:
        raise ValueError("need a nonempty partition")
    tabs = tableaux.enumerate_cs_tableaux(lam, n)
    return _index_sum(((v - 1 for v in tab.word()) for tab in tabs), n)
