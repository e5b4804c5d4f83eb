"""The classical symmetric polynomials as exact values in x1..xn.

Everything is built in the x alphabet; callers wanting the y version swap
alphabets on the result. Each builder sums x^v over its textbook exponent
vectors v, so the work per monomial depends on n and not on the degree.
Nothing here is cached: verify._built_operator keeps each operator polynomial.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .combinat import staircase_orbit, weak_compositions
from .polynomials import Polynomial
from . import tableaux


def _monomial_sum(exponents, n: int) -> Polynomial:
    """Sum of x^v over exponent vectors v of length n, so equal vectors add up."""
    return Polynomial(n, Counter(v + (0,) * n for v in exponents))


def power_sum(k: int, n: int) -> Polynomial:
    """Sum of x_i^k over i = 1..n: the n unit vectors, times k."""
    if k < 1 or n < 1:
        raise ValueError("power sum needs k >= 1 and n >= 1")
    return _monomial_sum((tuple(k * (i == j) for j in range(n)) for i in range(n)), n)


def elementary(k: int, n: int) -> Polynomial:
    """Sum of the squarefree monomials of degree k, one per k-subset's 0/1
    vector; e_0 = 1 and e_k = 0 for k < 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        return Polynomial.zero(n)
    subsets = map(set, itertools.combinations(range(n), k))
    return _monomial_sum((tuple(int(i in s) for i in range(n)) for s in subsets), n)


def homogeneous(k: int, n: int) -> Polynomial:
    """Sum of all monomials of degree k: the weak compositions of k into n parts."""
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0:
        return Polynomial.zero(n)
    return _monomial_sum(weak_compositions(k, n), n)


def schur_jacobi_trudi(lam: tuple[int, ...], n: int) -> Polynomial:
    """Schur polynomial via the dual Jacobi-Trudi determinant in the e_k,
    expanded over permutations of the staircase-shifted conjugate shape."""
    total = Polynomial.zero(n)
    for _, sign, alpha in staircase_orbit(lam):
        if min(alpha) >= 0:
            total = total + math.prod((elementary(a, n) for a in alpha), start=Polynomial.constant(n, sign))
    return total


def schur_tableaux(lam: tuple[int, ...], n: int) -> Polynomial:
    """Schur polynomial as the generating function of column-strict Young
    tableaux: one monomial x^T per tableau, T's content as exponents."""
    if not lam:
        raise ValueError("need a nonempty partition")
    mults = (tab.entry_multiplicities() for tab in tableaux.enumerate_cs_tableaux(lam, n))
    return _monomial_sum((tuple(m.get(i, 0) for i in range(1, n + 1)) for m in mults), n)
