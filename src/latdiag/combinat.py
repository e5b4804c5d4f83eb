"""Partitions, compositions, staircases, and permutation signs.

Partitions are plain tuples of weakly decreasing positive integers;
compositions are tuples of arbitrary integers. Permutations of {0..n-1}
are tuples in one-line notation.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import ResourceLimitError

# Leibniz expansion cap: n! permutations, for the determinant of an n-cell
# diagram and for the n x n Jacobi-Trudi determinant (the staircase orbit).
DETERMINANT_CAP = 9


def check_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate and return a partition as a tuple (weakly decreasing, positive)."""
    out = tuple(map(index, parts))
    if any(v <= 0 for v in out):
        raise ValueError(f"partition parts must be positive, got {out}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing, got {out}")
    return out


def conjugate(lam: Iterable[int]) -> tuple[int, ...]:
    """Conjugate partition: entry i counts the parts of size at least i+1."""
    lam = check_partition(lam)
    # lam[i-1] - lam[i] columns have height i; append from the last row up
    padded = lam + (0,)
    out: list[int] = []
    for i in range(len(lam), 0, -1):
        out += [i] * (padded[i - 1] - padded[i])
    return tuple(out)


@cache
def partitions_of(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k, in decreasing lexicographic order."""
    if k < 0:
        raise ValueError("k must be nonnegative")

    def gen(rem: int, maxpart: int) -> Iterator[tuple[int, ...]]:
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return tuple(gen(k, k))


def staircase(ell: int) -> tuple[int, ...]:
    """The strictly decreasing sequence (ell-1, ell-2, ..., 1, 0)."""
    if ell < 1:
        raise ValueError("staircase length must be at least 1")
    return tuple(range(ell - 1, -1, -1))


def staircase_orbit(lam: Iterable[int]) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The staircase orbit of a nonempty partition: one (sigma, sign, alpha)
    per permutation sigma of the conjugate's columns, where alpha + d is
    (conjugate(lam) + d) rearranged by sigma, d = staircase, and sign is the
    sign of sigma. Shapes with a negative part are included. The orbit is the
    Leibniz sum of the Jacobi-Trudi determinant, so lam[0] (the conjugate's
    length) above DETERMINANT_CAP raises ResourceLimitError."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("need a nonempty partition")
    ell = lam[0]
    if ell > DETERMINANT_CAP:
        raise ResourceLimitError(f"staircase orbit has {ell}! terms, cap is {DETERMINANT_CAP}!")
    lam_conj = conjugate(lam)
    d = staircase(ell)
    v = [lam_conj[i] + d[i] for i in range(ell)]
    return [(sigma, 1 - 2 * odd, tuple(v[sigma[i]] - d[i] for i in range(ell)))
            for sigma, odd in zip(itertools.permutations(range(ell)), lex_parities(ell))]


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


@cache
def lex_parities(n: int) -> bytes:
    """Byte k is 1 when the k-th permutation of 0..n-1 in lexicographic order
    (the order of itertools.permutations) is odd, else 0.

    The factorial-base digits of k are the permutation's Lehmer code, whose
    sum is its inversion count. So the table for n is n blocks of the table
    for n-1, flipped in the blocks with an odd leading digit."""
    if n <= 1:
        return b"\x00"
    sub = lex_parities(n - 1)
    flipped = sub.translate(_FLIP)
    return b"".join(flipped if d % 2 else sub for d in range(n))


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of 0..n-1, computed from its cycle type."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Parse a comma-separated list of integers, such as "4, 2,1"; errors name `what`."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}") from None


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse a comma-separated partition such as "4,2,1"."""
    return check_partition(parse_ints(text, "partition"))
