from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latdiag.diagrams import delta, parse_diagram
from latdiag.polynomials import (
    Polynomial,
    diagonal_action,
    diff_operator,
    parse_polynomial,
)
from latdiag.verify import enumerate_universe


def x(n, i):
    return Polynomial.variable(n, "x", i)


def y(n, i):
    return Polynomial.variable(n, "y", i)


# -- construction and arithmetic ------------------------------------------


def test_add_inverse_is_zero():
    p = x(2, 1) + (-x(2, 1))
    assert p.is_zero
    assert p.terms == {}


def test_add_cancellation():
    p = (x(2, 2) - x(2, 1)) + x(2, 1)
    assert p == x(2, 2)


def test_add_rational_coefficients():
    half = Fraction(1, 2) * Polynomial.monomial(1, (2,), (0,))
    assert half + half == Polynomial.monomial(1, (2,), (0,))


def test_mul_identity():
    one = Polynomial.constant(2, 1)
    p = x(2, 1) * y(2, 2) + Polynomial.constant(2, Fraction(3, 7))
    assert one * p == p


def test_mul_basic():
    assert x(1, 1) * y(1, 1) == Polynomial.monomial(1, (1,), (1,))


def test_mul_difference_of_squares():
    p = (x(2, 2) - x(2, 1)) * (x(2, 2) + x(2, 1))
    expected = Polynomial.monomial(2, (0, 2), (0, 0)) - Polynomial.monomial(2, (2, 0), (0, 0))
    assert p == expected


def test_mismatched_nvars_is_usage_error():
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) * x(3, 1)


def test_zero_degree_is_none():
    z = Polynomial.zero(3)
    assert z.total_degree() is None
    assert z.degree("x") is None
    assert z.degree("y") is None
    assert z.bidegree() is None


# -- partial derivatives -----------------------------------------------------


def test_partial_examples():
    p = Fraction(1, 2) * Polynomial.monomial(1, (2,), (0,))
    assert p.partial("x", 1) == x(1, 1)
    assert x(2, 2).partial("x", 1).is_zero
    q = Polynomial.monomial(2, (1, 0), (0, 2))
    assert q.partial("y", 2) == 2 * Polynomial.monomial(2, (1, 0), (0, 1))


def test_partial_degree_drop():
    p = Polynomial.monomial(2, (3, 1), (0, 2))
    d = p.partial("x", 1)
    assert d.degree("x") == p.degree("x") - 1


# -- operator application ----------------------------------------------------


def test_diff_operator_examples():
    p = Fraction(1, 2) * Polynomial.monomial(1, (2,), (0,))
    assert diff_operator(x(1, 1), p) == x(1, 1)

    q = x(2, 1) + x(2, 2)
    target = x(2, 2) - x(2, 1)
    assert diff_operator(q, target).is_zero

    prod = x(2, 1) * x(2, 2)
    assert diff_operator(prod, prod) == Polynomial.constant(2, 1)


def test_diff_operator_bidegree_bookkeeping():
    q = x(2, 1) * y(2, 2)
    p = Polynomial.monomial(2, (2, 1), (1, 1))
    result = diff_operator(q, p)
    assert result.bidegree() == (2, 1)


# -- diagonal action ---------------------------------------------------------


def test_diagonal_action_identity():
    p = x(3, 1) * y(3, 2) + Polynomial.constant(3, 5)
    assert diagonal_action((1, 2, 3), p) == p


def test_diagonal_action_alternant():
    p = x(2, 2) - x(2, 1)
    assert diagonal_action((2, 1), p) == -p


def test_diagonal_action_mixed():
    p = x(2, 1) * y(2, 2)
    assert diagonal_action((2, 1), p) == x(2, 2) * y(2, 1)


def test_diagonal_action_rejects_non_bijection():
    with pytest.raises(ValueError):
        diagonal_action((1, 1), x(2, 1))


# -- canonical text ----------------------------------------------------------


def test_canonical_text_examples():
    two_oh = Fraction(1, 2) * (Polynomial.monomial(2, (0, 2), (0, 0))
                               - Polynomial.monomial(2, (2, 0), (0, 0)))
    assert str(two_oh) == "x2^2/2 - x1^2/2"
    assert str(x(2, 2) - x(2, 1)) == "x2 - x1"
    assert str(Polynomial.zero(2)) == "0"
    mixed = 3 * Polynomial.monomial(2, (1, 0), (0, 2)) - Polynomial.constant(2, Fraction(5, 4))
    assert str(mixed) == "3*x1*y2^2 - 5/4"


def test_parse_round_trip_examples():
    for text, n in [("x2^2/2 - x1^2/2", 2), ("x2 - x1", 2), ("0", 2),
                    ("3*x1*y2^2 - 5/4", 2), ("-x1 + y3", 3)]:
        p = parse_polynomial(text, n)
        assert parse_polynomial(str(p), n) == p


def test_parse_accepts_typographic_minus():
    assert parse_polynomial("x2 − x1", 2) == x(2, 2) - x(2, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x1 & x2", 2)
    with pytest.raises(ValueError):
        parse_polynomial("", 2)


# -- property tests -----------------------------------------------------------


@st.composite
def polynomials(draw, nvars=2, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(2 * nvars))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        terms[mono] = coeff
    return Polynomial(nvars, terms)


@settings(max_examples=120, deadline=None)
@given(polynomials(), polynomials())
def test_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


@settings(max_examples=80, deadline=None)
@given(polynomials(), st.integers(1, 2), st.integers(1, 2))
def test_partials_commute(p, i, j):
    assert p.partial("x", i).partial("x", j) == p.partial("x", j).partial("x", i)


@settings(max_examples=80, deadline=None)
@given(polynomials(), st.permutations([1, 2]), st.permutations([1, 2]))
def test_diagonal_action_is_a_group_action(p, sigma, tau):
    composed = tuple(sigma[t - 1] for t in tau)
    assert diagonal_action(sigma, diagonal_action(tau, p)) == diagonal_action(composed, p)


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_text_round_trip(p):
    assert parse_polynomial(str(p), p.nvars) == p


coefficients = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.integers(1, 40))


@st.composite
def wide_polynomials(draw, nvars):
    """Exponents up to 12 and coefficients of any sign and numerator, with or
    without a constant term."""
    monomials = st.tuples(*[st.integers(0, 12)] * (2 * nvars))
    terms = draw(st.dictionaries(monomials, coefficients, max_size=6))
    if draw(st.booleans()):
        terms[(0,) * (2 * nvars)] = draw(coefficients)
    return Polynomial(nvars, terms)


def polynomial_pairs():
    return st.integers(1, 3).flatmap(lambda n: st.tuples(wide_polynomials(n), wide_polynomials(n)))


def assert_canonical(p):
    for mono, coeff in p.terms.items():
        assert type(mono) is tuple and len(mono) == 2 * p.nvars
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(coeff) is Fraction and coeff != 0
    assert Polynomial(p.nvars, p.terms) == p


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(wide_polynomials))
def test_text_round_trip_wide(p):
    assert parse_polynomial(str(p), p.nvars) == p


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs(), coefficients)
def test_arithmetic_keeps_invariants(pair, c):
    a, b = pair
    for result in (a + b, a - b, -a, a * b, c * a, a * 3, diff_operator(a, b),
                   a.partial("y", 1), a.swap_alphabets()):
        assert_canonical(result)


# -- the text grammar ---------------------------------------------------------

# Each string below raised ValueError at the parent of the term-grammar parser
# too, except "x1*" and "x1*+x2" (read as x1 and x1 + x2 before) and "x1/0"
# (ZeroDivisionError before).
MALFORMED = ["", "  ", "+", "x1 +", "- -x1", "x1 x2", "2 3", "x1^", "x1/", "x1^2^3",
             "1/2/3", "x1 & x2", "x9", "x1*", "x1*+x2", "x1/0"]


@pytest.mark.parametrize("text", MALFORMED)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_polynomial(text, 2)


def test_parse_accepts_whitespace_between_tokens():
    expected = Polynomial.monomial(2, (2, 1), (0, 1), Fraction(-3, 4)) + x(2, 2)
    assert parse_polynomial(" - 3 * x1 ^ 2 * x2 * y2 / 4 + x2 ", 2) == expected
    assert parse_polynomial("−3*x1^2*x2*y2/4+x2", 2) == expected


def test_parse_reads_back_every_desk_delta():
    for diagram in enumerate_universe(4, 3, 3):
        poly = delta(diagram)
        assert parse_polynomial(str(poly), len(diagram)) == poly, diagram


def test_parse_reads_back_an_eight_cell_delta():
    diagram, _ = parse_diagram("0,0;1,0;3,0;3,1;0,2;1,2;2,2;1,3")
    poly = delta(diagram)
    assert len(poly.terms) == 40320
    assert parse_polynomial(str(poly), 8) == poly
