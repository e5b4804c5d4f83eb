import importlib.util
import math
import os
import re
import time
from decimal import Decimal
from fractions import Fraction
from operator import getitem
from pathlib import Path

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
from latdiag.symmetric import power_sum
from latdiag.verify import SuiteConfig, enumerate_universe, operator_polynomial, suite_instances


def x(n, i):
    return Polynomial.variable(n, "x", i)


def y(n, i):
    return Polynomial.variable(n, "y", i)


# -- construction and arithmetic ------------------------------------------


def test_add_inverse_is_zero():
    p = x(2, 1) + (-x(2, 1))
    assert not p
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


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Polynomial(0), id="no-variables"),
    pytest.param(lambda: Polynomial(1, {(1,): 1}), id="monomial-too-short"),
    pytest.param(lambda: Polynomial(1, {(1, -1): 1}), id="negative-exponent"),
    pytest.param(lambda: Polynomial.monomial(2, (1,), (0, 0)), id="x-block-too-short"),
    pytest.param(lambda: diff_operator(x(1, 1), x(2, 1)), id="diff_operator-nvars"),
])
def test_malformed_input_is_refused(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Polynomial(1, {(0, 0): 0.1}), id="float-term"),
    pytest.param(lambda: Polynomial(1, {(1, 0): "1/3"}), id="str-term"),
    pytest.param(lambda: Polynomial(1, {(1, 0): Decimal("0.5")}), id="decimal-term"),
    pytest.param(lambda: Polynomial.constant(2, 0.5), id="float-constant"),
    pytest.param(lambda: Polynomial.constant(2, "2"), id="str-constant"),
    pytest.param(lambda: Polynomial.monomial(1, (1,), (0,), 0.25), id="float-monomial"),
    pytest.param(lambda: Polynomial.monomial(1, (1,), (0,), "-1/4"), id="str-monomial"),
])
def test_inexact_coefficients_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_arithmetic_with_other_types():
    p = x(2, 1)
    assert (p == 1) is False
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p * "a"
    assert p * 0 == Polynomial.zero(2)


def test_coefficient_refuses_a_monomial_of_the_wrong_length():
    p = Polynomial.constant(2, 3)
    assert p.coefficient((0, 0, 0, 0)) == 3 and p.coefficient((1, 0, 0, 0)) == 0
    for mono in [(0,), (0, 0, 0), (0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            p.coefficient(mono)


def test_zero_degree_is_none():
    z = Polynomial.zero(3)
    assert z.bidegrees() == set()


# -- partial derivatives -----------------------------------------------------


def test_partial_examples():
    p = Fraction(1, 2) * Polynomial.monomial(1, (2,), (0,))
    assert p.partial("x", 1) == x(1, 1)
    assert not x(2, 2).partial("x", 1)
    q = Polynomial.monomial(2, (1, 0), (0, 2))
    assert q.partial("y", 2) == 2 * Polynomial.monomial(2, (1, 0), (0, 1))


def test_partial_degree_drop():
    p = Polynomial.monomial(2, (3, 1), (0, 2))
    d = p.partial("x", 1)
    assert p.bidegrees() == {(4, 2)}
    assert d.bidegrees() == {(3, 2)}


# -- operator application ----------------------------------------------------


def test_diff_operator_examples():
    p = Fraction(1, 2) * Polynomial.monomial(1, (2,), (0,))
    assert diff_operator(x(1, 1), p) == x(1, 1)

    q = x(2, 1) + x(2, 2)
    target = x(2, 2) - x(2, 1)
    assert not diff_operator(q, target)

    prod = x(2, 1) * x(2, 2)
    assert diff_operator(prod, prod) == Polynomial.constant(2, 1)


def test_diff_operator_bidegree_bookkeeping():
    q = x(2, 1) * y(2, 2)
    p = Polynomial.monomial(2, (2, 1), (1, 1))
    result = diff_operator(q, p)
    assert result.bidegrees() == {(2, 1)}


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


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs(), coefficients)
def test_stored_form_is_reduced(pair, c):
    # integer numerators over one positive denominator, in lowest terms, so
    # that equal polynomials store equal forms
    a, b = pair
    for p in (a, b, a + b, a - b, a * b, c * a, diff_operator(a, b), a.swap_alphabets()):
        assert p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1
        assert all(type(num) is int and num for num in p.nums.values())


# -- diff_operator against a plain Fraction loop ------------------------------


def _reference_diff_operator(operator, target):
    """diff_operator as a plain loop over every term pair and all 2n positions,
    multiplying Fractions."""
    width = 2 * operator.nvars
    out = {}
    for dmono, dcoeff in operator.terms.items():
        for tmono, tcoeff in target.terms.items():
            coeff = dcoeff * tcoeff
            key = []
            for pos in range(width):
                e, a = tmono[pos], dmono[pos]
                if e < a:
                    break
                if a:
                    coeff *= math.perm(e, a)
                key.append(e - a)
            else:
                k = tuple(key)
                out[k] = out.get(k, 0) + coeff
    return Polynomial(target.nvars, out)


def assert_matches_reference(operator, target):
    result = diff_operator(operator, target)
    assert result == _reference_diff_operator(operator, target)
    assert_canonical(result)
    return result


@settings(max_examples=300, deadline=None)
@given(polynomial_pairs())
def test_diff_operator_matches_reference(pair):
    assert_matches_reference(*pair)


def test_diff_operator_matches_reference_on_the_desk_universe():
    pairs = 0
    for op, param, diagram, axis in suite_instances(SuiteConfig(axes=("x",))):
        assert_matches_reference(operator_polynomial(op, param, len(diagram), axis), delta(diagram))
        pairs += 1
    assert pairs == 3825


def assert_desk_pairs_match_reference():
    """diff_operator against the Fraction loop on every desk (operator, delta)
    pair, both axes: the same terms in the same order, twice per pair, so the
    second call reads the integer forms the first kept on both polynomials."""
    pairs = 0
    for op, param, diagram, axis in suite_instances(SuiteConfig()):
        operator, target = operator_polynomial(op, param, len(diagram), axis), delta(diagram)
        expected = list(_reference_diff_operator(operator, target).terms.items())
        for _ in range(2):
            assert list(diff_operator(operator, target).terms.items()) == expected, (op, param, str(diagram), axis)
        pairs += 1
    assert pairs == 7650


def test_diff_operator_matches_reference_on_both_axes_with_kept_forms():
    assert_desk_pairs_match_reference()


def _first_numerator_pairs(self):
    """Wrong operator pairs: every term's numerator read as the first."""
    first = next(iter(self.nums.values()), 0)
    return [([(pos, a) for pos, a in enumerate(mono) if a], first) for mono in self.nums]


def test_desk_pairs_catch_a_wrong_integer_form(monkeypatch):
    monkeypatch.setattr(Polynomial, "_operator_pairs", _first_numerator_pairs)
    with pytest.raises(AssertionError):
        assert_desk_pairs_match_reference()


def test_integer_form_is_kept_and_follows_term_order():
    target = Fraction(1, 4) * x(2, 1) - Fraction(5, 6) * y(2, 2) + Polynomial.constant(2, 3)
    den, nums = target.den, target.nums
    assert (den, list(nums.items())) == (12, [((1, 0, 0, 0), 3), ((0, 0, 0, 1), -10), ((0, 0, 0, 0), 36)])
    assert [Fraction(num, den) for num in nums.values()] == list(target.terms.values())
    pairs = target._operator_pairs()
    assert pairs == [([(0, 1)], 3), ([(3, 1)], -10), ([], 36)]
    assert target._operator_pairs() is pairs
    assert (Polynomial.zero(2).den, Polynomial.zero(2).nums) == (1, {})


def test_diff_operator_constant_terms():
    target = Fraction(5, 6) * x(2, 1) * y(2, 2) + Polynomial.constant(2, Fraction(-1, 4))
    third = Fraction(2, 3)
    assert assert_matches_reference(Polynomial.constant(2, third), target) == third * target
    operator = Polynomial.constant(2, 3) + x(2, 1)
    expected = 3 * target + Fraction(5, 6) * y(2, 2)
    assert assert_matches_reference(operator, target) == expected


def test_diff_operator_zero_sides():
    p = x(3, 1) + Fraction(1, 2) * y(3, 3)
    for operator, target in ((Polynomial.zero(3), p), (p, Polynomial.zero(3)),
                             (Polynomial.zero(3), Polynomial.zero(3))):
        result = assert_matches_reference(operator, target)
        assert not result and result.nvars == 3


def test_diff_operator_drops_pairs_past_the_target_exponent():
    square = x(2, 1) * x(2, 1)
    assert not assert_matches_reference(square * y(2, 1), square * x(2, 2))
    target = x(2, 1) + Fraction(1, 3) * square * x(2, 1)
    assert assert_matches_reference(square, target) == 2 * x(2, 1)


def test_diff_operator_drops_exact_cancellation():
    operator = Fraction(1, 2) * x(2, 1) - Fraction(1, 3) * x(2, 2)
    target = 2 * x(2, 1) + 3 * x(2, 2) + x(2, 1) * y(2, 1)
    result = assert_matches_reference(operator, target)
    assert result == Fraction(1, 2) * y(2, 1)
    assert list(result.terms) == [(0, 0, 1, 0)]


def test_diff_operator_mixed_denominators():
    # Denominators 4 and 6 on each side: one common denominator 12 per side.
    operator = Fraction(1, 4) * x(2, 1) + Fraction(1, 6) * x(2, 2)
    target = Fraction(1, 6) * x(2, 1) * x(2, 1) + Fraction(1, 4) * x(2, 1) * x(2, 2)
    result = assert_matches_reference(operator, target)
    assert result.terms == {(1, 0, 0, 0): Fraction(1, 8), (0, 1, 0, 0): Fraction(1, 16)}
    assert all(type(c) is Fraction for c in result.terms.values())


# -- str against the loop that writes every factor of every term ---------------


def _reference_str(p):
    """str(P) as a plain loop that joins each term's 2n per-position factors."""
    if not p.terms:
        return "0"
    exponents = set().union(*p.terms) - {0}
    factors = [{0: "", **{e: f"{v}{i}" + (f"^{e}" if e > 1 else "") for e in exponents}}
               for v in "xy" for i in range(1, p.nvars + 1)]
    chunks = []
    for mono in p._term_order():
        coeff = p.terms[mono]
        num, den = abs(coeff.numerator), coeff.denominator
        ms = "*".join(filter(None, map(getitem, factors, mono)))
        lead = f"{num}*" if num != 1 else ""
        chunks.append(("- " if coeff < 0 else "+ ") + (lead + ms if ms else str(num))
                      + (f"/{den}" if den != 1 else ""))
    first = chunks[0]
    chunks[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(chunks)


def assert_str_matches_reference(poly):
    text, expected = str(poly), _reference_str(poly)
    if text != expected:  # an assertion diff of two megabyte strings takes minutes
        at = len(os.path.commonprefix([text, expected]))
        window = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"str differs from the reference at {at}: {text[window]!r} != {expected[window]!r}")


@settings(max_examples=150, deadline=None)
@given(polynomials(), polynomial_pairs())
def test_str_matches_reference(p, pair):
    for q in (p, *pair):
        assert_str_matches_reference(q)


def test_str_matches_reference_on_the_desk_deltas():
    diagrams = enumerate_universe(4, 3, 3)
    assert len(diagrams) == 255
    for diagram in diagrams:
        assert_str_matches_reference(delta(diagram))


def test_str_matches_reference_on_the_benchmark_deltas():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("delta_leibniz_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    diagrams = [d for seed in (1, 2, 3) for d in workloads.DeltaLeibniz().ops(seed)]
    assert len(diagrams) == 12
    for diagram in diagrams:
        assert_str_matches_reference(delta(diagram))


def _unshared_halves(nvars, monos):
    terms = {mono: Fraction(1, 2) for mono in monos}
    return Polynomial(nvars, terms)


@pytest.mark.parametrize("poly, text", [
    pytest.param(Polynomial.constant(2, Fraction(-7, 3)), "-7/3", id="constant-alone"),
    pytest.param(Polynomial.constant(1, 1), "1", id="one-alone"),
    pytest.param(x(2, 1) + Polynomial.constant(2, 5), "x1 + 5", id="constant-after-a-term"),
    pytest.param(Polynomial.constant(2, -1) - y(2, 2), "-y2 - 1", id="negative-lead-and-constant"),
    pytest.param(Polynomial.monomial(2, (1, 0), (0, 2), 3) + Polynomial.monomial(2, (0, 1), (0, 0), Fraction(4, 5)),
                 "3*x1*y2^2 + 4*x2/5", id="numerators-before-monomials"),
    pytest.param(Polynomial.monomial(2, (2, 0), (0, 0), -1) + x(2, 2), "-x1^2 + x2", id="x-only"),
    pytest.param(Polynomial.monomial(2, (0, 0), (1, 1), Fraction(-2, 3)) + y(2, 1), "-2*y1*y2/3 + y1",
                 id="y-only"),
    pytest.param(x(2, 1) * y(2, 1) - x(2, 1) * y(2, 2) + x(2, 2) * y(2, 1), "x2*y1 - x1*y2 + x1*y1",
                 id="blocks-shared-across-terms"),
    pytest.param(x(3, 3) * x(3, 3) * y(3, 1) + 2 * y(3, 2) - x(3, 1) + Polynomial.constant(3, Fraction(1, 2)),
                 "x3^2*y1 + 2*y2 - x1 + 1/2", id="mixed-degrees"),
    pytest.param(power_sum(10**12, 1), "x1^1000000000000", id="huge-exponent"),
    pytest.param(_unshared_halves(2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)]),
                 "y1/2 + x2/2 + x1/2 + 1/2", id="equal-unshared-coefficients"),
])
def test_str_edge_cases(poly, text):
    assert_str_matches_reference(poly)
    assert str(poly) == text


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


def test_parse_sums_like_terms_over_one_denominator():
    # numerators summed over the lcm of the term denominators give the
    # validating constructor's form
    assert not parse_polynomial("x1/2 + x1/3 - 5*x1/6", 1)
    assert parse_polynomial("x1/2 + x1/3 - 5*x1/6", 1).den == 1
    assert parse_polynomial("2*y2/4 - x1/6 + x01^2 + 0", 2) == Polynomial(
        2, {(0, 0, 0, 1): Fraction(1, 2), (1, 0, 0, 0): Fraction(-1, 6), (2, 0, 0, 0): 1})
    for text, n in [("2*y2/4 - x1/6 + x1^2", 2), ("6/4 + x1*x1/9", 1), ("-4*y1^2/6", 3)]:
        p = parse_polynomial(text, n)
        assert Polynomial(n, p.terms) == p and p.den == math.lcm(*(c.denominator for c in p.terms.values()))


@pytest.mark.parametrize("text, nvars, message", [
    ("1", 0, "nvars must be at least 1"),
    ("x1", -1, "nvars must be at least 1"),
    ("x1 + y3", 2, "variable index 3 out of range 1..2"),
    ("x0", 2, "variable index 0 out of range 1..2"),
    ("x1 + 2/0", 2, "zero denominator in the term '+ 2/0'"),
    ("x1 ^ 2 3", 2, "malformed polynomial text at position 7: '3'"),
])
def test_parse_errors_name_their_cause(text, nvars, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_polynomial(text, nvars)


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


def test_text_of_huge_exponents_at_once():
    # the factor table holds the exponents that occur, not every one up to the top
    start = time.perf_counter()
    assert str(power_sum(10**12, 2)) == "x2^1000000000000 + x1^1000000000000"
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    poly = parse_polynomial("x1^3000000", 1)
    assert parse_polynomial(str(poly), 1) == poly
    assert time.perf_counter() - start < 1.0
