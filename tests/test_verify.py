import functools
import math
import time

import pytest

import latdiag.operators
import latdiag.verify
from latdiag.combinat import check_partition
from latdiag.diagrams import LatticeDiagram, SignedDiagramSum, delta, normalize, transpose
from latdiag.errors import ResourceLimitError
from latdiag.operators import apply_e_alpha, apply_power_sum, apply_schur, expand
from latdiag.polynomials import Polynomial, diagonal_action, diff_operator, parse_polynomial
from latdiag.tableaux import ColumnTableau, enumerate_column_families, shape_orbit_sign
from latdiag.verify import (
    SuiteConfig,
    combinatorial_sum,
    enumerate_universe,
    find_stage_order_witness,
    operator_polynomial,
    parse_suite_config,
    run_suite,
    schur_left_to_right,
    suite_instances,
    verify_instance,
)


def D(*cells):
    diagram, _ = normalize(cells)
    return diagram


# -- single instances ---------------------------------------------------------


def test_verify_trivial_instances():
    report = verify_instance("p", 1, D((1, 0)), "x")
    assert report.match
    assert str(report.expected) == "1"

    report = verify_instance("h", 2, D((0, 0), (2, 0)), "y")
    assert report.match
    assert not report.expected and not report.actual

    # the "ea" dispatch of combinatorial_sum, along both axes; a negative
    # degree is the zero operator on both sides
    for axis in ("x", "y"):
        report = verify_instance("ea", (1, 0, 2), D((1, 1), (2, 2)), axis)
        assert report.match
        assert len(report.expected.terms) == 2
        for alpha in [(-2,), (-1, -1)]:
            report = verify_instance("ea", alpha, D((0, 0), (1, 0), (2, 0)), axis)
            assert report.match
            assert not report.expected and not report.actual


def test_verify_schur_on_its_own_shape():
    from latdiag.diagrams import ferrers

    report = verify_instance("s", (2, 1), ferrers((2, 1)), "x")
    assert report.match
    assert "PASS" in report.describe()


def test_verify_unknown_operator():
    with pytest.raises(ValueError):
        verify_instance("q", 1, D((1, 0)), "x")


def test_combinatorial_sum_unknown_operator():
    with pytest.raises(ValueError):
        combinatorial_sum("q", 1, D((1, 0)))


@pytest.mark.parametrize("call", [
    lambda: check_partition((1.5,)),
    lambda: LatticeDiagram(((1.5, 0),)),
    lambda: normalize([(1.5, 0)]),
    lambda: ColumnTableau(((1.5,),), 2),
    lambda: Polynomial(1, {(1.5, 0): 1}),
    lambda: Polynomial.variable(2, "x", 1.5),
    lambda: Polynomial.variable(2, "y", 2).partial("y", 1.5),
    lambda: diagonal_action((1.5,), Polynomial.constant(1, 1)),
    lambda: apply_power_sum(1.5, D((3, 0), (4, 0))),
    lambda: apply_power_sum(0.5, D((3, 0), (4, 0))),
    lambda: latdiag.operators.apply_elementary(0.5, D((3, 0), (4, 0))),
    lambda: latdiag.operators.apply_elementary(1.5, D((3, 0), (4, 0))),
    lambda: latdiag.operators.apply_homogeneous(0.5, D((3, 0), (4, 0))),
    lambda: latdiag.operators.apply_homogeneous(1.5, D((3, 0), (4, 0))),
    lambda: apply_schur((1.5,), D((3, 0), (4, 0))),
    lambda: apply_e_alpha((1.5,), D((3, 0), (4, 0))),
    lambda: enumerate_column_families((1.5,), 2),
    lambda: shape_orbit_sign((1.5,), (1,)),
    lambda: operator_polynomial("p", 1.5, 2),
    lambda: combinatorial_sum("p", 1.5, D((3, 0), (4, 0))),
    lambda: verify_instance("p", 1.5, D((3, 0), (4, 0))),
    lambda: combinatorial_sum("p", (2,), D((3, 0), (4, 0))),
    lambda: operator_polynomial("e", (2,), 3),
    lambda: verify_instance("h", (1,), D((3, 0), (4, 0))),
], ids=["check_partition", "LatticeDiagram", "normalize", "ColumnTableau", "Polynomial",
        "Polynomial.variable", "Polynomial.partial",
        "diagonal_action", "apply_power_sum", "apply_power_sum-0.5", "apply_elementary-0.5",
        "apply_elementary-1.5", "apply_homogeneous-0.5", "apply_homogeneous-1.5", "apply_schur", "apply_e_alpha",
        "enumerate_column_families", "shape_orbit_sign", "operator_polynomial",
        "combinatorial_sum", "verify_instance", "combinatorial_sum-tuple", "operator_polynomial-tuple",
        "verify_instance-tuple"])
def test_non_integer_input_raises_type_error(call):
    # int() would truncate 1.5 to 1 and answer for the wrong input
    with pytest.raises(TypeError):
        call()


# -- universe -----------------------------------------------------------------


def test_universe_counts():
    assert [d.cells for d in enumerate_universe(1, 1, 1)] == [((0, 0),)]
    assert [d.cells for d in enumerate_universe(2, 2, 1)] == [
        ((0, 0),), ((1, 0),), ((0, 0), (1, 0))]
    assert len(enumerate_universe(4, 3, 3)) == sum(math.comb(9, m) for m in (1, 2, 3, 4))
    assert len(enumerate_universe(4, 3, 3)) == 255


def test_universe_diagrams_revalidate_unchanged():
    for d in enumerate_universe(4, 3, 3):
        assert type(d.cells) is tuple and LatticeDiagram(d.cells) == d, d.cells


def test_universe_is_deterministic():
    assert enumerate_universe(3, 2, 2) == enumerate_universe(3, 2, 2)


def test_universe_cap_counts_before_building():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cap"):
        enumerate_universe(4, 40, 40)
    with pytest.raises(ResourceLimitError, match="cap"):
        enumerate_universe(10**9, 10**5, 10**5)
    assert len(enumerate_universe(10**9, 3, 3)) == 2**9 - 1
    assert time.perf_counter() - start < 1.0


# -- config -------------------------------------------------------------------


def test_config_round_trip():
    cfg = SuiteConfig(max_cells=2, box_rows=2, box_cols=3, max_weight=2,
                      axes=("x",), operators=("p", "s"), fail_fast=False)
    text = """
    max_cells=2
    box_rows=2
    box_cols=3
    max_weight=2
    axes=x
    operators=p,s
    fail_fast=false
    """
    assert parse_suite_config(text) == cfg


def test_config_parsing():
    text = """
    # comment line
    max_cells = 3
    axes = x
    operators = p,e
    fail_fast = false
    """
    cfg = parse_suite_config(text)
    assert cfg.max_cells == 3
    assert cfg.axes == ("x",)
    assert cfg.operators == ("p", "e")
    assert cfg.fail_fast is False
    assert cfg.box_rows == 3  # untouched default


def test_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_suite_config("nonsense")
    with pytest.raises(ValueError):
        parse_suite_config("axes=q")
    with pytest.raises(ValueError):
        parse_suite_config("workers=4")


# -- suite ---------------------------------------------------------------------


def test_small_suite_passes():
    cfg = SuiteConfig(max_cells=2, box_rows=2, box_cols=2, max_weight=2)
    summary = run_suite(cfg)
    assert summary.ok
    assert summary.failed == 0
    assert summary.total == summary.passed > 0


def test_single_operator_smoke():
    cfg = SuiteConfig(max_cells=2, box_rows=2, box_cols=2, max_weight=1,
                      operators=("s",))
    summary = run_suite(cfg)
    assert summary.ok


def test_suite_instance_order_is_deterministic():
    cfg = SuiteConfig(max_cells=2, box_rows=2, box_cols=2, max_weight=2)
    first = list(suite_instances(cfg))
    second = list(suite_instances(cfg))
    assert first == second
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a == b


def test_corrupted_rule_is_caught_with_witness(monkeypatch):
    monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    cfg = SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",))
    summary = run_suite(cfg)
    assert not summary.ok
    assert summary.first_failure is not None
    assert summary.first_failure.witness
    # fail-fast stops at the first mismatch
    assert summary.failed == 1
    exhaustive = run_suite(
        SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",),
                    fail_fast=False))
    assert exhaustive.failed >= summary.failed


def test_witness_monomial_sits_on_one_side(monkeypatch):
    monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    cfg = SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",))
    summary = run_suite(cfg)
    report = summary.first_failure
    witness = parse_polynomial(report.witness, len(report.diagram))
    mono = next(iter(witness.terms))
    assert (mono in report.expected.terms) != (mono in report.actual.terms) or (
        report.expected.coefficient(mono) != report.actual.coefficient(mono))


# -- mutants the desk suite catches --------------------------------------------


def test_suite_catches_a_staged_move_without_its_collision_test(monkeypatch):
    def surviving_stage_without_collisions(cells, col):
        cells = list(cells)
        for entry in col:
            p, q = cells[entry - 1]
            if p == 0:
                return None
            cells[entry - 1] = (p - 1, q)
        return cells

    monkeypatch.setattr(latdiag.operators, "_surviving_stage", surviving_stage_without_collisions)
    with pytest.raises(RuntimeError, match=r"staged move by 2\|2 reordered the cells of \[1,0;2,0\]"):
        run_suite(SuiteConfig())


def test_suite_catches_a_transpose_without_its_resort_sign(monkeypatch):
    # Dropped, not flipped: staged_rule multiplies two transpose signs, so a
    # flipped sign cancels and every instance still passes.
    monkeypatch.setattr(latdiag.operators, "transpose", lambda diagram: (transpose(diagram)[0], 1))
    summary = run_suite(SuiteConfig())
    assert (summary.total, summary.failed) == (548, 1)
    assert summary.first_failure.describe().startswith("op=e param=1 axis=y diagram=[1,0;0,1] FAIL")


# -- the comparison: expand(total) == expected -------------------------------------


def _perturbed(total, diagram):
    """total with its first coefficient negated, doubled, or its first term
    dropped, and total with diagram added: diagram is never in the sum of
    its own derivative, which only holds diagrams of lower weight."""
    items = total.items()
    assert total.coefficient(diagram) == 0
    sums = [SignedDiagramSum(total.ncells, items + [(diagram, 1)])]
    if items:
        (d, c), rest = items[0], items[1:]
        sums += [SignedDiagramSum(total.ncells, [(d, -c)] + rest),
                 SignedDiagramSum(total.ncells, [(d, 2 * c)] + rest),
                 SignedDiagramSum(total.ncells, rest)]
    return sums


def test_sum_check_agrees_with_expand_on_the_desk_universe(monkeypatch):
    # Each desk instance's rule sum passes verify_instance, and a perturbed sum
    # substituted for it fails with a witness monomial of expected - actual;
    # actual is expand's polynomial either way. The instances take the
    # perturbations in turn, and the oracle is computed once per instance.
    expected = candidate = None
    monkeypatch.setattr(latdiag.verify, "diff_operator", lambda operator, target: expected)
    monkeypatch.setattr(latdiag.verify, "combinatorial_sum", lambda *instance: candidate)
    for i, (op, param, diagram, axis) in enumerate(suite_instances(SuiteConfig())):
        expected = diff_operator(operator_polynomial(op, param, len(diagram), axis), delta(diagram))
        total = combinatorial_sum(op, param, diagram, axis)
        perturbed = _perturbed(total, diagram)
        for candidate in (total, perturbed[i % len(perturbed)]):
            report = verify_instance(op, param, diagram, axis)
            assert report.expected is expected and report.actual == expand(candidate)
            if candidate is total:
                assert report.match and report.witness is None, (op, param, str(diagram), axis)
                continue
            (mono, coeff), = parse_polynomial(report.witness, len(diagram)).terms.items()
            difference = expected.coefficient(mono) - report.actual.coefficient(mono)
            assert not report.match and coeff == difference != 0, (op, param, str(diagram), axis, str(candidate))


def test_sum_check_agrees_with_expand_on_the_wrong_stage_order(monkeypatch):
    monkeypatch.setattr(latdiag.verify, "apply_schur", schur_left_to_right)
    summary = run_suite(SuiteConfig(fail_fast=False))
    assert (summary.total, summary.passed, summary.failed) == (7650, 7382, 268)


@pytest.mark.parametrize("flip", [False, True])
def test_sum_check_agrees_with_expand_on_revalidated_coefficients(monkeypatch, flip):
    # delta rebuilt through the validating constructor from its Fraction view,
    # as the benchmark's gate does; flipped, one term's sign is wrong on both
    # sides, so the suite sees mismatches.
    @functools.cache
    def rebuilt_delta(diagram):
        terms = dict(delta(diagram).terms)
        if flip:
            terms[min(terms)] = -terms[min(terms)]
        return Polynomial(len(diagram), terms)

    monkeypatch.setattr(latdiag.verify, "delta", rebuilt_delta)
    monkeypatch.setattr(latdiag.operators, "delta", rebuilt_delta)
    assert run_suite(SuiteConfig()).ok != flip


# -- stage order ------------------------------------------------------------------


def test_stage_order_witness_exists():
    witness = find_stage_order_witness()
    assert witness is not None
    assert (witness.lam, str(witness.diagram)) == ((2,), "1,0;2,0")
    assert witness.right_to_left_value != witness.left_to_right_value
    from latdiag.operators import expand

    assert expand(witness.right_to_left_sum) == witness.oracle
    assert expand(witness.left_to_right_sum) != witness.oracle


def test_left_to_right_variant_differs_somewhere():
    from latdiag.operators import apply_schur

    diagram = D((1, 0), (2, 0))
    assert schur_left_to_right((2,), diagram) != apply_schur((2,), diagram)


OPERATOR_INPUTS = [(op, param, n) for op in ("p", "e", "h", "s") for param in latdiag.verify._params_for(op, 3)
                   for n in range(1, 5)] + [("ea", (1, 0, 2), 3), ("ea", (2, 1), 4)]


def assert_operator_polynomials_built_once():
    """Each input's y operator, asked for three times, is one object, equal to
    the x operator with the alphabets swapped; the x operator is one object too."""
    for op, param, n in OPERATOR_INPUTS:
        ys = [operator_polynomial(op, param, n, "y") for _ in range(3)]
        xs = [operator_polynomial(op, param, n, "x") for _ in range(2)]
        assert ys[0] is ys[1] is ys[2] and xs[0] is xs[1], (op, param, n)
        assert ys[0] == xs[0].swap_alphabets(), (op, param, n)


def test_operator_polynomial_is_built_once_per_input():
    assert_operator_polynomials_built_once()
    # the key is the parsed parameter: a list and a tuple give the same object
    assert operator_polynomial("s", [2, 1], 3, "y") is operator_polynomial("s", (2, 1), 3, "y")
    assert operator_polynomial("ea", [2, 1], 4) is operator_polynomial("ea", (2, 1), 4)
    # combinatorial_sum reads the parameter the same way
    total = combinatorial_sum("s", [2, 1], D((0, 0), (2, 0), (0, 2), (1, 3)), "y")
    assert total and total == combinatorial_sum("s", (2, 1), D((0, 0), (2, 0), (0, 2), (1, 3)), "y")
    total = combinatorial_sum("ea", [2, 1], D((1, 0), (3, 0), (0, 1), (2, 1)))
    assert total and total == combinatorial_sum("ea", (2, 1), D((1, 0), (3, 0), (0, 1), (2, 1)))


def test_built_operators_catch_a_cache_keyed_without_axis(monkeypatch):
    build = latdiag.verify._built_operator.__wrapped__

    @functools.cache
    def keyed_without_axis(op, parts, n):
        return build(op, parts, n, "y")

    monkeypatch.setattr(latdiag.verify, "_built_operator",
                        lambda op, parts, n, axis: keyed_without_axis(op, parts, n))
    with pytest.raises(AssertionError):
        assert_operator_polynomials_built_once()


def test_oracle_cap_counts_monomials_by_kind():
    # p_k has n monomials and e_k comb(n, k), so 8 * 8! admits p_2 and e_7 on
    # 8 cells; h and s keep comb(n+k-1, k), which s_(2,1) on 7 cells passes.
    assert len(operator_polynomial("p", 2, 8).terms) == 8
    assert len(operator_polynomial("e", 7, 8).terms) == 8
    assert operator_polynomial("s", (2, 1), 7)
    for op, param in [("e", 2), ("h", 2), ("s", (2,)), ("ea", (1, 1))]:
        with pytest.raises(ResourceLimitError, match="cap"):
            operator_polynomial(op, param, 8)
