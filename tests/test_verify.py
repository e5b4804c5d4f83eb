import math
import time

import pytest

from latdiag.diagrams import LatticeDiagram, normalize
from latdiag.errors import ResourceLimitError
from latdiag.verify import (
    SuiteConfig,
    enumerate_universe,
    find_stage_order_witness,
    format_suite_config,
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
    assert report.expected.is_zero and report.actual.is_zero


def test_verify_schur_on_its_own_shape():
    from latdiag.diagrams import ferrers

    report = verify_instance("s", (2, 1), ferrers((2, 1)), "x")
    assert report.match
    assert "PASS" in report.describe()


def test_verify_unknown_operator():
    with pytest.raises(ValueError):
        verify_instance("q", 1, D((1, 0)), "x")


# -- universe -----------------------------------------------------------------


def test_universe_counts():
    assert [d.cells for d in enumerate_universe(1, 1, 1)] == [((0, 0),)]
    assert [d.cells for d in enumerate_universe(2, 2, 1)] == [
        ((0, 0),), ((1, 0),), ((0, 0), (1, 0))]
    assert len(enumerate_universe(4, 3, 3)) == sum(math.comb(9, m) for m in (1, 2, 3, 4))
    assert len(enumerate_universe(4, 3, 3)) == 255


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
    assert parse_suite_config(format_suite_config(cfg)) == cfg


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


def test_corrupted_rule_is_caught_with_witness():
    cfg = SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",))
    summary = run_suite(cfg, corrupt_stage_order=True)
    assert not summary.ok
    assert summary.first_failure is not None
    assert summary.first_failure.witness
    # fail-fast stops at the first mismatch
    assert summary.failed == 1
    exhaustive = run_suite(
        SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",),
                    fail_fast=False),
        corrupt_stage_order=True)
    assert exhaustive.failed >= summary.failed


def test_witness_monomial_sits_on_one_side():
    from latdiag.polynomials import parse_polynomial

    cfg = SuiteConfig(max_cells=3, max_weight=2, axes=("x",), operators=("s",))
    summary = run_suite(cfg, corrupt_stage_order=True)
    report = summary.first_failure
    witness = parse_polynomial(report.witness, len(report.diagram))
    mono = next(iter(witness.terms))
    assert (mono in report.expected.terms) != (mono in report.actual.terms) or (
        report.expected.coefficient(mono) != report.actual.coefficient(mono))


# -- stage order ------------------------------------------------------------------


def test_stage_order_witness_exists():
    witness = find_stage_order_witness()
    assert witness is not None
    assert witness.right_to_left_value != witness.left_to_right_value
    from latdiag.operators import expand

    assert expand(witness.right_to_left_sum) == witness.oracle
    assert expand(witness.left_to_right_sum) != witness.oracle


def test_left_to_right_variant_differs_somewhere():
    from latdiag.operators import apply_schur

    diagram = D((1, 0), (2, 0))
    assert schur_left_to_right((2,), diagram) != apply_schur((2,), diagram)


def test_oracle_cap_counts_monomials_by_kind():
    # p_k has n monomials and e_k comb(n, k), so 8 * 8! admits p_2 and e_7 on
    # 8 cells; h and s keep comb(n+k-1, k), which s_(2,1) on 7 cells passes.
    assert len(operator_polynomial("p", 2, 8).terms) == 8
    assert len(operator_polynomial("e", 7, 8).terms) == 8
    assert operator_polynomial("s", (2, 1), 7)
    for op, param in [("e", 2), ("h", 2), ("s", (2,)), ("ea", (1, 1))]:
        with pytest.raises(ResourceLimitError, match="cap"):
            operator_polynomial(op, param, 8)
