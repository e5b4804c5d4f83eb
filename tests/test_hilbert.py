import importlib
import itertools
import math
import time
from fractions import Fraction

import pytest

from latdiag.combinat import partitions_of, weak_compositions
from latdiag.diagrams import LatticeDiagram, delta, ferrers, normalize, parse_diagram, transpose
from latdiag.errors import ResourceLimitError
from latdiag.hilbert import CELL_CAP, HilbertTable, _divided_powers, exact_rank, hilbert
from latdiag.polynomials import Polynomial, diff_operator
from latdiag.verify import enumerate_universe

hilbert_module = importlib.import_module("latdiag.hilbert")


def naive_rank(rows):
    """Independent rank: plain Gaussian elimination over Fraction."""
    matrix = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(matrix[0]) if matrix else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


# -- rank ----------------------------------------------------------------------


def test_exact_rank_known_cases():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2], [3, 4]]) == 2
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)],
                       [Fraction(1, 4), Fraction(1, 6)]]) == 1
    with pytest.raises(ValueError):
        exact_rank([[1], [1, 1]])
    with pytest.raises(ValueError):
        exact_rank([[1, 1], [1]])


@pytest.mark.parametrize("rows", [
    pytest.param([[0.1, 0.3], [1, 3]], id="floats"),
    pytest.param([["1/2", "1"], [1, 2]], id="strs"),
    pytest.param([[1, 2], [3, None]], id="none-in-a-later-row"),
])
def test_exact_rank_refuses_inexact_entries(rows):
    # [0.1, 0.3] is proportional to [1, 3] as written, but not as binary floats
    with pytest.raises(TypeError):
        exact_rank(rows)


def test_exact_rank_matches_naive():
    import random

    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                   for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(matrix) == naive_rank(matrix)
    # duplicate, zero and negative-led rows, and zero columns
    rng = random.Random(5)
    for _ in range(200):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        matrix = [[rng.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
        assert exact_rank(matrix) == naive_rank(matrix)
    # leading pivots other than 1 take the cross-multiplication
    assert exact_rank([[2, 3], [3, 5]]) == naive_rank([[2, 3], [3, 5]]) == 2
    assert exact_rank([[2, 4], [3, 6]]) == naive_rank([[2, 4], [3, 6]]) == 1


# -- tables ----------------------------------------------------------------------


def test_hilbert_single_cell():
    table = hilbert(LatticeDiagram(((0, 0),)))
    assert table.total == 1
    assert table.dim(0, 0) == 1


def test_hilbert_vandermonde_pair():
    table = hilbert(ferrers((1, 1)))
    assert dict(table.dims) == {(0, 0): 1, (1, 0): 1}
    assert table.total == 2


def test_hilbert_hook_of_three():
    assert hilbert(ferrers((2, 1))).total == 6


def test_hilbert_examples_from_rank():
    assert hilbert(ferrers((2,))).total == 2
    assert hilbert(ferrers((1, 1, 1))).total == 6
    assert hilbert(ferrers((2, 2))).total == 24


def test_top_and_bottom_pieces():
    for mu in [(2, 1), (2, 2), (3, 1)]:
        diagram = ferrers(mu)
        table = hilbert(diagram)
        assert table.dim(diagram.row_weight, diagram.column_weight) == 1
        assert table.dim(0, 0) == 1


def test_transpose_symmetry():
    for mu in [(2, 1), (3, 1), (2, 2)]:
        diagram = ferrers(mu)
        flipped, _ = transpose(diagram)
        table = dict(hilbert(diagram).dims)
        swapped = {(b, a): v for (a, b), v in hilbert(flipped).dims}
        assert table == swapped


def test_derivative_closure_sample():
    # differentiating any generator of a piece lands in the span of the piece below
    diagram = ferrers((2, 1))
    base = delta(diagram)
    n = len(diagram)
    x_top, y_top = diagram.row_weight, diagram.column_weight
    for (a, b) in [(1, 1), (2, 0), (1, 0)]:
        lower = []
        for xe in weak_compositions(x_top - (a - 1), n):
            for ye in weak_compositions(y_top - b, n):
                g = diff_operator(Polynomial.monomial(n, xe, ye), base)
                if g:
                    lower.append(g)
        basis = sorted({m for g in lower for m in g.terms})
        index = {m: i for i, m in enumerate(basis)}

        def as_row(poly):
            row = [Fraction(0)] * len(basis)
            for m, c in poly.terms.items():
                row[index[m]] = c
            return row

        base_rank = exact_rank([as_row(g) for g in lower])
        for xe in weak_compositions(x_top - a, n):
            for ye in weak_compositions(y_top - b, n):
                g = diff_operator(Polynomial.monomial(n, xe, ye), base)
                for i in range(1, n + 1):
                    dg = g.partial("x", i)
                    if not dg:
                        continue
                    rows = [as_row(h) for h in lower] + [as_row(dg)]
                    assert exact_rank(rows) == base_rank


def test_factorial_dimensions():
    for n in range(1, 5):
        for mu in partitions_of(n):
            assert hilbert(ferrers(mu)).total == math.factorial(n), mu


def test_rejects_bad_inputs(monkeypatch):
    bad, _ = normalize([(0, 0), (0, 0)])
    with pytest.raises(ValueError):
        hilbert(bad)
    monkeypatch.setattr(hilbert_module, "DEGREE_CAP", 1)
    with pytest.raises(ResourceLimitError):
        hilbert(ferrers((2, 2)))


def test_tsv_and_json():
    table = hilbert(ferrers((2, 1)))
    tsv = table.to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "x\\y\t0\t1"
    assert len(lines) == table.x_top + 2
    obj = table.to_json_obj()
    assert obj["total"] == 6
    assert {(d["x"], d["y"]): d["dim"] for d in obj["dims"]} == dict(table.dims)


# -- the closure against the generator product -----------------------------------

DESK = enumerate_universe(3, 3, 3)
SPAN_INPUTS = [ferrers(mu) for mu in ((4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1))] + [
    parse_diagram(text)[0] for text in ("0,0;3,0;2,2;0,3", "0,0;1,0;2,2;3,3")]


def generator_product_table(diagram):
    """The table from every monomial derivative of order (X-a, Y-b), each
    piece ranked as a dense matrix."""
    base = delta(diagram)
    n = len(diagram)
    x_top, y_top = diagram.row_weight, diagram.column_weight
    entries = []
    for a in range(x_top + 1):
        for b in range(y_top + 1):
            generators = [diff_operator(Polynomial.monomial(n, xe, ye), base)
                          for xe in weak_compositions(x_top - a, n)
                          for ye in weak_compositions(y_top - b, n)]
            basis = sorted({m for g in generators for m in g.terms})
            rank = exact_rank([[g.coefficient(m) for m in basis] for g in generators])
            if rank:
                entries.append(((a, b), rank))
    return HilbertTable(x_top, y_top, tuple(entries))


def test_closure_matches_generator_product():
    assert len(DESK) == 129
    for diagram in DESK:
        assert hilbert(diagram) == generator_product_table(diagram), str(diagram)


def test_central_symmetry():
    for diagram in DESK + tuple(SPAN_INPUTS):
        table = hilbert(diagram)
        x_top, y_top = table.x_top, table.y_top
        for a in range(x_top + 1):
            for b in range(y_top + 1):
                assert table.dim(a, b) == table.dim(x_top - a, y_top - b), (str(diagram), a, b)


def test_factorial_dimensions_five_and_six_cells():
    for mu in partitions_of(5):
        assert hilbert(ferrers(mu)).total == 120, mu
    for mu in [(3, 3), (3, 2, 1)]:
        assert hilbert(ferrers(mu)).total == 720, mu


def test_cell_cap_before_expansion(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="7"):
        hilbert(ferrers((4, 4)))
    # 9 cells of bidegree (4, 16): the degree cap fires before a 9! expansion
    monkeypatch.setattr(hilbert_module, "CELL_CAP", 9)
    with pytest.raises(ResourceLimitError, match="degree cap"):
        hilbert(ferrers((5, 4)))
    assert time.perf_counter() - start < 1.0
    assert CELL_CAP == 7


def test_divided_powers_rejects_other_coefficients():
    # x1^2 y1^3 y2 / 12 is x1^[2] y1^[3] y2^[1], packed 2 bits per exponent
    assert _divided_powers(Polynomial(2, {(2, 0, 3, 1): Fraction(1, 12)}), 2) == {
        2 + (3 << 4) + (1 << 6): 1}
    assert set(_divided_powers(delta(ferrers((2, 1))), 1).values()) == {1, -1}
    with pytest.raises(RuntimeError):
        _divided_powers(Polynomial(1, {(2, 0): 1}), 2)


def test_piece_cap_fails_fast(monkeypatch):
    diagram, _ = parse_diagram("0,0;3,0;2,2;0,3")
    assert max(dim for _, dim in hilbert(diagram).dims) == 100
    monkeypatch.setattr(hilbert_module, "PIECE_CAP", 50)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="50"):
        hilbert(diagram)
    assert time.perf_counter() - start < 1.0


# -- independent checks: HHL and n!/k --------------------------------------


def hhl_table(mu):
    """The Haglund-Haiman-Loehr sum of q^inv t^maj over the n! standard
    fillings of mu, as {(maj, inv): count}. Cell (i, j) with j < mu[i] sits in
    row i, row 0 at the bottom; the reading order is top row first, left to
    right. Two cells attack when they share a row, or lie in consecutive rows
    with the upper one strictly right. A descent is a cell above row 0 whose
    entry exceeds the entry directly below it. maj sums leg + 1 over the
    descents and goes on the x-degree; inv counts the attacking pairs whose
    larger entry comes first in reading order, minus the descents' arms."""
    reading = [(i, j) for i in range(len(mu) - 1, -1, -1) for j in range(mu[i])]
    attacking = [(a, b) for a, (i, j) in enumerate(reading) for b, (k, l) in enumerate(reading)
                 if a < b and (i == k or (i == k + 1 and j > l))]
    below = [(a, reading.index((i - 1, j))) for a, (i, j) in enumerate(reading) if i > 0]
    leg = [sum(1 for k in range(i + 1, len(mu)) if mu[k] > j) for i, j in reading]
    arm = [mu[i] - j - 1 for i, j in reading]
    table = {}
    for entries in itertools.permutations(range(len(reading))):
        descents = [a for a, b in below if entries[a] > entries[b]]
        maj = sum(leg[a] + 1 for a in descents)
        inv = sum(1 for a, b in attacking if entries[a] > entries[b]) - sum(arm[a] for a in descents)
        table[(maj, inv)] = table.get((maj, inv), 0) + 1
    return table


SHAPES_TO_SIX = [mu for k in range(1, 7) for mu in partitions_of(k)]


def test_hilbert_equals_hhl_table(monkeypatch):
    # (6) and (1^6) have bidegrees (0, 15) and (15, 0)
    monkeypatch.setattr(hilbert_module, "DEGREE_CAP", 15)
    assert len(SHAPES_TO_SIX) == 29
    for mu in SHAPES_TO_SIX:
        assert dict(hilbert(ferrers(mu)).dims) == hhl_table(mu), mu


def test_one_hole_totals_are_shadow_times_factorial(monkeypatch):
    # Bergeron-Garsia n!/k: removing cell (i, j) from mu leaves a span of
    # dimension s * (|mu| - 1)!, where s counts the cells (p, q) of mu with
    # p >= i and q >= j
    monkeypatch.setattr(hilbert_module, "DEGREE_CAP", 15)
    cases = 0
    for mu in SHAPES_TO_SIX:
        cells = ferrers(mu).cells
        if len(cells) < 2:
            continue
        for i, j in cells:
            diagram, _ = normalize(c for c in cells if c != (i, j))
            shadow = sum(1 for p, q in cells if p >= i and q >= j)
            assert hilbert(diagram).total == shadow * math.factorial(len(cells) - 1), (mu, (i, j))
            cases += 1
    assert cases == 134
