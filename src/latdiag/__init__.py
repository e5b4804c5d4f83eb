"""Exact computation with lattice diagram determinants and shift operators.

The package builds determinants indexed by lists of lattice cells, applies
symmetric differential operators to them both by honest differentiation and
by combinatorial cell movement, implements the column-word involution that
explains why the two agree, and computes bigraded dimension tables of
derivative spans. All arithmetic is exact rational.
"""

from .combinat import check_partition, conjugate, partitions_of
from .diagrams import (
    DETERMINANT_CAP,
    LatticeDiagram,
    SignedDiagramSum,
    complement_cells,
    delta,
    epsilon,
    ferrers,
    normalize,
    parse_diagram,
    transpose,
)
from .errors import ResourceLimitError
from .hilbert import HilbertTable, hilbert
from .operators import (
    apply_e_alpha,
    apply_elementary,
    apply_homogeneous,
    apply_power_sum,
    apply_schur,
    apply_schur_via_jacobi_trudi,
    epsilon_prime,
    expand,
)
from .polynomials import Polynomial, diagonal_action, diff_operator, parse_polynomial
from .symmetric import (
    elementary,
    homogeneous,
    power_sum,
    schur_tableaux,
)
from .tableaux import (
    ColumnTableau,
    WordPair,
    enumerate_column_families,
    enumerate_cs_tableaux,
    is_column_strict,
    parse_tableau,
    psi,
    psi_step,
    two_column_move,
    word_pair,
)
from .verify import (
    SuiteConfig,
    VerificationReport,
    enumerate_universe,
    run_suite,
    verify_instance,
)

__version__ = "0.1.0"
