"""The benchmark's correctness gate: it passes the library as it is, and it
fails every workload once a rule drops a term and delta flips a coefficient.

Each workload runs a few of its own ops (seed 1), chosen to stay fast.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import latdiag  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def _few_ops(name: str) -> list:
    ops = workloads.WORKLOADS[name].ops(SEED)
    if name == "suite_desk":
        return ops[::25]
    if name == "hilbert_span":
        return ops[:1]
    if name == "schur_apply":
        # One op with a nonempty sum and a fast Jacobi-Trudi check, so the
        # dropped term has something to come from.
        return [op for op in ops if op[0] == (3, 2, 1) and latdiag.apply_schur(*op)][:1]
    return ops[:1]


def _drop_first_term(rule):
    def wrapper(*args, **kwargs):
        total = rule(*args, **kwargs)
        return latdiag.SignedDiagramSum(total.ncells, total.items()[1:])

    return wrapper


def _flip_first_coefficient(delta):
    def wrapper(*args, **kwargs):
        terms = dict(delta(*args, **kwargs).terms)
        first = min(terms)
        terms[first] = -terms[first]
        return latdiag.Polynomial(len(args[0]), terms)

    return wrapper


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_the_library(name):
    ops = _few_ops(name)
    attempted, failures = workloads.gate(workloads.WORKLOADS[name], ops, SEED)
    assert ops and attempted == len(ops)
    assert failures == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_catches_injected_faults(name):
    ops = _few_ops(name)
    with tracer.rebound(latdiag.apply_schur, _drop_first_term(latdiag.apply_schur)), \
            tracer.rebound(latdiag.delta, _flip_first_coefficient(latdiag.delta)):
        attempted, failures = workloads.gate(workloads.WORKLOADS[name], ops, SEED)
    assert len(failures) / attempted > 0
