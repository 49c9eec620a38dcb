"""R1CS → QAP reduction correctness.

The QAP computes over a radix-2 domain with transforms and a closed-form
Lagrange basis.  The oracle here is the textbook O(n²) Lagrange
evaluation over the domain's points, which shares none of that code.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import UnsatisfiedConstraintError
from repro.zksnark.circuit import ConstraintSystem
from repro.zksnark.field import FR, PrimeField
from repro.zksnark.qap import QAP

P = FR.modulus

#: Constraint counts on both sides of a power of two (domains 1, 4, 8, 512).
COUNTS = [1, 4, 5, 257]


def _cube_system(x: int, out: int) -> ConstraintSystem:
    cs = ConstraintSystem()
    out_wire = cs.alloc_public(out)
    x_wire = cs.alloc(x)
    x2 = cs.mul(x_wire, x_wire)
    x3 = cs.mul(x2, x_wire)
    cs.enforce_equal(x3 + x_wire + 5, out_wire)
    return cs


def _chain_system(count: int, x: int = 3, tamper: int = 0) -> ConstraintSystem:
    """``count`` constraints: count−1 chained products w ← w·(w+i), then
    w = out.  ``tamper`` shifts the public output, which violates only
    the last row."""
    value = x
    for i in range(1, count):
        value = value * (value + i) % P
    cs = ConstraintSystem()
    out_wire = cs.alloc_public((value + tamper) % P)
    w = cs.alloc(x)
    for i in range(1, count):
        w = cs.mul(w, w + i)
    cs.enforce_equal(w, out_wire)
    assert cs.num_constraints == count
    return cs


def _domain_points(qap: QAP, count: int) -> list:
    """The domain's points, checked to be the N distinct N-th roots of
    unity for the smallest power of two N ≥ count."""
    size = 1
    while size < count:
        size *= 2
    points = qap.domain.elements
    assert qap.degree == size == len(points) == len(set(points))
    assert all(pow(w, size, P) == 1 for w in points)
    return points


def _lagrange_basis(points, x):
    """[L_j(x)] by the O(n²) product formula."""
    basis = []
    for j, xj in enumerate(points):
        num = den = 1
        for k, xk in enumerate(points):
            if k != j:
                num = num * (x - xk) % P
                den = den * (xj - xk) % P
        basis.append(num * pow(den, -1, P) % P)
    return basis


def _vanishing(points, x):
    z = 1
    for point in points:
        z = z * (x - point) % P
    return z


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


def _dot(values, basis):
    return sum(v * l for v, l in zip(values, basis)) % P


def test_witness_quotient_exists_for_satisfying_assignment() -> None:
    cs = _cube_system(3, 35)
    qap = QAP(cs.to_r1cs())
    h = qap.witness_quotient(cs.assignment)
    assert len(h) <= qap.degree - 1


def test_witness_quotient_rejects_bad_assignment() -> None:
    cs = _cube_system(3, 36)  # 3^3+3+5 = 35, not 36
    qap = QAP(cs.to_r1cs())
    with pytest.raises(UnsatisfiedConstraintError):
        qap.witness_quotient(cs.assignment)


def test_witness_quotient_rejects_a_bad_last_row() -> None:
    """The coset quotient exists for any witness, so the row check must
    reach the last constraint."""
    for count in COUNTS:
        cs = _chain_system(count, tamper=1)
        r1cs = cs.to_r1cs()
        rows = [
            r1cs.eval_lc(cons.a, cs.assignment) * r1cs.eval_lc(cons.b, cs.assignment) % P
            == r1cs.eval_lc(cons.c, cs.assignment)
            for cons in r1cs.constraints
        ]
        assert rows == [True] * (count - 1) + [False]
        with pytest.raises(UnsatisfiedConstraintError, match=f"constraint {count - 1} "):
            QAP(r1cs).witness_quotient(cs.assignment)


def test_divisibility_identity() -> None:
    """Σ w_i A_i(x) · Σ w_i B_i(x) − Σ w_i C_i(x) == H(x)·Z(x) at random x."""
    for count in COUNTS:
        cs = _chain_system(count)
        qap = QAP(cs.to_r1cs())
        points = _domain_points(qap, count)
        h = qap.witness_quotient(cs.assignment)
        assert len(h) == qap.degree - 1
        a_evals, b_evals, c_evals = qap._aggregate_evaluations(cs.assignment)
        rng = random.Random(count)
        for _ in range(3):
            x = rng.randrange(P)
            basis = _lagrange_basis(points, x)
            lhs = (_dot(a_evals, basis) * _dot(b_evals, basis) - _dot(c_evals, basis)) % P
            assert lhs == _horner(h, x) * _vanishing(points, x) % P, (count, x)


def test_evaluate_at_consistency() -> None:
    """Every wire column of A, B and C, and Z, evaluated at τ."""
    for count in COUNTS:
        cs = _chain_system(count)
        r1cs = cs.to_r1cs()
        qap = QAP(r1cs)
        points = _domain_points(qap, count)
        tau = random.Random(1000 + count).randrange(P)
        evaluation = qap.evaluate_at(tau)
        basis = _lagrange_basis(points, tau)
        columns = (("a", evaluation.a_at), ("b", evaluation.b_at), ("c", evaluation.c_at))
        for matrix, evaluated in columns:
            for wire in range(r1cs.num_wires):
                column = [getattr(cons, matrix).get(wire, 0) for cons in r1cs.constraints]
                assert evaluated[wire] == _dot(column, basis), (count, matrix, wire)
        assert evaluation.z_at == _vanishing(points, tau)
        assert evaluation.degree == qap.degree


def test_evaluate_at_a_domain_point() -> None:
    """τ = ω^j selects row j: column i takes row j's coefficient."""
    cs = _cube_system(2, 15)
    r1cs = cs.to_r1cs()
    qap = QAP(r1cs)
    for j, cons in enumerate(r1cs.constraints):
        evaluation = qap.evaluate_at(qap.domain.elements[j])
        assert evaluation.z_at == 0
        assert evaluation.a_at == [cons.a.get(i, 0) for i in range(r1cs.num_wires)]


def test_empty_system_rejected() -> None:
    cs = ConstraintSystem()
    cs.alloc(1)
    with pytest.raises(ValueError):
        QAP(cs.to_r1cs())


def test_field_without_a_large_enough_root_of_unity_rejected() -> None:
    """GF(13) has 2-adicity 2: four constraints fit, five do not."""
    field = PrimeField(13, name="GF(13)")
    for count, fits in ((4, True), (5, False)):
        cs = ConstraintSystem(field)
        w = cs.alloc(2)
        for _ in range(count):
            w = cs.mul(w, w)
        if fits:
            qap = QAP(cs.to_r1cs())
            assert qap.degree == 4
            assert len(qap.witness_quotient(cs.assignment)) == 3
        else:
            with pytest.raises(ValueError, match="root of unity"):
                QAP(cs.to_r1cs())
