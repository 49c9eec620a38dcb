"""R1CS → Quadratic Arithmetic Program reduction over a radix-2 domain.

Constraint j is associated with the domain point ωʲ of the smallest
power-of-two root-of-unity domain holding every constraint (N points,
N ≥ n; rows n..N−1 are all-zero padding).  The QAP column polynomials
A_i, B_i, C_i interpolate each wire's coefficients over the domain, and
an assignment ``w`` satisfies the R1CS iff ``A(x)·B(x) − C(x)`` is
divisible by ``Z(x) = x^N − 1`` where ``A(x) = Σ w_i A_i(x)`` etc.

The trusted setup only needs the columns *evaluated at τ*, a sparse
sum over the closed-form Lagrange basis.  The prover computes the
quotient H(x) with number-theoretic transforms: interpolate A, B and C
from their values on the domain, evaluate them on a coset of it, where
Z is the nonzero constant g^N − 1, divide pointwise, and interpolate H
back from the coset (see :mod:`repro.zksnark.polynomial`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import UnsatisfiedConstraintError
from repro.zksnark.field import PrimeField
from repro.zksnark.polynomial import Radix2Domain
from repro.zksnark.r1cs import R1CS


@dataclass
class QAPEvaluation:
    """QAP column polynomials evaluated at a single point tau.

    ``a_at[i]``, ``b_at[i]``, ``c_at[i]`` give A_i(tau) etc. for every
    wire i (including wire 0); ``z_at`` is Z(tau); ``degree`` is the
    domain size N.
    """

    a_at: List[int]
    b_at: List[int]
    c_at: List[int]
    z_at: int
    degree: int


class QAP:
    """The QAP view of an R1CS instance.

    Raises :class:`ValueError` for an empty system, or when the field
    has no power-of-two root of unity large enough for its constraints.
    """

    def __init__(self, r1cs: R1CS) -> None:
        if r1cs.num_constraints == 0:
            raise ValueError("cannot build a QAP from an empty constraint system")
        self.r1cs = r1cs
        self.field: PrimeField = r1cs.field
        self.domain = Radix2Domain(self.field, r1cs.num_constraints)

    @property
    def degree(self) -> int:
        return self.domain.size

    def evaluate_at(self, tau: int) -> QAPEvaluation:
        """Evaluate every column polynomial at ``tau`` (trusted setup)."""
        p = self.field.modulus
        basis = self.domain.lagrange_at(tau)
        wires = self.r1cs.num_wires
        a_at = [0] * wires
        b_at = [0] * wires
        c_at = [0] * wires
        for lj, cons in zip(basis, self.r1cs.constraints):
            if lj == 0:
                continue
            for i, coeff in cons.a.items():
                a_at[i] = (a_at[i] + coeff * lj) % p
            for i, coeff in cons.b.items():
                b_at[i] = (b_at[i] + coeff * lj) % p
            for i, coeff in cons.c.items():
                c_at[i] = (c_at[i] + coeff * lj) % p
        return QAPEvaluation(
            a_at=a_at,
            b_at=b_at,
            c_at=c_at,
            z_at=self.domain.vanishing_at(tau),
            degree=self.degree,
        )

    def _aggregate_evaluations(self, assignment: Sequence[int]) -> tuple[list, list, list]:
        """Evaluate the aggregated A, B, C polynomials over the domain.

        Because the domain point ωʲ belongs to constraint j, the value
        of the aggregate polynomial there is just the constraint row
        dotted with the assignment — O(nnz) overall.  Only the n
        constraint rows are returned; the padding rows are zero.
        """
        p = self.field.modulus
        a_evals, b_evals, c_evals = [], [], []
        for cons in self.r1cs.constraints:
            a_evals.append(sum(c * assignment[i] for i, c in cons.a.items()) % p)
            b_evals.append(sum(c * assignment[i] for i, c in cons.b.items()) % p)
            c_evals.append(sum(c * assignment[i] for i, c in cons.c.items()) % p)
        return a_evals, b_evals, c_evals

    def witness_quotient(self, assignment: Sequence[int]) -> List[int]:
        """The N−1 coefficients of H(x) = (A·B − C)(x) / Z(x).

        Raises :class:`UnsatisfiedConstraintError` if the assignment
        violates a constraint row.  The rows are checked before the
        transforms: the coset quotient interpolates *some* polynomial of
        degree < N whatever the witness, so it cannot detect a bad one.
        """
        p = self.field.modulus
        a_evals, b_evals, c_evals = self._aggregate_evaluations(assignment)
        for j, (a, b, c) in enumerate(zip(a_evals, b_evals, c_evals)):
            if a * b % p != c:
                annotation = self.r1cs.constraints[j].annotation
                label = f" ({annotation})" if annotation else ""
                raise UnsatisfiedConstraintError(
                    f"constraint {j}{label} unsatisfied: A*B - C does not vanish on the domain"
                )
        domain = self.domain
        a_coset = domain.coset_ntt(domain.intt(a_evals))
        b_coset = domain.coset_ntt(domain.intt(b_evals))
        c_coset = domain.coset_ntt(domain.intt(c_evals))
        # Z(g·ωʲ) = g^N·ω^(jN) − 1 = g^N − 1 at every coset point.
        z_inv = self.field.inv(domain.vanishing_at(domain.shift))
        h_coset = [(a * b - c) * z_inv % p for a, b, c in zip(a_coset, b_coset, c_coset)]
        h = domain.coset_intt(h_coset)
        # deg(A·B − C) ≤ 2N − 2, so deg H ≤ N − 2 once every row holds.
        if h[-1]:
            raise ArithmeticError("quotient reached degree N - 1: the transforms disagree")
        return h[:-1]
