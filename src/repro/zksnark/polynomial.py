"""Radix-2 evaluation domains: the QAP's polynomial layer.

A :class:`Radix2Domain` of size N (a power of two) is the group of N-th
roots of unity {ω⁰, …, ω^(N−1)} in a prime field.  On it the three
things the QAP needs are cheap:

- evaluation and interpolation are number-theoretic transforms
  (Cooley–Tukey, O(N log N)), and so are the same transforms on the
  coset g·{ωʲ}, where g is a quadratic non-residue outside the domain;
- the vanishing polynomial is Z(x) = x^N − 1, so on the coset it is
  the constant g^N − 1 and dividing by Z is one scalar multiplication
  per point;
- the Lagrange basis has the closed form
  Lᵢ(τ) = ωⁱ(τ^N − 1) / (N(τ − ωⁱ)), all N values for one batch
  inversion.

Polynomials are lists of plain ints (low index = constant term) and
evaluation vectors are indexed by j for the point ωʲ.  This is the
domain libsnark gives the Groth16/BCTV14 prover; BN254's scalar field
has 2-adicity 28, so it holds domains up to 2²⁸ points.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.zksnark.field import PrimeField


class Radix2Domain:
    """The smallest power-of-two root-of-unity domain with ``min_size`` points.

    Raises :class:`ValueError` when the field has no root of unity of
    that order, or no coset of the domain.
    """

    def __init__(self, field: PrimeField, min_size: int) -> None:
        if min_size < 1:
            raise ValueError("a domain needs at least one point")
        p = field.modulus
        size = 1 << (min_size - 1).bit_length()
        two_adicity = ((p - 1) & -(p - 1)).bit_length() - 1
        if size > 1 << two_adicity:
            raise ValueError(
                f"{field.name} has no 2^{size.bit_length() - 1}-th root of unity "
                f"(2-adicity {two_adicity}); {min_size} points need one"
            )
        shift = 2
        while pow(shift, (p - 1) // 2, p) != p - 1:
            shift += 1
        if pow(shift, size, p) == 1:
            raise ValueError(f"{field.name} has no coset of a {size}-point domain")
        omega = pow(shift, (p - 1) // size, p)
        self.field = field
        self.size = size
        self.shift = shift
        #: ω⁰ … ω^(N−1): the domain points, in transform order.
        self.elements: List[int] = _powers(omega, size, p)
        self._inverse_elements = [1] + self.elements[:0:-1]
        self._size_inv = pow(size, -1, p)
        self._shift_powers = _powers(shift, size, p)
        self._shift_inverse_powers = _powers(pow(shift, -1, p), size, p)

    def vanishing_at(self, x: int) -> int:
        """Z(x) = x^N − 1."""
        p = self.field.modulus
        return (pow(x, self.size, p) - 1) % p

    def lagrange_at(self, tau: int) -> List[int]:
        """[L₀(τ), …, L_(N−1)(τ)] from the closed form, one inversion in all."""
        p = self.field.modulus
        tau %= p
        z = self.vanishing_at(tau)
        if z == 0:  # τ is a domain point: Lᵢ(τ) is 1 at τ = ωⁱ and 0 elsewhere
            return [int(tau == w) for w in self.elements]
        scale = z * self._size_inv % p
        inverses = _batch_inverse([(tau - w) % p for w in self.elements], p)
        return [w * inv % p * scale % p for w, inv in zip(self.elements, inverses)]

    def ntt(self, coeffs: Sequence[int]) -> List[int]:
        """Evaluations at every ωʲ of a polynomial of degree < N."""
        return _ntt(self._padded(coeffs), self.elements, self.field.modulus)

    def intt(self, evals: Sequence[int]) -> List[int]:
        """The N coefficients of the polynomial taking ``evals[j]`` at ωʲ
        (missing trailing evaluations are zero)."""
        p = self.field.modulus
        raw = _ntt(self._padded(evals), self._inverse_elements, p)
        return [v * self._size_inv % p for v in raw]

    def coset_ntt(self, coeffs: Sequence[int]) -> List[int]:
        """Evaluations at every g·ωʲ."""
        p = self.field.modulus
        return self.ntt([c * s % p for c, s in zip(coeffs, self._shift_powers)])

    def coset_intt(self, evals: Sequence[int]) -> List[int]:
        """The N coefficients of the polynomial taking ``evals[j]`` at g·ωʲ."""
        p = self.field.modulus
        return [c * s % p for c, s in zip(self.intt(evals), self._shift_inverse_powers)]

    def _padded(self, values: Sequence[int]) -> List[int]:
        if len(values) > self.size:
            raise ValueError(f"{len(values)} values do not fit a {self.size}-point domain")
        return list(values) + [0] * (self.size - len(values))


def _powers(base: int, count: int, p: int) -> List[int]:
    out = [1] * count
    for i in range(1, count):
        out[i] = out[i - 1] * base % p
    return out


def _batch_inverse(values: Sequence[int], p: int) -> List[int]:
    """Montgomery's trick: every inverse for one field inversion."""
    prefix = [0] * len(values)
    acc = 1
    for i, v in enumerate(values):
        prefix[i] = acc
        acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % p
        inv = inv * values[i] % p
    return out


def _ntt(values: List[int], roots: List[int], p: int) -> List[int]:
    """Radix-2 decimation-in-time transform: out[j] = Σ values[k]·roots[j·k].

    ``roots`` lists the powers of a primitive len(values)-th root of
    unity; each half-size sub-transform takes every other one.
    """
    if len(values) == 1:
        return [values[0] % p]
    if len(values) == 2:
        return [(values[0] + values[1]) % p, (values[0] - values[1]) % p]
    half = roots[::2]
    even = _ntt(values[::2], half, p)
    odd = [o * w % p for o, w in zip(_ntt(values[1::2], half, p), roots)]
    return [(e + o) % p for e, o in zip(even, odd)] + [(e - o) % p for e, o in zip(even, odd)]
