"""Prime-field arithmetic.

:class:`PrimeField` is a lightweight field descriptor; circuit code works
with plain Python ints reduced modulo the field order (for speed inside
the prover's hot loops).

``FR`` is the BN128 *scalar* field — the field R1CS constraints live in,
and also the base field of the embedded Baby-Jubjub curve.
"""

from __future__ import annotations

from typing import Iterable

#: BN128 group order (a.k.a. the scalar field / circuit field modulus).
BN128_SCALAR_FIELD = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)


class PrimeField:
    """A prime field GF(p) with helpers for int-based arithmetic."""

    def __init__(self, modulus: int, name: str = "GF(p)") -> None:
        if modulus < 2:
            raise ValueError("field modulus must be at least 2")
        self.modulus = modulus
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PrimeField({self.name}, bits={self.modulus.bit_length()})"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus

    def neg(self, a: int) -> int:
        return -a % self.modulus

    def inv(self, a: int) -> int:
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.modulus)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.modulus

    def exp(self, a: int, e: int) -> int:
        return pow(a, e, self.modulus)

    def sum(self, values: Iterable[int]) -> int:
        total = 0
        for v in values:
            total += v
        return total % self.modulus

    def byte_length(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def to_bytes(self, value: int) -> bytes:
        return (value % self.modulus).to_bytes(self.byte_length(), "big")

    def from_bytes(self, data: bytes, strict: bool = True) -> int:
        """Decode a big-endian field element.

        Strict (the default) enforces the canonical encoding: exactly
        :meth:`byte_length` bytes and a value below the modulus.
        Accepting out-of-range values and reducing them — the old
        behaviour, still reachable with ``strict=False`` for hash-to-
        field style callers — makes every element decodable from many
        distinct byte strings, an encoding-malleability hole wherever
        the bytes are signed, committed to, or deduplicated.
        """
        if not strict:
            return int.from_bytes(data, "big") % self.modulus
        if len(data) != self.byte_length():
            raise ValueError(
                f"{self.name} encoding must be exactly {self.byte_length()} bytes"
            )
        value = int.from_bytes(data, "big")
        if value >= self.modulus:
            raise ValueError(f"non-canonical {self.name} encoding (>= modulus)")
        return value


#: The BN128 scalar field: every R1CS constraint in this library is over FR.
FR = PrimeField(BN128_SCALAR_FIELD, name="BN128-Fr")
