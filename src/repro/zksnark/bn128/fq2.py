"""FQ2 = FQ[i] / (i^2 + 1): the quadratic extension hosting G2.

Multiplication is 3-multiply Karatsuba over the complex structure;
:meth:`FQ2.from_bytes` rejects non-canonical limbs so each field
element has exactly one wire encoding.
"""

from __future__ import annotations

from repro.zksnark.bn128.fq import FIELD_MODULUS, fq_from_bytes

_Q = FIELD_MODULUS


class FQ2:
    """An element c0 + c1·i of FQ2 with i² = −1."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int = 0) -> None:
        self.c0 = c0 % _Q
        self.c1 = c1 % _Q

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "FQ2":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "FQ2":
        return cls(1, 0)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FQ2") -> "FQ2":
        return FQ2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "FQ2") -> "FQ2":
        return FQ2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "FQ2":
        return FQ2(-self.c0, -self.c1)

    def __mul__(self, other) -> "FQ2":
        if isinstance(other, int):
            return FQ2(self.c0 * other, self.c1 * other)
        # Karatsuba: (a0 + a1 i)(b0 + b1 i) costs 3 multiplies, not 4 —
        # the cross term is (a0+a1)(b0+b1) − a0b0 − a1b1.
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        return FQ2(t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1)

    __rmul__ = __mul__

    def square(self) -> "FQ2":
        a0, a1 = self.c0, self.c1
        return FQ2((a0 + a1) * (a0 - a1), 2 * a0 * a1)

    def inverse(self) -> "FQ2":
        a0, a1 = self.c0, self.c1
        norm = (a0 * a0 + a1 * a1) % _Q
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in FQ2")
        inv_norm = pow(norm, -1, _Q)
        return FQ2(a0 * inv_norm, -a1 * inv_norm)

    def __truediv__(self, other: "FQ2") -> "FQ2":
        return self * other.inverse()

    def conjugate(self) -> "FQ2":
        return FQ2(self.c0, -self.c1)

    def frobenius(self) -> "FQ2":
        """The q-power Frobenius on FQ2 is conjugation."""
        return self.conjugate()

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    # -- comparisons / misc ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FQ2):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FQ2({self.c0}, {self.c1})"

    def to_bytes(self) -> bytes:
        return self.c0.to_bytes(32, "big") + self.c1.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "FQ2":
        """Decode a canonical 64-byte encoding.

        Limbs ≥ the field modulus are rejected rather than silently
        reduced: accepting them would give every element many distinct
        wire encodings, an encoding-malleability hole in G2/proof/vk
        deserialization (distinct bytes decoding to equal elements).
        """
        if len(data) != 64:
            raise ValueError("FQ2 encoding must be 64 bytes")
        return cls(fq_from_bytes(data[:32]), fq_from_bytes(data[32:]))

