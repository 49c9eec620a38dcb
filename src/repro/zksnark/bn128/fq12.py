"""FQ12 = FQ[w] / (w^12 − 18·w^6 + 82): the pairing target field.

Elements are fixed 12-tuples of base-field ints.  Multiplication splits
the operands at w^6 and runs one level of Karatsuba (three 6-coefficient
schoolbook products, 108 base multiplies instead of 144) with lazy
reduction — coefficients stay unreduced integers until a single ``% q``
pass in the constructor; squaring additionally exploits product symmetry
(63 multiplies).  Inversion runs the extended Euclid algorithm in FQ[w].
"""

from __future__ import annotations

from typing import List, Sequence

from repro.zksnark.bn128.fq import FIELD_MODULUS

_Q = FIELD_MODULUS
_DEGREE = 12
#: Modulus polynomial coefficients of w^12 - 18 w^6 + 82.
MODULUS_COEFFS = (82, 0, 0, 0, 0, 0, -18, 0, 0, 0, 0, 0)


class FQ12:
    """An element of FQ12 as 12 base-field coefficients (low first)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]) -> None:
        if len(coeffs) != _DEGREE:
            raise ValueError("FQ12 needs exactly 12 coefficients")
        self.coeffs = tuple(c % _Q for c in coeffs)

    @classmethod
    def zero(cls) -> "FQ12":
        return cls((0,) * _DEGREE)

    @classmethod
    def one(cls) -> "FQ12":
        return cls((1,) + (0,) * (_DEGREE - 1))

    @classmethod
    def from_fq(cls, value: int) -> "FQ12":
        return cls((value,) + (0,) * (_DEGREE - 1))

    def __add__(self, other: "FQ12") -> "FQ12":
        return FQ12([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "FQ12") -> "FQ12":
        return FQ12([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "FQ12":
        return FQ12([-a for a in self.coeffs])

    def __mul__(self, other) -> "FQ12":
        if isinstance(other, int):
            return FQ12([a * other for a in self.coeffs])
        a = self.coeffs
        b = other.coeffs
        # One Karatsuba level at the w^6 split: three 6-coefficient
        # schoolbook products (108 base multiplies vs 144), coefficients
        # kept as unreduced ints until the constructor's single % q pass.
        a_lo, a_hi = a[:6], a[6:]
        b_lo, b_hi = b[:6], b[6:]
        t0 = _poly6_mul(a_lo, b_lo)
        t2 = _poly6_mul(a_hi, b_hi)
        tm = _poly6_mul(
            tuple(x + y for x, y in zip(a_lo, a_hi)),
            tuple(x + y for x, y in zip(b_lo, b_hi)),
        )
        return FQ12(_combine_karatsuba(t0, tm, t2))

    __rmul__ = __mul__

    def square(self) -> "FQ12":
        # Karatsuba split with symmetric 6-coefficient squares: 63 base
        # multiplies instead of the general product's 108.
        a = self.coeffs
        a_lo, a_hi = a[:6], a[6:]
        t0 = _poly6_sqr(a_lo)
        t2 = _poly6_sqr(a_hi)
        tm = _poly6_sqr(tuple(x + y for x, y in zip(a_lo, a_hi)))
        return FQ12(_combine_karatsuba(t0, tm, t2))

    def __pow__(self, exponent: int) -> "FQ12":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FQ12.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def mul_sparse(self, items) -> "FQ12":
        """Multiply by a sparse element given as ``(position, coeff)`` pairs.

        The Miller loop's line functions have ≤5 nonzero coefficients,
        so multiplying them in sparse form costs ~5·12 base-field
        products instead of the full 144.
        """
        a = self.coeffs
        prod: List[int] = [0] * (2 * _DEGREE - 1)
        for pos, v in items:
            v %= _Q
            if v == 0:
                continue
            for j in range(_DEGREE):
                prod[pos + j] += v * a[j]
        for i in range(2 * _DEGREE - 2, _DEGREE - 1, -1):
            top = prod[i]
            if top == 0:
                continue
            prod[i] = 0
            prod[i - 6] += 18 * top
            prod[i - 12] -= 82 * top
        return FQ12(prod[:_DEGREE])

    def frobenius(self, power: int = 1) -> "FQ12":
        """The q^power Frobenius x ↦ x^(q^power).

        Base-field coefficients are Frobenius-fixed, so
        ``x^(q^p) = Σ c_i · (w^(q^p))^i`` — a linear map applied via the
        precomputed images of the powers of w.
        """
        power %= _DEGREE
        if power == 0:
            return self
        table = _frobenius_table(power)
        out = [0] * _DEGREE
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            w_coeffs = table[i]
            for j in range(_DEGREE):
                out[j] += c * w_coeffs[j]
        return FQ12(out)

    def inverse(self) -> "FQ12":
        """Extended Euclid in FQ[w] against the modulus polynomial."""
        if all(c == 0 for c in self.coeffs):
            raise ZeroDivisionError("inverse of zero in FQ12")
        return _poly_inverse(self.coeffs)

    def conjugate(self) -> "FQ12":
        """Negate odd coefficients (the w → −w automorphism = q^6 Frobenius)."""
        return FQ12(
            [c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)]
        )

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FQ12):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FQ12({list(self.coeffs)})"

    def to_bytes(self) -> bytes:
        return b"".join(c.to_bytes(32, "big") for c in self.coeffs)


def _poly6_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Unreduced schoolbook product of two 6-coefficient halves."""
    out = [0] * 11
    for i in range(6):
        ai = a[i]
        if ai:
            for j in range(6):
                out[i + j] += ai * b[j]
    return out


def _poly6_sqr(a: Sequence[int]) -> List[int]:
    """Unreduced square of a 6-coefficient half (21 multiplies)."""
    out = [0] * 11
    for i in range(6):
        ai = a[i]
        if ai:
            out[2 * i] += ai * ai
            doubled = 2 * ai
            for j in range(i + 1, 6):
                out[i + j] += doubled * a[j]
    return out


def _combine_karatsuba(
    t0: Sequence[int], tm: Sequence[int], t2: Sequence[int]
) -> List[int]:
    """Assemble t0 + (tm−t0−t2)·w^6 + t2·w^12 and fold w^12 = 18w^6 − 82."""
    prod = [0] * 23
    for i in range(11):
        prod[i] += t0[i]
        prod[i + 6] += tm[i] - t0[i] - t2[i]
        prod[i + 12] += t2[i]
    for i in range(22, 11, -1):
        top = prod[i]
        if top:
            prod[i - 6] += 18 * top
            prod[i - 12] -= 82 * top
    return prod[:12]


#: power → tuple of 12 coefficient-tuples: the images (w^(q^power))^i.
_FROBENIUS_TABLES: dict = {}


def _frobenius_table(power: int):
    table = _FROBENIUS_TABLES.get(power)
    if table is None:
        w = FQ12((0, 1) + (0,) * 10)
        wq = w ** pow(_Q, power)
        img = FQ12.one()
        rows = []
        for _ in range(_DEGREE):
            rows.append(img.coeffs)
            img = img * wq
        table = tuple(rows)
        _FROBENIUS_TABLES[power] = table
    return table


def _poly_degree(coeffs: Sequence[int]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i] % _Q:
            return i
    return 0


def _poly_rounded_div(a: Sequence[int], b: Sequence[int]) -> List[int]:
    dega = _poly_degree(a)
    degb = _poly_degree(b)
    temp = [c % _Q for c in a]
    out = [0] * len(a)
    inv_lead = pow(b[degb], -1, _Q)
    for i in range(dega - degb, -1, -1):
        factor = (temp[degb + i] * inv_lead) % _Q
        out[i] = factor
        for j in range(degb + 1):
            temp[i + j] = (temp[i + j] - factor * b[j]) % _Q
    return out[: _poly_degree(out) + 1]


def _poly_inverse(coeffs: Sequence[int]) -> "FQ12":
    """Inverse in FQ[w]/(modulus) via the extended Euclid algorithm."""
    lm: List[int] = [1] + [0] * _DEGREE
    hm: List[int] = [0] * (_DEGREE + 1)
    low: List[int] = [c % _Q for c in coeffs] + [0]
    high: List[int] = [c % _Q for c in MODULUS_COEFFS] + [1]
    while _poly_degree(low):
        r = _poly_rounded_div(high, low)
        r += [0] * (_DEGREE + 1 - len(r))
        nm = list(hm)
        new = list(high)
        for i in range(_DEGREE + 1):
            for j in range(_DEGREE + 1 - i):
                nm[i + j] = (nm[i + j] - lm[i] * r[j]) % _Q
                new[i + j] = (new[i + j] - low[i] * r[j]) % _Q
        high, low, hm, lm = low, new, lm, nm
    inv_const = pow(low[0], -1, _Q)
    return FQ12([(c * inv_const) % _Q for c in lm[:_DEGREE]])
