"""GLV scalar decomposition for curves with an efficient endomorphism.

Curves whose base field has a primitive cube root of unity β admit the
endomorphism φ(x, y) = (βx, y), which acts on the prime-order subgroup
as multiplication by λ, a primitive cube root of unity mod the group
order n.  Splitting a scalar k into k ≡ k₁ + k₂·λ (mod n) with
|k₁|, |k₂| ≈ √n halves the doubling count of a scalar multiplication
and halves the window count of a Pippenger MSM.

Soundness of the decomposition does not rest on the lattice basis being
short — shortness only buys speed.  :meth:`GLVParams.decompose` returns
(k₁, k₂) with the *exact* congruence k₁ + k₂·λ ≡ k (mod n), asserted
in the differential sweep for every seeded case, so a mis-sized basis
can slow the fast path down but can never change the group element it
computes.  Both moduli used here (BN128's r and secp256k1's n) satisfy
n ≡ 1 (mod 3), which guarantees the cube roots exist.

The module is pure integer math with no curve imports; the curve core
(:meth:`repro.crypto.weierstrass.WeierstrassCurve.glv`) pairs each λ
with the matching β by checking φ(G) = λ·G against its double-and-add
reference ladder once.
"""

from __future__ import annotations

from math import isqrt
from typing import Tuple


def cube_root_of_unity(modulus: int) -> int:
    """A primitive cube root of unity mod a prime ≡ 1 (mod 3).

    Found as g^((p−1)/3) for small candidate g; the result λ ≠ 1
    satisfies λ² + λ + 1 ≡ 0 (mod p).
    """
    if modulus % 3 != 1:
        raise ValueError("no primitive cube root of unity: p != 1 mod 3")
    exponent = (modulus - 1) // 3
    for g in range(2, 1000):
        root = pow(g, exponent, modulus)
        if root != 1:
            if (root * root + root + 1) % modulus != 0:
                raise ArithmeticError("modulus is not prime")
            return root
    raise ArithmeticError("no generator candidate below 1000")


def _lattice_basis(n: int, lam: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Two short vectors (a, b) with a + b·λ ≡ 0 (mod n).

    The extended Euclid run on (n, λ) yields r_i = s_i·n + t_i·λ at
    every step, i.e. r_i − t_i·λ ≡ 0 (mod n); stopping around √n gives
    vectors of norm ≈ √n (GLV, Algorithm 3.74 in Hankerson–Menezes–
    Vanstone).
    """
    sqrt_n = isqrt(n)
    r0, r1 = n, lam % n
    t0, t1 = 0, 1
    rows = []
    while r1 != 0:
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        t0, t1 = t1, t0 - quotient * t1
        rows.append((r0, t0))
        if r0 < sqrt_n and len(rows) >= 2:
            break
    # rows[-1] = (r_{l+1}, t_{l+1}) just under sqrt(n); rows[-2] just over.
    (r_hi, t_hi), (r_lo, t_lo) = rows[-2], rows[-1]
    v1 = (r_lo, -t_lo)
    v2 = (r_hi, -t_hi)
    return v1, v2


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, rounding half away from zero."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


class GLVParams:
    """Decomposition parameters for one (group order, λ) pair."""

    __slots__ = ("order", "lam", "v1", "v2")

    def __init__(self, order: int, lam: int) -> None:
        if (lam * lam + lam + 1) % order != 0:
            raise ValueError("lambda is not a primitive cube root of unity mod n")
        self.order = order
        self.lam = lam % order
        v1, v2 = _lattice_basis(order, self.lam)
        # The rounding formulas in decompose() assume det(v1, v2) = +n;
        # adjacent Euclid rows give ±n, so flip v2 when the sign is off
        # (negating a lattice vector keeps it in the kernel lattice).
        det = v1[0] * v2[1] - v2[0] * v1[1]
        if det < 0:
            v2 = (-v2[0], -v2[1])
            det = -det
        if det != order:
            raise ArithmeticError("GLV lattice basis determinant is not n")
        self.v1, self.v2 = v1, v2

    @classmethod
    def for_order(cls, order: int) -> "GLVParams":
        return cls(order, cube_root_of_unity(order))

    def other_root(self) -> "GLVParams":
        """Parameters for the conjugate root λ² (the other endomorphism)."""
        return GLVParams(self.order, self.lam * self.lam % self.order)

    def decompose(self, k: int) -> Tuple[int, int]:
        """Split k into (k₁, k₂) with k₁ + k₂·λ ≡ k (mod n), both short.

        The congruence holds exactly for every k by construction: the
        correction vector c₁·v1 + c₂·v2 lies in the kernel lattice
        {(a, b) : a + b·λ ≡ 0 (mod n)}, so subtracting it from (k, 0)
        cannot change the residue.
        """
        n = self.order
        k %= n
        (a1, b1), (a2, b2) = self.v1, self.v2
        c1 = _round_div(b2 * k, n)
        c2 = _round_div(-b1 * k, n)
        k1 = k - c1 * a1 - c2 * a2
        k2 = -c1 * b1 - c2 * b2
        return k1, k2

    def max_component_bits(self) -> int:
        """An upper bound on |k₁|, |k₂| bit length (for MSM window sizing)."""
        (a1, b1), (a2, b2) = self.v1, self.v2
        bound = max(abs(a1) + abs(a2), abs(b1) + abs(b2))
        return bound.bit_length()
