"""Optimal ate pairing on BN128.

The Miller loop runs over the 6u+2 ate loop count.  The fast path keeps
the G2 operand on the twist (affine FQ2 arithmetic) and precomputes the
line coefficients once per G2 point (:func:`prepare_g2`); evaluating a
line at the G1 argument then yields a *sparse* FQ12 element (≤5 nonzero
coefficients) folded in via :meth:`FQ12.mul_sparse`.  Verifiers that
pair against fixed G2 points (Groth16's γ and δ) reuse one
:class:`G2Prepared` across every verification.  A product of pairings
runs ONE Miller loop: every pair's prepared steps share the loop's
shape, so the accumulator is squared once per step for all pairs and
each pair's line is folded in after the squaring.

The final exponentiation splits (q^12 − 1)/r into the easy part
(q^6 − 1)(q^2 + 1) — a conjugation, one inversion and a Frobenius —
and the 761-bit hard part (q^4 − q^2 + 1)/r.  The hard part uses the
BN u-chain of Scott et al. (2009): three exponentiations by the 63-bit
BN parameter u, Frobenius maps and a short multiplication chain, with
conjugation as the inverse (exact in the cyclotomic subgroup the easy
part lands in).  Its exponent is checked against (q^4 − q^2 + 1)/r at
import, so results are equal in FQ12 to the plain exponentiation.

The historical FQ12-only implementation is kept as ``*_naive`` for
equivalence tests and before/after benchmarks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import observability as obs
from repro.zksnark.bn128.curve import G1Point, G2Point, g2_neg
from repro.zksnark.bn128.fq import CURVE_ORDER, FIELD_MODULUS
from repro.zksnark.bn128.fq2 import FQ2
from repro.zksnark.bn128.fq12 import FQ12

_Q = FIELD_MODULUS

#: The BN parameter u of BN128 (63 bits).
_U = 4965661367192848881

#: Optimal ate loop count 6u + 2.
ATE_LOOP_COUNT = 6 * _U + 2
_LOG_ATE_LOOP_COUNT = 63

#: Exponent of the (naive, monolithic) final exponentiation.
_FINAL_EXPONENT = (FIELD_MODULUS**12 - 1) // CURVE_ORDER

#: Hard part of the decomposed final exponentiation: Φ₁₂(q)/r.
_HARD_EXPONENT = (FIELD_MODULUS**4 - FIELD_MODULUS**2 + 1) // CURVE_ORDER
if (FIELD_MODULUS**4 - FIELD_MODULUS**2 + 1) % CURVE_ORDER:
    raise ArithmeticError("r does not divide q^4 - q^2 + 1")

# An FQ12 point is an affine pair of FQ12 coordinates (None = infinity).
FQ12Point = Optional[Tuple[FQ12, FQ12]]

_W2 = FQ12((0,) * 2 + (1,) + (0,) * 9)  # w^2
_W3 = FQ12((0,) * 3 + (1,) + (0,) * 8)  # w^3


def twist(point: G2Point) -> FQ12Point:
    """Map a G2 point (over FQ2) into the curve over FQ12 via the twist."""
    if point is None:
        return None
    x, y = point
    # Unwind the FQ2 representation from (9+i) basis into FQ12 coefficients.
    xc = (x.c0 - 9 * x.c1, x.c1)
    yc = (y.c0 - 9 * y.c1, y.c1)
    nx = FQ12((xc[0],) + (0,) * 5 + (xc[1],) + (0,) * 5)
    ny = FQ12((yc[0],) + (0,) * 5 + (yc[1],) + (0,) * 5)
    return (nx * _W2, ny * _W3)


def _untwist(point: FQ12Point) -> G2Point:
    """Invert :func:`twist` for FQ12 points in the twist's image."""
    if point is None:
        return None
    xc = point[0].coeffs
    yc = point[1].coeffs
    x = FQ2(xc[2] + 9 * xc[8], xc[8])
    y = FQ2(yc[3] + 9 * yc[9], yc[9])
    return (x, y)


def cast_g1_to_fq12(point: G1Point) -> FQ12Point:
    """Embed a G1 point into the FQ12 curve."""
    if point is None:
        return None
    x, y = point
    return (FQ12.from_fq(x), FQ12.from_fq(y))


# ----- prepared Miller loop (fast path) ------------------------------------------
#
# Line functions are computed on the twist in FQ2.  For twisted points
# the FQ12 slope is w·S with S the FQ2 twist slope, so the line through
# R evaluated at P = (xP, yP) ∈ G1 is
#
#     l(P) = −yP · 1 + xP · (S at w) + ((Y_R − S·X_R) at w^3)
#
# where "at w^k" denotes the twist embedding of an FQ2 element c0+c1·i
# into coefficient slots (k, k+6) as (c0 − 9·c1, c1).  A vertical line
# (R and −R) degenerates to l(P) = xP · 1 − (X_R at w^2).  Both shapes
# are sparse: 5 (resp. 3) nonzero FQ12 coefficients.

#: A line step: (square_first, slope FQ2 | None, aux FQ2).
#: slope=None marks a vertical line with aux = X_R; otherwise
#: aux = Y_R − slope·X_R.
_LineStep = Tuple[bool, Optional[FQ2], FQ2]


class G2Prepared:
    """Precomputed Miller-loop line coefficients for a fixed G2 point."""

    __slots__ = ("point", "steps")

    def __init__(self, point: G2Point, steps: Optional[List[_LineStep]]) -> None:
        self.point = point
        self.steps = steps


def _line_step(
    square_first: bool, p1: G2Point, p2: G2Point
) -> Tuple[_LineStep, G2Point]:
    """The line through p1 and p2 (the tangent when equal) and p1 + p2.

    Both come from one slope, so each step costs one FQ2 inversion.
    """
    x1, y1 = p1
    x2, y2 = p2
    if x1 != x2:
        slope = (y2 - y1) / (x2 - x1)
    elif y1 == y2:
        slope = (x1.square() * 3) / (y1 * 2)
    else:
        return (square_first, None, x1), None
    x3 = slope.square() - x1 - x2
    return (square_first, slope, y1 - slope * x1), (x3, slope * (x1 - x3) - y1)


def _g2_frobenius(point: G2Point) -> G2Point:
    """ψ = twist⁻¹ ∘ (q-power Frobenius) ∘ twist on G2."""
    if point is None:
        return None
    x12, y12 = twist(point)
    return _untwist((x12.frobenius(1), y12.frobenius(1)))


def prepare_g2(q_point: G2Point) -> G2Prepared:
    """Precompute every Miller-loop line coefficient for ``q_point``.

    Preparation walks the ate loop once in affine FQ2 (one cheap FQ2
    inversion for each of its 102 steps); each later pairing against
    the point is then just sparse FQ12 updates.
    """
    if q_point is None:
        return G2Prepared(None, None)
    steps: List[_LineStep] = []
    r = q_point
    for i in range(_LOG_ATE_LOOP_COUNT, -1, -1):
        step, r = _line_step(True, r, r)
        steps.append(step)
        if ATE_LOOP_COUNT & (1 << i):
            step, r = _line_step(False, r, q_point)
            steps.append(step)
    q1 = _g2_frobenius(q_point)
    nq2 = g2_neg(_g2_frobenius(q1))
    step, r = _line_step(False, r, q1)
    steps.append(step)
    steps.append(_line_step(False, r, nq2)[0])
    return G2Prepared(q_point, steps)


def _multi_miller_loop(pairs) -> FQ12:
    """One Miller loop for Π f_Q(P) over ``pairs`` of (G2 | G2Prepared, G1).

    Every prepared point walks the same ate-loop steps, so the
    accumulator is squared once per step for all pairs and then takes
    each pair's line, evaluated at its G1 point, as a sparse product.
    Pairs with a point at infinity contribute 1 and are skipped.
    """
    lines = []
    for q_point, p_point in pairs:
        if not isinstance(q_point, G2Prepared):
            q_point = prepare_g2(q_point)
        if q_point.steps is not None and p_point is not None:
            xp, yp = p_point
            lines.append((q_point.steps, xp, -yp % _Q))
    f = FQ12.one()
    if not lines:
        return f
    for k, (square_first, _, _) in enumerate(lines[0][0]):
        if square_first:
            f = f.square()
        for steps, xp, nyp in lines:
            _, slope, aux = steps[k]
            if slope is not None:
                items = (
                    (0, nyp),
                    (1, (slope.c0 - 9 * slope.c1) * xp),
                    (7, slope.c1 * xp),
                    (3, aux.c0 - 9 * aux.c1),
                    (9, aux.c1),
                )
            else:
                items = ((0, xp), (2, 9 * aux.c1 - aux.c0), (8, -aux.c1))
            f = f.mul_sparse(items)
    return f


def miller_loop(q_point, p_point: G1Point) -> FQ12:
    """The raw Miller loop (no final exponentiation) for e(P, Q).

    ``q_point`` may be a plain G2 point or a :class:`G2Prepared`.
    Returns FQ12.one() if either input is the point at infinity.
    """
    return _multi_miller_loop([(q_point, p_point)])


def _pow_u(f):
    """f^u by square-and-multiply over the bits of the BN parameter u."""
    result = f
    for bit in bin(_U)[3:]:
        result = result.square()
        if bit == "1":
            result = result * f
    return result


def _hard_part(f):
    """f^((q^4 − q^2 + 1)/r) for f in the cyclotomic subgroup.

    Scott et al. (2009) write the exponent as λ₀ + λ₁q + λ₂q² + λ₃q³
    with λ₃ = 1, λ₂ = 6u² + 1, λ₁ = −36u³ − 18u² − 12u + 1 and
    λ₀ = −36u³ − 30u² − 18u − 2, then evaluate
    y₀·y₁²·y₂⁶·y₃¹²·y₄¹⁸·y₅³⁰·y₆³⁶ over the seven values below with a
    short addition chain.  Conjugation is the inverse here.
    """
    fu = _pow_u(f)
    fu2 = _pow_u(fu)
    fu3 = _pow_u(fu2)
    y0 = f.frobenius(1) * f.frobenius(2) * f.frobenius(3)
    y1 = f.conjugate()
    y2 = fu2.frobenius(2)
    y3 = fu.frobenius(1).conjugate()
    y4 = (fu * fu2.frobenius(1)).conjugate()
    y5 = fu2.conjugate()
    y6 = (fu3 * fu3.frobenius(1)).conjugate()
    t0 = y6.square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.square() * t0).square()
    t0 = (t1 * y1).square()
    return t0 * t1 * y0


class _Exponent:
    """Stands in for an FQ12 value to read off the exponent a chain applies.

    Multiplying adds exponents, squaring doubles, conjugation negates
    (the cyclotomic inverse) and the q^k Frobenius multiplies by q^k.
    """

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __mul__(self, other: "_Exponent") -> "_Exponent":
        return _Exponent(self.value + other.value)

    def square(self) -> "_Exponent":
        return _Exponent(2 * self.value)

    def conjugate(self) -> "_Exponent":
        return _Exponent(-self.value)

    def frobenius(self, power: int) -> "_Exponent":
        return _Exponent(self.value * _Q**power)


if _hard_part(_Exponent(1)).value != _HARD_EXPONENT:
    raise ArithmeticError("the u-chain does not raise to (q^4 - q^2 + 1)/r")


def final_exponentiate(value: FQ12) -> FQ12:
    """Raise to (q^12 − 1)/r, mapping Miller values into the r-torsion.

    Decomposed: the easy part (q^6 − 1)(q^2 + 1) costs one conjugation,
    one inversion and one Frobenius and lands in the cyclotomic
    subgroup, where :func:`_hard_part` raises to Φ₁₂(q)/r with the BN
    u-chain (three 63-bit exponentiations) instead of a 761-bit
    square-and-multiply.
    """
    f1 = value.conjugate() * value.inverse()  # ^(q^6 − 1): x^(q^6) = conj(x)
    f2 = f1.frobenius(2) * f1  # ^(q^2 + 1)
    return _hard_part(f2)


def pairing(q_point, p_point: G1Point) -> FQ12:
    """The optimal ate pairing e(P, Q) ∈ μ_r ⊂ FQ12."""
    if obs.TRACER.enabled:
        obs.count("snark.pairing.calls")
        obs.count("snark.pairing.miller_loops")
    return final_exponentiate(miller_loop(q_point, p_point))


def multi_pairing(pairs) -> FQ12:
    """Π e(P_i, Q_i) with one shared Miller loop and final exponentiation.

    ``pairs`` is an iterable of (G2Point | G2Prepared, G1Point) tuples.
    This is how the Groth16 verifier keeps the pairing count affordable,
    and how :meth:`Groth16Backend.batch_verify` amortizes n proofs into
    one product.
    """
    pairs = list(pairs)
    if obs.TRACER.enabled:
        obs.count("snark.pairing.multi_calls")
        obs.count("snark.pairing.miller_loops", len(pairs))
    return final_exponentiate(_multi_miller_loop(pairs))


# ----- naive reference path ------------------------------------------------------


def _line(p1: FQ12Point, p2: FQ12Point, t: FQ12Point) -> FQ12:
    """Evaluate the line through p1, p2 at point t (affine FQ12 formulas)."""
    if p1 is None or p2 is None or t is None:
        raise ValueError("line through or at the point at infinity")
    x1, y1 = p1
    x2, y2 = p2
    xt, yt = t
    if x1 != x2:
        slope = (y2 - y1) * (x2 - x1).inverse()
        return slope * (xt - x1) - (yt - y1)
    if y1 == y2:
        slope = (x1 * x1 * 3) * (y1 + y1).inverse()
        return slope * (xt - x1) - (yt - y1)
    return xt - x1


def _add_points(p1: FQ12Point, p2: FQ12Point) -> FQ12Point:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and y1 == y2:
        slope = (x1 * x1 * 3) * (y1 + y1).inverse()
    elif x1 == x2:
        return None
    else:
        slope = (y2 - y1) * (x2 - x1).inverse()
    nx = slope * slope - x1 - x2
    ny = slope * (x1 - nx) - y1
    return (nx, ny)


def _frobenius_point(point: Tuple[FQ12, FQ12]) -> Tuple[FQ12, FQ12]:
    """Apply the q-power Frobenius coordinate-wise (x^q, y^q)."""
    x, y = point
    return (x.frobenius(1), y.frobenius(1))


def miller_loop_naive(q_point: G2Point, p_point: G1Point) -> FQ12:
    """The historical all-FQ12 Miller loop (reference oracle)."""
    q12 = twist(q_point)
    p12 = cast_g1_to_fq12(p_point)
    if q12 is None or p12 is None:
        return FQ12.one()
    r = q12
    f = FQ12.one()
    for i in range(_LOG_ATE_LOOP_COUNT, -1, -1):
        f = f * f * _line(r, r, p12)
        r = _add_points(r, r)
        if ATE_LOOP_COUNT & (1 << i):
            f = f * _line(r, q12, p12)
            r = _add_points(r, q12)
    q1 = _frobenius_point(q12)
    nq2 = _frobenius_point(q1)
    nq2 = (nq2[0], -nq2[1])
    f = f * _line(r, q1, p12)
    r = _add_points(r, q1)
    f = f * _line(r, nq2, p12)
    return f


def final_exponentiate_naive(value: FQ12) -> FQ12:
    """Monolithic (q^12 − 1)/r exponentiation (reference oracle)."""
    return value ** _FINAL_EXPONENT


def pairing_naive(q_point: G2Point, p_point: G1Point) -> FQ12:
    """Reference pairing via the naive Miller loop and exponentiation."""
    return final_exponentiate_naive(miller_loop_naive(q_point, p_point))


def multi_pairing_naive(pairs) -> FQ12:
    """Reference multi-pairing (naive Miller loops, naive exponent)."""
    pairs = list(pairs)
    if obs.TRACER.enabled:
        obs.count("snark.pairing.multi_naive_calls")
        obs.count("snark.pairing.miller_loops", len(pairs))
    acc = FQ12.one()
    for q_point, p_point in pairs:
        acc = acc * miller_loop_naive(q_point, p_point)
    return final_exponentiate_naive(acc)
