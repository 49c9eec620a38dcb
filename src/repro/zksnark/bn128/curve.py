"""BN128 group operations.

G1 is :data:`BN254_G1`, which runs on the a = 0 curve core of
:mod:`repro.crypto.weierstrass` that secp256k1 shares: affine ``(x, y)``
int pairs (or ``None`` for infinity) on ``y² = x³ + 3`` over FQ,
Jacobian double/add, batch-affine addition (:func:`_g1_batch_add`),
scalar multiplication split by the GLV endomorphism φ(x, y) = (βx, y),
and fixed-base tables (:class:`FixedBaseTable`).  G2 points are affine
pairs of :class:`FQ2` on the twist ``y² = x³ + 3/(9+i)``; the G2 hot
path runs on raw ``(c0, c1)`` int pairs with 3-multiply Karatsuba FQ2
products rather than boxed :class:`FQ2` instances, and its fixed-base
tables are the same class over raw affine ``(x0, x1, y0, y1)`` rows
and :func:`_g2_batch_add`.  Trusted setup multiplies the generator
tables by a whole query of scalars at once
(:meth:`FixedBaseTable.mul_many`), one shared field inversion per
window step.

Multi-scalar multiplication is Pippenger with signed window digits and
affine buckets: each batch of bucket additions shares one field
inversion (Montgomery's trick), and only the final combination of the
windows runs in Jacobian coordinates.  A G1 MSM first splits every
scalar wider than the GLV component bound into two half-width
components.  Every fast path is pinned to the naive oracles by the
differential sweep.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro import observability as obs
from repro.crypto.weierstrass import FixedBaseTable, WeierstrassCurve
from repro.zksnark.bn128.fq import CURVE_ORDER, FIELD_MODULUS, fq_from_bytes
from repro.zksnark.bn128.fq2 import FQ2

_Q = FIELD_MODULUS

G1Point = Optional[Tuple[int, int]]
G2Point = Optional[Tuple[FQ2, FQ2]]

#: Twist coefficient b2 = 3 / (9 + i) for G2.
B2 = FQ2(3, 0) / FQ2(9, 1)

#: G1: y² = x³ + 3 over FQ, of prime order r.  Its cofactor is 1, so
#: the curve equation alone is the subgroup check (:func:`is_on_g1`).
BN254_G1 = WeierstrassCurve(FIELD_MODULUS, 3, CURVE_ORDER, (1, 2))

#: Canonical generators (matching Ethereum's alt_bn128 precompiles).
G1: G1Point = BN254_G1.generator
G2: G2Point = (
    FQ2(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    FQ2(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

g1_add = BN254_G1.add
g1_mul = BN254_G1.mul
g1_neg = BN254_G1.neg
is_on_g1 = BN254_G1.is_on_curve


def is_on_g2(point: G2Point) -> bool:
    """Curve-equation test for the twist.

    This is NOT a subgroup check: the twist has a large cofactor, so a
    point can satisfy the curve equation while lying outside the
    r-order subgroup.  Use :func:`is_in_g2_subgroup` (as
    :func:`g2_from_bytes` does) whenever the point comes from an
    untrusted source.
    """
    if point is None:
        return True
    x, y = point
    return y.square() - x.square() * x == B2


def is_in_g2_subgroup(point: G2Point) -> bool:
    """Full G2 membership: curve equation plus r-torsion.

    The twist's group order is c·r with a ~254-bit cofactor c, so the
    curve equation must be complemented by an order check
    ``r·P = O``; without it a malicious prover can smuggle a point of
    the wrong order into the pairing.
    """
    if point is None:
        return True
    if not is_on_g2(point):
        return False
    return _g2r_is_zero(_g2r_jac_mul(_g2_to_raw(point), CURVE_ORDER))


# ----- G2 Jacobian core (raw int pairs) -------------------------------------------
#
# The G2 hot path runs on flat 6-tuples ``(x0, x1, y0, y1, z0, z1)`` of
# plain ints rather than boxed :class:`FQ2` triples: each FQ2 product
# is a 3-multiply Karatsuba over ints with one ``% q`` per output
# coefficient, and no object allocation per intermediate.

#: Jacobian point at infinity (z = 0).
_G2R_INF = (0, 0, 1, 0, 0, 0)


def _fq2r_mul(a0, a1, b0, b1):
    t0 = a0 * b0
    t1 = a1 * b1
    return (t0 - t1) % _Q, ((a0 + a1) * (b0 + b1) - t0 - t1) % _Q


def _fq2r_sqr(a0, a1):
    return ((a0 + a1) * (a0 - a1)) % _Q, 2 * a0 * a1 % _Q


def _g2_to_raw(point: G2Point):
    if point is None:
        return _G2R_INF
    x, y = point
    return (x.c0, x.c1, y.c0, y.c1, 1, 0)


# Raw affine G2 points ``(x0, x1, y0, y1)``, never infinity: what the
# batch additions of the MSM buckets and fixed-base tables work on.


def _g2_affine(point: G2Point):
    x, y = point
    return (x.c0, x.c1, y.c0, y.c1)


def _g2_from_affine(pt) -> G2Point:
    return (FQ2(pt[0], pt[1]), FQ2(pt[2], pt[3]))


def _g2_affine_neg(pt):
    return (pt[0], pt[1], -pt[2] % _Q, -pt[3] % _Q)


def _g2_affine_to_jac(pt):
    return pt + (1, 0)


def _g2r_from_jac(pt) -> G2Point:
    x0, x1, y0, y1, z0, z1 = pt
    if z0 == 0 and z1 == 0:
        return None
    norm = (z0 * z0 + z1 * z1) % _Q
    inv_norm = pow(norm, -1, _Q)
    zi0 = z0 * inv_norm % _Q
    zi1 = -z1 * inv_norm % _Q
    w0, w1 = _fq2r_sqr(zi0, zi1)
    nx0, nx1 = _fq2r_mul(x0, x1, w0, w1)
    w0, w1 = _fq2r_mul(w0, w1, zi0, zi1)
    ny0, ny1 = _fq2r_mul(y0, y1, w0, w1)
    return (FQ2(nx0, nx1), FQ2(ny0, ny1))


def _g2r_is_zero(pt) -> bool:
    return pt[4] == 0 and pt[5] == 0


def _g2r_jac_double(pt):
    x0, x1, y0, y1, z0, z1 = pt
    if (y0 == 0 and y1 == 0) or (z0 == 0 and z1 == 0):
        return _G2R_INF
    w0, w1 = _fq2r_sqr(y0, y1)
    s0, s1 = _fq2r_mul(x0, x1, 4 * w0, 4 * w1)
    m0, m1 = _fq2r_sqr(x0, x1)
    m0, m1 = 3 * m0, 3 * m1
    nx0, nx1 = _fq2r_sqr(m0, m1)
    nx0 = (nx0 - 2 * s0) % _Q
    nx1 = (nx1 - 2 * s1) % _Q
    t0, t1 = _fq2r_sqr(w0, w1)
    ny0, ny1 = _fq2r_mul(m0, m1, s0 - nx0, s1 - nx1)
    ny0 = (ny0 - 8 * t0) % _Q
    ny1 = (ny1 - 8 * t1) % _Q
    nz0, nz1 = _fq2r_mul(2 * y0, 2 * y1, z0, z1)
    return (nx0, nx1, ny0, ny1, nz0, nz1)


def _g2r_jac_add(p1, p2):
    if p1[4] == 0 and p1[5] == 0:
        return p2
    if p2[4] == 0 and p2[5] == 0:
        return p1
    x1a, x1b, y1a, y1b, z1a, z1b = p1
    x2a, x2b, y2a, y2b, z2a, z2b = p2
    # Mixed-add shortcut for an affine (z = 1) operand, as in G1.
    if z2a == 1 and z2b == 0:
        u1a, u1b, s1a, s1b = x1a, x1b, y1a, y1b
        w0, w1 = _fq2r_sqr(z1a, z1b)
        u2a, u2b = _fq2r_mul(x2a, x2b, w0, w1)
        w0, w1 = _fq2r_mul(w0, w1, z1a, z1b)
        s2a, s2b = _fq2r_mul(y2a, y2b, w0, w1)
        zza, zzb = z1a, z1b
    elif z1a == 1 and z1b == 0:
        u2a, u2b, s2a, s2b = x2a, x2b, y2a, y2b
        w0, w1 = _fq2r_sqr(z2a, z2b)
        u1a, u1b = _fq2r_mul(x1a, x1b, w0, w1)
        w0, w1 = _fq2r_mul(w0, w1, z2a, z2b)
        s1a, s1b = _fq2r_mul(y1a, y1b, w0, w1)
        zza, zzb = z2a, z2b
    else:
        w0, w1 = _fq2r_sqr(z2a, z2b)
        u1a, u1b = _fq2r_mul(x1a, x1b, w0, w1)
        w0, w1 = _fq2r_mul(w0, w1, z2a, z2b)
        s1a, s1b = _fq2r_mul(y1a, y1b, w0, w1)
        w0, w1 = _fq2r_sqr(z1a, z1b)
        u2a, u2b = _fq2r_mul(x2a, x2b, w0, w1)
        w0, w1 = _fq2r_mul(w0, w1, z1a, z1b)
        s2a, s2b = _fq2r_mul(y2a, y2b, w0, w1)
        zza, zzb = _fq2r_mul(z1a, z1b, z2a, z2b)
    if u1a == u2a and u1b == u2b:
        if s1a != s2a or s1b != s2b:
            return _G2R_INF
        return _g2r_jac_double(p1)
    h0 = (u2a - u1a) % _Q
    h1 = (u2b - u1b) % _Q
    r0 = (s2a - s1a) % _Q
    r1 = (s2b - s1b) % _Q
    h20, h21 = _fq2r_sqr(h0, h1)
    h30, h31 = _fq2r_mul(h0, h1, h20, h21)
    t0, t1 = _fq2r_mul(u1a, u1b, h20, h21)
    nx0, nx1 = _fq2r_sqr(r0, r1)
    nx0 = (nx0 - h30 - 2 * t0) % _Q
    nx1 = (nx1 - h31 - 2 * t1) % _Q
    ny0, ny1 = _fq2r_mul(r0, r1, t0 - nx0, t1 - nx1)
    w0, w1 = _fq2r_mul(s1a, s1b, h30, h31)
    ny0 = (ny0 - w0) % _Q
    ny1 = (ny1 - w1) % _Q
    nz0, nz1 = _fq2r_mul(h0, h1, zza, zzb)
    return (nx0, nx1, ny0, ny1, nz0, nz1)


def _g2r_jac_mul(pt, scalar: int):
    acc = _G2R_INF
    addend = pt
    while scalar:
        if scalar & 1:
            acc = _g2r_jac_add(acc, addend)
        addend = _g2r_jac_double(addend)
        scalar >>= 1
    return acc


def g2_neg(point: G2Point) -> G2Point:
    if point is None:
        return None
    return (point[0], -point[1])


def g2_double(point: G2Point) -> G2Point:
    if point is None:
        return None
    x, y = point
    if y.is_zero():
        return None
    slope = (x.square() * 3) / (y * 2)
    nx = slope.square() - x * 2
    ny = slope * (x - nx) - y
    return (nx, ny)


def g2_add(p1: G2Point, p2: G2Point) -> G2Point:
    """Affine G2 addition over FQ2."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == y2:
            return g2_double(p1)
        return None
    slope = (y2 - y1) / (x2 - x1)
    nx = slope.square() - x1 - x2
    ny = slope * (x1 - nx) - y1
    return (nx, ny)


def g2_mul(point: G2Point, scalar: int) -> G2Point:
    """Scalar multiplication on G2 (raw-pair Jacobian double-and-add)."""
    scalar %= CURVE_ORDER
    if point is None or scalar == 0:
        return None
    return _g2r_from_jac(_g2r_jac_mul(_g2_to_raw(point), scalar))


def g2_mul_naive(point: G2Point, scalar: int) -> G2Point:
    """Affine double-and-add (one FQ2 inversion per step); reference only."""
    scalar %= CURVE_ORDER
    result: G2Point = None
    addend = point
    while scalar:
        if scalar & 1:
            result = g2_add(result, addend)
        addend = g2_double(addend)
        scalar >>= 1
    return result


# ----- Pippenger multi-scalar multiplication -------------------------------------


def _msm_window_size(n: int) -> int:
    if n < 4:
        return 2
    if n < 16:
        return 3
    if n < 64:
        return 5
    if n < 512:
        return 6
    if n < 4096:
        return 8
    return 10


#: Batch-affine G1 addition: the shared a = 0 core's, bound over FQ.
_g1_batch_add = BN254_G1.batch_add


def _g2_batch_add(left, right):
    """Batch-affine addition (:func:`_g1_batch_add`) on raw affine G2
    points ``(x0, x1, y0, y1)``.

    An FQ2 denominator d inverts as conj(d) / N(d) with the FQ norm
    N(d) = d0² + d1², so the batch inverts the norms alone.
    """
    q = _Q
    prefix = []
    push = prefix.append
    acc = 1
    for (a0, a1, b0, b1), (c0, c1, e0, e1) in zip(left, right):
        push(acc)
        d0 = c0 - a0
        d1 = c1 - a1
        if d0 or d1:
            acc = acc * (d0 * d0 + d1 * d1) % q
        elif b0 == e0 and b1 == e1 and (b0 or b1):
            acc = acc * 4 * (b0 * b0 + b1 * b1) % q
    inv = pow(acc, -1, q)
    i = len(prefix)
    out = [None] * i
    for (a0, a1, b0, b1), (c0, c1, e0, e1) in zip(reversed(left), reversed(right)):
        i -= 1
        d0 = c0 - a0
        d1 = c1 - a1
        if d0 or d1:
            n0 = e0 - b0
            n1 = e1 - b1
        elif b0 == e0 and b1 == e1 and (b0 or b1):
            d0 = 2 * b0
            d1 = 2 * b1
            n0 = 3 * (a0 + a1) * (a0 - a1)
            n1 = 6 * a0 * a1
        else:
            continue
        n_inv = inv * prefix[i] % q
        inv = inv * (d0 * d0 + d1 * d1) % q
        # λ = n·conj(d) / N(d)
        t0 = n0 * d0
        t1 = n1 * d1
        l0 = (t0 + t1) % q * n_inv % q
        l1 = ((n0 + n1) * (d0 - d1) - t0 + t1) % q * n_inv % q
        x0 = ((l0 + l1) * (l0 - l1) - a0 - c0) % q
        x1 = (2 * l0 * l1 - a1 - c1) % q
        u0 = a0 - x0
        u1 = a1 - x1
        t0 = l0 * u0
        t1 = l1 * u1
        out[i] = (
            x0,
            x1,
            (t0 - t1 - b0) % q,
            ((l0 + l1) * (u0 + u1) - t0 - t1 - b1) % q,
        )
    return out


def _bucket_sums(buckets, batch_add):
    """Each bucket's sum (None when empty), by pairwise rounds.

    Every round pairs up the points of all buckets holding two or more
    and adds the pairs as one batch, so a pass costs one inversion per
    round, ⌈log₂(largest bucket)⌉ rounds in all.
    """
    busy = [pts for pts in buckets if len(pts) > 1]
    while busy:
        left = []
        right = []
        for pts in busy:
            k = len(pts) >> 1
            left += pts[:k]
            right += pts[k : 2 * k]
        sums = batch_add(left, right)
        pos = 0
        for pts in busy:
            k = len(pts) >> 1
            merged = [p for p in sums[pos : pos + k] if p is not None]
            if len(pts) & 1:
                merged.append(pts[-1])
            pts[:] = merged
            pos += k
        busy = [pts for pts in busy if len(pts) > 1]
    return [pts[0] if pts else None for pts in buckets]


#: Points one bucketing pass holds: an MSM of this many pairs or more
#: buckets one window per pass, a smaller one several windows, so that
#: its rounds still share each inversion among many additions.
_PASS_POINTS = 256


def _pippenger_affine(pairs, neg, batch_add, to_jac, jac_add, jac_double, zero):
    """Bucket-window MSM over affine pairs [(point, scalar), ...].

    Scalars must already be reduced mod r (or GLV-decomposed) and
    nonzero; the window count follows the widest one present.  Each
    c-bit window digit is signed, in [−2^(c−1), 2^(c−1)]: a digit above
    2^(c−1) becomes its negative and carries one into the next window,
    so a window needs only 2^(c−1) buckets and a negative digit drops
    the negated point in.  One extra window takes the top carry.

    Buckets collapse by :func:`_bucket_sums`, one window per pass once
    the MSM has :data:`_PASS_POINTS` pairs.  Σ j·B_j then runs as
    running sums for all windows in lock-step, one batch of additions
    per step, and the window sums combine through c Jacobian doublings
    each.  Returns a Jacobian point.
    """
    points = [p for p, _ in pairs]
    negated = [neg(p) for p in points]
    rest = [s for _, s in pairs]
    c = _msm_window_size(len(pairs))
    half = 1 << (c - 1)
    mask = (1 << c) - 1
    num_windows = max(s.bit_length() for s in rest) // c + 1
    per_pass = max(1, _PASS_POINTS // len(pairs))
    sums = []  # window w's bucket j at w * (half + 1) + j
    for first in range(0, num_windows, per_pass):
        buckets = []
        for _ in range(first, min(first + per_pass, num_windows)):
            window = [[] for _ in range(half + 1)]
            for i, r in enumerate(rest):
                d = r & mask
                r >>= c
                if d > half:
                    window[mask + 1 - d].append(negated[i])
                    r += 1
                elif d:
                    window[d].append(points[i])
                rest[i] = r
            buckets += window
        sums += _bucket_sums(buckets, batch_add)

    # Per window, for j = half .. 1: acc += running; running += B_j, and
    # a closing acc += running (j = 0) leaves acc = Σ j·B_j.
    running = [None] * num_windows
    acc = [None] * num_windows
    for j in range(half, -1, -1):
        left = []
        right = []
        slots = []
        for w in range(num_windows):
            r = running[w]
            if r is not None:
                if acc[w] is None:
                    acc[w] = r
                else:
                    left.append(acc[w])
                    right.append(r)
                    slots.append((acc, w))
            b = sums[w * (half + 1) + j] if j else None
            if b is not None:
                if r is None:
                    running[w] = b
                else:
                    left.append(r)
                    right.append(b)
                    slots.append((running, w))
        if left:
            for (target, w), s in zip(slots, batch_add(left, right)):
                target[w] = s

    total = zero
    for s in reversed(acc):
        for _ in range(c):
            total = jac_double(total)
        if s is not None:
            total = jac_add(total, to_jac(s))
    return total


def _msm_pairs(points, scalars, to_raw):
    points = list(points)
    scalars = list(scalars)
    if len(points) != len(scalars):
        raise ValueError(
            f"MSM length mismatch: {len(points)} points vs {len(scalars)} scalars"
        )
    pairs = []
    for pt, s in zip(points, scalars):
        s %= CURVE_ORDER
        if pt is not None and s:
            pairs.append((to_raw(pt), s))
    return pairs


def _glv_expand_pairs(pairs):
    """Split each (affine point, scalar) into two half-width pairs.

    Signs fold into point negation so Pippenger only ever sees
    non-negative scalars; k₁ + k₂λ ≡ k (mod r) holds exactly, so the
    expansion never changes the MSM value.
    """
    params, beta = BN254_G1.glv()
    out = []
    for (x, y), s in pairs:
        k1, k2 = params.decompose(s)
        if k1:
            out.append(((x, y if k1 > 0 else -y % _Q), abs(k1)))
        if k2:
            out.append(((x * beta % _Q, y if k2 > 0 else -y % _Q), abs(k2)))
    return out


def g1_msm(points, scalars) -> G1Point:
    """Multi-scalar multiplication Σ s_i·P_i on G1 (Pippenger).

    Raises :class:`ValueError` when the two sequences differ in length —
    a silent ``zip`` truncation here would drop terms and produce a
    wrong (e.g. unprovable or unsound) group element.
    """
    if obs.TRACER.enabled:
        obs.count("snark.msm.g1_calls")
    pairs = _msm_pairs(points, scalars, lambda p: p)
    if not pairs:
        return None
    if len(pairs) == 1:
        return g1_mul(*pairs[0])
    params, _ = BN254_G1.glv()
    if max(s.bit_length() for _, s in pairs) > params.max_component_bits():
        pairs = _glv_expand_pairs(pairs)
    total = _pippenger_affine(
        pairs,
        g1_neg,
        _g1_batch_add,
        lambda p: p + (1,),
        BN254_G1.jac_add,
        BN254_G1.jac_double,
        (0, 1, 0),
    )
    return BN254_G1.from_jac(total)


def g1_msm_naive(points, scalars) -> G1Point:
    """Per-point double-and-add accumulation; the MSM reference oracle."""
    if obs.TRACER.enabled:
        obs.count("snark.msm.g1_naive_calls")
    points = list(points)
    scalars = list(scalars)
    if len(points) != len(scalars):
        raise ValueError(
            f"MSM length mismatch: {len(points)} points vs {len(scalars)} scalars"
        )
    acc: G1Point = None
    for point, scalar in zip(points, scalars):
        scalar %= CURVE_ORDER
        if point is not None and scalar:
            acc = g1_add(acc, BN254_G1.double_and_add(point, scalar))
    return acc


def g2_msm(points, scalars) -> G2Point:
    """Multi-scalar multiplication Σ s_i·P_i on G2 (Pippenger)."""
    if obs.TRACER.enabled:
        obs.count("snark.msm.g2_calls")
    pairs = _msm_pairs(points, scalars, _g2_affine)
    if not pairs:
        return None
    if len(pairs) == 1:
        pt, s = pairs[0]
        return _g2r_from_jac(_g2r_jac_mul(_g2_affine_to_jac(pt), s))
    total = _pippenger_affine(
        pairs,
        _g2_affine_neg,
        _g2_batch_add,
        _g2_affine_to_jac,
        _g2r_jac_add,
        _g2r_jac_double,
        _G2R_INF,
    )
    return _g2r_from_jac(total)


def g2_msm_naive(points, scalars) -> G2Point:
    """Per-point scalar multiplication accumulation; reference oracle."""
    if obs.TRACER.enabled:
        obs.count("snark.msm.g2_naive_calls")
    points = list(points)
    scalars = list(scalars)
    if len(points) != len(scalars):
        raise ValueError(
            f"MSM length mismatch: {len(points)} points vs {len(scalars)} scalars"
        )
    acc: G2Point = None
    for point, scalar in zip(points, scalars):
        acc = g2_add(acc, g2_mul(point, scalar))
    return acc


# ----- Fixed-base windowed precomputation ----------------------------------------


def g1_fixed_base(point: G1Point, window: int = 8) -> FixedBaseTable:
    """Build a fixed-base table for a G1 point."""
    return BN254_G1.fixed_base(point, window)


def g2_fixed_base(point: G2Point, window: int = 7) -> FixedBaseTable:
    """Build a fixed-base table for a G2 point.

    Its rows are raw affine ``(x0, x1, y0, y1)`` tuples added by
    :func:`_g2_batch_add`; results become FQ2 pairs once, at output.
    """
    return FixedBaseTable(
        _g2_affine(point),
        window,
        CURVE_ORDER,
        batch_add=_g2_batch_add,
        neg=_g2_affine_neg,
        to_jac=_g2_affine_to_jac,
        jac_add=_g2r_jac_add,
        from_jac=_g2r_from_jac,
        from_affine=_g2_from_affine,
    )


_G1_GENERATOR_TABLE: Optional[FixedBaseTable] = None
_G2_GENERATOR_TABLE: Optional[FixedBaseTable] = None


def g1_generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for the G1 generator (lazy)."""
    global _G1_GENERATOR_TABLE
    if _G1_GENERATOR_TABLE is None:
        _G1_GENERATOR_TABLE = g1_fixed_base(G1)
    return _G1_GENERATOR_TABLE


def g2_generator_table() -> FixedBaseTable:
    """The process-wide fixed-base table for the G2 generator (lazy)."""
    global _G2_GENERATOR_TABLE
    if _G2_GENERATOR_TABLE is None:
        _G2_GENERATOR_TABLE = g2_fixed_base(G2)
    return _G2_GENERATOR_TABLE


# ----- serialization -------------------------------------------------------------


def g1_to_bytes(point: G1Point) -> bytes:
    """Serialize a G1 point (64 bytes; infinity encodes as zeros)."""
    if point is None:
        return b"\x00" * 64
    return point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big")


def g1_from_bytes(data: bytes) -> G1Point:
    """Deserialize a G1 point from its canonical 64-byte encoding.

    Coordinate limbs ≥ q are rejected (see :func:`fq_from_bytes`):
    reducing them silently would give every point multiple distinct
    wire encodings, i.e. proof/vk bytes would be malleable.
    """
    if len(data) != 64:
        raise ValueError("G1 encoding must be 64 bytes")
    x = fq_from_bytes(data[:32])
    y = fq_from_bytes(data[32:])
    if x == 0 and y == 0:
        return None
    point = (x, y)
    if not is_on_g1(point):
        raise ValueError("bytes do not encode a G1 point")
    return point


def g2_to_bytes(point: G2Point) -> bytes:
    """Serialize a G2 point (128 bytes; infinity encodes as zeros)."""
    if point is None:
        return b"\x00" * 128
    return point[0].to_bytes() + point[1].to_bytes()


def g2_from_bytes(data: bytes) -> G2Point:
    """Deserialize and fully validate a G2 point.

    Beyond the curve equation this enforces the r-torsion subgroup
    check: the twist's cofactor is huge, and accepting an off-subgroup
    proof element (e.g. Groth16's B) breaks the pairing equation's
    soundness assumptions.
    """
    if len(data) != 128:
        raise ValueError("G2 encoding must be 128 bytes")
    x = FQ2.from_bytes(data[:64])
    y = FQ2.from_bytes(data[64:])
    if x.is_zero() and y.is_zero():
        return None
    point = (x, y)
    if not is_on_g2(point):
        raise ValueError("bytes do not encode a G2 point")
    if not is_in_g2_subgroup(point):
        raise ValueError("G2 point is not in the r-order subgroup")
    return point
