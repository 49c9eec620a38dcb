"""Differential sweep: optimized Groth16/BN128 paths vs naive references.

~120 seeded cases asserting the optimized implementations (Pippenger
MSMs, prepared-pairing multi-pairing, random-linear-combination
``batch_verify``, batch-affine fixed-base tables) agree bit-for-bit with
the retained naive reference paths — including on corrupted proofs,
where BOTH must reject — plus Groth16 keys pinned by digest.

All randomness comes from seeded :class:`random.Random` instances, so a
disagreement is reproducible from the failing case index alone.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.anonauth import AnonymousAuthScheme, UserKeyPair, setup
from repro.anonauth.scheme import PREFIX_LENGTH
from repro.crypto import ecdsa
from repro.crypto.glv import GLVParams
from repro.crypto.weierstrass import MUL_MANY_CHUNK
from repro.zksnark import (
    CircuitDefinition,
    ConstraintSystem,
    Groth16Backend,
    Proof,
)
from repro.zksnark.bn128.curve import (
    BN254_G1,
    G1,
    G2,
    _g1_batch_add,
    _g2_affine,
    _g2_batch_add,
    _g2_from_affine,
    _msm_window_size,
    g1_add,
    g1_fixed_base,
    g1_generator_table,
    g1_msm,
    g1_msm_naive,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_generator_table,
    g2_msm,
    g2_msm_naive,
    g2_mul,
    g2_mul_naive,
    g2_neg,
    g2_to_bytes,
)
from repro.zksnark.bn128.fq import CURVE_ORDER
from repro.zksnark.bn128.fq12 import FQ12
from repro.zksnark.bn128.pairing import (
    multi_pairing,
    multi_pairing_naive,
    pairing,
    pairing_naive,
    prepare_g2,
)


class ProductCircuit(CircuitDefinition):
    """a * b == out with two public inputs (out, a)."""

    name = "diff-product"

    def example_instance(self):
        return {"out": 6, "a": 2, "b": 3}

    def synthesize(self, cs: ConstraintSystem, instance) -> None:
        out = cs.alloc_public(instance["out"])
        a = cs.alloc_public(instance["a"])
        b = cs.alloc(instance["b"])
        cs.enforce(a, b, out)


@pytest.fixture(scope="module")
def optimized() -> Groth16Backend:
    return Groth16Backend(optimized=True)


@pytest.fixture(scope="module")
def naive() -> Groth16Backend:
    return Groth16Backend(optimized=False)


@pytest.fixture(scope="module")
def keys(optimized):
    return optimized.setup(ProductCircuit(), seed=b"differential-keys")


def _instance(rng: random.Random) -> dict:
    a = rng.randrange(1, CURVE_ORDER)
    b = rng.randrange(1, CURVE_ORDER)
    return {"a": a, "b": b, "out": a * b % CURVE_ORDER}


# ----- MSM: Pippenger vs double-and-add (60 cases) -------------------------------


def _g1_points(rng: random.Random, count: int):
    return [g1_mul(G1, rng.randrange(1, 2**64)) for _ in range(count)]


@pytest.mark.parametrize("case", range(30))
def test_g1_msm_matches_naive(case: int) -> None:
    rng = random.Random(1000 + case)
    size = rng.randrange(0, 12)
    points = _g1_points(rng, size)
    scalars = [rng.randrange(0, CURVE_ORDER) for _ in range(size)]
    if case % 5 == 0 and size:
        scalars[rng.randrange(size)] = 0  # exercise zero-scalar skipping
    if case % 7 == 0 and size:
        points[rng.randrange(size)] = None  # and identity points
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


@pytest.mark.parametrize("case", range(15))
def test_g2_msm_matches_naive(case: int) -> None:
    rng = random.Random(2000 + case)
    size = rng.randrange(0, 6)
    # 64-bit scalars keep the naive per-point G2 ladder affordable.
    points = [g2_mul(G2, rng.randrange(1, 2**32)) for _ in range(size)]
    scalars = [rng.randrange(0, 2**64) for _ in range(size)]
    assert g2_msm(points, scalars) == g2_msm_naive(points, scalars)


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_msm_length_mismatch_raises_on_both_paths(group: str) -> None:
    point = G1 if group == "g1" else G2
    fast = g1_msm if group == "g1" else g2_msm
    slow = g1_msm_naive if group == "g1" else g2_msm_naive
    for fn in (fast, slow):
        with pytest.raises(ValueError):
            fn([point], [1, 2])


# ----- batch-affine buckets: the branches a small random sweep misses (23 cases) --
#
# Buckets collapse by pairwise rounds that add each round's pairs as one
# batch: the first round pairs a bucket's i-th point with its (i + k)-th,
# k half its size.  ``_mirrored`` repeats its input, so whenever a digit
# puts both copies of a term in one bucket, round one adds a point to
# itself (a doubling) or to its negation (infinity).


def _mirrored(points, scalars, neg, negate_odd):
    second = [neg(p) if negate_odd and i % 2 else p for i, p in enumerate(points)]
    return points + second, scalars + scalars


@pytest.mark.parametrize("width", ["narrow", "full"])
@pytest.mark.parametrize("negate_odd", [False, True], ids=["doubling", "doubling+inf"])
def test_g1_msm_doubling_and_cancellation_inside_a_batch(width, negate_odd) -> None:
    rng = random.Random(f"g1-mirror-{width}-{negate_odd}")
    bound = 2**64 if width == "narrow" else CURVE_ORDER
    scalars = [rng.randrange(1, bound) for _ in range(6)]
    points, scalars = _mirrored(_g1_points(rng, 6), scalars, g1_neg, negate_odd)
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


@pytest.mark.parametrize("width", ["narrow", "full"])
def test_g1_msm_of_points_and_negations_is_infinity(width) -> None:
    rng = random.Random(f"g1-cancel-{width}")
    bound = 2**64 if width == "narrow" else CURVE_ORDER
    points = _g1_points(rng, 3)
    scalars = [rng.randrange(1, bound) for _ in range(3)]
    points += [g1_neg(p) for p in points]
    scalars += scalars
    assert g1_msm_naive(points, scalars) is None
    assert g1_msm(points, scalars) is None
    # One surviving term: every other bucket empties on the way.
    points.append(points[0])
    scalars.append(7)
    assert g1_msm(points, scalars) == g1_mul(points[0], 7)


def _all_high(bits: int) -> int:
    return (1 << bits) - 1


@pytest.mark.parametrize("size", [2, 3, 5, 20])
def test_g1_msm_carries_out_of_the_top_window(size: int) -> None:
    """Scalars whose digits all exceed half a window carry at every
    window, the top one included; r − 1 goes through the GLV split."""
    rng = random.Random(15000 + size)
    points = _g1_points(rng, size)
    widths = [_G1_GLV_BITS, 64, 63, 62, 30, 5]
    scalars = [_all_high(widths[i % len(widths)]) for i in range(size)]
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)
    scalars[0] = CURVE_ORDER - 1
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


@pytest.mark.parametrize("size", [2, 3, 5])
def test_g2_msm_carries_out_of_the_top_window(size: int) -> None:
    rng = random.Random(15100 + size)
    points = [g2_mul(G2, rng.randrange(1, 2**32)) for _ in range(size)]
    scalars = [CURVE_ORDER - 1] + [_all_high(64 - i) for i in range(size - 1)]
    assert g2_msm(points, scalars) == g2_msm_naive(points, scalars)


def _g1_point_walk(count: int):
    """``count`` distinct points at one affine addition each."""
    step = g1_mul(G1, 0x5EED)
    points = [step]
    for _ in range(count - 1):
        points.append(g1_add(points[-1], step))
    return points


@pytest.mark.parametrize("threshold", [4, 16, 64, 512, 4096])
def test_g1_msm_window_size_thresholds(threshold: int) -> None:
    """Both sides of every window-size switch; 16-bit scalars stay below
    the GLV bound, so the pair count is the point count."""
    assert _msm_window_size(threshold - 1) != _msm_window_size(threshold)
    rng = random.Random(16000 + threshold)
    walk = _g1_point_walk(threshold)
    for size in (threshold - 1, threshold):
        points = walk[:size]
        scalars = [rng.randrange(1, 2**16) for _ in range(size)]
        assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


def test_g1_msm_prover_sized() -> None:
    """447 full-width terms (the auth circuit's wire count), with a
    repeated term and a negated one among them."""
    rng = random.Random(17000)
    points = _g1_point_walk(447)
    scalars = [rng.randrange(1, CURVE_ORDER) for _ in range(447)]
    points[1], scalars[1] = points[0], scalars[0]
    points[3], scalars[3] = g1_neg(points[2]), scalars[2]
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


@pytest.mark.parametrize("low_digit", [7, 31])
def test_g2_msm_multi_round_reduction_with_duplicates_and_negations(low_digit) -> None:
    """24 terms whose scalars share their lowest 5-bit digit (the window
    for 24 pairs), so one bucket takes all of them through five rounds;
    the mirrored half doubles or cancels in round one."""
    assert _msm_window_size(24) == 5
    rng = random.Random(18000 + low_digit)
    base = [g2_mul(G2, rng.randrange(1, 2**32)) for _ in range(12)]
    base[5] = base[4]
    scalars = [(rng.randrange(1, 2**40) << 5) | low_digit for _ in range(12)]
    scalars[5] = scalars[4]
    points, scalars = _mirrored(base, scalars, g2_neg, True)
    assert g2_msm(points, scalars) == g2_msm_naive(points, scalars)


@pytest.mark.parametrize("group", ["g1", "g2", "secp256k1"])
def test_msm_batch_add_matches_affine_add(group: str) -> None:
    """One batch mixing general additions, doublings and P + (−P).

    secp256k1's batch addition builds and walks its fixed-base table.
    """
    rng = random.Random(f"batch-add-{group}")
    if group == "g1":
        mul, neg, add, batch = g1_mul, g1_neg, g1_add, _g1_batch_add
        gen, raw, unraw = G1, (lambda p: p), (lambda p: p)
    elif group == "secp256k1":
        curve = ecdsa.SECP256K1
        mul, neg, add, batch = curve.double_and_add, curve.neg, curve.add, curve.batch_add
        gen, raw, unraw = curve.generator, (lambda p: p), (lambda p: p)
    else:
        mul, neg, add, batch = g2_mul, g2_neg, g2_add, _g2_batch_add
        gen, raw, unraw = G2, _g2_affine, _g2_from_affine
    p = [mul(gen, rng.randrange(1, 2**32)) for _ in range(4)]
    pairs = [
        (p[0], p[3]),
        (p[1], p[1]),
        (p[2], neg(p[2])),
        (p[3], p[1]),
        (p[3], neg(p[3])),
    ]
    expected = [add(a, b) for a, b in pairs]
    assert expected[2] is None and expected[4] is None
    got = batch([raw(a) for a, _ in pairs], [raw(b) for _, b in pairs])
    assert [None if s is None else unraw(s) for s in got] == expected


# ----- pairing: prepared/decomposed vs all-FQ12 reference (10 cases) --------------


@pytest.mark.parametrize("case", range(6))
def test_pairing_matches_naive(case: int) -> None:
    rng = random.Random(3000 + case)
    p = g1_mul(G1, rng.randrange(1, 2**64))
    q = g2_mul(G2, rng.randrange(1, 2**32))
    assert pairing(q, p) == pairing_naive(q, p)


def _random_pairs(seed: int, count: int):
    rng = random.Random(seed)
    return [
        (
            g2_mul(G2, rng.randrange(1, 2**32)),
            g1_mul(G1, rng.randrange(1, 2**64)),
        )
        for _ in range(count)
    ]


def _multi_pairing_case(case: str):
    """(raw pairs for both paths, indices the fast path gets prepared)."""
    if case.isdigit():
        return _random_pairs(4000 + int(case), int(case) + 2), ()
    pairs = _random_pairs(4200, 3)
    if case == "single":
        return pairs[:1], ()
    if case == "mixed-prepared":
        return pairs, (0, 2)
    if case == "none-g1":
        return [pairs[0], (pairs[1][0], None), pairs[2]], (1, 2)
    if case == "none-g2":
        return [pairs[0], (None, pairs[1][1]), pairs[2]], (0, 1)
    return [], ()


@pytest.mark.parametrize(
    "case", ["0", "1", "2", "single", "mixed-prepared", "none-g1", "none-g2", "empty"]
)
def test_multi_pairing_matches_naive(case: str) -> None:
    """The shared Miller loop on raw pairs, a single pair, G2Prepared
    mixed with raw G2 points, a point at infinity on either side, and
    the empty product."""
    pairs, prepared = _multi_pairing_case(case)
    fast_pairs = [
        (prepare_g2(q) if i in prepared else q, p) for i, (q, p) in enumerate(pairs)
    ]
    expected = multi_pairing_naive(pairs)
    assert multi_pairing(fast_pairs) == expected
    if case == "empty":
        assert expected == FQ12.one()


def test_multi_pairing_accepts_prepared_points() -> None:
    rng = random.Random(4100)
    q = g2_mul(G2, rng.randrange(1, 2**32))
    p = g1_mul(G1, rng.randrange(1, 2**64))
    assert multi_pairing([(prepare_g2(q), p)]) == multi_pairing_naive([(q, p)])


# ----- full verify: optimized vs naive verifier (24 cases) ------------------------


@pytest.mark.parametrize("case", range(8))
def test_valid_proofs_verify_on_both_paths(optimized, naive, keys, case: int) -> None:
    rng = random.Random(5000 + case)
    instance = _instance(rng)
    proof = optimized.prove(keys.proving_key, ProductCircuit(), instance)
    statement = [instance["out"], instance["a"]]
    assert optimized.verify(keys.verifying_key, statement, proof) is True
    assert naive.verify(keys.verifying_key, statement, proof) is True


@pytest.mark.parametrize("case", range(8))
def test_corrupted_proofs_rejected_on_both_paths(
    optimized, naive, keys, case: int
) -> None:
    rng = random.Random(6000 + case)
    instance = _instance(rng)
    proof = optimized.prove(keys.proving_key, ProductCircuit(), instance)
    statement = [instance["out"], instance["a"]]
    corrupted = bytearray(proof.payload)
    corrupted[rng.randrange(len(corrupted))] ^= 1 << rng.randrange(8)
    bad = Proof(backend=proof.backend, payload=bytes(corrupted))
    # A flipped bit either falls off the curve (decode failure) or
    # yields a valid encoding of the wrong element; both paths must
    # reject either way, and must AGREE.
    assert optimized.verify(keys.verifying_key, statement, bad) is False
    assert naive.verify(keys.verifying_key, statement, bad) is False


@pytest.mark.parametrize("case", range(4))
def test_wrong_statement_rejected_on_both_paths(
    optimized, naive, keys, case: int
) -> None:
    rng = random.Random(7000 + case)
    instance = _instance(rng)
    proof = optimized.prove(keys.proving_key, ProductCircuit(), instance)
    wrong = [
        (instance["out"] + rng.randrange(1, CURVE_ORDER)) % CURVE_ORDER,
        instance["a"],
    ]
    assert optimized.verify(keys.verifying_key, wrong, proof) is False
    assert naive.verify(keys.verifying_key, wrong, proof) is False


@pytest.mark.parametrize("case", range(2))
def test_naive_prover_output_verifies_on_optimized_path(
    optimized, naive, keys, case: int
) -> None:
    rng = random.Random(8000 + case)
    instance = _instance(rng)
    proof = naive.prove(keys.proving_key, ProductCircuit(), instance)
    statement = [instance["out"], instance["a"]]
    assert optimized.verify(keys.verifying_key, statement, proof) is True


# ----- batch_verify vs a verify loop (3 cases) ------------------------------------


def test_batch_verify_agrees_with_loop_on_valid_batch(optimized, keys) -> None:
    rng = random.Random(9000)
    instances = [_instance(rng) for _ in range(4)]
    statements = [[inst["out"], inst["a"]] for inst in instances]
    proofs = [
        optimized.prove(keys.proving_key, ProductCircuit(), inst)
        for inst in instances
    ]
    loop = all(
        optimized.verify(keys.verifying_key, stmt, proof)
        for stmt, proof in zip(statements, proofs)
    )
    assert optimized.batch_verify(keys.verifying_key, statements, proofs) is loop
    assert loop is True


def test_batch_verify_agrees_with_loop_on_poisoned_batch(optimized, keys) -> None:
    rng = random.Random(9100)
    instances = [_instance(rng) for _ in range(3)]
    statements = [[inst["out"], inst["a"]] for inst in instances]
    proofs = [
        optimized.prove(keys.proving_key, ProductCircuit(), inst)
        for inst in instances
    ]
    poisoned = bytearray(proofs[1].payload)
    poisoned[17] ^= 0x40
    proofs[1] = Proof(backend=proofs[1].backend, payload=bytes(poisoned))
    loop = all(
        optimized.verify(keys.verifying_key, stmt, proof)
        for stmt, proof in zip(statements, proofs)
    )
    assert loop is False
    assert optimized.batch_verify(keys.verifying_key, statements, proofs) is False


def test_batch_verify_rejects_one_wrong_statement(optimized, keys) -> None:
    rng = random.Random(9200)
    instances = [_instance(rng) for _ in range(3)]
    statements = [[inst["out"], inst["a"]] for inst in instances]
    proofs = [
        optimized.prove(keys.proving_key, ProductCircuit(), inst)
        for inst in instances
    ]
    statements[2] = [(statements[2][0] + 1) % CURVE_ORDER, statements[2][1]]
    assert optimized.batch_verify(keys.verifying_key, statements, proofs) is False


# ----- G1 fast path vs the naive oracle (6 cases) --------------------------------


@pytest.mark.parametrize("case", range(6))
def test_g1_paths_match_naive(case: int) -> None:
    rng = random.Random(11000 + case)
    size = rng.randrange(1, 10)
    points = _g1_points(rng, size)
    # Full-width scalars so the GLV split actually engages.
    scalars = [rng.randrange(0, CURVE_ORDER) for _ in range(size)]
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)
    k = rng.randrange(1, CURVE_ORDER)
    assert g1_mul(points[0], k) == g1_msm_naive([points[0]], [k])


# ----- the GLV switch point and the wNAF ladder (BN254 G1 and secp256k1) ----------
#
# Both curves' mul, and g1_msm, take the GLV split only for scalars
# wider than the GLV component bound; the first cases sit exactly on
# it, one bit over, at n − 1 and at λ.  The rest build k = k₁ + k₂·λ
# (mod n) from chosen components, which ``decompose`` must hand back
# to the ladder: all four sign combinations (each component's sign is
# folded into its own table), runs of ones 2^j − 1 (wNAF digit −1,
# then a carry through every position up to a final +1), and the
# extreme digits: 15 is the digit 15, 17 the digit −15 and a carry.
# Every case multiplies points other than the generator.

_G1_GLV_BITS = GLVParams.for_order(CURVE_ORDER).max_component_bits()

_CURVES = {"bn254": BN254_G1, "secp256k1": ecdsa.SECP256K1}

_SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

#: 2^124 − 1 is the widest run of ones that ``decompose`` returns as
#: either component on both curves: 2^127 − 1 lies outside BN254's
#: rounding region, whose basis vectors are about 2^126.8 long.
_ONES_RUNS = [2**j - 1 for j in (5, 64, 124)]


def _scalars_of_width(rng: random.Random, bits: int) -> list:
    low, high = 1 << (bits - 1), (1 << bits) - 1
    return [low, high, rng.randrange(low, high)]


def _glv_components(kind: str, rng: random.Random) -> list:
    if kind == "signs":
        a, b = rng.getrandbits(120), rng.getrandbits(120)
        return [(s1 * a, s2 * b) for s1, s2 in _SIGNS]
    if kind == "ones-runs":
        return [
            (s1 * r1, s2 * r2)
            for r1 in _ONES_RUNS
            for r2 in _ONES_RUNS
            for s1, s2 in _SIGNS
        ]
    return [(15, -17), (-17, 15), (1, -1), ((15 << 64) + 17, -((17 << 100) + 15))]


def _from_components(params: GLVParams, pairs: list) -> list:
    """k = k₁ + k₂·λ (mod n) for each chosen (k₁, k₂)."""
    ks = [(k1 + k2 * params.lam) % params.order for k1, k2 in pairs]
    assert [params.decompose(k) for k in ks] == pairs
    return ks


@pytest.mark.parametrize(
    "kind", ["bound", "bound+1", "order-1", "lambda", "signs", "ones-runs", "digits"]
)
@pytest.mark.parametrize("name", sorted(_CURVES))
def test_glv_switch_point_matches_naive(name: str, kind: str) -> None:
    curve = _CURVES[name]
    params, _ = curve.glv()
    rng = random.Random(f"glv-switch-{name}-{kind}")
    if kind == "bound":
        ks = _scalars_of_width(rng, params.max_component_bits())
    elif kind == "bound+1":
        ks = _scalars_of_width(rng, params.max_component_bits() + 1)
    elif kind == "order-1":
        ks = [curve.order - 1]
    elif kind == "lambda":
        ks = [params.lam]
    else:
        ks = _from_components(params, _glv_components(kind, rng))
    points = [
        curve.double_and_add(curve.generator, rng.randrange(1, 2**64))
        for _ in range(3)
    ]
    for k in ks:
        assert curve.mul(points[0], k) == curve.double_and_add(points[0], k)
        if curve is BN254_G1:
            # The widest scalar decides the MSM's path; the others stay narrower.
            scalars = [k, rng.randrange(1, k), rng.randrange(1, 2**64)]
            assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


# ----- fixed-base tables: mul_many and mul vs the reference ladders ---------------
#
# Five tables: secp256k1's generator at w = 4 and at w = 8 (the
# production table behind ``ecdsa.point_mul``), whose windows divide
# the order's 256 bits, so the top window can carry into the table's
# extra row; BN254's G1 generator at w = 8; another G1 point at w = 5;
# and G2's generator at w = 7.  Every batch also runs through the
# one-scalar ``mul``, which walks the same signed digits.

_FIXED_BASE_TABLES = ["secp256k1-w4", "secp256k1-w8", "g1-w8", "g1-other-w5", "g2-w7"]


@functools.lru_cache(maxsize=None)
def _fixed_base_subject(name: str):
    """The table and its reference multiplication ``k ↦ k·B``."""
    if name.startswith("secp256k1"):
        curve = ecdsa.SECP256K1
        if name == "secp256k1-w8":
            table = ecdsa.generator_table()
        else:
            table = curve.fixed_base(curve.generator, window=4)
        return table, lambda k: curve.double_and_add(curve.generator, k % curve.order)
    if name == "g1-w8":
        return g1_generator_table(), lambda k: BN254_G1.double_and_add(G1, k % CURVE_ORDER)
    if name == "g1-other-w5":
        base = g1_mul(G1, 424242)
        table = g1_fixed_base(base, window=5)
        return table, lambda k: BN254_G1.double_and_add(base, k % CURVE_ORDER)
    return g2_generator_table(), lambda k: g2_mul_naive(G2, k)


def _assert_fixed_base_batch(name: str, scalars: list) -> list:
    table, reference = _fixed_base_subject(name)
    expected = [reference(k) for k in scalars]
    assert table.mul_many(scalars) == expected
    assert [table.mul(k) for k in scalars] == expected
    return expected


@pytest.mark.parametrize("name", _FIXED_BASE_TABLES)
def test_fixed_base_mul_many_edge_scalars(name: str) -> None:
    """0, 1, order − 1, order and beyond, a repeat, and k beside order − k."""
    table, _ = _fixed_base_subject(name)
    order = table.order
    rng = random.Random(f"fixed-base-edges-{name}")
    k = rng.randrange(2, order - 1)
    scalars = [0, 1, order - 1, order, 2 * order + 5, k, k, order - k, 7]
    expected = _assert_fixed_base_batch(name, scalars)
    assert expected[0] is None and expected[3] is None
    assert expected[2] is not None and expected[2][0] == expected[1][0]
    assert table.mul_many([]) == []
    assert table.mul_many([order, 0]) == [None, None]


def _high_digit_scalars(rng: random.Random, window: int, order: int, count: int):
    """Scalars below ``order`` whose w-bit digits all exceed 2^(w−1), one
    per full window: every window's digit goes negative and carries into
    the next, and the top one into the row above the full windows."""
    half = 1 << (window - 1)
    scalars = []
    while len(scalars) < count:
        s = 0
        for _ in range(order.bit_length() // window):
            s = (s << window) | rng.randrange(half + 1, 1 << window)
        if s < order:
            scalars.append(s)
    return scalars


@pytest.mark.parametrize("name", _FIXED_BASE_TABLES)
def test_fixed_base_mul_many_carries_out_of_every_window(name: str) -> None:
    table, _ = _fixed_base_subject(name)
    rng = random.Random(f"fixed-base-high-{name}")
    ones = (1 << (table.window * (table.order.bit_length() // table.window))) - 1
    scalars = _high_digit_scalars(rng, table.window, table.order, 3)
    if ones < table.order:
        scalars.append(ones)
    _assert_fixed_base_batch(name, scalars)


@pytest.mark.parametrize("name", _FIXED_BASE_TABLES)
@settings(max_examples=15, deadline=None)
@given(scalars=st.lists(st.integers(min_value=0, max_value=2**256 - 1), max_size=4))
@example(scalars=[])
def test_fixed_base_mul_many_matches_reference_on_drawn_batches(name, scalars) -> None:
    _assert_fixed_base_batch(name, scalars)


def test_fixed_base_mul_many_runs_past_one_chunk() -> None:
    """1,030 scalars span two ``MUL_MANY_CHUNK`` chunks and still line
    up with ``mul`` one for one, Nones at the chunk edge included."""
    table, _ = _fixed_base_subject("secp256k1-w4")
    rng = random.Random("fixed-base-chunks")
    scalars = [rng.randrange(1, table.order) for _ in range(1_030)]
    assert len(scalars) > MUL_MANY_CHUNK
    scalars[MUL_MANY_CHUNK - 1] = 0
    scalars[MUL_MANY_CHUNK] = table.order
    expected = [table.mul(k) for k in scalars]
    assert table.mul_many(scalars) == expected
    assert expected[MUL_MANY_CHUNK - 1] is None and expected[MUL_MANY_CHUNK] is None


# ----- Groth16 keys pinned byte for byte -----------------------------------------
#
# Setup is one fixed-base multiplication per QAP term, so for a fixed
# seed the keys cannot depend on how the tables are laid out or batched:
# these digests hold them byte for byte.


def _key_digests(keys) -> tuple:
    """sha256 over every proving-key point in field order, and over the
    verifying key's bytes."""
    pk = keys.proving_key
    parts = [
        g1_to_bytes(pk.alpha_g1),
        g1_to_bytes(pk.beta_g1),
        g2_to_bytes(pk.beta_g2),
        g1_to_bytes(pk.delta_g1),
        g2_to_bytes(pk.delta_g2),
    ]
    parts += map(g1_to_bytes, pk.a_query)
    parts += map(g1_to_bytes, pk.b_g1_query)
    parts += map(g2_to_bytes, pk.b_g2_query)
    parts += map(g1_to_bytes, pk.k_query)
    parts += map(g1_to_bytes, pk.h_query)
    return (
        hashlib.sha256(b"".join(parts)).hexdigest(),
        hashlib.sha256(keys.verifying_key.to_bytes()).hexdigest(),
    )


_PINNED_KEYS = {
    "product": (
        "4fa1e9c41db2752c21357c5afa45ed53e5ff07252009908712419a95c4b89d71",
        "3f1db3771d6852a7b065717bd917c1c59fabc7f625bd2b010665338ad9f064c1",
    ),
    "auth-merkle-test": (
        "feba4bb09d2c1c2727aee12bd28305cd9fa69a8365019892160937fbacf3be23",
        "7b2bc3e03788abb57822f50009a2b5d3c663ad54384b1b3fa62dc1661fbc626e",
    ),
    "auth-merkle-production": (
        "4edbd274b6d95329e9188b1d2c1d0a7c07b62f64f2a984034f0248f4b123a0af",
        "1e4a3d59a58f20b13aacaa746d1d1d64396848ef87cc80f953a589e92f0225ee",
    ),
}


def test_fixed_base_setup_keeps_product_circuit_keys(keys) -> None:
    assert _key_digests(keys) == _PINNED_KEYS["product"]


def test_fixed_base_setup_keeps_auth_circuit_keys(groth16_auth_system) -> None:
    params, _ = groth16_auth_system
    assert _key_digests(params.keys) == _PINNED_KEYS["auth-merkle-test"]


@pytest.mark.slow
def test_production_auth_keys_pinned_and_attestation_verifies() -> None:
    """The paper's parameters (``profiles.PRODUCTION``, a 13,519-constraint
    Merkle auth circuit): setup keeps its pinned keys, and one
    attestation proves and verifies."""
    params, authority = setup(
        profile="production",
        cert_mode="merkle",
        backend_name="groth16",
        seed=b"production-pin",
    )
    assert _key_digests(params.keys) == _PINNED_KEYS["auth-merkle-production"]
    scheme = AnonymousAuthScheme(params)
    user = UserKeyPair.generate(params.mimc, seed=b"production-user")
    certificate = authority.register("production-user", user.public_key)
    commitment = authority.registry_commitment()
    message = b"\xaa" * PREFIX_LENGTH + b"production submission"
    attestation = scheme.auth(message, user, certificate, commitment)
    assert scheme.verify(message, attestation, commitment)
    assert not scheme.verify(message + b"!", attestation, commitment)
