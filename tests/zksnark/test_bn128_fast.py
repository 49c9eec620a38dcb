"""The BN128 performance layer against the naive reference oracles.

Every optimized path (Pippenger MSM, fixed-base tables, prepared Miller
loops, decomposed final exponentiation) has a slow counterpart that was
the original implementation; these tests pin them to each other, plus
the hardening added alongside (subgroup membership on deserialization,
strict MSM length checks).
"""

from __future__ import annotations

import random

import pytest

from repro.zksnark.bn128 import (
    CURVE_ORDER,
    FIELD_MODULUS,
    FQ2,
    G1,
    G2,
    g1_mul,
    g1_neg,
    g2_mul,
    is_in_g2_subgroup,
    is_on_g2,
    pairing,
)
from repro.zksnark.bn128.curve import (
    g1_fixed_base,
    g1_generator_table,
    g1_msm,
    g1_msm_naive,
    g2_fixed_base,
    g2_from_bytes,
    g2_generator_table,
    g2_msm,
    g2_msm_naive,
    g2_mul_naive,
    g2_to_bytes,
)
from repro.zksnark.bn128.fq12 import FQ12
from repro.zksnark.bn128.pairing import (
    _HARD_EXPONENT,
    _Exponent,
    _hard_part,
    final_exponentiate,
    final_exponentiate_naive,
    miller_loop,
    miller_loop_naive,
    multi_pairing,
    multi_pairing_naive,
    pairing_naive,
    prepare_g2,
)

# A point on the twist curve y^2 = x^3 + 3/(9+i) that is NOT in the
# r-order subgroup (found by taking the FQ2 square root of x^3 + b2 at
# x = 2 + i; the twist's cofactor is huge, so a random curve point is
# essentially never in the subgroup).
_OFF_SUBGROUP_X = FQ2(2, 1)
_OFF_SUBGROUP_Y = FQ2(
    7292567877523311580221095596750716176434782432868683424513645834767876293070,
    19659275751359636165940301690575149581329631496732780143538578556285923319774,
)
OFF_SUBGROUP_POINT = (_OFF_SUBGROUP_X, _OFF_SUBGROUP_Y)


# ----- MSM ---------------------------------------------------------------------------


def test_g1_msm_matches_naive_random() -> None:
    rng = random.Random(1234)
    for n in (0, 1, 2, 3, 17, 65):
        points = [g1_mul(G1, rng.randrange(1, CURVE_ORDER)) for _ in range(n)]
        scalars = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)


def test_g1_msm_handles_zero_scalars_and_infinity_points() -> None:
    points = [G1, None, g1_mul(G1, 7)]
    scalars = [0, 5, 3]
    assert g1_msm(points, scalars) == g1_mul(G1, 21)


def test_g2_msm_matches_naive_random() -> None:
    rng = random.Random(99)
    for n in (1, 2, 9, 33):
        points = [g2_mul(G2, rng.randrange(1, CURVE_ORDER)) for _ in range(n)]
        scalars = [rng.randrange(CURVE_ORDER) for _ in range(n)]
        assert g2_msm(points, scalars) == g2_msm_naive(points, scalars)


def test_msm_rejects_length_mismatch() -> None:
    with pytest.raises(ValueError):
        g1_msm([G1, G1], [1])
    with pytest.raises(ValueError):
        g1_msm_naive([G1], [1, 2])
    with pytest.raises(ValueError):
        g2_msm([G2], [])
    with pytest.raises(ValueError):
        g2_msm_naive([], [3])


# ----- fixed-base tables ---------------------------------------------------------------


def test_fixed_base_table_matches_variable_base() -> None:
    rng = random.Random(5)
    table = g1_fixed_base(G1, window=4)
    for _ in range(20):
        k = rng.randrange(CURVE_ORDER)
        assert table.mul(k) == g1_mul(G1, k)
    assert table.mul(0) is None
    assert table.mul(CURVE_ORDER) is None


def test_g2_fixed_base_matches_variable_base() -> None:
    rng = random.Random(6)
    table = g2_fixed_base(G2)
    for _ in range(8):
        k = rng.randrange(CURVE_ORDER)
        assert table.mul(k) == g2_mul(G2, k)


def test_generator_table_singletons_cached() -> None:
    assert g1_generator_table() is g1_generator_table()
    assert g2_generator_table() is g2_generator_table()
    assert g1_generator_table().mul(12345) == g1_mul(G1, 12345)


def test_fixed_base_table_on_non_generator() -> None:
    base = g1_mul(G1, 424242)
    table = g1_fixed_base(base, window=5)
    assert table.mul(17) == g1_mul(base, 17)


# ----- G2 scalar mul (Jacobian vs affine) ---------------------------------------------


def test_g2_mul_jacobian_matches_affine() -> None:
    rng = random.Random(21)
    for _ in range(5):
        k = rng.randrange(CURVE_ORDER)
        assert g2_mul(G2, k) == g2_mul_naive(G2, k)
    assert g2_mul(G2, 0) is None
    assert g2_mul(None, 5) is None


# ----- pairing fast path --------------------------------------------------------------


def test_prepared_miller_matches_naive() -> None:
    p_point = g1_mul(G1, 777)
    q_point = g2_mul(G2, 333)
    prepared = prepare_g2(q_point)
    assert miller_loop(prepared, p_point) == miller_loop_naive(q_point, p_point)
    # raw G2 argument routes through preparation transparently
    assert miller_loop(q_point, p_point) == miller_loop_naive(q_point, p_point)


@pytest.mark.parametrize(
    "case", ["miller", "one", "random-0", "random-1", "random-2", "random-3"]
)
def test_final_exponentiation_decomposition_matches_naive(case: str) -> None:
    """The u-chain hard part agrees with the monolithic exponent on any
    nonzero input, not only on Miller-loop outputs."""
    if case == "miller":
        value = miller_loop_naive(G2, G1)
    elif case == "one":
        value = FQ12.one()
    else:
        rng = random.Random(1600 + int(case.split("-")[1]))
        value = FQ12([rng.randrange(1, FIELD_MODULUS) for _ in range(12)])
    assert final_exponentiate(value) == final_exponentiate_naive(value)


def test_u_chain_exponent_is_the_hard_exponent() -> None:
    """Run on exponents instead of FQ12 values, the hard part's u-chain
    raises to exactly (q^4 − q^2 + 1)/r, which is also Scott et al.'s
    λ₀ + λ₁q + λ₂q² + λ₃q³ in the BN parameter u."""
    q, u = FIELD_MODULUS, 4965661367192848881
    hard = (q**4 - q**2 + 1) // CURVE_ORDER
    assert _HARD_EXPONENT == hard
    assert _hard_part(_Exponent(1)).value == hard
    lam0 = -36 * u**3 - 30 * u**2 - 18 * u - 2
    lam1 = -36 * u**3 - 18 * u**2 - 12 * u + 1
    lam2 = 6 * u**2 + 1
    assert lam0 + lam1 * q + lam2 * q**2 + q**3 == hard
    assert hard.bit_length() == 761


def test_pairing_fast_matches_naive() -> None:
    assert pairing(G2, G1) == pairing_naive(G2, G1)


def test_bilinearity_through_prepared_path() -> None:
    base = pairing(G2, G1)
    prepared = prepare_g2(G2)
    assert multi_pairing([(prepared, g1_mul(G1, 5))]) == base ** 5
    assert multi_pairing([(prepare_g2(g2_mul(G2, 5)), G1)]) == base ** 5


def test_multi_pairing_prepared_cancellation() -> None:
    product = multi_pairing(
        [(prepare_g2(G2), g1_mul(G1, 2)), (prepare_g2(g2_mul(G2, 2)), g1_neg(G1))]
    )
    assert product.is_one()
    naive = multi_pairing_naive(
        [(G2, g1_mul(G1, 2)), (g2_mul(G2, 2), g1_neg(G1))]
    )
    assert naive.is_one()


def test_fq12_frobenius_matches_pow() -> None:
    a = FQ12([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    q = 21888242871839275222246405745257275088696311157297823662689037894645226208583
    assert a.frobenius(1) == a ** q
    assert a.frobenius(2) == a ** (q * q)


def test_fq12_mul_sparse_matches_dense() -> None:
    a = FQ12([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8])
    items = ((0, 11), (1, 22), (3, 33), (7, 44), (9, 55))
    dense = [0] * 12
    for pos, coeff in items:
        dense[pos] = coeff
    assert a.mul_sparse(items) == a * FQ12(dense)


# ----- G2 subgroup hardening -----------------------------------------------------------


def test_off_subgroup_point_is_on_curve_but_not_subgroup() -> None:
    assert is_on_g2(OFF_SUBGROUP_POINT)
    assert not is_in_g2_subgroup(OFF_SUBGROUP_POINT)
    assert is_in_g2_subgroup(G2)
    assert is_in_g2_subgroup(g2_mul(G2, 987654321))
    assert is_in_g2_subgroup(None)  # infinity is in every subgroup


def test_g2_from_bytes_rejects_off_subgroup_point() -> None:
    wire = _OFF_SUBGROUP_X.to_bytes() + _OFF_SUBGROUP_Y.to_bytes()
    with pytest.raises(ValueError, match="subgroup"):
        g2_from_bytes(wire)


def test_g2_serialization_still_roundtrips_subgroup_points() -> None:
    point = g2_mul(G2, 31337)
    assert g2_from_bytes(g2_to_bytes(point)) == point
