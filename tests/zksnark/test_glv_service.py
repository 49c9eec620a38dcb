"""Unit tests for GLV decomposition and the warm-CRS proving service,
plus a cheap 10-case sweep of the full G1 fast path (GLV split and
Pippenger) against the naive oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.glv import GLVParams, cube_root_of_unity
from repro.zksnark import Groth16Backend
from repro.zksnark.backend import get_backend
from repro.zksnark.bn128.curve import (
    g1_mul,
    g1_msm,
    g1_msm_naive,
    G1,
)
from repro.zksnark.bn128.fq import CURVE_ORDER, FIELD_MODULUS
from repro.zksnark.service import ProvingService

from tests.zksnark.test_differential import ProductCircuit

SECP256K1_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


def _g1_mul_naive(point, scalar):
    """Naive G1 oracle: single-pair naive MSM (plain double-and-add)."""
    return g1_msm_naive([point], [scalar])


# ----- GLV decomposition ----------------------------------------------------------


class TestGLV:
    @pytest.mark.parametrize("order", [CURVE_ORDER, SECP256K1_ORDER])
    def test_decompose_congruence_exact(self, order: int) -> None:
        """k1 + k2*lam == k (mod n) — the soundness anchor — for seeded k."""
        params = GLVParams.for_order(order)
        bound_bits = params.max_component_bits()
        assert bound_bits <= order.bit_length() // 2 + 3
        rng = random.Random(order & 0xFFFF)
        cases = [0, 1, order - 1, params.lam, order // 2]
        cases += [rng.randrange(order) for _ in range(60)]
        for k in cases:
            k1, k2 = params.decompose(k)
            assert (k1 + k2 * params.lam) % order == k % order
            assert abs(k1).bit_length() <= bound_bits
            assert abs(k2).bit_length() <= bound_bits

    def test_cube_root_of_unity_properties(self) -> None:
        for modulus in (CURVE_ORDER, SECP256K1_ORDER, FIELD_MODULUS):
            root = cube_root_of_unity(modulus)
            assert root != 1
            assert pow(root, 3, modulus) == 1
        with pytest.raises(ValueError):
            cube_root_of_unity(5)  # 5 % 3 == 2: no primitive cube root

    def test_other_root_is_conjugate(self) -> None:
        params = GLVParams.for_order(CURVE_ORDER)
        other = params.other_root()
        assert other.lam == params.lam * params.lam % CURVE_ORDER
        k = 0xDEADBEEF << 200
        k1, k2 = other.decompose(k)
        assert (k1 + k2 * other.lam) % CURVE_ORDER == k % CURVE_ORDER

    def test_rejects_non_cube_root_lambda(self) -> None:
        with pytest.raises(ValueError):
            GLVParams(CURVE_ORDER, 2)

    def test_g1_glv_mul_matches_naive(self) -> None:
        rng = random.Random(99)
        for _ in range(8):
            k = rng.randrange(CURVE_ORDER)
            p = _g1_mul_naive(G1, rng.randrange(1, CURVE_ORDER))
            assert g1_mul(p, k) == _g1_mul_naive(p, k)


# ----- secp256k1 ECDSA GLV --------------------------------------------------------


class TestEcdsaGLV:
    def test_point_mul_glv_matches_windowed(self) -> None:
        from repro.crypto import ecdsa

        curve = ecdsa.SECP256K1
        rng = random.Random(7)
        base = curve.double_and_add(ecdsa.GENERATOR, rng.randrange(1, ecdsa.N))
        for _ in range(6):
            k = rng.randrange(ecdsa.N)
            assert curve.mul(base, k) == curve.double_and_add(base, k)

    def test_sign_verify_roundtrip_on_public_key_multiples(self) -> None:
        from repro.crypto import ecdsa
        from repro.crypto.hashing import sha256

        key = ecdsa.ECDSAKeyPair.from_seed(b"glv-roundtrip")
        digest = sha256(b"glv differential")
        sig = key.sign(digest)
        assert ecdsa.verify(key.public_key, digest, sig)
        # Verification multiplies the public key by a full-width scalar;
        # both ladders must agree on that multiple.
        k = int.from_bytes(digest, "big") % ecdsa.N
        curve = ecdsa.SECP256K1
        assert curve.mul(key.public_key, k) == curve.double_and_add(key.public_key, k)


# ----- warm-CRS proving service ---------------------------------------------------


class TestProvingService:
    def test_registered_as_backend(self) -> None:
        service = get_backend("groth16-service")
        assert isinstance(service, ProvingService)

    def test_setup_is_warm_cached_by_digest(self) -> None:
        service = ProvingService()
        first = service.setup(ProductCircuit(), seed=b"svc-test")
        # A *different* circuit object with the same structure hits the
        # same cache entry: keying is by digest, not object identity.
        second = service.setup(ProductCircuit(), seed=b"other-seed")
        assert first is second
        assert len(service.warmed_digests()) == 1

    def test_prove_verify_through_service(self) -> None:
        service = ProvingService()
        circuit = ProductCircuit()
        keys = service.warm(circuit, seed=b"svc-prove")
        instance = {"out": 35, "a": 5, "b": 7}
        proof = service.prove(keys.proving_key, circuit, instance)
        assert service.verify(keys.verifying_key, [35, 5], proof) is True
        assert service.verify(keys.verifying_key, [36, 5], proof) is False

    def test_setup_after_prove_many_with_external_keys_has_vk(self) -> None:
        """Proving with keys set up elsewhere must not poison the cache:
        a later ``setup`` of the same circuit shape still returns a full
        key pair whose verifying key accepts its proofs."""
        service = ProvingService()
        circuit = ProductCircuit()
        external = Groth16Backend(optimized=True).setup(circuit, seed=b"ext")
        requests = [
            (external.proving_key, circuit, {"out": 6, "a": 2, "b": 3}),
            (external.proving_key, circuit, {"out": 35, "a": 5, "b": 7}),
        ]
        proofs = service.prove_many(requests)
        assert service.verify(external.verifying_key, [6, 2], proofs[0])
        assert service.verify(external.verifying_key, [35, 5], proofs[1])

        keys = service.setup(ProductCircuit(), seed=b"svc-after-external")
        assert keys.verifying_key is not None
        proof = service.prove(keys.proving_key, circuit, {"out": 35, "a": 5, "b": 7})
        assert service.verify(keys.verifying_key, [35, 5], proof)

    def test_prove_many_empty(self) -> None:
        service = ProvingService()
        assert service.prove_many([]) == []

    def test_batch_verify_delegates(self) -> None:
        service = ProvingService()
        circuit = ProductCircuit()
        keys = service.warm(circuit, seed=b"svc-batch")
        instances = [
            {"out": 6, "a": 2, "b": 3},
            {"out": 35, "a": 5, "b": 7},
        ]
        proofs = [
            service.prove(keys.proving_key, circuit, inst) for inst in instances
        ]
        statements = [[6, 2], [35, 5]]
        assert service.batch_verify(keys.verifying_key, statements, proofs) is True
        assert (
            service.batch_verify(keys.verifying_key, [[6, 2], [34, 5]], proofs)
            is False
        )


# ----- cheap 10-case naive-vs-full-fast-path sweep --------------------------------


@pytest.mark.parametrize("case", range(10))
def test_cheap_lane_naive_vs_full_fast_path(case: int) -> None:
    """10 seeded MSM cases: the complete G1 fast path — GLV split and
    Pippenger — against the plain double-and-add reference."""
    rng = random.Random(31000 + case)
    size = rng.randrange(1, 8)
    points = [
        _g1_mul_naive(G1, rng.randrange(1, CURVE_ORDER)) for _ in range(size)
    ]
    scalars = [rng.randrange(CURVE_ORDER) for _ in range(size)]
    assert g1_msm(points, scalars) == g1_msm_naive(points, scalars)
