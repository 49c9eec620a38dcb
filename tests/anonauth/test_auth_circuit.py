"""The Auth circuit itself: statement layout, satisfiability boundaries."""

from __future__ import annotations

import pytest

from repro.errors import CircuitError, UnsatisfiedConstraintError
from repro.profiles import TEST
from repro.anonauth.authority import (
    CERT_MODE_MERKLE,
    CERT_MODE_SCHNORR,
    MerkleCertificate,
    RegistrationAuthority,
)
from repro.anonauth.circuit import AuthCircuit, AuthInstance
from repro.anonauth.keys import UserKeyPair
from repro.anonauth.scheme import message_digest, prefix_digest
from repro.zksnark.gadgets.mimc import MiMCParameters, mimc_hash_native

MIMC = MiMCParameters.for_rounds(TEST.mimc_rounds)


def _world():
    authority = RegistrationAuthority(TEST, cert_mode=CERT_MODE_MERKLE)
    user = UserKeyPair.generate(MIMC, seed=b"circuit-user")
    certificate = authority.register("circuit-user", user.public_key)
    return authority, user, certificate


def _instance(authority, user, certificate, message=b"\x10" * 32 + b"m") -> AuthInstance:
    p_digest = prefix_digest(message[:32])
    m_digest = message_digest(message)
    return AuthInstance(
        prefix_digest=p_digest,
        message_digest=m_digest,
        registry_commitment=authority.registry_commitment(),
        t1=mimc_hash_native([p_digest, user.secret_key], MIMC),
        t2=mimc_hash_native([m_digest, user.secret_key], MIMC),
        secret_key=user.secret_key,
        certificate=certificate,
    )


def test_honest_instance_satisfies() -> None:
    authority, user, certificate = _world()
    instance = _instance(authority, user, certificate)
    circuit = AuthCircuit(TEST, CERT_MODE_MERKLE)
    cs = circuit.build(instance)
    cs.check_satisfied()
    assert cs.num_public == 5
    assert cs.public_values() == instance.public_inputs()


def test_wrong_t1_unsatisfiable() -> None:
    authority, user, certificate = _world()
    base = _instance(authority, user, certificate)
    forged = AuthInstance(**{**base.__dict__, "t1": base.t1 + 1})
    with pytest.raises(UnsatisfiedConstraintError):
        AuthCircuit(TEST, CERT_MODE_MERKLE).build(forged).check_satisfied()


def test_wrong_secret_key_unsatisfiable() -> None:
    authority, user, certificate = _world()
    base = _instance(authority, user, certificate)
    forged = AuthInstance(**{**base.__dict__, "secret_key": user.secret_key + 1})
    with pytest.raises(UnsatisfiedConstraintError):
        AuthCircuit(TEST, CERT_MODE_MERKLE).build(forged).check_satisfied()


def test_foreign_certificate_unsatisfiable() -> None:
    """Using another member's Merkle path with your own sk: the leaf is
    pk = H(sk) which doesn't sit at that path."""
    authority, user, certificate = _world()
    stranger = UserKeyPair.generate(MIMC, seed=b"stranger")
    authority.register("stranger", stranger.public_key)
    stranger_cert = authority.refresh_certificate(stranger.public_key)
    base = _instance(authority, user, stranger_cert)
    with pytest.raises(UnsatisfiedConstraintError):
        AuthCircuit(TEST, CERT_MODE_MERKLE).build(base).check_satisfied()


def test_wrong_commitment_unsatisfiable() -> None:
    authority, user, certificate = _world()
    base = _instance(authority, user, certificate)
    forged = AuthInstance(**{**base.__dict__, "registry_commitment": 424242})
    with pytest.raises(UnsatisfiedConstraintError):
        AuthCircuit(TEST, CERT_MODE_MERKLE).build(forged).check_satisfied()


def test_structure_independent_of_instance() -> None:
    authority, user, certificate = _world()
    other = UserKeyPair.generate(MIMC, seed=b"another")
    authority.register("another", other.public_key)
    other_cert = authority.refresh_certificate(other.public_key)
    circuit = AuthCircuit(TEST, CERT_MODE_MERKLE)
    digest_a = circuit.build(
        _instance(authority, user, authority.refresh_certificate(user.public_key))
    ).to_r1cs().structure_digest()
    digest_b = circuit.build(
        _instance(authority, other, other_cert, message=b"\x22" * 32 + b"x")
    ).to_r1cs().structure_digest()
    assert digest_a == digest_b


def test_schnorr_mode_requires_mpk() -> None:
    with pytest.raises(CircuitError):
        AuthCircuit(TEST, CERT_MODE_SCHNORR, master_public_key=None)


def test_example_required_for_setup_side_only() -> None:
    circuit = AuthCircuit(TEST, CERT_MODE_MERKLE)
    with pytest.raises(CircuitError):
        circuit.example_instance()


def test_mode_certificate_type_checked() -> None:
    authority, user, certificate = _world()
    schnorr_authority = RegistrationAuthority(
        TEST, cert_mode=CERT_MODE_SCHNORR, seed=b"ra"
    )
    schnorr_user = UserKeyPair.generate(MIMC, seed=b"s-user")
    schnorr_cert = schnorr_authority.register("s-user", schnorr_user.public_key)
    wrong = _instance(authority, user, schnorr_cert)  # schnorr cert, merkle mode
    from repro.errors import AuthenticationError

    with pytest.raises(AuthenticationError):
        AuthCircuit(TEST, CERT_MODE_MERKLE).build(wrong)


def test_schnorr_mode_satisfies_and_binds_mpk() -> None:
    authority = RegistrationAuthority(TEST, cert_mode=CERT_MODE_SCHNORR, seed=b"ra2")
    user = UserKeyPair.generate(MIMC, seed=b"s-user-2")
    certificate = authority.register("s-user-2", user.public_key)
    instance = _instance(authority, user, certificate)
    circuit = AuthCircuit(
        TEST, CERT_MODE_SCHNORR, master_public_key=authority.master_public_key
    )
    circuit.build(instance).check_satisfied()
    # A circuit pinned to a different RA's mpk rejects the same instance.
    other_authority = RegistrationAuthority(
        TEST, cert_mode=CERT_MODE_SCHNORR, seed=b"ra3"
    )
    imposter_circuit = AuthCircuit(
        TEST, CERT_MODE_SCHNORR, master_public_key=other_authority.master_public_key
    )
    with pytest.raises(UnsatisfiedConstraintError):
        imposter_circuit.build(instance).check_satisfied()


def test_schnorr_synthesis_without_master_key_raises() -> None:
    authority = RegistrationAuthority(TEST, cert_mode=CERT_MODE_SCHNORR, seed=b"ra")
    user = UserKeyPair.generate(MIMC, seed=b"circuit-user")
    certificate = authority.register("circuit-user", user.public_key)
    circuit = AuthCircuit(
        TEST, CERT_MODE_SCHNORR, master_public_key=authority.master_public_key
    )
    instance = _instance(authority, user, certificate)
    circuit.build(instance).check_satisfied()
    circuit.master_public_key = None
    with pytest.raises(CircuitError, match="master public key"):
        circuit.build(instance)
