"""Registration authority: CertGen, uniqueness, commitment evolution."""

from __future__ import annotations

import pytest

from repro.errors import RegistrationError
from repro.profiles import TEST
from repro.anonauth.authority import (
    CERT_MODE_MERKLE,
    CERT_MODE_SCHNORR,
    MerkleCertificate,
    RegistrationAuthority,
    SchnorrCertificate,
)
from repro.anonauth.keys import UserKeyPair
from repro.zksnark.gadgets import schnorr


@pytest.fixture
def merkle_ra() -> RegistrationAuthority:
    return RegistrationAuthority(TEST, cert_mode=CERT_MODE_MERKLE)


@pytest.fixture
def schnorr_ra() -> RegistrationAuthority:
    return RegistrationAuthority(TEST, cert_mode=CERT_MODE_SCHNORR, seed=b"ra")


def _user(ra: RegistrationAuthority, name: bytes) -> UserKeyPair:
    return UserKeyPair.generate(ra.mimc, seed=name)


def test_merkle_registration_issues_valid_path(merkle_ra) -> None:
    user = _user(merkle_ra, b"u1")
    cert = merkle_ra.register("u1@x", user.public_key)
    assert isinstance(cert, MerkleCertificate)
    assert merkle_ra._tree.verify_path(user.public_key, cert.path)


def test_one_identity_one_credential(merkle_ra) -> None:
    user = _user(merkle_ra, b"u1")
    merkle_ra.register("u1@x", user.public_key)
    with pytest.raises(RegistrationError):
        merkle_ra.register("u1@x", _user(merkle_ra, b"u2").public_key)


def test_one_key_one_credential(merkle_ra) -> None:
    user = _user(merkle_ra, b"u1")
    merkle_ra.register("u1@x", user.public_key)
    with pytest.raises(RegistrationError):
        merkle_ra.register("other@x", user.public_key)


def test_commitment_moves_on_registration(merkle_ra) -> None:
    first = merkle_ra.registry_commitment()
    merkle_ra.register("u1@x", _user(merkle_ra, b"u1").public_key)
    assert merkle_ra.registry_commitment() != first


def test_refresh_keeps_paths_current(merkle_ra) -> None:
    alice = _user(merkle_ra, b"alice")
    stale = merkle_ra.register("alice@x", alice.public_key)
    merkle_ra.register("bob@x", _user(merkle_ra, b"bob").public_key)
    fresh = merkle_ra.refresh_certificate(alice.public_key)
    assert merkle_ra._tree.verify_path(alice.public_key, fresh.path)
    assert not merkle_ra._tree.verify_path(alice.public_key, stale.path)


def test_refresh_unknown_key_rejected(merkle_ra) -> None:
    with pytest.raises(RegistrationError):
        merkle_ra.refresh_certificate(424242)


def test_is_certified(merkle_ra) -> None:
    user = _user(merkle_ra, b"u1")
    assert not merkle_ra.is_certified(user.public_key)
    merkle_ra.register("u1@x", user.public_key)
    assert merkle_ra.is_certified(user.public_key)


def test_registered_count(merkle_ra) -> None:
    assert merkle_ra.registered_count == 0
    merkle_ra.register("u1@x", _user(merkle_ra, b"u1").public_key)
    merkle_ra.register("u2@x", _user(merkle_ra, b"u2").public_key)
    assert merkle_ra.registered_count == 2


def test_schnorr_registration_signs_pk(schnorr_ra) -> None:
    user = _user(schnorr_ra, b"u1")
    cert = schnorr_ra.register("u1@x", user.public_key)
    assert isinstance(cert, SchnorrCertificate)
    assert schnorr.verify(
        schnorr_ra.schnorr_params,
        schnorr_ra.master_public_key,
        [user.public_key],
        cert.signature,
    )


def test_schnorr_commitment_fixed(schnorr_ra) -> None:
    before = schnorr_ra.registry_commitment()
    schnorr_ra.register("u1@x", _user(schnorr_ra, b"u1").public_key)
    assert schnorr_ra.registry_commitment() == before


def test_schnorr_refresh_is_stable_signature(schnorr_ra) -> None:
    user = _user(schnorr_ra, b"u1")
    cert = schnorr_ra.register("u1@x", user.public_key)
    refreshed = schnorr_ra.refresh_certificate(user.public_key)
    assert refreshed.signature == cert.signature


def test_unknown_mode_rejected() -> None:
    with pytest.raises(ValueError):
        RegistrationAuthority(TEST, cert_mode="x509")


def test_merkle_ra_has_no_master_secret(merkle_ra) -> None:
    assert merkle_ra.master_public_key is None
    assert merkle_ra._msk is None


def test_schnorr_mode_without_master_keys_raises(merkle_ra) -> None:
    """An authority switched to schnorr mode has no key pair to use."""
    user = _user(merkle_ra, b"u1")
    merkle_ra.register("u1@x", user.public_key)
    merkle_ra.cert_mode = CERT_MODE_SCHNORR
    with pytest.raises(RegistrationError, match="master key pair"):
        merkle_ra.registry_commitment()
    with pytest.raises(RegistrationError, match="master key pair"):
        merkle_ra.refresh_certificate(user.public_key)
    newcomer = _user(merkle_ra, b"u2")
    with pytest.raises(RegistrationError, match="master key pair"):
        merkle_ra.register("u2@x", newcomer.public_key)
    assert merkle_ra.registered_count == 1
    assert not merkle_ra.is_certified(newcomer.public_key)
