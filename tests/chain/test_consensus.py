"""Consensus engines: PoA rotation and simulated PoW targets."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto import ecdsa
from repro.errors import InvalidBlockError
from repro.chain.block import Block, BlockHeader, GENESIS_PARENT
from repro.chain.consensus import PoAEngine, SimulatedPoWEngine
from repro.chain.light import LightClient
from repro.chain.node import GenesisConfig, Node

KEY_A = ecdsa.ECDSAKeyPair.from_seed(b"validator-a")
KEY_B = ecdsa.ECDSAKeyPair.from_seed(b"validator-b")


def _header(number: int, miner: bytes, seal: bytes = b"") -> BlockHeader:
    return BlockHeader(
        number=number, parent_hash=GENESIS_PARENT, timestamp=1_500_000_001,
        miner=miner, state_root=b"\x00" * 32, tx_root=b"\x00" * 32,
        gas_used=0, gas_limit=30_000_000, seal=seal,
    )


def test_poa_round_robin() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    assert engine.expected_proposer(0) == KEY_A.address()
    assert engine.expected_proposer(1) == KEY_B.address()
    assert engine.expected_proposer(2) == KEY_A.address()


def test_poa_seal_and_validate() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(2, KEY_A.address())
    seal = engine.seal(header, KEY_A)
    sealed = BlockHeader(**{**header.__dict__, "seal": seal})
    engine.validate_seal(sealed)  # no raise


def test_poa_rejects_out_of_turn() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(1, KEY_B.address())  # B's turn
    with pytest.raises(InvalidBlockError):
        engine.seal(header, KEY_A)


def test_poa_rejects_wrong_miner_field() -> None:
    engine = PoAEngine([KEY_A.public_key, KEY_B.public_key])
    header = _header(2, KEY_B.address())  # A's turn but header claims B
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(header)


def test_poa_rejects_forged_seal() -> None:
    engine = PoAEngine([KEY_A.public_key])
    header = _header(1, KEY_A.address())
    # B signs although the header names A.
    forged = KEY_B.sign(header.hash_without_seal()).to_bytes()
    sealed = BlockHeader(**{**header.__dict__, "seal": forged})
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(sealed)


def test_poa_rejects_high_s_twin_seal() -> None:
    """The high-s twin of a seal has the same signer but a new block
    hash, so only the low-s seal is valid (EIP-2)."""
    engine = PoAEngine([KEY_A.public_key])
    header = _header(1, KEY_A.address())
    honest = KEY_A.sign(header.hash_without_seal())
    twin = ecdsa.ECDSASignature(r=honest.r, s=ecdsa.N - honest.s, v=honest.v ^ 1)
    assert ecdsa.recover_address(header.hash_without_seal(), twin) == KEY_A.address()
    resealed = BlockHeader(**{**header.__dict__, "seal": twin.to_bytes()})
    sealed = BlockHeader(**{**header.__dict__, "seal": honest.to_bytes()})
    assert resealed.block_hash() != sealed.block_hash()
    engine.validate_seal(sealed)
    with pytest.raises(InvalidBlockError, match="high-s"):
        engine.validate_seal(resealed)


def test_node_refuses_a_block_resealed_with_the_high_s_twin() -> None:
    """A fresh node refuses the re-sealed twin and still takes the block."""
    engine = PoAEngine([KEY_A.public_key])
    miner = Node("miner", GenesisConfig(), engine=engine, keypair=KEY_A, is_miner=True)
    follower = Node("follower", GenesisConfig(), engine=engine)
    block = miner.create_block(timestamp=1_500_000_015)
    honest = ecdsa.ECDSASignature.from_bytes(block.header.seal)
    twin = ecdsa.ECDSASignature(r=honest.r, s=ecdsa.N - honest.s, v=honest.v ^ 1)
    header = dataclasses.replace(block.header, seal=twin.to_bytes())
    with pytest.raises(InvalidBlockError, match="high-s"):
        follower.import_block(Block(header=header, transactions=block.transactions))
    assert follower.height == 0
    assert follower.import_block(block)


def _with_recovery_id(signature: ecdsa.ECDSASignature, tweak: str) -> bytes:
    v = signature.v ^ 1 if tweak == "v^1" else signature.v + 2
    return ecdsa.ECDSASignature(r=signature.r, s=signature.s, v=v).to_bytes()


@pytest.mark.parametrize("tweak", ["v^1", "v+2"])
def test_poa_refuses_the_honest_seal_under_another_recovery_id(tweak: str) -> None:
    """Same r and s, another recovery id: a second header for one block
    unless the seal check binds v (v ^ 1 recovers another key, v + 2
    another nonce point).  The engine, a follower and a light client
    refuse it, then take the honest block."""
    engine = PoAEngine([KEY_A.public_key])
    miner = Node("miner", GenesisConfig(), engine=engine, keypair=KEY_A, is_miner=True)
    follower = Node("follower", GenesisConfig(), engine=engine)
    light = LightClient(engine, follower.block_by_number(0).header)
    block = miner.create_block(timestamp=1_500_000_015)
    seal = _with_recovery_id(ecdsa.ECDSASignature.from_bytes(block.header.seal), tweak)
    header = dataclasses.replace(block.header, seal=seal)
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(header)
    with pytest.raises(InvalidBlockError):
        follower.import_block(Block(header=header, transactions=block.transactions))
    with pytest.raises(InvalidBlockError):
        light.import_header(header)
    assert follower.height == 0 and light.height == 0
    assert follower.import_block(block)
    assert light.import_header(block.header)


def test_poa_validators_must_be_public_keys() -> None:
    x, y = KEY_A.public_key
    for key in (None, (x, (y + 1) % ecdsa.P), (x + ecdsa.P, y), KEY_A.address()):
        with pytest.raises(ValueError):
            PoAEngine([KEY_B.public_key, key])


def test_poa_rejects_garbage_seal() -> None:
    engine = PoAEngine([KEY_A.public_key])
    sealed = _header(1, KEY_A.address(), seal=b"\x00" * 10)
    with pytest.raises(InvalidBlockError):
        engine.validate_seal(sealed)


def test_poa_needs_validators() -> None:
    with pytest.raises(ValueError):
        PoAEngine([])


def test_pow_seal_meets_target() -> None:
    engine = SimulatedPoWEngine(difficulty=16)
    header = _header(1, KEY_A.address())
    seal = engine.seal(header, KEY_A)
    sealed = BlockHeader(**{**header.__dict__, "seal": seal})
    engine.validate_seal(sealed)


def test_pow_rejects_bad_nonce() -> None:
    engine = SimulatedPoWEngine(difficulty=1 << 20)
    sealed = _header(1, KEY_A.address(), seal=b"\x00" * 8)
    digest_ok = True
    try:
        engine.validate_seal(sealed)
    except InvalidBlockError:
        digest_ok = False
    assert not digest_ok  # overwhelmingly likely at this difficulty


def test_pow_anyone_may_propose() -> None:
    engine = SimulatedPoWEngine(difficulty=4)
    assert engine.expected_proposer(7) is None


def test_pow_difficulty_positive() -> None:
    with pytest.raises(ValueError):
        SimulatedPoWEngine(difficulty=0)
