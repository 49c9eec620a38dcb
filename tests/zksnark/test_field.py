"""Prime-field axioms."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.zksnark.field import FR, PrimeField

elements = st.integers(min_value=0, max_value=FR.modulus - 1)
nonzero = st.integers(min_value=1, max_value=FR.modulus - 1)


@given(elements, elements, elements)
def test_ring_axioms(a: int, b: int, c: int) -> None:
    assert FR.add(a, b) == FR.add(b, a)
    assert FR.mul(a, b) == FR.mul(b, a)
    assert FR.mul(a, FR.add(b, c)) == FR.add(FR.mul(a, b), FR.mul(a, c))
    assert FR.add(FR.add(a, b), c) == FR.add(a, FR.add(b, c))


@given(nonzero)
def test_inverse(a: int) -> None:
    assert FR.mul(a, FR.inv(a)) == 1


@given(elements)
def test_neg_sub(a: int) -> None:
    assert FR.add(a, FR.neg(a)) == 0
    assert FR.sub(0, a) == FR.neg(a)


def test_zero_inverse_raises() -> None:
    with pytest.raises(ZeroDivisionError):
        FR.inv(0)


@given(nonzero)
def test_fermat(a: int) -> None:
    assert FR.exp(a, FR.modulus - 1) == 1


def test_byte_roundtrip() -> None:
    value = 123456789
    assert FR.from_bytes(FR.to_bytes(value)) == value
    assert len(FR.to_bytes(value)) == FR.byte_length()


def test_tiny_field_sanity() -> None:
    f = PrimeField(7)
    assert f.add(5, 5) == 3
    assert f.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(ValueError):
        PrimeField(1)
