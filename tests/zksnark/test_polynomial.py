"""Radix-2 evaluation domains over FR: transforms, basis, vanishing polynomial.

Every check compares against Horner evaluation at the domain's points,
which shares no code with the transforms.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.zksnark.field import FR, PrimeField
from repro.zksnark.polynomial import Radix2Domain

P = FR.modulus
DOMAINS = {1 << k: Radix2Domain(FR, 1 << k) for k in range(10)}  # sizes 1..512

values_lists = st.lists(st.integers(min_value=0, max_value=P - 1), min_size=1, max_size=64)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % P
    return acc


def _domain_for(count: int) -> Radix2Domain:
    size = 1
    while size < count:
        size *= 2
    return DOMAINS[size]


def _padded(values, size):
    return list(values) + [0] * (size - len(values))


@pytest.mark.parametrize("size", sorted(DOMAINS))
def test_domain_is_the_group_of_nth_roots_of_unity(size) -> None:
    domain = DOMAINS[size]
    assert domain.size == size
    assert len(set(domain.elements)) == size
    assert all(pow(w, size, P) == 1 for w in domain.elements)
    assert domain.elements[0] == 1
    if size > 1:
        assert pow(domain.elements[1], size // 2, P) == P - 1  # primitive
    assert pow(domain.shift, size, P) != 1  # the coset is disjoint


def test_domain_size_is_the_next_power_of_two() -> None:
    for count in range(1, 513):
        assert Radix2Domain(FR, count).size == _domain_for(count).size


@pytest.mark.parametrize("size", sorted(DOMAINS))
def test_ntt_matches_horner_at_every_point(size) -> None:
    domain = DOMAINS[size]
    rng = random.Random(size)
    coeffs = [rng.randrange(P) for _ in range(size)]
    assert domain.ntt(coeffs) == [_horner(coeffs, w) for w in domain.elements]


def test_ntt_matches_horner_for_every_length_up_to_512() -> None:
    """n coefficients, padded into the 2^⌈log n⌉ domain, for n = 1..512."""
    rng = random.Random(7)
    for count in range(1, 513):
        domain = _domain_for(count)
        coeffs = [rng.randrange(P) for _ in range(count)]
        evals = domain.ntt(coeffs)
        assert len(evals) == domain.size
        for j in {0, 1 % domain.size, count - 1, domain.size - 1, rng.randrange(domain.size)}:
            assert evals[j] == _horner(coeffs, domain.elements[j]), (count, j)


@given(values_lists)
@settings(max_examples=50)
def test_intt_roundtrip(values) -> None:
    domain = _domain_for(len(values))
    padded = _padded(values, domain.size)
    assert domain.ntt(domain.intt(values)) == padded
    assert domain.intt(domain.ntt(values)) == padded


@given(values_lists)
@settings(max_examples=50)
def test_coset_roundtrip(values) -> None:
    domain = _domain_for(len(values))
    padded = _padded(values, domain.size)
    assert domain.coset_intt(domain.coset_ntt(values)) == padded
    assert domain.coset_ntt(domain.coset_intt(values)) == padded


def test_coset_ntt_matches_horner_on_the_coset() -> None:
    domain = DOMAINS[16]
    coeffs = [random.Random(16).randrange(P) for _ in range(16)]
    coset = [domain.shift * w % P for w in domain.elements]
    assert not set(coset) & set(domain.elements)
    assert domain.coset_ntt(coeffs) == [_horner(coeffs, x) for x in coset]


def test_lagrange_interpolation_exact() -> None:
    domain = DOMAINS[4]
    values = [10, 20, 99, 7]
    interpolated = domain.intt(values)
    assert len(interpolated) == 4
    for point, value in zip(domain.elements, values):
        assert _horner(interpolated, point) == value


@given(values_lists)
@settings(max_examples=30)
def test_lagrange_roundtrip(values) -> None:
    domain = _domain_for(len(values))
    interpolated = domain.intt(values)
    for point, value in zip(domain.elements, _padded(values, domain.size)):
        assert _horner(interpolated, point) == value


@given(st.integers(min_value=0, max_value=P - 1), st.sampled_from(sorted(DOMAINS)))
@settings(max_examples=30)
def test_lagrange_basis_at_matches_interpolation(x, size) -> None:
    """Σ v_j L_j(x) == interpolate(v)(x), at a random x."""
    domain = DOMAINS[size]
    values = [random.Random(x).randrange(P) for _ in range(size)]
    direct = sum(v * l for v, l in zip(values, domain.lagrange_at(x))) % P
    assert direct == _horner(domain.intt(values), x)


def test_basis_partition_of_unity() -> None:
    for domain in DOMAINS.values():
        assert sum(domain.lagrange_at(424242)) % P == 1
        # At a domain point the basis is the indicator of that point.
        point = domain.elements[-1]
        assert domain.lagrange_at(point) == [int(w == point) for w in domain.elements]


def test_vanishing_polynomial_roots() -> None:
    domain = DOMAINS[8]
    for point in domain.elements:
        assert domain.vanishing_at(point) == 0
    x = 5
    product = 1
    for point in domain.elements:
        product = product * (x - point) % P
    assert domain.vanishing_at(x) == product != 0
    # Constant g^N − 1 on the coset, which the quotient divides by.
    assert domain.vanishing_at(domain.shift) == (pow(domain.shift, 8, P) - 1) % P != 0


@given(values_lists, values_lists)
@settings(max_examples=30)
def test_mul_matches_evaluation(a, b) -> None:
    """The pointwise product on the coset interpolates to a·b when
    deg a + deg b < N, which is how the prover forms A·B."""
    domain = _domain_for(len(a) + len(b) - 1)
    product = domain.coset_intt(
        [x * y % P for x, y in zip(domain.coset_ntt(a), domain.coset_ntt(b))]
    )
    for x in (0, 1, 2, 12345):
        assert _horner(product, x) == _horner(a, x) * _horner(b, x) % P


def test_domain_without_a_large_enough_root_of_unity_rejected() -> None:
    with pytest.raises(ValueError, match="2-adicity 28"):
        Radix2Domain(FR, (1 << 28) + 1)
    small = PrimeField(13, name="GF(13)")  # 13 − 1 = 4·3
    assert Radix2Domain(small, 4).size == 4
    with pytest.raises(ValueError, match="root of unity"):
        Radix2Domain(small, 5)
    # In GF(17) the 16-point domain is the whole multiplicative group.
    with pytest.raises(ValueError, match="coset"):
        Radix2Domain(PrimeField(17), 16)
    with pytest.raises(ValueError):
        Radix2Domain(FR, 0)


def test_values_longer_than_the_domain_rejected() -> None:
    with pytest.raises(ValueError):
        DOMAINS[4].ntt([1, 2, 3, 4, 5])
