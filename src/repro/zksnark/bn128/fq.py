"""BN128 base-field constants and scalar helpers.

Base-field elements are plain Python ints reduced modulo
``FIELD_MODULUS``; keeping them unboxed is what makes the pure-Python
pairing usable.
"""

from __future__ import annotations

#: The BN128 base-field modulus q (coordinates of curve points).
FIELD_MODULUS = (
    21888242871839275222246405745257275088696311157297823662689037894645226208583
)

#: The BN128 group order r (the scalar field; also the R1CS field).
CURVE_ORDER = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)


def fq_from_bytes(data: bytes) -> int:
    """Decode a canonical 32-byte big-endian FQ element.

    Rejects non-canonical limbs (value ≥ q): silently reducing them
    would let distinct wire bytes decode to equal field elements — an
    encoding-malleability hole in every point/proof codec above this.
    """
    if len(data) != 32:
        raise ValueError("FQ encoding must be 32 bytes")
    value = int.from_bytes(data, "big")
    if value >= FIELD_MODULUS:
        raise ValueError("non-canonical FQ encoding (limb >= field modulus)")
    return value

