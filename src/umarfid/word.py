"""L-bit words as plain ints, and the rotation-by-hamming-weight operator.

Every value moving through the simulator (identifiers, keys, nonces,
channel messages) is an int in [0, 2**L). One simulation has one width
L, so the ultralightweight operation set is Python's own: XOR, OR and
AND are ^, | and &, hamming weight is int.bit_count(). What ints lack
lives here: left circular rotation by hamming weight (reduced mod L, so
rotating by the weight of an all-ones word is the identity), fixed-width
hex, the one width check, and stream(), which builds every role's generator.
"""

from __future__ import annotations

import hashlib
import random

DEFAULT_WORD_LEN = 128


def check_count(name: str, value, low: int) -> None:
    """Reject a value that is not an int (a bool included) or is below low."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_width(width: int) -> None:
    """Reject word lengths that are not ints, below 4 or not whole nibbles.

    Hex serialization needs whole nibbles; every simulation validates
    its width here once, and every word it produces has that width.
    """
    check_count("word_len", width, 4)
    if width % 4 != 0:
        raise ValueError(f"word_len must be divisible by 4, got {width}")


def rot(x: int, y: int, width: int) -> int:
    """Left circular shift of x by hamming_weight(y) positions, mod width."""
    n = y.bit_count() % width
    return ((x << n) | (x >> (width - n))) & ((1 << width) - 1)


def to_hex(x: int, width: int) -> str:
    """Lowercase hex, most-significant nibble first, width // 4 digits."""
    return format(x, f"0{width // 4}x")


def derive_seed(base: int, *labels) -> int:
    """Stable 64-bit seed derived from a base seed and a label path.

    Used to give every trial, game and role its own independent stream;
    results are then identical no matter how work is scheduled.
    """
    material = repr((int(base),) + tuple(labels)).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def stream(base: int, *labels) -> random.Random:
    """A role's generator; it draws words by getrandbits(L), positions by randrange(n)."""
    return random.Random(derive_seed(base, *labels))
