import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_bits as oracle
from umarfid.word import (
    DEFAULT_WORD_LEN,
    check_count,
    check_width,
    derive_seed,
    rot,
    stream,
    to_hex,
)

words8 = st.integers(0, 255)
words16 = st.integers(0, 2**16 - 1)


def rotl(x, n, width):
    """Rotate x left by n positions: rot by a word of weight n mod width."""
    return rot(x, (1 << (n % width)) - 1, width)


class TestConstruction:
    def test_range_validation(self):
        # words are ints of one simulation-wide width; the width is checked once
        with pytest.raises(ValueError):
            check_width(0)
        with pytest.raises(ValueError):
            check_width(-4)

    def test_zeros_ones(self):
        assert to_hex(0, 8) == "00"
        assert to_hex(0xFF, 8) == "ff"

    def test_hex_round_trip(self):
        assert to_hex(0x0A3F, 16) == "0a3f"
        assert int(to_hex(0x0A3F, 16), 16) == 0x0A3F

    def test_hex_needs_whole_nibbles(self):
        with pytest.raises(ValueError):
            check_width(9)


class TestBitwise:
    def test_xor_example(self):
        # frozen from the per-bit oracle
        assert 0xC5 ^ 0x36 == 0xF3
        assert oracle.xor_bits(0xC5, 0x36, 8) == 0xF3

    def test_self_inverse(self):
        w = 0xA7
        assert (w ^ w) == 0

    def test_identity_elements(self):
        w = 0x5A
        assert (w | 0) == w
        assert (w & 0xFF) == w

    @given(a=words8, b=words8)
    def test_matches_oracle(self, a, b):
        assert a ^ b == oracle.xor_bits(a, b, 8)
        assert a | b == oracle.or_bits(a, b, 8)
        assert a & b == oracle.and_bits(a, b, 8)


class TestWeightAndRotation:
    def test_weight_examples(self):
        assert (0xC5).bit_count() == oracle.weight_bits(0xC5, 8) == 4  # frozen from oracle
        assert (0).bit_count() == 0
        assert (0xFF).bit_count() == 8

    def test_rotate_examples(self):
        assert rotl(0xB1, 2, 8) == 0xC6  # frozen from oracle
        w = 0x9D
        assert rotl(w, 0, 8) == w
        assert rot(w, 0xFF, 8) == w  # full cycle

    def test_rot_examples(self):
        assert rot(0xC5, 0xC5, 8) == 0x5C  # frozen from oracle
        w = 0x7B
        assert rot(w, 0, 8) == w  # weight 0
        assert rot(w, 0xFF, 8) == w  # weight 8 = 0 mod 8

    @given(w=words16, n=st.integers(0, 40))
    def test_rotate_matches_oracle(self, w, n):
        assert rotl(w, n, 16) == oracle.rotl_bits(w, n, 16)

    @given(a=words16, b=words16)
    def test_rot_matches_oracle(self, a, b):
        assert rot(a, b, 16) == oracle.rot_bits(a, b, 16)

    @given(w=words16, n=st.integers(0, 40))
    def test_rotation_preserves_bit_multiset(self, w, n):
        assert rotl(w, n, 16).bit_count() == w.bit_count()

    @given(a=words16, b=words16)
    def test_rot_preserves_weight(self, a, b):
        assert rot(a, b, 16).bit_count() == a.bit_count()

    @given(w=words16, i=st.integers(0, 31), j=st.integers(0, 31))
    def test_rotations_compose(self, w, i, j):
        assert rotl(rotl(w, i, 16), j, 16) == rotl(w, (i + j) % 16, 16)

    @given(a=words16, c=words16, b=words16)
    def test_rot_distributes_over_xor(self, a, c, b):
        # the linearity every key-recovery and replay argument rests on
        assert rot(a ^ c, b, 16) == rot(a, b, 16) ^ rot(c, b, 16)

    @settings(max_examples=30)
    @given(x=st.integers(0, 2**128 - 1), y=st.integers(0, 2**128 - 1))
    def test_rot_stays_in_range_at_full_width(self, x, y):
        assert 0 <= rot(x, y, 128) < 2**128


class TestParams:
    def test_defaults(self):
        assert DEFAULT_WORD_LEN == 128

    def test_word_len_validation(self):
        with pytest.raises(ValueError, match=">= 4"):
            check_width(3)
        with pytest.raises(ValueError, match="divisible by 4"):
            check_width(10)  # not a whole number of nibbles
        check_width(4)
        check_width(8)
        check_width(16)

    @pytest.mark.parametrize("width", [128.0, 16.5, True, "128", None, 2**7 + 0j])
    def test_word_len_must_be_an_int(self, width):
        # 128.0 once passed and failed mid-run in a TypeError
        with pytest.raises(ValueError) as err:
            check_width(width)
        assert str(err.value) == f"word_len must be an int, got {width!r}"

    def test_count_check(self):
        check_count("trials", 1, 1)
        with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
            check_count("trials", 0, 1)
        with pytest.raises(ValueError, match="^trials must be an int, got 2.5$"):
            check_count("trials", 2.5, 1)


class TestStreams:
    def test_same_seed_same_words(self):
        a, b = stream(42, "nonce"), stream(42, "nonce")
        assert [a.getrandbits(128) for _ in range(5)] == [b.getrandbits(128) for _ in range(5)]

    def test_different_seeds_diverge(self):
        # a different label, label value or base seed gives another stream
        assert stream(1, "init").getrandbits(128) != stream(1, "nonce").getrandbits(128)
        assert stream(1, "x", 1).getrandbits(128) != stream(1, "x", 2).getrandbits(128)
        assert stream(1, "init").getrandbits(128) != stream(2, "init").getrandbits(128)

    def test_word_width(self):
        s = stream(0, "width")
        words = [s.getrandbits(16) for _ in range(200)]
        assert all(0 <= w < 2**16 for w in words)
        assert max(words) >= 2**15  # the top bit is drawn too

    def test_draws_come_from_one_seeded_generator(self):
        # stream(base, *labels) is random.Random(derive_seed(base, *labels))
        s, ref = stream(9, "x", 1), random.Random(derive_seed(9, "x", 1))
        got = [s.getrandbits(128), s.getrandbits(1), s.randrange(100), s.getrandbits(128)]
        want = [ref.getrandbits(128), ref.getrandbits(1), ref.randrange(100),
                ref.getrandbits(128)]
        assert got == want

    def test_derive_seed_frozen(self):
        # regression pins: derivation must stay stable across releases
        assert derive_seed(0, "regression") == 7256482200035929496
        assert derive_seed(7, "game", 3) == 6446571386113396976

    def test_derive_seed_separates_labels(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "x", 1) != derive_seed(0, "x", 2)


class TestImmutability:
    def test_operations_return_new_words(self):
        w = 0x42
        _ = w ^ 0xFF
        _ = rotl(w, 3, 8)
        assert w == 0x42


@settings(max_examples=30)
@given(v=st.integers(0, 2**128 - 1))
def test_full_width_hex_round_trip(v):
    text = to_hex(v, 128)
    assert int(text, 16) == v
    assert len(text) == 32
    assert text == text.lower()
