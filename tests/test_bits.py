"""Bit-level primitives: the natural/bitstring bijection, gamma codes, framing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbnet.bits import (
    bitstring_to_natural,
    concat_selfdelim,
    gamma_encode,
    gamma_min_completion,
    natural_to_bitstring,
    split_selfdelim,
)

bitstrings = st.text(alphabet="01", max_size=64)


def test_bijection_small_values():
    # Length-lexicographic: the empty string is 0, then "0", "1", "00", ...
    expected = ["", "0", "1", "00", "01", "10", "11", "000"]
    for value, bits in enumerate(expected):
        assert natural_to_bitstring(value) == bits
        assert bitstring_to_natural(bits) == value


def test_bijection_is_order_isomorphic():
    # Sorting bitstrings by (length, lexicographic) must match natural order.
    strings = [natural_to_bitstring(n) for n in range(512)]
    assert strings == sorted(strings, key=lambda s: (len(s), s))
    assert len(set(strings)) == 512


@given(st.integers(min_value=0, max_value=10**18))
def test_bijection_round_trip(value):
    assert bitstring_to_natural(natural_to_bitstring(value)) == value


@given(bitstrings)
def test_bijection_round_trip_bits(bits):
    assert natural_to_bitstring(bitstring_to_natural(bits)) == bits


def test_gamma_small_values():
    assert gamma_encode(1) == "1"
    assert gamma_encode(2) == "010"
    assert gamma_encode(3) == "011"
    assert gamma_encode(4) == "00100"
    assert gamma_encode(7) == "00111"
    assert gamma_encode(8) == "0001000"


def test_gamma_is_prefix_free():
    codes = [gamma_encode(v) for v in range(1, 600)]
    codeset = set(codes)
    assert len(codeset) == len(codes)
    for code in codes:
        for cut in range(1, len(code)):
            assert code[:cut] not in codeset


@given(st.integers(min_value=1, max_value=10**6), bitstrings)
def test_gamma_self_delimiting(value, suffix):
    # A gamma code followed by anything decodes back unambiguously.
    code = gamma_encode(value)
    zeros = len(code) - len(code.lstrip("0"))
    payload = (code + suffix)[zeros : 2 * zeros + 1]
    assert int(payload, 2) == value


def test_gamma_min_completion_cases():
    # Inside the zero run: one more zero forces a strictly larger minimum.
    assert gamma_min_completion("") == (1, 1)
    assert gamma_min_completion("0") == (2, 2)
    assert gamma_min_completion("00") == (3, 4)
    # Inside the value bits: remaining positions filled with zeros.
    assert gamma_min_completion("01") == (1, 2)
    assert gamma_min_completion("001") == (2, 4)
    assert gamma_min_completion("0011") == (1, 6)


@given(st.integers(min_value=1, max_value=10**6), st.data())
def test_gamma_min_completion_sound_and_achievable(value, data):
    code = gamma_encode(value)
    cut = data.draw(st.integers(min_value=0, max_value=len(code) - 1))
    partial = code[:cut]
    extra, minimum = gamma_min_completion(partial)
    # Sound: this very code is a completion, so the minimum cannot beat it.
    assert extra <= len(code) - cut
    assert minimum <= value
    # Achievable: some gamma code realises exactly (cut + extra, minimum).
    best = gamma_encode(minimum)
    assert best.startswith(partial)
    assert len(best) == cut + extra


def test_gamma_min_completion_is_minimal_brute_force():
    # Over all codes of values < 2**8 and every cut, no completion beats the bound.
    codes = {v: gamma_encode(v) for v in range(1, 256)}
    partials = {code[:cut] for code in codes.values() for cut in range(len(code))}
    for partial in partials:
        extra, minimum = gamma_min_completion(partial)
        completions = [v for v, code in codes.items() if code.startswith(partial)]
        assert minimum == min(completions)
        assert extra == min(len(codes[v]) for v in completions) - len(partial)


def test_concat_selfdelim_examples():
    assert concat_selfdelim([]) == ""
    assert concat_selfdelim([""]) == "1"
    assert concat_selfdelim(["0"]) == "010" + "0"
    assert concat_selfdelim(["1", "01"]) == "0101" + "01101"


@given(st.lists(bitstrings, max_size=6))
def test_concat_split_round_trip(parts):
    assert split_selfdelim(concat_selfdelim(parts)) == parts


@given(st.lists(bitstrings, min_size=1, max_size=4), st.lists(bitstrings, min_size=1, max_size=4))
def test_concat_is_injective(a, b):
    if a != b:
        assert concat_selfdelim(a) != concat_selfdelim(b)


def test_split_rejects_trailing_garbage():
    framed = concat_selfdelim(["01"])
    with pytest.raises(ValueError):
        split_selfdelim(framed + "0")


def test_rejects_non_bits():
    with pytest.raises(ValueError):
        bitstring_to_natural("012")
