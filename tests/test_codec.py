"""Program encoding: grammar pins, prefix-freeness, liveness, enumeration, sampling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbnet.codec import (
    DEFAULT_MAX_PROGRAM_BITS,
    EMPTY_PROGRAM,
    HALT_TEST_PREFIX,
    MINIMAL_ENCODING,
    OP_DECJZ,
    OP_INC,
    OP_JMPBACK,
    OP_ZERO,
    RUNTIME_WITNESS_OVERHEAD,
    STEP_COUNT_PREFIX,
    SUCCESSOR_PREFIX,
    MalformedEncoding,
    all_programs,
    classify_prefix,
    decode_exact,
    decode_program,
    halt_test_program,
    instruction_bits,
    is_valid_encoding,
    native_program,
    runtime_witness_program,
    sample_program,
    step_count_program,
    successor_program,
)

bitstrings = st.text(alphabet="01", max_size=40)


def brute_force_valid(max_bits):
    """Independent validity check: try every bitstring, keep exact decodes."""
    found = []
    for length in range(1, max_bits + 1):
        for value in range(1 << length):
            bits = format(value, f"0{length}b")
            if is_valid_encoding(bits):
                found.append(bits)
    return found


# ---------------------------------------------------------------- decoding pins


def test_minimal_encoding_is_empty_program():
    program = decode_exact("1")
    assert program.bits == MINIMAL_ENCODING
    assert program.instructions == ()
    assert program.is_native
    assert program == EMPTY_PROGRAM


def test_single_increment_program():
    program = decode_exact("010001")
    assert program.instructions == ((OP_INC, 0, 0),)


def test_shortest_encodings_enumerate_in_canonical_order():
    bits = [p.bits for p in all_programs(8)]
    assert bits == [
        "1",
        "010001",
        "010111",
        "0100111",
        "0101011",
        "01000010",
        "01000011",
        "01011010",
        "01011011",
    ]


def test_jump_back_must_stay_in_range():
    # A backward jump at instruction index 0 can never be satisfied.
    with pytest.raises(MalformedEncoding):
        decode_exact("010" + "10" + "1")
    # At index 1 a distance-1 jump is fine.
    program = decode_exact("011" + "001" + "101")
    assert program.instructions == ((OP_INC, 0, 0), (OP_JMPBACK, 1, 0))


def test_malformed_examples():
    for bits in ["", "0", "01", "0100", "010", "00", "010100", "0101001"]:
        assert not is_valid_encoding(bits)


def test_builtin_prefixes():
    assert STEP_COUNT_PREFIX == "010101"
    assert SUCCESSOR_PREFIX == "01010010"
    assert HALT_TEST_PREFIX == "01010011"
    assert RUNTIME_WITNESS_OVERHEAD == 14


def test_builtin_id_beyond_catalogue_is_malformed():
    # Marker followed by the gamma code of an unassigned id.
    assert not is_valid_encoding("01010" + "00100" + "1")


def test_composite_builders_round_trip():
    inner = decode_exact("010001")
    stepper = step_count_program(inner)
    assert stepper.bits == STEP_COUNT_PREFIX + inner.bits
    assert decode_exact(stepper.bits) == stepper

    succ = successor_program(inner)
    assert succ.bits == SUCCESSOR_PREFIX + inner.bits
    assert decode_exact(succ.bits) == succ

    tester = halt_test_program(5, inner)
    assert tester.bits.startswith(HALT_TEST_PREFIX)
    assert decode_exact(tester.bits) == tester
    assert tester.bound == 5
    assert tester.arg == inner


def test_runtime_witness_shape():
    inner = decode_exact("1")
    witness = runtime_witness_program(inner)
    assert witness.bits == SUCCESSOR_PREFIX + STEP_COUNT_PREFIX + inner.bits
    assert len(witness.bits) == len(inner.bits) + RUNTIME_WITNESS_OVERHEAD


def test_native_program_builder_matches_instruction_bits():
    instructions = ((OP_DECJZ, 1, 3), (OP_INC, 0, 0), (OP_JMPBACK, 2, 0))
    program = native_program(instructions)
    body = "".join(instruction_bits(ins, i) for i, ins in enumerate(instructions))
    assert program.bits.endswith(body)
    assert decode_exact(program.bits) == program
    assert program.instructions == instructions


def test_zero_opcode_and_registers():
    program = decode_exact("010111")
    assert program.instructions == ((OP_ZERO, 0, 0),)
    assert program.num_registers == 2  # input and conditioning registers always exist


# ------------------------------------------------------- the prefix-free language


def test_enumeration_matches_brute_force_to_14_bits():
    enumerated = [p.bits for p in all_programs(14)]
    assert enumerated == sorted(brute_force_valid(14), key=lambda b: (len(b), b))
    assert len(enumerated) == 381


def test_enumeration_counts_are_stable():
    assert len(all_programs(8)) == 9
    assert len(all_programs(14)) == 381
    assert len(all_programs(20)) == 12853


def test_no_valid_encoding_is_a_prefix_of_another():
    valid = set(p.bits for p in all_programs(14))
    for bits in valid:
        for cut in range(1, len(bits)):
            assert bits[:cut] not in valid


@given(st.sampled_from(all_programs(14)), bitstrings)
def test_decoding_is_self_delimiting(program, suffix):
    decoded, rest = decode_program(program.bits + suffix)
    assert decoded == program
    assert rest == suffix


def test_kraft_sum_is_below_one():
    total = sum(2 ** -len(p.bits) for p in all_programs(16))
    assert 0 < total <= 1


# -------------------------------------------------------------------- liveness


def test_classify_prefix_agrees_with_brute_force():
    # Ground truth for "live": some valid encoding of <= max_bits extends the prefix.
    max_bits = 10
    valid = brute_force_valid(max_bits)
    live_truth = {}
    for bits in valid:
        for cut in range(len(bits)):
            prefix = bits[:cut]
            best = live_truth.get(prefix)
            if best is None or len(bits) < best:
                live_truth[prefix] = len(bits)
    for length in range(0, max_bits + 1):
        for value in range(1 << length):
            prefix = format(value, f"0{length}b") if length else ""
            kind, detail = classify_prefix(prefix, max_bits)
            if prefix in set(valid):
                assert kind == "complete"
                assert detail.bits == prefix
            elif prefix in live_truth:
                assert kind == "live"
                assert detail == live_truth[prefix]
            else:
                assert kind == "dead"


# -------------------------------------------------------------------- sampling


def test_sampler_is_deterministic_per_seed():
    draws_a = [sample_program(random.Random(seed)).bits for seed in range(200)]
    draws_b = [sample_program(random.Random(seed)).bits for seed in range(200)]
    assert draws_a == draws_b


@given(st.integers(min_value=0, max_value=10**9))
def test_sampler_output_is_always_valid(seed):
    program = sample_program(random.Random(seed))
    assert is_valid_encoding(program.bits)
    assert len(program.bits) <= DEFAULT_MAX_PROGRAM_BITS


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=6, max_value=18))
def test_sampler_respects_length_cap(seed, cap):
    program = sample_program(random.Random(seed), max_bits=cap)
    assert len(program.bits) <= cap


def test_sampler_halting_rate_matches_fair_bits():
    # The empty program "1" wins the very first fair bit about half the time.
    rng = random.Random(12345)
    draws = 20_000
    ones = sum(1 for _ in range(draws) if sample_program(rng).bits == "1")
    assert abs(ones / draws - 0.5) < 0.02


def test_sampler_uses_forced_bits():
    # Once inside a builtin marker the continuation has forced bits; every draw
    # still lands on a complete valid program.
    rng = random.Random(7)
    seen = {sample_program(rng, max_bits=14).bits for _ in range(500)}
    assert all(is_valid_encoding(bits) for bits in seen)
    assert "1" in seen
    assert any(len(bits) > 6 for bits in seen)
