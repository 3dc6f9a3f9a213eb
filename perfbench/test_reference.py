"""The benchmark's reference interpreter and earliest-arrival search, on hand-worked cases."""

import pytest

import reference as ref
from reference import DECJZ, INC, JMPBACK, ZERO

EMPTY = "1"
INC_R0 = "010001"
CYCLE = ref.encode_native(((DECJZ, 0, 1), (JMPBACK, 1, 0)))  # r0 = 0: jump 1 forward, back 1
GROW = ref.encode_native(((INC, 0, 0), (JMPBACK, 1, 0)))


def test_naturals_and_gamma():
    assert [ref.to_bits(v) for v in range(7)] == ["", "0", "1", "00", "01", "10", "11"]
    assert all(ref.to_natural(ref.to_bits(v)) == v for v in range(300))
    assert [ref.gamma(v) for v in (1, 2, 3, 4)] == ["1", "010", "011", "00100"]


def test_decoding_hand_encoded_programs():
    assert ref.decode(EMPTY) == ref.Prog("native")
    assert ref.decode(INC_R0) == ref.Prog("native", body=((INC, 0, 0),))
    assert ref.decode("010111") == ref.Prog("native", body=((ZERO, 0, 0),))
    assert CYCLE == "0110111101"
    assert ref.decode("0101011") == ref.Prog(ref.STEP_COUNT, arg=ref.Prog("native"))
    for bad in ("0", "01", "0101", "0110101", "11", "0100011"):
        with pytest.raises(ref.Malformed):
            ref.decode(bad)


def test_every_program_up_to_eight_bits():
    assert [bits for bits, _ in ref.programs_up_to(8)] == [
        "1", "010001", "010111", "0100111", "0101011",
        "01000010", "01000011", "01011010", "01011011",
    ]


def test_increment_halts_with_value_one():
    assert ref.execute(ref.decode(INC_R0)) == ref.Outcome(ref.HALTED, 1, 1)
    assert ref.execute(ref.decode(INC_R0), r0=2) == ref.Outcome(ref.HALTED, 3, 1)
    assert ref.execute(ref.decode(EMPTY), r0=5) == ref.Outcome(ref.HALTED, 5, 0)


def test_copier_moves_register_one_into_register_zero():
    copier = ref.encode_native(ref.COPIER)
    assert len(copier) == 21
    for value in (0, 1, 7, 100):
        assert ref.execute(ref.decode(copier), 0, value) == ref.Outcome(ref.HALTED, value, 3 * value + 1)


def test_two_instruction_loops():
    # DECJZ r0 1 / JMPBACK 1 on r0 = 0 returns to its start after two steps; Brent's
    # detector, holding the configuration saved after step 1, sees it repeat at step 3.
    assert ref.execute(ref.decode(CYCLE), budget=100) == ref.Outcome(ref.LOOPS, None, 3)
    assert ref.execute(ref.decode(GROW), budget=1000) == ref.Outcome(ref.EXHAUSTED, None, 1000)
    assert ref.execute(ref.decode(INC_R0), budget=0).kind == ref.EXHAUSTED


def test_composite_step_counts():
    step_count_of_inc = "01010" + "1" + INC_R0
    successor_of_inc = "01010" + "010" + INC_R0
    assert ref.execute(ref.decode("0101011")) == ref.Outcome(ref.HALTED, 0, 1)
    assert ref.execute(ref.decode(step_count_of_inc)) == ref.Outcome(ref.HALTED, 1, 2)
    assert ref.execute(ref.decode(successor_of_inc)) == ref.Outcome(ref.HALTED, 2, 2)

    def halt_test(bound, arg):
        return ref.decode("01010" + "011" + ref.gamma(bound + 1) + arg)

    halting, nonhalting = ref.to_natural("1"), ref.to_natural("0")
    assert ref.execute(halt_test(0, INC_R0)) == ref.Outcome(ref.HALTED, nonhalting, 2)
    assert ref.execute(halt_test(1, INC_R0)) == ref.Outcome(ref.HALTED, halting, 2)
    assert ref.execute(halt_test(5, CYCLE), budget=100) == ref.Outcome(ref.HALTED, nonhalting, 7)
    assert ref.execute(halt_test(5, CYCLE), budget=6).kind == ref.EXHAUSTED
    assert ref.execute(halt_test(3, GROW), r0=9, r1=9) == ref.Outcome(ref.HALTED, nonhalting, 5)


def test_isolated_runs_feed_back_their_fitness():
    # w = "1" is 2; INC gives 3, fitness 4 = "01"; then 5, fitness 6 = "11".
    assert ref.isolated_outputs(ref.decode(INC_R0), "1", 2, 100) == ["01", "11"]
    assert ref.isolated_outputs(ref.decode(CYCLE), "", 3, 100) == ["", "", ""]


def test_earliest_arrivals_on_hand_drawn_graphs():
    path = {(0, 0, 1), (1, 1, 2)}
    assert ref.earliest_arrivals(3, 3, path, 0) == [0, 1, 2]
    assert ref.earliest_arrivals(3, 3, path, 2) == [None, None, 0]
    # Information waits at vertex 0 until its arc appears in the second interval.
    assert ref.earliest_arrivals(2, 3, {(0, 1, 1)}, 0) == [0, 2]
    # Arcs in the wrong order do not chain.
    assert ref.earliest_arrivals(3, 3, {(1, 0, 2), (0, 1, 1)}, 0) == [0, 2, None]
    assert ref.reverse_reach(3, 3, path) == [None, None, 2]


def test_hypercube_reverse_reach_is_its_dimension():
    for n, dims in ((2, 1), (4, 2), (8, 3), (16, 4)):
        arcs = ref.hypercube_arcs(n, dims + 1)
        assert len(arcs) == n * dims * dims
        assert ref.reverse_reach(n, dims + 1, arcs) == [dims] * n
