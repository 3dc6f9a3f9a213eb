"""Interpreter semantics: bounded runs, the nonhalting prover, composite step counts."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbnet.bits import bitstring_to_natural, natural_to_bitstring
from bbnet.codec import (
    EMPTY_PROGRAM,
    OP_DECJZ,
    OP_INC,
    OP_JMPBACK,
    OP_ZERO,
    all_programs,
    halt_test_program,
    native_program,
    runtime_witness_program,
    step_count_program,
    successor_program,
)
from bbnet.machine import (
    BUDGET_EXHAUSTED,
    DEFAULT_LABELS,
    HALTED,
    PROVEN_NONHALTING,
    Labels,
    Verdict,
    fitness,
    oracle,
    run,
)
from bbnet.network import sample_population

import reference_machine

INC = native_program(((OP_INC, 0, 0),))
CYCLE = native_program(((OP_DECJZ, 0, 1), (OP_JMPBACK, 1, 0)))
GROW = native_program(((OP_INC, 0, 0), (OP_JMPBACK, 1, 0)))

bitstrings = st.text(alphabet="01", max_size=16)


# ------------------------------------------------------------------ native runs


def test_empty_program_echoes_its_input():
    assert run(EMPTY_PROGRAM, "") == Verdict(HALTED, "", 0)
    for w in ["0", "1", "0110", "11111"]:
        verdict = run(EMPTY_PROGRAM, w)
        assert verdict == Verdict(HALTED, w, 0)
        assert fitness(verdict) == bitstring_to_natural(w) + 1


def test_single_increment():
    assert run(INC, "") == Verdict(HALTED, "0", 1)
    # Incrementing value 2 gives value 3.
    assert run(INC, "1") == Verdict(HALTED, "00", 1)


def test_zero_instruction_clears_the_input_register():
    zero = native_program(((OP_ZERO, 0, 0),))
    assert run(zero, "11") == Verdict(HALTED, "", 1)


def test_decjz_decrements_or_jumps():
    dec = native_program(((OP_DECJZ, 0, 1),))
    # Nonzero: decrement and fall through.
    assert run(dec, "1") == Verdict(HALTED, "0", 1)
    # Zero: skip forward past the end.
    assert run(dec, "") == Verdict(HALTED, "", 1)


def test_decjz_skip_distance():
    # Skipping 2 jumps over the increment; a zero register leaves it untouched.
    prog = native_program(((OP_DECJZ, 0, 2), (OP_INC, 0, 0)))
    assert run(prog, "") == Verdict(HALTED, "", 1)
    # Value 1: decrement to 0, then the increment runs: back to value 1.
    assert run(prog, "0") == Verdict(HALTED, "0", 2)


def test_cycle_is_proven_nonhalting_by_the_oracle_only():
    assert CYCLE.bits == "0110111101"
    assert oracle(CYCLE, "") == Verdict(PROVEN_NONHALTING, None, 2)
    plain = run(CYCLE, "", budget=100)
    assert plain == Verdict(BUDGET_EXHAUSTED, None, 100)


def test_growing_register_stays_unknown():
    assert GROW.bits == "011001101"
    assert oracle(GROW, "", budget=1000) == Verdict(BUDGET_EXHAUSTED, None, 1000)
    assert run(GROW, "", budget=1000) == Verdict(BUDGET_EXHAUSTED, None, 1000)


def test_budget_zero():
    # An empty body halts before the budget is consulted.
    assert run(EMPTY_PROGRAM, "0", budget=0).kind == HALTED
    assert run(INC, "", budget=0) == Verdict(BUDGET_EXHAUSTED, None, 0)


def test_auxiliary_register_conditioning():
    # DECJZ on register 1 observes the conditioning value.
    probe = native_program(((OP_DECJZ, 1, 2), (OP_INC, 0, 0)))
    assert run(probe, "", aux_bits=None) == Verdict(HALTED, "", 1)
    assert run(probe, "", aux_bits="") == Verdict(HALTED, "", 1)
    assert run(probe, "", aux_bits="0") == Verdict(HALTED, "0", 2)


def test_copy_loop_moves_aux_to_output():
    copier = native_program(((OP_DECJZ, 1, 3), (OP_INC, 0, 0), (OP_JMPBACK, 2, 0)))
    for aux in ["", "0", "1", "10110"]:
        value = bitstring_to_natural(aux)
        verdict = run(copier, "", budget=10 * value + 10, aux_bits=aux)
        assert verdict.kind == HALTED
        assert verdict.output == aux
        assert verdict.steps == 3 * value + 1


# ------------------------------------------------------------------- composites


def test_step_count_reports_inner_steps():
    assert run(step_count_program(EMPTY_PROGRAM), "") == Verdict(HALTED, "", 1)
    assert run(step_count_program(INC), "") == Verdict(HALTED, "0", 2)


def test_successor_increments_inner_output():
    assert run(successor_program(EMPTY_PROGRAM), "") == Verdict(HALTED, "0", 1)
    assert run(successor_program(INC), "") == Verdict(HALTED, "1", 2)


def test_runtime_witness_outputs_steps_plus_one():
    # successor(step-count(q)) emits the value T(q)+1 in T(q)+2 steps.
    witness = runtime_witness_program(EMPTY_PROGRAM)
    assert witness.bits == "010100100101011"
    assert run(witness, "") == Verdict(HALTED, "0", 2)
    assert run(runtime_witness_program(INC), "") == Verdict(HALTED, "1", 3)


def test_halt_test_pins():
    # The increment halts in 1 step, which exceeds a bound of 0.
    assert run(halt_test_program(0, INC), "") == Verdict(HALTED, "0", 2)
    assert run(halt_test_program(1, INC), "") == Verdict(HALTED, "1", 2)
    assert run(halt_test_program(100, EMPTY_PROGRAM), "") == Verdict(HALTED, "1", 1)


def test_halt_test_on_proven_cycle():
    # The inner cycle is proven nonhalting; the test simulates bound+1 steps.
    tester = halt_test_program(5, CYCLE)
    assert run(tester, "", budget=100) == Verdict(HALTED, "0", 7)
    # The bound+2 total does not fit in a budget of 6.
    assert run(tester, "", budget=6).kind == BUDGET_EXHAUSTED


def test_halt_test_is_total_within_bound_plus_two():
    for bound in [0, 1, 5, 50]:
        for inner in [EMPTY_PROGRAM, INC, CYCLE, GROW]:
            verdict = run(halt_test_program(bound, inner), "", budget=bound + 2)
            assert verdict.kind == HALTED
            assert verdict.steps <= bound + 2


def test_composites_ignore_input_and_conditioning():
    tester = halt_test_program(3, INC)
    baseline = run(tester, "")
    assert run(tester, "10101") == baseline
    assert run(tester, "", aux_bits="111") == baseline


def test_custom_labels_are_plumbed_through():
    labels = Labels(halting="1100", nonhalting="0011")
    assert run(halt_test_program(2, INC), "", labels=labels).output == "1100"
    assert run(halt_test_program(0, INC), "", labels=labels).output == "0011"


def test_fitness_values():
    assert fitness(Verdict(HALTED, "", 0)) == 1
    assert fitness(Verdict(HALTED, "101", 3)) == 12 + 1
    assert fitness(Verdict(PROVEN_NONHALTING, None, 2)) == 0
    assert fitness(Verdict(BUDGET_EXHAUSTED, None, 100)) == 0


def test_rejects_negative_budget():
    with pytest.raises(ValueError):
        run(EMPTY_PROGRAM, "", budget=-1)


# ------------------------------------------------------------------- properties


@settings(max_examples=150)
@given(st.sampled_from(all_programs(12)), bitstrings, st.integers(min_value=0, max_value=400))
def test_oracle_agrees_with_plain_runs(program, w, budget):
    plain = run(program, w, budget=budget)
    proved = oracle(program, w, budget=budget)
    assert plain.kind != PROVEN_NONHALTING  # plain runs never prove anything
    if plain.kind == HALTED:
        assert proved == plain
    else:
        assert proved.kind in (PROVEN_NONHALTING, BUDGET_EXHAUSTED)
    if proved.kind == HALTED:
        assert plain == proved


@settings(max_examples=150)
@given(st.sampled_from(all_programs(12)), bitstrings, st.integers(min_value=0, max_value=200))
def test_verdicts_are_stable_under_larger_budgets(program, w, budget):
    small = oracle(program, w, budget=budget)
    large = oracle(program, w, budget=budget + 137)
    if small.kind == HALTED:
        assert large == small
    elif small.kind == PROVEN_NONHALTING:
        assert large == small
    # Budget-exhausted runs may resolve either way with more steps.


@settings(max_examples=100)
@given(st.sampled_from(all_programs(12)), bitstrings)
def test_halted_steps_never_exceed_budget(program, w):
    verdict = oracle(program, w, budget=500)
    assert verdict.steps <= 500
    if verdict.kind == BUDGET_EXHAUSTED and program.is_native:
        assert verdict.steps == 500


@settings(max_examples=60)
@given(st.sampled_from(all_programs(10)), st.integers(min_value=0, max_value=30))
def test_halt_test_matches_direct_observation(program, bound):
    # The composite's answer equals comparing the actual step count to the bound.
    direct = oracle(program, "", budget=bound + 1)
    expected_halting = direct.kind == HALTED and direct.steps <= bound
    verdict = run(halt_test_program(bound, program), "", budget=bound + 2)
    assert verdict.kind == HALTED
    assert (verdict.output == "1") == expected_halting


@settings(max_examples=60)
@given(st.sampled_from(all_programs(12)))
def test_runtime_witness_encodes_the_step_count(program):
    inner = oracle(program, "", budget=2000)
    witness = runtime_witness_program(program)
    verdict = run(witness, "", budget=2002)
    if inner.kind == HALTED:
        assert verdict.kind == HALTED
        assert bitstring_to_natural(verdict.output) == inner.steps + 1
        assert verdict.steps == inner.steps + 2
    else:
        assert verdict.kind != HALTED


@given(st.integers(min_value=0, max_value=2000))
def test_fitness_is_output_rank_plus_one(value):
    verdict = Verdict(HALTED, natural_to_bitstring(value), 1)
    assert fitness(verdict) == value + 1


# ------------------------------------------------- against the reference loop

REFERENCE_AUX = "10"


def _reference(program, w, budget, detect_cycles, aux_bits=None):
    r1 = bitstring_to_natural(aux_bits) if aux_bits is not None else 0
    return reference_machine._evaluate(
        program, bitstring_to_natural(w), budget, DEFAULT_LABELS, detect_cycles, r1
    )


def _assert_verdicts_match_reference(programs, inputs, budgets):
    for program in programs:
        for w in inputs:
            for budget in budgets:
                where = (program.bits, w, budget)
                assert run(program, w, budget) == _reference(program, w, budget, False), where
                assert run(program, w, budget, aux_bits=REFERENCE_AUX) == _reference(
                    program, w, budget, False, REFERENCE_AUX
                ), where
                assert oracle(program, w, budget) == _reference(program, w, budget, True), where


def test_verdicts_match_the_reference_on_short_programs():
    _assert_verdicts_match_reference(
        all_programs(16), ["", "1", "010001", "0110"], [0, 1, 2, 10, 1_000, 10_000]
    )


def test_verdicts_match_the_reference_at_every_small_budget():
    # Budgets 0..299 cross the points where the growth proof is tried.
    _assert_verdicts_match_reference(all_programs(16), [""], [*range(300), 100_000])


def test_verdicts_match_the_reference_on_sampled_populations():
    programs = {}
    for seed in range(4):
        for program in sample_population(512, seed):
            programs.setdefault(program.bits, program)
    _assert_verdicts_match_reference(
        programs.values(), [p.bits for p in all_programs(8)], [10, 100, 1_000, 10_000]
    )


# Counts r1 up from 0 and, after each increment, compares it with the input in
# r0 through copies in r2..r4; halts once r1 reaches the input.  Between two
# outer iterations no register shrinks, but r1 is drained to zero and refilled
# on the way, so no growth proof may stop it.
COUNT_UP = native_program([
    (OP_INC, 1, 0), (OP_DECJZ, 1, 4), (OP_INC, 2, 0), (OP_INC, 3, 0), (OP_JMPBACK, 3, 0),
    (OP_DECJZ, 3, 3), (OP_INC, 1, 0), (OP_JMPBACK, 2, 0),
    (OP_DECJZ, 0, 4), (OP_INC, 4, 0), (OP_INC, 3, 0), (OP_JMPBACK, 3, 0),
    (OP_DECJZ, 3, 3), (OP_INC, 0, 0), (OP_JMPBACK, 2, 0),
    (OP_DECJZ, 2, 4), (OP_DECJZ, 4, 3), (OP_JMPBACK, 2, 0), (OP_INC, 5, 0),
    (OP_DECJZ, 4, 3), (OP_ZERO, 4, 0), (OP_JMPBACK, 21, 0),
])

# A 32-step body, then two backward jumps to its start: the first clears a
# non-zero r0, the second closes the cycle once r0 is zero.  The configuration
# first repeats right after the second jump, a whole body after the first.
CYCLE_TWO_JUMPS = native_program(
    [(OP_INC, 1, 0), (OP_DECJZ, 1, 1)] * 16
    + [(OP_DECJZ, 0, 3), (OP_ZERO, 0, 0), (OP_JMPBACK, 34, 0), (OP_JMPBACK, 35, 0)]
)


def test_growth_proof_leaves_a_refilled_register_alone():
    twenty = natural_to_bitstring(20)
    expected = Verdict(HALTED, twenty, 5078)
    assert run(COUNT_UP, twenty, budget=10_000) == expected
    assert oracle(COUNT_UP, twenty, budget=10_000) == expected
    assert _reference(COUNT_UP, twenty, 10_000, True) == expected


def test_oracle_reports_a_repeat_at_a_checked_jump_at_its_step():
    expected = Verdict(PROVEN_NONHALTING, None, 69)
    assert oracle(CYCLE_TWO_JUMPS, "0", budget=10_000) == expected
    assert _reference(CYCLE_TWO_JUMPS, "0", 10_000, True) == expected
    assert run(CYCLE_TWO_JUMPS, "0", budget=10_000) == Verdict(BUDGET_EXHAUSTED, None, 10_000)


def test_oracle_memory_stays_flat_on_a_growing_loop():
    tracemalloc.start()
    try:
        verdict = oracle(GROW, "", budget=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == Verdict(BUDGET_EXHAUSTED, None, 200_000)
    assert peak < 1 << 20
