"""Complexity estimation: shortest-producer maps, conditioning, synergy, labels."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbnet.bits import bitstring_to_natural
from bbnet.codec import all_programs, decode_exact
from bbnet.machine import run
from bbnet.measures import (
    COMPRESSION_FALLBACK,
    DEFAULT_BUDGET_STEPS,
    ENUMERATION,
    ComplexityCache,
    ComplexityEstimate,
    ThresholdUnreachable,
    algorithmic_contribution,
    compression_fallback_bits,
    conditional_complexity,
    copy_constant,
    copy_program,
    local_synergy,
    pick_labels,
    program_complexity,
    slack_constant,
)
from bbnet.network import run_networked, assemble
from bbnet.tvg import Tvg

SMALL_BITS = 14
SMALL_STEPS = 2000

short_bits = st.text(alphabet="01", max_size=5)


def naive_output_map(given, budget_bits, budget_steps):
    """Reference implementation: run every program, keep the shortest producer."""
    table = {}
    for program in all_programs(budget_bits):
        verdict = run(program, "", budget=budget_steps, aux_bits=given)
        if verdict.kind != "halted":
            continue
        best = table.get(verdict.output)
        if best is None or (len(program.bits), program.bits) < (len(best), best):
            table[verdict.output] = program.bits
    return table


# -------------------------------------------------------------- the copy loop


def test_copy_program_is_21_bits():
    copier = copy_program()
    assert len(copier.bits) == 21
    assert copy_constant() == 21
    assert slack_constant() == 25
    assert decode_exact(copier.bits) == copier


def test_copy_program_moves_conditioning_to_output():
    copier = copy_program()
    for aux in ["", "1", "010", "110101010011"]:
        verdict = run(copier, "", budget=DEFAULT_BUDGET_STEPS, aux_bits=aux)
        assert verdict.kind == "halted"
        assert verdict.output == aux


def test_default_step_budget_covers_the_copier_on_12_bit_values():
    worst = bitstring_to_natural("1" * 12)
    assert 3 * worst + 1 <= DEFAULT_BUDGET_STEPS


# ------------------------------------------------------------ plain estimates


def test_unconditional_pins():
    assert program_complexity("") == ComplexityEstimate(1, ENUMERATION, "1")
    assert program_complexity("0").value == 6
    est = program_complexity("1")
    assert est.value == 9
    assert run(decode_exact(est.witness), "", budget=100).output == "1"


def test_witnesses_replay():
    for target in ["", "0", "1", "00", "01"]:
        est = program_complexity(target)
        assert est.method == ENUMERATION
        verdict = run(decode_exact(est.witness), "", budget=DEFAULT_BUDGET_STEPS)
        assert verdict.kind == "halted"
        assert verdict.output == target


def test_fallback_formula():
    assert compression_fallback_bits("") == len(__import__("zlib").compress(b"", 9)) * 8 + 8
    target = "010110111110"
    expected = len(__import__("zlib").compress(target.encode("ascii"), 9)) * 8 + 8
    assert compression_fallback_bits(target) == expected


def test_unproducible_targets_fall_back_to_compression():
    # At a tiny enumeration budget almost nothing is producible.
    target = "11010010101101"
    est = program_complexity(target, budget_bits=8, budget_steps=100)
    assert est.method == COMPRESSION_FALLBACK
    assert est.witness is None
    assert est.value == compression_fallback_bits(target)
    assert not est.exact


# --------------------------------------------------------------- conditioning


def test_conditioning_pins():
    assert conditional_complexity("", "1").value == 1
    assert conditional_complexity("", "").value == 1
    y = "110101010011"
    est = conditional_complexity(y, y)
    assert est.value == 21
    assert est.witness == copy_program().bits


def test_conditioning_never_hurts():
    # Every conditioning-blind program is available under any conditioning, so
    # an estimate given x can only improve on the unconditional one.
    for target in ["", "0", "1", "00", "111"]:
        base = program_complexity(target, SMALL_BITS, SMALL_STEPS)
        for given in ["", "0", "110", "10101"]:
            cond = conditional_complexity(target, given, SMALL_BITS, SMALL_STEPS)
            assert cond.value <= base.value


def test_self_conditioning_is_at_most_the_copy_constant():
    for y in ["", "0", "1", "0101", "111000111000"]:
        est = conditional_complexity(y, y)
        assert est.value <= copy_constant()


def test_short_targets_beat_the_copier():
    # Simple strings have dedicated short producers; the copier is not optimal.
    assert conditional_complexity("", "").value == 1
    assert conditional_complexity("0", "0").value == 6


def test_two_tier_map_matches_naive_enumeration():
    for given in [None, "", "1", "011", "110101010011"]:
        fast_unconditional = (
            program_complexity("", SMALL_BITS, SMALL_STEPS)
            if given is None
            else conditional_complexity("", given, SMALL_BITS, SMALL_STEPS)
        )
        naive = naive_output_map(given, SMALL_BITS, SMALL_STEPS)
        # Compare every single producible output, not just one probe.
        from bbnet.measures import _output_map

        assert _output_map(given, SMALL_BITS, SMALL_STEPS) == naive
        assert fast_unconditional.witness == naive[""]


# -------------------------------------------------------- contribution/synergy


def test_zero_property():
    assert local_synergy("110", "01", "01", SMALL_BITS, SMALL_STEPS) == 0
    assert local_synergy("", "", "", SMALL_BITS, SMALL_STEPS) == 0


def test_contribution_is_a_difference_of_estimates():
    net, iso = "110101010011", ""
    expected = (
        program_complexity(net, SMALL_BITS, SMALL_STEPS).value
        - program_complexity(iso, SMALL_BITS, SMALL_STEPS).value
    )
    assert algorithmic_contribution(net, iso, SMALL_BITS, SMALL_STEPS) == expected
    assert algorithmic_contribution(iso, net, SMALL_BITS, SMALL_STEPS) == -expected


def test_synergy_is_antisymmetric_in_its_outputs():
    t = "10110"
    a, b = "0", "111"
    forward = local_synergy(t, a, b, SMALL_BITS, SMALL_STEPS)
    backward = local_synergy(t, b, a, SMALL_BITS, SMALL_STEPS)
    assert forward == -backward


@settings(max_examples=25)
@given(short_bits, short_bits, short_bits)
def test_synergy_decomposes_into_conditionals(t, net, iso):
    value = local_synergy(t, net, iso, SMALL_BITS, SMALL_STEPS)
    expected = (
        conditional_complexity(t, iso, SMALL_BITS, SMALL_STEPS).value
        - conditional_complexity(t, net, SMALL_BITS, SMALL_STEPS).value
    )
    assert value == expected


# -------------------------------------------------------------------- caching


def test_cache_prefers_stored_entries():
    cache = ComplexityCache()
    fake = ComplexityEstimate(999, "made-up", None)
    cache.put("", None, fake)
    assert program_complexity("", SMALL_BITS, SMALL_STEPS, cache) == fake


def test_cache_distinguishes_conditional_from_unconditional():
    cache = ComplexityCache()
    cache.put("x", None, ComplexityEstimate(5, ENUMERATION, "1"))
    cache.put("x", "", ComplexityEstimate(7, ENUMERATION, "1"))
    assert cache.get("x", None).value == 5
    assert cache.get("x", "").value == 7


# -------------------------------------------------------------------- labels


def test_pick_labels_rejects_defaults_then_finds_a_random_pair():
    pick = pick_labels(10, seed=0)
    assert pick.attempts == 2  # defaults fail: both are producible by enumeration
    assert pick.halting == "010110111110"
    assert pick.nonhalting == "011000001010"
    assert pick.threshold == 10 + slack_constant()
    assert pick.halting_estimate.method == COMPRESSION_FALLBACK
    assert pick.halting_estimate.value == 136
    assert pick.nonhalting_estimate.value == 136


def test_pick_labels_threshold_scales_with_x():
    low = pick_labels(0, seed=0)
    high = pick_labels(20, seed=0)
    assert low.threshold == slack_constant()
    assert high.threshold == 20 + slack_constant()
    # The candidate stream is x-independent, so both land on the same pair.
    assert (low.halting, low.nonhalting) == (high.halting, high.nonhalting)


def test_pick_labels_estimates_clear_the_threshold():
    for x in (5, 10, 20):
        pick = pick_labels(x, seed=3)
        assert pick.halting_estimate.value >= x + slack_constant()
        assert pick.nonhalting_estimate.value >= x + slack_constant()
        assert pick.halting != pick.nonhalting


def test_pick_labels_fails_when_labels_are_too_simple():
    # Every 1-bit string has a short producer, so no pair can clear a threshold.
    with pytest.raises(ThresholdUnreachable):
        pick_labels(10, seed=0, label_bits=1)


def test_label_conditional_complexity_given_itself_is_the_copier():
    pick = pick_labels(10, seed=0)
    est = conditional_complexity(pick.halting, pick.halting)
    assert est.value == copy_constant()
    assert est.witness == copy_program().bits


# ------------------------------------------------- end-to-end synergy shapes


def test_expected_synergy_over_a_tiny_network():
    from bbnet.codec import native_program, OP_DECJZ, OP_JMPBACK
    from bbnet.measures import expected_local_synergy
    from bbnet.network import run_isolated

    empty = decode_exact("1")
    inc = decode_exact("010001")
    cycle = native_program(((OP_DECJZ, 0, 1), (OP_JMPBACK, 1, 0)))
    star = Tvg(
        num_vertices=3,
        num_instants=3,
        arcs=frozenset(
            {(0, i, s) for i in range(2) for s in (1, 2)}
            | {(s, i, 0) for i in range(2) for s in (1, 2)}
        ),
    )
    record = run_networked(assemble(star, (empty, inc, cycle)), "1", budget=100)
    isolated = [
        run_isolated(p, "1", record.n_cycles, budget=100)[-1]
        for p in (empty, inc, cycle)
    ]
    stats = expected_local_synergy(
        record, isolated, record.reference_label, SMALL_BITS, SMALL_STEPS
    )
    assert len(stats.per_node) == 3
    assert stats.mean == sum(stats.per_node) / 3
    assert stats.fraction_correct == record.fraction_correct
    assert len(stats.per_node_correct) == sum(1 for n in record.nodes if n.correct)
    # Identical outputs mean zero synergy.
    same = expected_local_synergy(
        record,
        [n.final_output for n in record.nodes],
        record.reference_label,
        SMALL_BITS,
        SMALL_STEPS,
    )
    assert same.per_node == [0, 0, 0]


def test_expected_synergy_validates_lengths():
    from bbnet.measures import expected_local_synergy

    empty = decode_exact("1")
    lonely = Tvg(num_vertices=1, num_instants=1, arcs=frozenset())
    record = run_networked(assemble(lonely, (empty,)), "1", budget=100)
    with pytest.raises(ValueError):
        expected_local_synergy(record, [], record.reference_label)
