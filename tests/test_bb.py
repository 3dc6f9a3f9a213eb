"""Exhaustive best-output tables: values, witnesses, unknown counts, persistence."""

import pytest

from bbnet.bits import bitstring_to_natural
from bbnet.codec import RUNTIME_WITNESS_OVERHEAD, all_programs, decode_exact
from bbnet.machine import (
    BUDGET_EXHAUSTED,
    HALTED,
    BusyBeaverTable,
    busy_beaver_table,
    oracle,
)


def test_small_table_values_are_pinned():
    table = busy_beaver_table(10, budget=100)
    assert [table.value(n) for n in range(1, 11)] == [0, 0, 0, 0, 0, 1, 1, 1, 2, 2]
    assert table.witness(1) == "1"
    assert table.witness(6) == "010001"
    assert table.witness(9) == "011001001"
    # The growing two-instruction loop is the only unresolved 9-bit program.
    assert [table.unknown_count(n) for n in range(1, 11)] == [0] * 8 + [1, 0]


def test_values_are_monotone_and_witnesses_replay():
    table = busy_beaver_table(14, budget=2000)
    previous = -1
    for n in range(1, 15):
        value = table.value(n)
        assert value >= previous
        previous = value
        witness = table.witness(n)
        assert len(witness) <= n
        verdict = oracle(decode_exact(witness), "", budget=2000)
        assert verdict.kind == HALTED
        assert bitstring_to_natural(verdict.output) == value


def test_unknown_counts_match_direct_enumeration():
    budget = 100
    table = busy_beaver_table(12, budget=budget)
    for n in range(1, 13):
        exhausted = sum(
            1
            for p in all_programs(12)
            if len(p.bits) == n and oracle(p, "", budget=budget).kind == BUDGET_EXHAUSTED
        )
        assert table.unknown_count(n) == exhausted


def test_resolved_through():
    table = busy_beaver_table(10, budget=100)
    assert table.resolved_through(8)
    assert not table.resolved_through(9)
    assert not table.resolved_through(10)


def test_witness_is_first_in_canonical_order():
    # Two 9-bit programs compute value 2; the (length, bits)-smallest is kept.
    table = busy_beaver_table(9, budget=100)
    achievers = [
        p.bits
        for p in all_programs(9)
        if oracle(p, "", budget=100).kind == HALTED
        and bitstring_to_natural(oracle(p, "", budget=100).output) == 2
    ]
    assert table.witness(9) == min(achievers, key=lambda b: (len(b), b))


def test_bigger_budget_can_only_shrink_unknowns():
    small = busy_beaver_table(12, budget=30)
    large = busy_beaver_table(12, budget=3000)
    for n in range(1, 13):
        assert large.unknown_count(n) <= small.unknown_count(n)
        assert large.value(n) >= small.value(n)


def test_runtime_witnesses_bound_the_table_from_below(bb_table_full):
    # For every resolved halting program q, some program of length |q|+overhead
    # outputs q's step count + 1, so the table at that length is at least that.
    table, _ = bb_table_full
    for program in all_programs(6):
        verdict = oracle(program, "", budget=table.budget - 2)
        if verdict.kind != HALTED:
            continue
        length = len(program.bits) + RUNTIME_WITNESS_OVERHEAD
        assert length <= table.max_bits
        assert table.value(length) >= verdict.steps + 1


def test_csv_round_trip(tmp_path):
    table = busy_beaver_table(12, budget=500)
    path = tmp_path / "bb.csv"
    table.write_csv(path, seed=7, fingerprint="abc123")
    loaded = BusyBeaverTable.read_csv(path)
    assert loaded.max_bits == table.max_bits
    assert loaded.budget == 500  # recovered from the comment line
    assert loaded.values == table.values
    assert loaded.witnesses == table.witnesses
    assert loaded.unknown_by_length == table.unknown_by_length


def test_csv_read_without_comment_line(tmp_path):
    table = busy_beaver_table(8, budget=50)
    path = tmp_path / "bare.csv"
    with open(path, "w") as fh:
        fh.write("n,bb_value,witness_bits,unknown_count\n")
        for n in range(1, 9):
            fh.write(f"{n},{table.value(n)},{table.witness(n)},{table.unknown_count(n)}\n")
    # Without its budget line a table cannot vouch for a sweep budget.
    with pytest.raises(ValueError, match="budget"):
        BusyBeaverTable.read_csv(path)
