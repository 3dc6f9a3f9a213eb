"""The fittest-imitation protocol: diffusion, tie-breaks, answers, central nodes."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbnet.bits import bitstring_to_natural, natural_to_bitstring, split_selfdelim
from bbnet.codec import (
    OP_DECJZ,
    OP_INC,
    OP_JMPBACK,
    OP_ZERO,
    decode_exact,
    native_program,
)
from bbnet.machine import DEFAULT_LABELS, oracle
from bbnet.network import (
    ConfigMismatch,
    NoCentralNode,
    assemble,
    bounded_halt_answer,
    find_central_node,
    mix_seed,
    parse_selector,
    reference_halting_label,
    run_isolated,
    run_networked,
    sample_population,
)
import bbnet.tvg as tvg_module
from bbnet.tvg import Tvg, small_diameter_tvg

EMPTY = decode_exact("1")
INC = decode_exact("010001")
CYCLE = native_program(((OP_DECJZ, 0, 1), (OP_JMPBACK, 1, 0)))
DOUBLE_INC = native_program(((OP_INC, 0, 0), (OP_INC, 0, 0)))

STAR3 = Tvg(
    num_vertices=3,
    num_instants=3,
    arcs=frozenset(
        {(0, i, s) for i in range(2) for s in (1, 2)}
        | {(s, i, 0) for i in range(2) for s in (1, 2)}
    ),
)


# ------------------------------------------------------------------- plumbing


def test_mix_seed_is_deterministic_and_spreads():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2) != mix_seed(2, 1)
    seen = {mix_seed(0, i) for i in range(1000)}
    assert len(seen) == 1000


def test_population_is_per_node_deterministic():
    small = sample_population(5, seed=42)
    large = sample_population(9, seed=42)
    assert [p.bits for p in small] == [p.bits for p in large[:5]]
    again = sample_population(5, seed=42)
    assert small == again
    other = sample_population(5, seed=43)
    assert [p.bits for p in small] != [p.bits for p in other]


# sha256 of the newline-joined program bits of a 512-node population, by seed.
POPULATION_DIGESTS = {
    0: "42a09af6cb8546eeb36eac38cfa4a2828c76d111b569b6873637c3be86cbd389",
    1: "e6ec2d8d6d3a16650a54dea223b1e8669d77cb98c27a4831815679583ed9de90",
    2: "da3d0ef209bb8685d0c4b12339734bb7a80170ea874b6510477fc217721632df",
    7: "f0c2335bbf708822e3c8042d20fc86045792c91f5704c6165e7419088808947c",
}


@pytest.mark.parametrize("seed", sorted(POPULATION_DIGESTS))
def test_population_bits_are_pinned(seed):
    bits = "\n".join(p.bits for p in sample_population(512, seed))
    assert hashlib.sha256(bits.encode()).hexdigest() == POPULATION_DIGESTS[seed]


def test_parse_selector():
    assert parse_selector("halt-test") == "halt-test"
    assert parse_selector("identity") == "identity"
    assert parse_selector("custom:1") == ("custom", "1")
    with pytest.raises(ValueError):
        parse_selector("nonsense")
    with pytest.raises(Exception):
        parse_selector("custom:0")  # not a valid encoding


def test_assembly_validation():
    population = (EMPTY, INC, CYCLE)
    with pytest.raises(ConfigMismatch):
        assemble(STAR3, population[:2])
    with pytest.raises(ConfigMismatch):
        assemble(STAR3, population, node_of_vertex=(0, 0, 1))
    with pytest.raises(ConfigMismatch):
        assemble(STAR3, population, warmup=-1)
    assert assemble(STAR3, population).minimum_cycles == 4
    assert assemble(STAR3, population, warmup=2).minimum_cycles == 6


def test_cycle_count_must_cover_warmup_intervals_and_answer():
    assembly = assemble(STAR3, (EMPTY, INC, CYCLE))
    with pytest.raises(ConfigMismatch):
        run_networked(assembly, "1", n_cycles=3)
    record = run_networked(assembly, "1", n_cycles=4)
    assert record.n_cycles == 4


# ----------------------------------------------------------- reference labels


def test_reference_label_for_resolved_programs():
    assert reference_halting_label(INC, 100, DEFAULT_LABELS) == ("1", True)
    assert reference_halting_label(CYCLE, 100, DEFAULT_LABELS) == ("0", True)


def test_reference_label_for_unresolved_program():
    grow = native_program(((OP_INC, 0, 0), (OP_JMPBACK, 1, 0)))
    label, resolved = reference_halting_label(grow, 100, DEFAULT_LABELS)
    assert label == "0"
    assert not resolved


def test_bounded_halt_answer_matches_direct_run():
    for bound in [0, 1, 2, 10]:
        assert bounded_halt_answer(INC, bound, DEFAULT_LABELS) == ("1" if bound >= 1 else "0")
    assert bounded_halt_answer(CYCLE, 50, DEFAULT_LABELS) == "0"


# ------------------------------------------------------------- protocol runs


def test_fitness_cycle_and_diffusion_on_a_star():
    # Node fitness on w="1" (value 2): empty echoes 2 -> 3, INC gives 3 -> 4,
    # the cycle program is killed -> 0.
    population = (EMPTY, INC, CYCLE)
    record = run_networked(assemble(STAR3, population), "1", budget=100)
    assert [n.first_fitness for n in record.nodes] == [3, 4, 0]
    assert record.x_max == 4
    # After both intervals everyone carries the max, owned by node 1.
    assert record.carried_history[-1] == [(4, 1)] * 3
    assert record.w_resolved
    assert record.reference_label == "1"  # the empty program halts
    # Every node's carried bound (4) covers T(w)=0, so all answer correctly.
    assert [n.correct for n in record.nodes] == [True, True, True]
    assert record.fraction_correct == 1.0


def test_killed_nodes_score_zero_but_still_imitate():
    population = (CYCLE, CYCLE, INC)
    record = run_networked(assemble(STAR3, population), "1", budget=100)
    assert [n.first_fitness for n in record.nodes] == [0, 0, 4]
    assert record.carried_history[-1] == [(4, 2)] * 3
    assert all(n.correct for n in record.nodes)


def test_imitation_keeps_own_value_on_ties():
    # Both spokes start at the same fitness; the hub must adopt the lowest id.
    population = (CYCLE, INC, INC)
    record = run_networked(assemble(STAR3, population), "1", budget=100)
    assert [n.first_fitness for n in record.nodes] == [0, 4, 4]
    # Hub (node 0) hears 1 and 2 with equal values: the earliest strictly
    # better neighbour (node 1) wins; node 2 keeps its own.
    assert record.carried_history[1][0] == (4, 1)
    assert record.carried_history[1][2] == (4, 2)


def test_warmup_holds_carried_state():
    population = (EMPTY, INC, CYCLE)
    warm = run_networked(assemble(STAR3, population, warmup=2), "1", budget=100)
    assert warm.n_cycles == 6
    # Cycles 2..3 are warm-up holds: history equals the fitness snapshot.
    assert warm.carried_history[1] == warm.carried_history[0]
    assert warm.carried_history[2] == warm.carried_history[0]
    # Then the two intervals diffuse as usual.
    assert warm.carried_history[-1] == [(4, 1)] * 3


def test_surplus_cycles_hold_after_last_interval():
    population = (EMPTY, INC, CYCLE)
    record = run_networked(assemble(STAR3, population), "1", budget=100, n_cycles=7)
    assert record.carried_history[-1] == [(4, 1)] * 3
    assert record.carried_history[3] == record.carried_history[-1]


def test_identity_selector_reports_carried_value():
    population = (EMPTY, INC, CYCLE)
    record = run_networked(
        assemble(STAR3, population), "1", budget=100, selector="identity"
    )
    assert [n.final_output for n in record.nodes] == [natural_to_bitstring(4)] * 3


def test_custom_selector_runs_on_framed_pair():
    # The empty program echoes its input, so each node's answer is the framed
    # (carried value, w) pair itself.
    population = (EMPTY, INC, CYCLE)
    record = run_networked(
        assemble(STAR3, population), "1", budget=100, selector=parse_selector("custom:1")
    )
    for node in record.nodes:
        framed = node.final_output
        assert split_selfdelim(framed) == [natural_to_bitstring(4), "1"]


def test_halt_test_selector_uses_carried_bound():
    # w = two increments halts in T=2 steps; an isolated x_max of 1 is too small.
    w = DOUBLE_INC.bits
    lonely = Tvg(num_vertices=1, num_instants=1, arcs=frozenset())
    record = run_networked(assemble(lonely, (EMPTY,)), w, budget=100)
    # Fitness of the echo on w: value(w)+1; w has value >= 1 so the bound covers T.
    assert record.nodes[0].correct
    # A killed node alone carries 0 and must answer "does not halt": wrong.
    killed = run_networked(assemble(lonely, (CYCLE,)), w, budget=100)
    assert killed.x_max == 0
    assert not killed.nodes[0].correct


def test_vertex_relabelling_does_not_change_outcomes():
    population = (EMPTY, INC, CYCLE)
    base = run_networked(assemble(STAR3, population), "1", budget=100)
    permuted = run_networked(
        assemble(STAR3, population, node_of_vertex=(2, 0, 1)), "1", budget=100
    )
    assert permuted.x_max == base.x_max
    assert sorted(n.final_output for n in permuted.nodes) == sorted(
        n.final_output for n in base.nodes
    )
    assert permuted.fraction_correct == base.fraction_correct
    # Node j's program does not depend on which vertex hosts it.
    assert [n.program_bits for n in permuted.nodes] == [n.program_bits for n in base.nodes]


@settings(max_examples=40)
@given(
    st.sampled_from(["star-broadcast", "replicated-hypercube", "replicated-random-regular"]),
    st.sampled_from([4, 8, 16]),
    st.integers(min_value=0, max_value=10**6),
)
def test_diffusion_always_reaches_the_maximum(family, n, seed):
    tvg = small_diameter_tvg(family, n, seed=seed)
    population = sample_population(n, seed)
    record = run_networked(assemble(tvg, population), "1", budget=500)
    best = max(n_.first_fitness for n_ in record.nodes)
    assert record.x_max == best
    assert all(value == best for value, _ in record.carried_history[-1])


# ------------------------------------------------------------ isolated runs


def test_isolated_run_feeds_fitness_back():
    outputs = run_isolated(INC, "1", cycles=3, budget=100)
    expected = []
    current = "1"
    for _ in range(3):
        verdict = oracle(INC, current, 100)
        current = natural_to_bitstring(bitstring_to_natural(verdict.output) + 1)
        expected.append(current)
    assert outputs == expected


def test_isolated_killed_node_stays_silent():
    outputs = run_isolated(CYCLE, "1", cycles=4, budget=100)
    assert outputs == ["", "", "", ""]


def test_isolated_echo_is_a_fixed_point_chain():
    outputs = run_isolated(EMPTY, "", cycles=4, budget=100)
    # Echo of value v has fitness v+1: the value climbs by one each cycle.
    values = [bitstring_to_natural(o) for o in outputs]
    assert values == [1, 2, 3, 4]


# ------------------------------------------------------------- central nodes


def test_find_central_node_structure():
    tvg = small_diameter_tvg("replicated-random-regular", 8, seed=2)
    population = sample_population(8, seed=11)
    result = find_central_node(tvg, population, "010001", budget=1000)
    assert result.c_min == result.reverse_reach + 2
    assert result.record.n_cycles == result.c_min
    # The reported node answers the reference correctly on the trimmed graph.
    reference = result.record.reference_label
    assert result.record.nodes[result.node].final_output == reference
    # Its isolated run up to c_min - 1 cycles never produced the answer.
    isolated = run_isolated(population[result.node], "010001", result.c_min - 1, 1000)
    assert all(output != reference for output in isolated)


def test_find_central_node_fails_when_every_candidate_is_wrong():
    # All nodes killed: every carried bound is 0, so everyone answers the
    # nonhalting label about a halting w and verification fails everywhere.
    tvg = small_diameter_tvg("star-broadcast", 5)
    population = (CYCLE,) * 5
    with pytest.raises(NoCentralNode):
        find_central_node(tvg, population, "010001", budget=1000)


def test_find_central_node_exclusion_moves_to_next_candidate():
    # Hub's isolated run hits the reference label early and must be excluded:
    # a program that always outputs value 1 has fitness 2, and the bit string
    # of 2 is "1" — exactly the halting label of the resolved w.
    tvg = small_diameter_tvg("star-broadcast", 4)
    always_one = native_program(((OP_ZERO, 0, 0), (OP_INC, 0, 0)))
    population = (always_one, EMPTY, EMPTY, EMPTY)
    result = find_central_node(tvg, population, "1", budget=1000)
    assert result.vertex != 0
    assert result.vertex == 1  # lowest-index spoke among the tied candidates
    assert result.c_min == 4  # spokes hear the whole star after 2 intervals
    isolated_hub = run_isolated(population[0], "1", result.c_min - 1, 1000)
    # Confirm the hub really was disqualified by its early correct answer.
    assert result.record.reference_label in isolated_hub


def test_find_central_node_requires_resolved_reference():
    grow = native_program(((OP_INC, 0, 0), (OP_JMPBACK, 1, 0)))
    tvg = small_diameter_tvg("star-broadcast", 4)
    with pytest.raises(NoCentralNode):
        find_central_node(tvg, (EMPTY,) * 4, grow.bits, budget=100)


def test_find_central_node_builds_one_arrival_table_per_graph(monkeypatch):
    builds = []
    kernel = tvg_module._arrival_table

    def counting_kernel(tvg):
        builds.append(tvg)
        return kernel(tvg)

    monkeypatch.setattr(tvg_module, "_arrival_table", counting_kernel)
    graph = small_diameter_tvg("replicated-hypercube", 128, seed=1)
    population = sample_population(128, mix_seed(1, 1))
    result = find_central_node(graph, population, "010001")
    assert result.reverse_reach == 7
    # The generator's diameter check, the candidate order, the reverse reach and
    # the centrality all read the graph's one table.  Trimmed graphs that ask for
    # arrivals get their own, once each.
    assert sum(built is graph for built in builds) == 1
    assert len({id(built) for built in builds}) == len(builds)
    assert all(built.num_instants < graph.num_instants for built in builds if built is not graph)
