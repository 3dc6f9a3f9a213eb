"""Population sampling and the synchronous fittest-imitation protocol on a temporal graph.

One node sits on each vertex (a bijection; identity by default).  A run takes
an input program w and proceeds in cycles:

1. Fitness cycle: every node runs its own program on w under the budgeted
   oracle.  A halting run's fitness is its output value plus one; nodes whose
   run does not halt are "killed" and score 0.  Each node starts out carrying
   (its own fitness, its own id).
2. Warm-up cycles (a configurable count) hold the carried state.
3. Imitation cycles, one per graph interval in order: every node compares its
   carried value against those of its in-neighbours for that interval and
   adopts the largest (ties: keep its own; among strictly better neighbours,
   the lowest node id wins).  Surplus cycles after the last interval hold.
4. Final cycle: every node answers through a selector applied to its carried
   value x and w — the bounded halt test (does w halt on empty input within x
   steps?), the identity (emit x), or a custom program run on the framed pair.

The cycle count must be at least warm-up + instants + 1 so that every interval
is consumed and the final answer happens on fully-diffused state.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from bbnet.bits import bitstring_to_natural, concat_selfdelim, natural_to_bitstring
from bbnet.codec import (
    DEFAULT_MAX_PROGRAM_BITS,
    Program,
    decode_exact,
    halt_test_program,
    sample_program,
)
from bbnet.machine import (
    BUDGET_EXHAUSTED,
    DEFAULT_BUDGET,
    DEFAULT_LABELS,
    HALTED,
    Labels,
    fitness,
    oracle,
    run,
)
from bbnet.tvg import Tvg, most_central_vertices, reachability_centrality, reverse_reach_time

ZERO_LABEL = ""  # the bit string of 0; emitted by killed nodes in isolation


class ConfigMismatch(ValueError):
    """The requested cycle count cannot accommodate warm-up + intervals + answer."""


class NoCentralNode(RuntimeError):
    """Every candidate vertex was excluded or failed verification."""


def mix_seed(*parts: int) -> int:
    """Deterministically mix integers into one 64-bit seed (splitmix64 finaliser)."""
    state = 0x9E3779B97F4A7C15
    for part in parts:
        state = (state + 0x9E3779B97F4A7C15 + (part & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        state = z ^ (z >> 31)
    return state


def sample_population(
    count: int, seed: int, max_bits: int = DEFAULT_MAX_PROGRAM_BITS
) -> tuple[Program, ...]:
    """Independently sample one program per node; node i's stream depends only on (seed, i)."""
    return tuple(
        sample_program(random.Random(mix_seed(seed, index)), max_bits)
        for index in range(count)
    )


@dataclass(frozen=True)
class NetworkAssembly:
    """A temporal graph with one program per node and a vertex-to-node bijection."""

    tvg: Tvg
    population: tuple[Program, ...]
    node_of_vertex: tuple[int, ...]
    warmup: int = 0

    def __post_init__(self) -> None:
        if len(self.population) != self.tvg.num_vertices:
            raise ConfigMismatch("population size must equal the vertex count")
        if sorted(self.node_of_vertex) != list(range(len(self.population))):
            raise ConfigMismatch("node_of_vertex must be a bijection onto node indices")
        if self.warmup < 0:
            raise ConfigMismatch("warm-up must be >= 0")

    @property
    def minimum_cycles(self) -> int:
        return self.warmup + self.tvg.num_instants + 1


def assemble(
    tvg: Tvg,
    population: tuple[Program, ...],
    warmup: int = 0,
    node_of_vertex: tuple[int, ...] | None = None,
) -> NetworkAssembly:
    if node_of_vertex is None:
        node_of_vertex = tuple(range(tvg.num_vertices))
    return NetworkAssembly(
        tvg=tvg, population=population, node_of_vertex=tuple(node_of_vertex), warmup=warmup
    )


HALT_TEST_SELECTOR = "halt-test"
IDENTITY_SELECTOR = "identity"


def parse_selector(text: str):
    """Selector syntax: ``halt-test``, ``identity``, or ``custom:<program bits>``."""
    if text in (HALT_TEST_SELECTOR, IDENTITY_SELECTOR):
        return text
    if text.startswith("custom:"):
        bits = text.split(":", 1)[1]
        decode_exact(bits)  # validate eagerly
        return ("custom", bits)
    raise ValueError(f"unknown selector {text!r}")


@dataclass
class NodeOutcome:
    node: int
    vertex: int
    program_bits: str
    first_kind: str
    first_fitness: int
    final_output: str
    correct: bool


@dataclass
class RunRecord:
    n_cycles: int
    w_resolved: bool
    reference_label: str
    x_max: int
    nodes: list[NodeOutcome]
    carried_history: list[list[tuple[int, int]]] = field(repr=False, default_factory=list)

    @property
    def fraction_correct(self) -> float:
        return sum(1 for n in self.nodes if n.correct) / len(self.nodes)


def bounded_halt_answer(w_program: Program, bound: int, labels: Labels) -> str:
    """Exact label of the bounded halt test of w within ``bound`` steps."""
    return _halt_label(w_program.bits, bound, labels)


@functools.lru_cache(maxsize=1 << 16)
def _halt_label(w_bits: str, bound: int, labels: Labels) -> str:
    # The test composite is total; a budget of bound + 2 machine steps always
    # resolves it exactly.
    verdict = run(halt_test_program(bound, decode_exact(w_bits)), "", bound + 2, labels)
    if verdict.kind != HALTED:
        raise RuntimeError(f"bounded halt test of {w_bits} within {bound} steps did not halt")
    return verdict.output


def reference_halting_label(
    w_program: Program, budget: int, labels: Labels
) -> tuple[str, bool]:
    """Best-knowledge halting label for w, and whether the oracle resolved it."""
    verdict = oracle(w_program, "", budget, labels)
    if verdict.kind == HALTED:
        return labels.halting, True
    if verdict.kind == BUDGET_EXHAUSTED:
        return labels.nonhalting, False
    return labels.nonhalting, True


def _final_answer(selector, x: int, w: str, w_program: Program, budget: int, labels: Labels) -> str:
    if selector == HALT_TEST_SELECTOR:
        return bounded_halt_answer(w_program, x, labels)
    if selector == IDENTITY_SELECTOR:
        return natural_to_bitstring(x)
    _, custom_bits = selector
    custom = decode_exact(custom_bits)
    framed = concat_selfdelim([natural_to_bitstring(x), w])
    verdict = run(custom, framed, budget, labels)
    return verdict.output if verdict.kind == HALTED else ZERO_LABEL


def run_networked(
    assembly: NetworkAssembly,
    w: str,
    budget: int = DEFAULT_BUDGET,
    labels: Labels = DEFAULT_LABELS,
    selector=HALT_TEST_SELECTOR,
    n_cycles: int | None = None,
) -> RunRecord:
    """Run the full protocol; deterministic in all arguments."""
    w_program = decode_exact(w)
    if n_cycles is None:
        n_cycles = assembly.minimum_cycles
    if n_cycles < assembly.minimum_cycles:
        raise ConfigMismatch(
            f"need at least {assembly.minimum_cycles} cycles "
            f"(warm-up {assembly.warmup} + {assembly.tvg.num_instants} instants + 1)"
        )
    population = assembly.population
    node_count = len(population)
    vertex_of_node = [0] * node_count
    for vertex, node in enumerate(assembly.node_of_vertex):
        vertex_of_node[node] = vertex

    # Fitness cycle.
    first_verdicts = [oracle(p, w, budget, labels) for p in population]
    first_fitness = [fitness(v) for v in first_verdicts]
    carried: list[tuple[int, int]] = [(first_fitness[j], j) for j in range(node_count)]
    history = [list(carried)]

    # In-neighbour node lists per interval, in node-id order.
    intervals: list[list[list[int]]] = [
        [[] for _ in range(node_count)] for _ in range(assembly.tvg.num_instants - 1)
    ]
    for u, i, v in sorted(assembly.tvg.arcs):
        intervals[i][assembly.node_of_vertex[v]].append(assembly.node_of_vertex[u])
    for per_node in intervals:
        for neighbours in per_node:
            neighbours.sort()

    first_imitation = assembly.warmup + 2
    for cycle in range(2, n_cycles):
        interval_index = cycle - first_imitation
        if 0 <= interval_index < len(intervals):
            updated = []
            for j in range(node_count):
                best_value, best_owner = carried[j]
                for u_node in intervals[interval_index][j]:
                    value, owner = carried[u_node]
                    if value > best_value:
                        best_value, best_owner = value, owner
                updated.append((best_value, best_owner))
            carried = updated
        history.append(list(carried))

    # Final cycle: answer from fully-diffused carried state.
    reference, w_resolved = reference_halting_label(w_program, budget, labels)
    nodes = []
    for j in range(node_count):
        x = carried[j][0]
        answer = _final_answer(selector, x, w, w_program, budget, labels)
        nodes.append(
            NodeOutcome(
                node=j,
                vertex=vertex_of_node[j],
                program_bits=population[j].bits,
                first_kind=first_verdicts[j].kind,
                first_fitness=first_fitness[j],
                final_output=answer,
                correct=answer == reference,
            )
        )
    history.append(list(carried))
    return RunRecord(
        n_cycles=n_cycles,
        w_resolved=w_resolved,
        reference_label=reference,
        x_max=max(value for value, _ in carried),
        nodes=nodes,
        carried_history=history,
    )


def run_isolated(
    program: Program,
    w: str,
    cycles: int,
    budget: int = DEFAULT_BUDGET,
    labels: Labels = DEFAULT_LABELS,
) -> list[str]:
    """Iterate one node alone: each cycle feeds the previous fitness string back in.

    A cycle whose run does not halt kills the node: its output is the zero
    label from then on.
    """
    outputs: list[str] = []
    current = w
    killed = False
    for _ in range(cycles):
        if killed:
            outputs.append(ZERO_LABEL)
            continue
        verdict = oracle(program, current, budget, labels)
        if verdict.kind == HALTED:
            value_bits = natural_to_bitstring(bitstring_to_natural(verdict.output) + 1)
            outputs.append(value_bits)
            current = value_bits
        else:
            killed = True
            outputs.append(ZERO_LABEL)
    return outputs


@dataclass
class CentralNodeResult:
    vertex: int
    node: int
    c_min: int
    reverse_reach: int
    centrality: float
    record: RunRecord


def find_central_node(
    tvg: Tvg,
    population: tuple[Program, ...],
    w: str,
    budget: int = DEFAULT_BUDGET,
    warmup: int = 0,
) -> CentralNodeResult:
    """Locate a node that answers correctly at the smallest possible cycle count.

    Candidates are visited by decreasing time-reachability centrality (ties to
    the lowest vertex).  A candidate on a vertex with reverse reach d qualifies
    at c_min = warm-up + d + 2 cycles; it is excluded if its isolated run
    already produces the reference label at any earlier cycle, and verified by
    running the network on the graph trimmed to d+1 instants.
    """
    w_program = decode_exact(w)
    reference, w_resolved = reference_halting_label(w_program, budget, DEFAULT_LABELS)
    if not w_resolved:
        raise NoCentralNode("reference halting label unresolved at this budget")
    for vertex in most_central_vertices(tvg):
        reach = reverse_reach_time(tvg, vertex)
        if reach == float("inf"):
            continue
        reach = int(reach)
        c_min = warmup + reach + 2
        isolated = run_isolated(population[vertex], w, c_min - 1, budget)
        if any(output == reference for output in isolated):
            continue
        trimmed = Tvg(
            num_vertices=tvg.num_vertices,
            num_instants=reach + 1,
            arcs=frozenset(arc for arc in tvg.arcs if arc[1] < reach),
        )
        record = run_networked(assemble(trimmed, population, warmup), w, budget, n_cycles=c_min)
        if record.nodes[vertex].final_output == reference:
            return CentralNodeResult(
                vertex=vertex,
                node=vertex,
                c_min=c_min,
                reverse_reach=reach,
                centrality=reachability_centrality(tvg, vertex),
                record=record,
            )
    raise NoCentralNode("no candidate passed exclusion and verification")
