"""Algorithmic-information estimates: program complexity, contributions, local synergy.

The complexity of a target bit string is estimated by exhaustive search: the
length of the shortest program (at most ``budget_bits`` bits, at most
``budget_steps`` machine steps, empty input) whose output is the target.  When
the search finds nothing, the estimate falls back to a compression bound
(zlib at level 9 over the '0'/'1' text, in bits, plus one byte) and is flagged
as such — the fallback is an upper-bound heuristic, never exact.

Conditional complexity conditions the search on auxiliary data: the given bit
string's value is preloaded into register 1 (the ordinary input register 0
starts at zero; composites ignore the auxiliary register).  Thus the empty
program realises cond(ε | anything) = 1 bit, and a fixed three-instruction
copier (move register 1 into register 0) realises cond(y | y) at a constant
21 bits for every y, which pins the slack constant used by the synergy
experiments at copier + 4 bits.

Estimates always evaluate the pristine machine with its default labels:
experiment-level label choices never alter the measured language.
"""

from __future__ import annotations

import functools
import random
import zlib
from dataclasses import dataclass, field

from bbnet.bits import bitstring_to_natural, natural_to_bitstring
from bbnet.codec import (
    MINIMAL_ENCODING,
    OP_DECJZ,
    OP_INC,
    OP_JMPBACK,
    Program,
    all_programs,
    native_program,
)
from bbnet.machine import DEFAULT_LABELS, HALTED, run
from bbnet.network import RunRecord, mix_seed

DEFAULT_BUDGET_BITS = 21
DEFAULT_BUDGET_STEPS = 25_000
DEFAULT_LABEL_BITS = 12
_LABEL_ATTEMPTS = 64  # seeded random label pairs tried after the default pair

ENUMERATION = "enumeration"
COMPRESSION_FALLBACK = "compression-fallback"


class ThresholdUnreachable(RuntimeError):
    """No candidate label pair cleared the required complexity threshold."""


@dataclass(frozen=True)
class ComplexityEstimate:
    value: int
    method: str
    witness: str | None

    @property
    def exact(self) -> bool:
        return self.method == ENUMERATION


def copy_program() -> Program:
    """Three-instruction copier: moves register 1 into register 0, then halts."""
    return native_program(
        [(OP_DECJZ, 1, 3), (OP_INC, 0, 0), (OP_JMPBACK, 2, 0)]
    )


def copy_constant() -> int:
    """Encoded length of the canonical copier (the uniform cond(y | y) bound)."""
    return len(copy_program().bits)


def slack_constant() -> int:
    """Slack allowed by the synergy acceptance threshold: copier length + 4."""
    return copy_constant() + 4


def compression_fallback_bits(target: str) -> int:
    return len(zlib.compress(target.encode("ascii"), 9)) * 8 + 8


def _reads_aux_register(program: Program) -> bool:
    """Whether execution can depend on the auxiliary register's initial value.

    Register 1 only influences control flow through a decrement-test aimed at
    it; composites never consult it.  Everything else behaves identically for
    every conditioning value.
    """
    if not program.is_native:
        return False
    return any(op == OP_DECJZ and target == 1 for op, target, _ in program.instructions)


def _run_map(programs, aux: str | None, budget_steps: int) -> dict[str, str]:
    table: dict[str, str] = {}
    for program in programs:
        verdict = run(program, "", budget_steps, DEFAULT_LABELS, aux_bits=aux)
        if verdict.kind == HALTED and verdict.output not in table:
            table[verdict.output] = program.bits
    return table


@functools.lru_cache(maxsize=4)
def _search_set(budget_bits: int) -> tuple[tuple[Program, ...], tuple[Program, ...]]:
    """The programs of at most ``budget_bits`` bits: (aux-blind, aux-reading)."""
    blind, reading = [], []
    for program in all_programs(budget_bits):
        (reading if _reads_aux_register(program) else blind).append(program)
    return tuple(blind), tuple(reading)


@functools.lru_cache(maxsize=4)
def _base_map(budget_bits: int, budget_steps: int) -> dict[str, str]:
    """Output map of the programs blind to the auxiliary register."""
    return _run_map(_search_set(budget_bits)[0], None, budget_steps)


def _output_map(given: str | None, budget_bits: int, budget_steps: int) -> dict[str, str]:
    """Map output -> shortest producing program (first in (length, bits) order).

    Programs blind to the auxiliary register are evaluated once per budget pair
    and shared across every conditioning value; only aux-reading programs are
    re-run per value.
    """
    return _conditioned_map(
        bitstring_to_natural(given) if given is not None else 0, budget_bits, budget_steps
    )


@functools.lru_cache(maxsize=256)
def _conditioned_map(given_value: int, budget_bits: int, budget_steps: int) -> dict[str, str]:
    base = _base_map(budget_bits, budget_steps)
    sensitive = _run_map(
        _search_set(budget_bits)[1], natural_to_bitstring(given_value), budget_steps
    )
    table = dict(base)
    for output, witness in sensitive.items():
        incumbent = table.get(output)
        if incumbent is None or (len(witness), witness) < (len(incumbent), incumbent):
            table[output] = witness
    return table


@dataclass
class ComplexityCache:
    """Append-only memo of estimates, keyed by (target, given)."""

    entries: dict = field(default_factory=dict)

    def get(self, target: str, given: str | None):
        return self.entries.get((target, given))

    def put(self, target: str, given: str | None, estimate: ComplexityEstimate) -> None:
        self.entries.setdefault((target, given), estimate)


def _estimate(
    target: str,
    given: str | None,
    budget_bits: int,
    budget_steps: int,
    cache: ComplexityCache | None,
) -> ComplexityEstimate:
    if cache is not None:
        hit = cache.get(target, given)
        if hit is not None:
            return hit
    witness = _output_map(given, budget_bits, budget_steps).get(target)
    if witness is not None:
        estimate = ComplexityEstimate(len(witness), ENUMERATION, witness)
    else:
        estimate = ComplexityEstimate(compression_fallback_bits(target), COMPRESSION_FALLBACK, None)
    if cache is not None:
        cache.put(target, given, estimate)
    return estimate


def program_complexity(
    target: str,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> ComplexityEstimate:
    """Length of the shortest (budgeted) program producing ``target`` on empty input."""
    return _estimate(target, None, budget_bits, budget_steps, cache)


def conditional_complexity(
    target: str,
    given: str,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> ComplexityEstimate:
    """Like :func:`program_complexity`, with ``given`` preloaded into register 1."""
    return _estimate(target, given, budget_bits, budget_steps, cache)


def algorithmic_contribution(
    networked_output: str,
    isolated_output: str,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> int:
    """Signed complexity gain of the networked output over the isolated one."""
    networked = program_complexity(networked_output, budget_bits, budget_steps, cache)
    isolated = program_complexity(isolated_output, budget_bits, budget_steps, cache)
    return networked.value - isolated.value


def local_synergy(
    target: str,
    networked_output: str,
    isolated_output: str,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> int:
    """How much better the networked output explains the target than the isolated one:
    cond(target | isolated) - cond(target | networked)."""
    conditioned_on_isolated = conditional_complexity(
        target, isolated_output, budget_bits, budget_steps, cache
    )
    conditioned_on_networked = conditional_complexity(
        target, networked_output, budget_bits, budget_steps, cache
    )
    return conditioned_on_isolated.value - conditioned_on_networked.value


@dataclass
class SynergyStats:
    per_node: list[int]
    per_node_correct: list[int]
    mean: float
    mean_correct: float | None
    fraction_correct: float


def expected_local_synergy(
    record: RunRecord,
    isolated_outputs: list[str],
    target: str,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> SynergyStats:
    """Average local synergy of a networked run against per-node isolated outputs."""
    if len(isolated_outputs) != len(record.nodes):
        raise ValueError("need one isolated output per node")
    per_node = []
    per_node_correct = []
    for outcome, isolated in zip(record.nodes, isolated_outputs):
        value = local_synergy(
            target, outcome.final_output, isolated, budget_bits, budget_steps, cache
        )
        per_node.append(value)
        if outcome.correct:
            per_node_correct.append(value)
    mean = sum(per_node) / len(per_node)
    mean_correct = (
        sum(per_node_correct) / len(per_node_correct) if per_node_correct else None
    )
    return SynergyStats(
        per_node=per_node,
        per_node_correct=per_node_correct,
        mean=mean,
        mean_correct=mean_correct,
        fraction_correct=len(per_node_correct) / len(per_node),
    )


@dataclass
class LabelPick:
    halting: str
    nonhalting: str
    threshold: int
    attempts: int
    halting_estimate: ComplexityEstimate
    nonhalting_estimate: ComplexityEstimate


def pick_labels(
    x: int,
    seed: int,
    label_bits: int = DEFAULT_LABEL_BITS,
    budget_bits: int = DEFAULT_BUDGET_BITS,
    budget_steps: int = DEFAULT_BUDGET_STEPS,
    cache: ComplexityCache | None = None,
) -> LabelPick:
    """Choose halting/nonhalting labels whose conditional complexity given the
    minimal program exceeds x + slack.

    The default labels are tried first; failing that, seeded ``label_bits``-bit
    random labels are drawn.  A candidate passes when exhaustive search (up to
    ``budget_bits``) finds no program producing it given the minimal program —
    so its estimate is the compression fallback — and that estimate clears the
    threshold.  Raises :class:`ThresholdUnreachable` when no pair is found.
    """
    threshold = x + slack_constant()

    def clears(label: str) -> ComplexityEstimate | None:
        estimate = conditional_complexity(
            label, MINIMAL_ENCODING, budget_bits, budget_steps, cache
        )
        if estimate.method == COMPRESSION_FALLBACK and estimate.value >= threshold:
            return estimate
        return None

    candidates = [(DEFAULT_LABELS.halting, DEFAULT_LABELS.nonhalting)]
    for attempt in range(_LABEL_ATTEMPTS):
        rng = random.Random(mix_seed(seed, attempt))
        halting = format(rng.getrandbits(label_bits), f"0{label_bits}b")
        nonhalting = format(rng.getrandbits(label_bits), f"0{label_bits}b")
        candidates.append((halting, nonhalting))
    for attempt, (halting, nonhalting) in enumerate(candidates):
        if halting == nonhalting:
            continue
        halting_estimate = clears(halting)
        if halting_estimate is None:
            continue
        nonhalting_estimate = clears(nonhalting)
        if nonhalting_estimate is None:
            continue
        return LabelPick(
            halting=halting,
            nonhalting=nonhalting,
            threshold=threshold,
            attempts=attempt + 1,
            halting_estimate=halting_estimate,
            nonhalting_estimate=nonhalting_estimate,
        )
    raise ThresholdUnreachable(
        f"no label pair of {label_bits} bits cleared threshold {threshold} "
        f"within {_LABEL_ATTEMPTS} attempts"
    )
