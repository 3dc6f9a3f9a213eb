"""Execution semantics: bounded runs, a sound nonhalting oracle, fitness, busy-beaver tables.

A native program runs on registers holding naturals.  Register 0 is loaded
with the natural number encoded by the input bit string (length-lexicographic
rank); register 1 optionally carries auxiliary conditioning data; all other
registers start at zero.  Execution halts when the program counter moves past
the last instruction, and the output is the bit string of register 0's final
value.

Composites have exact, deterministic step counts defined structurally:

* step-count(q): runs q on empty input; output = q's step count; total steps
  = q's steps + 1.
* successor(q): output = q's output value + 1; total steps = q's steps + 1.
* halt-test(b, q): always halts; output is the halting label iff q halts
  within b steps; total steps = min(q's steps, b + 1) + 1.

Composites ignore the machine input and the auxiliary register: their
behaviour is fixed by their structure.

The oracle runs a program while fingerprinting configurations (program
counter plus the full register file).  A repeated configuration proves
nonhalting — soundly, because execution is deterministic.  The verdicts are
deliberately no stronger than that: a run whose registers grow forever never
repeats a configuration and stays "budget-exhausted" (unknown).

Both ``run`` and ``oracle`` stop simulating a native run early once it is
proven never to halt by a growth argument (see ``_run_native``).  Such a run
is reported exactly as running on would report it — budget-exhausted after
the full budget — so stopping early saves time and never changes a verdict,
a step count or a busy-beaver table's unknown count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import le

from bbnet.bits import bitstring_to_natural, natural_to_bitstring
from bbnet.codec import (
    HALT_TEST,
    OP_DECJZ,
    OP_INC,
    OP_JMPBACK,
    Program,
    STEP_COUNT,
    all_programs,
)

HALTED = "halted"
PROVEN_NONHALTING = "proven-nonhalting"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class Labels:
    """Output labels used by the bounded halt-test evaluation."""

    halting: str = "1"
    nonhalting: str = "0"

    def validate(self) -> None:
        for label in (self.halting, self.nonhalting):
            if any(c not in "01" for c in label):
                raise ValueError("labels must be bit strings")
        if self.halting == self.nonhalting:
            raise ValueError("labels must be distinct")


DEFAULT_LABELS = Labels()


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded run: kind, output bits (halted only), steps used."""

    kind: str
    output: str | None
    steps: int

    @property
    def halted(self) -> bool:
        return self.kind == HALTED


# A growth proof is tried at the first backward jump after every this many steps.
_GROWTH_CHECK_INTERVAL = 32


def _run_native(
    program: Program, r0: int, r1: int, budget: int, detect_cycles: bool
) -> Verdict:
    """Run a native program; with ``detect_cycles``, prove nonhalting by repeats.

    Runs that never halt are stopped early by a growth proof.  At a checked
    backward jump the registers ``new`` are compared with the snapshot ``old``
    taken at an earlier checked jump that landed on the same pc.  Suppose
    ``old <= new`` in every register, and every register that a DECJZ found
    zero or a ZERO reset since ``old`` holds the same value in both.  Replay
    the path from ``old`` to ``new`` starting at ``new`` instead: by induction
    over its steps, every register stays at its first-pass value plus
    ``new - old``.  An INC, or a DECJZ that decremented, does the same again,
    since a register at least as large is still non-zero; a DECJZ that found
    zero, or a ZERO, acts on a register whose offset is 0, so it finds zero
    again or resets it again.  The path is taken again, ends at the same pc with
    ``new + (new - old)``, and so on forever: the program never halts.

    Running on would then return budget-exhausted after ``budget`` steps, and
    that is what a proof returns.  Under ``detect_cycles`` a proof counts only
    when ``new != old``: then some register grows without bound, so no
    configuration ever repeats and the seen-set could never have fired.  When
    ``new == old`` the configuration has repeated, and the seen-set reports it
    at its exact first-repeat step.
    """
    instructions = program.instructions
    n = len(instructions)
    regs = [0] * program.num_registers
    regs[0] = r0
    regs[1] = r1
    pc = 0
    steps = 0
    seen = {(0, tuple(regs))} if detect_cycles else None
    # The last step at which each register was found zero or reset, and one
    # (registers, step) snapshot per landing pc of a checked backward jump.
    zeroed_at = [-1] * len(regs)
    snapshots: dict[int, tuple[tuple[int, ...], int]] = {}
    check_at = _GROWTH_CHECK_INTERVAL
    while True:
        if pc >= n:
            return Verdict(HALTED, natural_to_bitstring(regs[0]), steps)
        if steps == budget:
            return Verdict(BUDGET_EXHAUSTED, None, steps)
        op, a, b = instructions[pc]
        if op == OP_INC:
            regs[a] += 1
            pc += 1
        elif op == OP_DECJZ:
            if regs[a]:
                regs[a] -= 1
                pc += 1
            else:
                zeroed_at[a] = steps
                pc += b
        elif op == OP_JMPBACK:
            pc -= a
            if steps >= check_at:
                check_at = steps + _GROWTH_CHECK_INTERVAL
                new = tuple(regs)
                if pc in snapshots:
                    old, since = snapshots[pc]
                    if (
                        (seen is None or old != new)
                        and all(map(le, old, new))
                        and all(old[r] == new[r] for r, t in enumerate(zeroed_at) if t > since)
                    ):
                        return Verdict(BUDGET_EXHAUSTED, None, budget)
                snapshots[pc] = (new, steps)
        else:
            zeroed_at[a] = steps
            regs[a] = 0
            pc += 1
        steps += 1
        if seen is not None:
            config = (pc, tuple(regs))
            if config in seen:
                return Verdict(PROVEN_NONHALTING, None, steps)
            seen.add(config)


def _evaluate(
    program: Program,
    r0: int,
    budget: int,
    labels: Labels,
    detect_cycles: bool,
    r1: int = 0,
) -> Verdict:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if program.is_native:
        return _run_native(program, r0, r1, budget, detect_cycles)
    if budget == 0:
        return Verdict(BUDGET_EXHAUSTED, None, 0)
    if program.builtin == HALT_TEST:
        bound = program.bound
        inner_budget = min(bound + 1, budget - 1)
        inner = _evaluate(program.arg, 0, inner_budget, labels, detect_cycles)
        if inner.kind == HALTED and inner.steps <= bound:
            return Verdict(HALTED, labels.halting, inner.steps + 1)
        nonhalt_total = bound + 2
        if inner.kind == PROVEN_NONHALTING or inner.kind == HALTED or inner.steps == bound + 1:
            # The argument provably does not halt within the bound; the
            # composite itself halts after simulating bound+1 steps.
            if nonhalt_total <= budget:
                return Verdict(HALTED, labels.nonhalting, nonhalt_total)
            return Verdict(BUDGET_EXHAUSTED, None, budget)
        return Verdict(BUDGET_EXHAUSTED, None, budget)
    inner = _evaluate(program.arg, 0, budget - 1, labels, detect_cycles)
    if inner.kind == HALTED:
        if program.builtin == STEP_COUNT:
            value = inner.steps
        else:
            value = bitstring_to_natural(inner.output) + 1
        return Verdict(HALTED, natural_to_bitstring(value), inner.steps + 1)
    if inner.kind == PROVEN_NONHALTING:
        return Verdict(PROVEN_NONHALTING, None, min(inner.steps + 1, budget))
    return Verdict(BUDGET_EXHAUSTED, None, budget)


def run(
    program: Program,
    input_bits: str = "",
    budget: int = DEFAULT_BUDGET,
    labels: Labels = DEFAULT_LABELS,
    aux_bits: str | None = None,
) -> Verdict:
    """Run ``program`` on ``input_bits`` for at most ``budget`` steps."""
    r1 = bitstring_to_natural(aux_bits) if aux_bits is not None else 0
    return _evaluate(program, bitstring_to_natural(input_bits), budget, labels, False, r1)


def oracle(
    program: Program,
    input_bits: str = "",
    budget: int = DEFAULT_BUDGET,
    labels: Labels = DEFAULT_LABELS,
    aux_bits: str | None = None,
) -> Verdict:
    """Like :func:`run`, but detects configuration repeats and proves nonhalting."""
    r1 = bitstring_to_natural(aux_bits) if aux_bits is not None else 0
    return _evaluate(program, bitstring_to_natural(input_bits), budget, labels, True, r1)


def fitness(verdict: Verdict) -> int:
    """Successor of the output value for halting runs; 0 otherwise."""
    if verdict.kind == HALTED:
        return bitstring_to_natural(verdict.output) + 1
    return 0


@dataclass
class BusyBeaverTable:
    """Largest known output value per encoding length, from exhaustive bounded runs.

    ``values[n]`` is the maximum output value (as a natural) over every program
    of at most n bits that the oracle resolved as halting on empty input within
    the budget; ``witnesses[n]`` is the encoding achieving it.
    ``unknown_by_length[n]`` counts programs of exactly n bits left unresolved
    (budget-exhausted).  Values are cumulative in n and hence monotone.
    """

    max_bits: int
    budget: int
    values: dict[int, int] = field(default_factory=dict)
    witnesses: dict[int, str] = field(default_factory=dict)
    unknown_by_length: dict[int, int] = field(default_factory=dict)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.max_bits:
            raise KeyError(f"table covers lengths 1..{self.max_bits}")
        return self.values[n]

    def witness(self, n: int) -> str:
        return self.witnesses[n]

    def unknown_count(self, n: int) -> int:
        return self.unknown_by_length.get(n, 0)

    def resolved_through(self, n: int) -> bool:
        """True when every program of at most n bits was resolved within budget."""
        return all(self.unknown_count(i) == 0 for i in range(1, n + 1))

    def write_csv(self, path, seed: int, fingerprint: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# seed={seed} fingerprint={fingerprint} budget={self.budget}\n")
            writer = csv.writer(fh)
            writer.writerow(["n", "bb_value", "witness_bits", "unknown_count"])
            for n in range(1, self.max_bits + 1):
                writer.writerow([n, self.values[n], self.witnesses[n], self.unknown_count(n)])

    @classmethod
    def read_csv(cls, path) -> "BusyBeaverTable":
        """Read a table written by :meth:`write_csv`; its comment line gives the budget."""
        values: dict[int, int] = {}
        witnesses: dict[int, str] = {}
        unknown: dict[int, int] = {}
        budget = None
        with open(path, newline="") as fh:
            first = fh.readline()
            if first.startswith("#"):
                for token in first[1:].split():
                    key, _, value = token.partition("=")
                    if key == "budget":
                        budget = int(value)
            if budget is None:
                raise ValueError("missing the '# seed=... fingerprint=... budget=...' first line")
            for row in csv.DictReader(fh):
                n = int(row["n"])
                values[n] = int(row["bb_value"])
                witnesses[n] = row["witness_bits"]
                unknown[n] = int(row["unknown_count"])
        return cls(
            max_bits=max(values),
            budget=budget,
            values=values,
            witnesses=witnesses,
            unknown_by_length=unknown,
        )


def busy_beaver_table(
    max_bits: int, budget: int = DEFAULT_BUDGET, labels: Labels = DEFAULT_LABELS
) -> BusyBeaverTable:
    """Exhaustively run every program of at most ``max_bits`` bits on empty input.

    Deterministic: programs are visited in (length, bits) order and the witness
    recorded for each length is the first whose output value strictly exceeds
    everything achieved by shorter (or lexicographically earlier) programs.
    """
    table = BusyBeaverTable(max_bits=max_bits, budget=budget)
    best_value = 0
    best_witness = None
    per_length: dict[int, list[Program]] = {}
    for program in all_programs(max_bits):
        per_length.setdefault(len(program.bits), []).append(program)
    for n in range(1, max_bits + 1):
        unknown = 0
        for program in per_length.get(n, ()):
            verdict = oracle(program, "", budget, labels)
            if verdict.kind == HALTED:
                value = bitstring_to_natural(verdict.output)
                if value > best_value or best_witness is None:
                    best_value = value
                    best_witness = program.bits
            elif verdict.kind == BUDGET_EXHAUSTED:
                unknown += 1
        table.values[n] = best_value
        table.witnesses[n] = best_witness if best_witness is not None else ""
        table.unknown_by_length[n] = unknown
    return table
