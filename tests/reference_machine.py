"""The interpreter loop as it was before runs could stop early, kept as a test reference.

``_run_native`` and ``_evaluate`` below simulate every run step by step until it
halts, repeats a configuration (only when ``detect_cycles``) or exhausts its
budget.  ``bbnet.machine`` may stop earlier, but must return the same
``Verdict``; ``tests/test_machine.py`` checks that on a fixed grid.
"""

from bbnet.bits import bitstring_to_natural, natural_to_bitstring
from bbnet.codec import HALT_TEST, OP_DECJZ, OP_INC, OP_JMPBACK, STEP_COUNT, Program
from bbnet.machine import BUDGET_EXHAUSTED, HALTED, PROVEN_NONHALTING, Labels, Verdict


def _run_native(
    program: Program, r0: int, r1: int, budget: int, detect_cycles: bool
) -> Verdict:
    instructions = program.instructions
    n = len(instructions)
    regs = [0] * program.num_registers
    regs[0] = r0
    regs[1] = r1
    pc = 0
    steps = 0
    seen = {(0, tuple(regs))} if detect_cycles else None
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
                pc += b
        elif op == OP_JMPBACK:
            pc -= a
        else:
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
