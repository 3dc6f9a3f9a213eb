"""Reference computations for the benchmark's output checks, written apart from bbnet.

Nothing here imports ``bbnet``.  The register machine, its prefix-free program
code and the temporal-graph metrics are re-derived from their definitions in
the project README and the module docstrings:

* A native program is gamma(n+1) followed by n instructions: ``00`` gamma(r+1)
  increments register r, ``01`` gamma(r+1) gamma(d) decrements r or jumps d
  forward when r is zero, ``10`` gamma(d) jumps d back (d at most the
  instruction's index), ``11`` gamma(r+1) clears register r.
* ``01010`` (a one-instruction header whose first instruction would be a
  backward jump) is the composite marker, followed by gamma(1) step-count,
  gamma(2) successor or gamma(3) gamma(b+1) halt-test, then the argument
  program.  Composites run their argument on empty input.
* A run halts when the program counter leaves the program; the output is
  register 0.  Composite step counts: step-count and successor take the
  argument's steps + 1; halt-test takes min(argument's steps, b + 1) + 1.

The interpreter finds nonhalting loops with Brent's cycle detection (one saved
configuration, re-saved at power-of-two distances), not with a set of every
configuration seen.  The earliest-arrival routine is a breadth-first search
over the time-expanded graph, where a vertex may wait at any instant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

INC, DECJZ, JMPBACK, ZERO = "INC", "DECJZ", "JMPBACK", "ZERO"
STEP_COUNT, SUCCESSOR, HALT_TEST = "step-count", "successor", "halt-test"

HALTED = "halted"
LOOPS = "loops"  # a configuration repeated: the run never halts
EXHAUSTED = "exhausted"  # neither halted nor seen to repeat within the budget


class Malformed(ValueError):
    """The bits are not one whole valid program."""


# ------------------------------------------------------------ strings <-> naturals


def to_natural(bits: str) -> int:
    """Length-lexicographic rank: '' -> 0, '0' -> 1, '1' -> 2, '00' -> 3, ..."""
    return (1 << len(bits)) - 1 + (int(bits, 2) if bits else 0)


def to_bits(value: int) -> str:
    length = 0
    while (1 << (length + 1)) - 1 <= value:
        length += 1
    return format(value - ((1 << length) - 1), f"0{length}b") if length else ""


def gamma(value: int) -> str:
    body = bin(value)[2:]
    return "0" * (len(body) - 1) + body


# -------------------------------------------------------------------- decoding


@dataclass(frozen=True)
class Prog:
    """A decoded program: ``kind`` is 'native' or a composite name."""

    kind: str
    body: tuple = ()  # native: ((op, a, b), ...)
    arg: "Prog | None" = None
    bound: int = 0


def _read_gamma(bits: str, pos: int) -> tuple[int, int]:
    zeros = 0
    while pos + zeros < len(bits) and bits[pos + zeros] == "0":
        zeros += 1
    end = pos + 2 * zeros + 1
    if end > len(bits):
        raise Malformed("truncated gamma code")
    return int(bits[pos + zeros : end], 2), end


def _read_program(bits: str, pos: int) -> tuple[Prog, int]:
    header, pos = _read_gamma(bits, pos)
    if header == 2 and bits[pos : pos + 2] == "10":
        kind_id, pos = _read_gamma(bits, pos + 2)
        if kind_id == 3:
            encoded_bound, pos = _read_gamma(bits, pos)
            arg, pos = _read_program(bits, pos)
            return Prog(HALT_TEST, arg=arg, bound=encoded_bound - 1), pos
        if kind_id in (1, 2):
            arg, pos = _read_program(bits, pos)
            return Prog(STEP_COUNT if kind_id == 1 else SUCCESSOR, arg=arg), pos
        raise Malformed("unknown composite")
    body = []
    for index in range(header - 1):
        opcode = bits[pos : pos + 2]
        if len(opcode) < 2:
            raise Malformed("truncated opcode")
        first, pos = _read_gamma(bits, pos + 2)
        if opcode == "00":
            body.append((INC, first - 1, 0))
        elif opcode == "11":
            body.append((ZERO, first - 1, 0))
        elif opcode == "01":
            offset, pos = _read_gamma(bits, pos)
            body.append((DECJZ, first - 1, offset))
        else:
            if first > index:
                raise Malformed("backward jump leaves the program")
            body.append((JMPBACK, first, 0))
    return Prog("native", body=tuple(body)), pos


def decode(bits: str) -> Prog:
    """Decode ``bits`` as exactly one program."""
    program, pos = _read_program(bits, 0)
    if pos != len(bits):
        raise Malformed("trailing bits")
    return program


def programs_up_to(max_bits: int) -> list[tuple[str, Prog]]:
    """Every valid program of at most ``max_bits`` bits, by trying every bit string."""
    found = []
    for length in range(1, max_bits + 1):
        for value in range(1 << length):
            bits = format(value, f"0{length}b")
            try:
                found.append((bits, decode(bits)))
            except Malformed:
                pass
    return found


def encode_native(body) -> str:
    """Encoding of a native instruction list (for hand-worked examples)."""
    out = [gamma(len(body) + 1)]
    for op, a, b in body:
        if op == INC:
            out.append("00" + gamma(a + 1))
        elif op == ZERO:
            out.append("11" + gamma(a + 1))
        elif op == DECJZ:
            out.append("01" + gamma(a + 1) + gamma(b))
        else:
            out.append("10" + gamma(a))
    return "".join(out)


COPIER = ((DECJZ, 1, 3), (INC, 0, 0), (JMPBACK, 2, 0))  # moves register 1 into register 0


# ------------------------------------------------------------------- execution


@dataclass(frozen=True)
class Outcome:
    kind: str  # HALTED, LOOPS or EXHAUSTED
    value: int | None  # register 0 as a natural, when halted
    steps: int


def _run_native(body, r0: int, r1: int, budget: int) -> Outcome:
    size = 2
    for op, a, _ in body:
        if op != JMPBACK:
            size = max(size, a + 1)
    regs = [0] * size
    regs[0], regs[1] = r0, r1
    end = len(body)
    pc = steps = 0
    saved_pc, saved_regs, power, distance = 0, list(regs), 1, 0
    while pc < end:
        if steps == budget:
            return Outcome(EXHAUSTED, None, steps)
        op, a, b = body[pc]
        if op == INC:
            regs[a] += 1
            pc += 1
        elif op == DECJZ:
            if regs[a]:
                regs[a] -= 1
                pc += 1
            else:
                pc += b
        elif op == JMPBACK:
            pc -= a
        else:
            regs[a] = 0
            pc += 1
        steps += 1
        if pc == saved_pc and regs == saved_regs:
            return Outcome(LOOPS, None, steps)
        distance += 1
        if distance == power:
            saved_pc, saved_regs, power, distance = pc, list(regs), 2 * power, 0
    return Outcome(HALTED, regs[0], steps)


def execute(program: Prog, r0: int = 0, r1: int = 0, budget: int = 10_000) -> Outcome:
    """Run ``program`` with register 0 = r0 and register 1 = r1 for at most ``budget`` steps.

    A halt-test emits the bit string "1" when its argument halts and "0" otherwise.
    """
    if program.kind == "native":
        return _run_native(program.body, r0, r1, budget)
    if budget == 0:
        return Outcome(EXHAUSTED, None, 0)
    if program.kind == HALT_TEST:
        # Past budget - 1 inner steps the test cannot finish within the budget anyway.
        inner = execute(program.arg, 0, 0, min(program.bound, budget - 1))
        halts = inner.kind == HALTED
        steps = (inner.steps if halts else program.bound + 1) + 1
        if steps > budget:
            return Outcome(EXHAUSTED, None, budget)
        return Outcome(HALTED, to_natural("1" if halts else "0"), steps)
    inner = execute(program.arg, 0, 0, budget - 1)
    if inner.kind != HALTED:
        return inner
    value = inner.steps if program.kind == STEP_COUNT else inner.value + 1
    return Outcome(HALTED, value, inner.steps + 1)


def halting_steps(program: Prog, limit: int) -> int | None:
    """Steps to halt on empty input if the program halts within ``limit`` steps, else None."""
    outcome = execute(program, 0, 0, limit)
    return outcome.steps if outcome.kind == HALTED else None


def isolated_outputs(program: Prog, w: str, cycles: int, budget: int) -> list[str]:
    """A node alone: each cycle feeds back its fitness (output + 1); a run that
    does not halt kills the node, whose output is then the empty string."""
    outputs, current = [], w
    for _ in range(cycles):
        if current is not None:
            outcome = execute(program, to_natural(current), 0, budget)
            current = to_bits(outcome.value + 1) if outcome.kind == HALTED else None
        outputs.append("" if current is None else current)
    return outputs


# ------------------------------------------------------------------ temporal graphs


def hypercube_arcs(num_vertices: int, num_instants: int) -> set[tuple[int, int, int]]:
    """Arcs (u, i, v) of the hypercube on ``num_vertices`` vertices, repeated at every interval."""
    arcs = set()
    for u in range(num_vertices):
        bit = 1
        while bit < num_vertices:
            if u ^ bit < num_vertices:
                for i in range(num_instants - 1):
                    arcs.add((u, i, u ^ bit))
            bit <<= 1
    return arcs


def _leaving(arcs) -> dict[tuple[int, int], list[int]]:
    leaving: dict[tuple[int, int], list[int]] = {}
    for u, i, v in arcs:
        leaving.setdefault((u, i), []).append(v)
    return leaving


def earliest_arrivals(num_vertices: int, num_instants: int, arcs, source: int) -> list:
    """Intervals until ``source``'s information first reaches each vertex (None: never).

    Breadth-first search over (vertex, instant) pairs; a pair leads to the same
    vertex at the next instant (waiting) and along every arc leaving it.
    """
    return _arrivals(num_vertices, num_instants, _leaving(arcs), source)


def _arrivals(num_vertices: int, num_instants: int, leaving, source: int) -> list:
    arrival: list = [None] * num_vertices
    seen = {(source, 0)}
    queue = deque([(source, 0)])
    while queue:
        vertex, instant = queue.popleft()
        if arrival[vertex] is None or instant < arrival[vertex]:
            arrival[vertex] = instant
        if instant + 1 == num_instants:
            continue
        for nxt in [vertex] + leaving.get((vertex, instant), []):
            if (nxt, instant + 1) not in seen:
                seen.add((nxt, instant + 1))
                queue.append((nxt, instant + 1))
    return arrival


def reverse_reach(num_vertices: int, num_instants: int, arcs) -> list:
    """Per vertex, the worst earliest arrival over all sources (None: some source never arrives)."""
    leaving = _leaving(arcs)
    table = [_arrivals(num_vertices, num_instants, leaving, s) for s in range(num_vertices)]
    reach = []
    for target in range(num_vertices):
        column = [row[target] for row in table]
        reach.append(None if None in column else max(column))
    return reach
