"""Self-delimiting program encodings for a register machine, plus reserved composites.

Grammar (bit strings)::

    program     := gamma(n+1) instruction^n            -- native program, n >= 0
                 | "01010" gamma(1) program            -- step-count composite
                 | "01010" gamma(2) program            -- successor composite
                 | "01010" gamma(3) gamma(b+1) program -- bounded halt-test composite

    instruction := "00" gamma(r+1)                     -- increment register r
                 | "01" gamma(r+1) gamma(d)            -- if register r is zero jump d
                                                       --   forward, else decrement it
                 | "10" gamma(d)                       -- jump d back (needs d <= index)
                 | "11" gamma(r+1)                     -- reset register r to zero

A backward jump can never legally appear as the first instruction (its offset
must not exceed its index), so the five-bit pattern "01010" — header gamma(2)
followed by the backward-jump opcode — is unreachable by native programs and is
reserved as the marker for the built-in composites.  Only the gamma(2) header
participates: a first-instruction backward jump under any larger header stays
plain invalid.  The code is therefore prefix-free by construction (the Kraft
sum is strictly below 1; the language does not claim completeness).

Encodings shorter than everything else, for orientation: "1" is the empty
program, "010001" is <INC R0>, and "0" is an incomplete gamma code and hence
malformed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from bbnet.bits import gamma_encode, gamma_min_completion

OP_INC = 0
OP_DECJZ = 1
OP_JMPBACK = 2
OP_ZERO = 3

_OPCODE_BITS = {OP_INC: "00", OP_DECJZ: "01", OP_JMPBACK: "10", OP_ZERO: "11"}

BUILTIN_MARKER = "01010"
STEP_COUNT = "step_count"
SUCCESSOR = "successor"
HALT_TEST = "halt_test"
_BUILTIN_IDS = {1: STEP_COUNT, 2: SUCCESSOR, 3: HALT_TEST}

STEP_COUNT_PREFIX = BUILTIN_MARKER + gamma_encode(1)
SUCCESSOR_PREFIX = BUILTIN_MARKER + gamma_encode(2)
HALT_TEST_PREFIX = BUILTIN_MARKER + gamma_encode(3)

# Length overhead of wrapping a program into its runtime witness (successor of
# step count); the witness of w is |w| + this many bits long.
RUNTIME_WITNESS_OVERHEAD = len(SUCCESSOR_PREFIX) + len(STEP_COUNT_PREFIX)

DEFAULT_MAX_PROGRAM_BITS = 24

MINIMAL_ENCODING = "1"  # the empty program; shortest member of the language


class MalformedEncoding(ValueError):
    """The bit string is not (and cannot be completed into) a valid program."""


class _Truncated(Exception):
    """Internal: bits ran out; ``min_more`` is the exact minimum number of
    additional bits after which some completion becomes a valid program."""

    def __init__(self, min_more: int):
        self.min_more = min_more


class _GammaTruncated(Exception):
    def __init__(self, partial: str):
        self.partial = partial


@dataclass(frozen=True)
class Program:
    """A decoded program: either a native instruction list or a composite."""

    bits: str
    instructions: tuple[tuple[int, int, int], ...] | None
    builtin: str | None = None
    arg: "Program | None" = None
    bound: int | None = None
    num_registers: int = 2

    @property
    def is_native(self) -> bool:
        return self.builtin is None

    def __len__(self) -> int:
        return len(self.bits)


def _parse_gamma(bits: str, pos: int) -> tuple[int, int]:
    n = len(bits)
    i = pos
    while i < n and bits[i] == "0":
        i += 1
    end = i + (i - pos) + 1
    if end > n:
        raise _GammaTruncated(bits[pos:])
    return int(bits[i:end], 2), end


def _num_registers(instructions: tuple[tuple[int, int, int], ...]) -> int:
    highest = 1  # register 1 always exists (auxiliary input)
    for op, a, _ in instructions:
        if op != OP_JMPBACK and a > highest:
            highest = a
    return highest + 1


def _parse_instruction(
    bits: str, pos: int, index: int, header: int
) -> tuple[tuple[int, int, int] | None, int]:
    """Parse one instruction; returns ``(None, pos)`` when the reserved-composite
    route opens (backward-jump opcode at index 0 under header gamma(2))."""
    n = len(bits)
    if pos >= n:
        raise _Truncated(3)
    first = bits[pos]
    if pos + 1 >= n:
        if first == "0":
            raise _Truncated(2)  # cheapest: finish as INC, one-bit operand
        # '1?': ZERO always completes in 2 more bits; the composite route (when
        # open) needs 3 and a backward jump (when legal) needs 2.
        raise _Truncated(2)
    opcode = bits[pos : pos + 2]
    pos += 2
    if opcode == "10":
        if index == 0:
            if header == 2:
                return None, pos  # reserved-composite marker
            raise MalformedEncoding("backward jump as first instruction")
        try:
            delta, pos = _parse_gamma(bits, pos)
        except _GammaTruncated as t:
            extra, min_value = gamma_min_completion(t.partial)
            if min_value > index:
                raise MalformedEncoding("backward jump offset exceeds instruction index")
            raise _Truncated(extra)
        if delta > index:
            raise MalformedEncoding("backward jump offset exceeds instruction index")
        return (OP_JMPBACK, delta, 0), pos
    if opcode == "01":
        try:
            reg, pos = _parse_gamma(bits, pos)
        except _GammaTruncated as t:
            raise _Truncated(gamma_min_completion(t.partial)[0] + 1)
        try:
            delta, pos = _parse_gamma(bits, pos)
        except _GammaTruncated as t:
            raise _Truncated(gamma_min_completion(t.partial)[0])
        return (OP_DECJZ, reg - 1, delta), pos
    try:
        reg, pos = _parse_gamma(bits, pos)
    except _GammaTruncated as t:
        raise _Truncated(gamma_min_completion(t.partial)[0])
    op = OP_INC if opcode == "00" else OP_ZERO
    return (op, reg - 1, 0), pos


def _builtin_id_min_completion(partial: str) -> int:
    best = None
    for builtin_id, kind in _BUILTIN_IDS.items():
        code = gamma_encode(builtin_id)
        if code.startswith(partial):
            arg_min = 1 if kind != HALT_TEST else 2  # minimal argument(s): "1" (+ gamma(1))
            candidate = len(code) - len(partial) + arg_min
            if best is None or candidate < best:
                best = candidate
    if best is None:
        raise MalformedEncoding("unknown composite id")
    return best


def _parse_builtin(bits: str, pos: int, start: int) -> tuple[Program, int]:
    try:
        builtin_id, pos = _parse_gamma(bits, pos)
    except _GammaTruncated as t:
        raise _Truncated(_builtin_id_min_completion(t.partial))
    kind = _BUILTIN_IDS.get(builtin_id)
    if kind is None:
        raise MalformedEncoding("unknown composite id")
    bound = None
    if kind == HALT_TEST:
        try:
            encoded_bound, pos = _parse_gamma(bits, pos)
        except _GammaTruncated as t:
            raise _Truncated(gamma_min_completion(t.partial)[0] + 1)
        bound = encoded_bound - 1
    arg, pos = _parse_program(bits, pos)
    program = Program(
        bits=bits[start:pos],
        instructions=None,
        builtin=kind,
        arg=arg,
        bound=bound,
    )
    return program, pos


def _parse_program(bits: str, pos: int) -> tuple[Program, int]:
    start = pos
    try:
        header, pos = _parse_gamma(bits, pos)
    except _GammaTruncated as t:
        extra, min_header = gamma_min_completion(t.partial)
        raise _Truncated(extra + 3 * (min_header - 1))
    count = header - 1
    instructions: list[tuple[int, int, int]] = []
    for index in range(count):
        try:
            instr, pos = _parse_instruction(bits, pos, index, header)
        except _Truncated as t:
            raise _Truncated(t.min_more + 3 * (count - index - 1))
        if instr is None:
            return _parse_builtin(bits, pos, start)
        instructions.append(instr)
    body = tuple(instructions)
    program = Program(
        bits=bits[start:pos],
        instructions=body,
        num_registers=_num_registers(body),
    )
    return program, pos


def decode_program(bits: str) -> tuple[Program, str]:
    """Decode one program off the front of ``bits``; return it and the remainder.

    Raises :class:`MalformedEncoding` for invalid or truncated input.
    """
    try:
        program, pos = _parse_program(bits, 0)
    except _Truncated as t:
        raise MalformedEncoding(f"truncated encoding (needs >= {t.min_more} more bits)")
    return program, bits[pos:]


def decode_exact(bits: str) -> Program:
    """Decode ``bits`` as exactly one program with nothing left over."""
    program, rest = decode_program(bits)
    if rest:
        raise MalformedEncoding("trailing bits after program")
    return program


def is_valid_encoding(bits: str) -> bool:
    try:
        decode_exact(bits)
        return True
    except MalformedEncoding:
        return False


def classify_prefix(prefix: str, max_bits: int):
    """Classify ``prefix`` against the set of valid encodings of <= ``max_bits`` bits.

    Returns ``("complete", program)`` when the prefix is itself one whole
    program, ``("live", min_total)`` when some extension within the length cap
    is valid (``min_total`` = length of the shortest), or ``("dead", None)``.
    """
    try:
        program, pos = _parse_program(prefix, 0)
    except MalformedEncoding:
        return ("dead", None)
    except _Truncated as t:
        total = len(prefix) + t.min_more
        if total <= max_bits:
            return ("live", total)
        return ("dead", None)
    if pos != len(prefix):
        return ("dead", None)  # a complete program plus junk extends to nothing valid
    if pos > max_bits:
        return ("dead", None)
    return ("complete", program)


def sample_program(rng, max_bits: int = DEFAULT_MAX_PROGRAM_BITS) -> Program:
    """Draw one program by unbiased coin flips, renormalised to the length cap.

    The walk extends the prefix one bit at a time.  Whenever both one-bit
    extensions can still be completed into a valid program of at most
    ``max_bits`` bits, one fair random bit decides; when only one can, that bit
    is forced without consuming randomness.  The walk stops exactly when the
    prefix is a complete program, so the result is always valid and the
    distribution is the uniform-bits distribution conditioned, prefix by
    prefix, on completability within the cap.
    """
    if max_bits < 1:
        raise ValueError("max_bits must be >= 1")
    prefix = ""
    kind, payload = classify_prefix(prefix, max_bits)
    while kind != "complete":
        # The chosen extension's classification is the next prefix's.
        zero = classify_prefix(prefix + "0", max_bits)
        one = classify_prefix(prefix + "1", max_bits)
        zero_live, one_live = zero[0] != "dead", one[0] != "dead"
        if zero_live and one_live:
            bit = "1" if rng.getrandbits(1) else "0"
        elif zero_live:
            bit = "0"
        elif one_live:
            bit = "1"
        else:
            raise AssertionError("live prefix with no live extension")
        prefix += bit
        kind, payload = one if bit == "1" else zero
    return payload


def instruction_bits(instruction: tuple[int, int, int], index: int) -> str:
    """Encode one instruction tuple, validating operands against its index."""
    op, a, b = instruction
    if op == OP_INC or op == OP_ZERO:
        if a < 0:
            raise ValueError("register must be >= 0")
        return _OPCODE_BITS[op] + gamma_encode(a + 1)
    if op == OP_DECJZ:
        if a < 0 or b < 1:
            raise ValueError("register must be >= 0 and forward offset >= 1")
        return _OPCODE_BITS[op] + gamma_encode(a + 1) + gamma_encode(b)
    if op == OP_JMPBACK:
        if not 1 <= a <= index:
            raise ValueError("backward offset must satisfy 1 <= offset <= index")
        return _OPCODE_BITS[op] + gamma_encode(a)
    raise ValueError(f"unknown opcode {op}")


def native_program(instructions) -> Program:
    """Build a native program from instruction tuples, producing its encoding."""
    body = tuple(tuple(instr) for instr in instructions)
    bits = gamma_encode(len(body) + 1) + "".join(
        instruction_bits(instr, i) for i, instr in enumerate(body)
    )
    return Program(bits=bits, instructions=body, num_registers=_num_registers(body))


EMPTY_PROGRAM = native_program(())


def step_count_program(arg: Program) -> Program:
    """Composite whose output is the step count of ``arg`` on empty input."""
    return Program(
        bits=STEP_COUNT_PREFIX + arg.bits, instructions=None, builtin=STEP_COUNT, arg=arg
    )


def successor_program(arg: Program) -> Program:
    """Composite whose output is the successor of ``arg``'s output, as a natural."""
    return Program(
        bits=SUCCESSOR_PREFIX + arg.bits, instructions=None, builtin=SUCCESSOR, arg=arg
    )


def halt_test_program(bound: int, arg: Program) -> Program:
    """Composite that outputs the halting label iff ``arg`` halts within ``bound`` steps."""
    if bound < 0:
        raise ValueError("bound must be a natural number")
    return Program(
        bits=HALT_TEST_PREFIX + gamma_encode(bound + 1) + arg.bits,
        instructions=None,
        builtin=HALT_TEST,
        arg=arg,
        bound=bound,
    )


def runtime_witness_program(program: Program) -> Program:
    """Successor-of-step-count composite; halts exactly when ``program`` does, and
    its output (as a natural) is ``program``'s step count plus one."""
    return successor_program(step_count_program(program))


def _iter_gamma_codes(max_bits: int, max_value: int | None = None):
    half = 0
    while 2 * half + 1 <= max_bits:
        low = 1 << half
        high = (1 << (half + 1)) - 1
        if max_value is not None:
            if low > max_value:
                return
            high = min(high, max_value)
        for value in range(low, high + 1):
            yield value, gamma_encode(value)
        half += 1


def _iter_instruction_codes(index: int, budget: int):
    if budget < 3:
        return
    for value, code in _iter_gamma_codes(budget - 2):
        yield "00" + code, (OP_INC, value - 1, 0)
        yield "11" + code, (OP_ZERO, value - 1, 0)
    for reg_value, reg_code in _iter_gamma_codes(budget - 3):
        for off_value, off_code in _iter_gamma_codes(budget - 2 - len(reg_code)):
            yield "01" + reg_code + off_code, (OP_DECJZ, reg_value - 1, off_value)
    if index >= 1:
        for value, code in _iter_gamma_codes(budget - 2, max_value=index):
            yield "10" + code, (OP_JMPBACK, value, 0)


def _iter_instruction_sequences(index: int, count: int, budget: int):
    if count == 0:
        yield "", ()
        return
    tail_min = 3 * (count - 1)
    for code, instr in _iter_instruction_codes(index, budget - tail_min):
        for tail_code, tail in _iter_instruction_sequences(index + 1, count - 1, budget - len(code)):
            yield code + tail_code, (instr,) + tail


@functools.lru_cache(maxsize=16)
def all_programs(max_bits: int) -> tuple[Program, ...]:
    """Every valid program of at most ``max_bits`` bits, sorted by (length, bits)."""
    found: list[Program] = []
    count = 0
    while True:
        header_bits = gamma_encode(count + 1)
        if len(header_bits) + 3 * count > max_bits:
            break  # minimal native length is monotone in the instruction count
        for body_bits, body in _iter_instruction_sequences(0, count, max_bits - len(header_bits)):
            found.append(
                Program(
                    bits=header_bits + body_bits,
                    instructions=body,
                    num_registers=_num_registers(body),
                )
            )
        count += 1
    for prefix, builder in ((STEP_COUNT_PREFIX, step_count_program), (SUCCESSOR_PREFIX, successor_program)):
        if max_bits >= len(prefix) + 1:
            for arg in all_programs(max_bits - len(prefix)):
                found.append(builder(arg))
    room = max_bits - len(HALT_TEST_PREFIX)
    if room >= 2:
        for encoded_bound, bound_code in _iter_gamma_codes(room - 1):
            for arg in all_programs(room - len(bound_code)):
                found.append(halt_test_program(encoded_bound - 1, arg))
    found.sort(key=lambda p: (len(p.bits), p.bits))
    return tuple(found)
