"""Bit-string primitives: the string/natural bijection, Elias gamma codes, tuple framing.

Bit strings are Python ``str`` objects over the characters '0' and '1'.  The
bijection with the naturals is length-lexicographic: the empty string is 0,
then "0", "1", "00", "01", "10", "11", "000", ...  A string of length L with
binary value v maps to 2^L - 1 + v.
"""

from __future__ import annotations


def bitstring_to_natural(bits: str) -> int:
    """Rank of ``bits`` in length-lexicographic order (empty string -> 0)."""
    if not bits:
        return 0
    return (1 << len(bits)) - 1 + int(bits, 2)


def natural_to_bitstring(n: int) -> str:
    """Inverse of :func:`bitstring_to_natural`."""
    if n < 0:
        raise ValueError("naturals only")
    length = (n + 1).bit_length() - 1
    if length == 0:
        return ""
    offset = n - ((1 << length) - 1)
    return format(offset, f"0{length}b")


def gamma_encode(value: int) -> str:
    """Elias gamma code of a positive integer: (bitlength-1) zeros, then the binary form."""
    if value < 1:
        raise ValueError("gamma codes positive integers only")
    body = format(value, "b")
    return "0" * (len(body) - 1) + body


def gamma_min_completion(partial: str) -> tuple[int, int]:
    """Cheapest way to finish a partial gamma code.

    Given the bits consumed so far of an (incomplete) gamma code, return
    ``(extra_bits, min_value)``: the minimum number of further bits that yield a
    complete code, and the value that minimal completion decodes to.  Every
    other completion decodes to a value >= ``min_value``.
    """
    zeros = 0
    while zeros < len(partial) and partial[zeros] == "0":
        zeros += 1
    if zeros == len(partial):
        # Still reading the zero run; the cheapest finish is '1' + zeros more bits.
        return zeros + 1, 1 << zeros
    consumed = len(partial) - zeros  # value bits read, including the leading '1'
    remaining = zeros + 1 - consumed
    value_so_far = int(partial[zeros:], 2)
    return remaining, value_so_far << remaining


def concat_selfdelim(parts: list[str] | tuple[str, ...]) -> str:
    """Frame a tuple of bit strings self-delimitingly: each part as gamma(len+1) + raw bits."""
    chunks = []
    for part in parts:
        chunks.append(gamma_encode(len(part) + 1))
        chunks.append(part)
    return "".join(chunks)


def split_selfdelim(bits: str) -> list[str]:
    """Inverse of :func:`concat_selfdelim`; raises ValueError on malformed framing."""
    parts = []
    pos = 0
    n = len(bits)
    while pos < n:
        zeros = 0
        while pos + zeros < n and bits[pos + zeros] == "0":
            zeros += 1
        body_end = pos + zeros + zeros + 1
        if body_end > n:
            raise ValueError("truncated length header")
        length = int(bits[pos + zeros : body_end], 2) - 1
        pos = body_end
        if pos + length > n:
            raise ValueError("truncated payload")
        parts.append(bits[pos : pos + length])
        pos += length
    return parts
