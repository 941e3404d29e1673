"""Exhaustive small-scope enumerations that every test module can import.

A property checked on every small input needs no luck to find a small
counterexample; the hypothesis strategies still reach more atoms and
leaves."""

from __future__ import annotations

from typing import Iterator

from coordsem import Formula, parse


def and_or_texts(leaves: int) -> Iterator[str]:
    """Every fully bracketed and/or formula with `leaves` leaves over A, B, C."""
    if leaves == 1:
        yield from "ABC"
        return
    for k in range(1, leaves):
        for left in and_or_texts(k):
            for right in and_or_texts(leaves - k):
                yield f"({left} and {right})"
                yield f"({left} or {right})"


def and_or_formulas(max_leaves: int) -> list[Formula]:
    """The formulas of `and_or_texts` with 1 to `max_leaves` leaves: 237 with
    at most 3, 3,477 with at most 4."""
    return [parse(t) for leaves in range(1, max_leaves + 1) for t in and_or_texts(leaves)]


def connective_texts(leaves: int) -> Iterator[str]:
    """Every fully bracketed formula with `leaves` leaves over A, B, C, with
    `and`, `or` or `xor` at each binary node and each subformula, the whole
    and the leaves included, either bare or under one `not`."""
    if leaves == 1:
        for name in "ABC":
            yield name
            yield f"not {name}"
        return
    for k in range(1, leaves):
        for left in connective_texts(k):
            for right in connective_texts(leaves - k):
                for word in ("and", "or", "xor"):
                    yield f"({left} {word} {right})"
                    yield f"not ({left} {word} {right})"


def connective_formulas(max_leaves: int) -> list[Formula]:
    """The formulas of `connective_texts` with 1 to `max_leaves` leaves: 222
    with at most 2, 15,774 with at most 3."""
    return [parse(t) for leaves in range(1, max_leaves + 1) for t in connective_texts(leaves)]
