"""Shared primitives: exact rational parsing, inertia triples, error types."""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

__all__ = ["GraphError", "ParseError", "Inertia", "parse_rational"]


class GraphError(ValueError):
    """An operation or constructor was handed a graph it cannot accept."""


class ParseError(GraphError):
    """Malformed textual input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def echo(value: object) -> str:
    """``repr(value)`` for an error message, cut after 40 characters, so that
    a huge input literal cannot flood the message."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


# ASCII digits only: ``\d`` would also take every other Unicode decimal digit.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")


def parse_rational(text: str) -> Fraction:
    """Parse an ``int`` or ``int/int`` literal into an exact Fraction.

    Floats, empty strings and zero denominators are rejected.  The match's
    own groups give the numerator and denominator, so the text is read once.
    """
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ValueError(f"not an integer or integer ratio: {echo(text)}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except ValueError:  # a literal past the interpreter's int digit limit
        raise ValueError("integer literal too long for exact conversion") from None


class Inertia(NamedTuple):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix.

    For a graph this is taken over its weighted adjacency matrix, so
    ``pos + neg + zero`` equals the number of vertices.  As a named tuple it
    equals, and unpacks like, the plain tuple ``(pos, neg, zero)``; ``+``
    adds counts, it does not concatenate.
    """

    pos: int
    neg: int
    zero: int

    def __add__(self, other: "Inertia") -> "Inertia":
        return Inertia(self.pos + other.pos, self.neg + other.neg, self.zero + other.zero)

    @property
    def pn(self) -> tuple[int, int]:
        """The (positive, negative) pair, which decompositions track exactly."""
        return (self.pos, self.neg)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pos, self.neg, self.zero)

    def __str__(self) -> str:
        return f"(i+={self.pos}, i-={self.neg}, i0={self.zero})"
