"""Overpartitions, two-colored odd partitions, and the named counting families.

Six families are exposed through :class:`Family`, keyed by the same short
names the command line uses:

==========  =============================================================
``p``       all partitions
``pbar``    all overpartitions
``pmex``    partitions whose mex run has length >= r
``obar``    overpartitions whose plain parts are > r with the parity of r+1
``pe``      partitions with no even part below r (r odd)
``po2``     odd-part partitions, two colors allowed on sizes above r (r even)
==========  =============================================================

Enumeration generates the unrestricted base family and filters it through
:func:`is_member`, so the membership predicates are the single source of
truth.  The fixed enumeration order is descending lexicographic on the part
sizes, with ties broken by the overline/color pattern (plain before
overlined, first color before second).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .partitions import _SIZE, Partition, _line, _require_int, _tokens, mex_sequence

__all__ = [
    "ColoredPartition",
    "Family",
    "Overpartition",
    "count_family",
    "enumerate_family",
    "is_member",
]

_OVERPARTITION_LINE = _line(f"~?{_SIZE}")
_COLORED_LINE = _line(f"{_SIZE}_[12]")


class Overpartition:
    """An overpartition: distinct overlined parts plus unrestricted plain parts."""

    __slots__ = ("overlined", "plain")

    def __init__(self, overlined: Iterable[int] = (), plain: Iterable[int] = ()):
        over = tuple(sorted(overlined, reverse=True))
        rest = tuple(sorted(plain, reverse=True))
        for part in over + rest:
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(f"parts must be positive integers, got {part!r}")
        if any(a == b for a, b in zip(over, over[1:])):
            raise ValueError("overlined parts must be distinct")
        self.overlined: tuple[int, ...] = over
        self.plain: tuple[int, ...] = rest

    @property
    def weight(self) -> int:
        return sum(self.overlined) + sum(self.plain)

    def tokens(self) -> list[tuple[int, bool]]:
        """(size, overlined) pairs in print order: sizes descending, the
        overlined copy first within a size."""
        items = [(s, True) for s in self.overlined] + [(s, False) for s in self.plain]
        items.sort(key=lambda t: (-t[0], not t[1]))
        return items

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Overpartition)
            and self.overlined == other.overlined
            and self.plain == other.plain
        )

    def __hash__(self) -> int:
        return hash(("Overpartition", self.overlined, self.plain))

    def __repr__(self) -> str:
        return f"Overpartition({list(self.overlined)!r}, {list(self.plain)!r})"

    def text(self) -> str:
        """Canonical textual form, e.g. ``~6 ~4 ~3 3 3 ~2 ~1``; `-` when empty."""
        if not self.overlined and not self.plain:
            return "-"
        return " ".join(f"~{s}" if over else str(s) for s, over in self.tokens())

    @classmethod
    def from_text(cls, text: str) -> "Overpartition":
        """Parse the canonical form; token order must match print order."""
        pairs = [
            (int(token[1:]), True) if token[0] == "~" else (int(token), False)
            for token in _tokens(text, _OVERPARTITION_LINE, "overpartition")
        ]
        for (s1, o1), (s2, o2) in zip(pairs, pairs[1:]):
            if s1 < s2:
                raise ValueError(f"sizes must be weakly decreasing: {text.strip()!r}")
            if s1 == s2 and not o1 and o2:
                raise ValueError(f"overlined copy must precede plain: {text.strip()!r}")
        return cls(
            (s for s, over in pairs if over),
            (s for s, over in pairs if not over),
        )


class ColoredPartition:
    """Odd parts in two colors; the second color only on sizes above ``r``."""

    __slots__ = ("parts", "r")

    def __init__(self, parts: Iterable[tuple[int, int]] = (), r: int = 2):
        Family("po2", r)
        ordered = tuple(sorted(parts, key=lambda sc: (-sc[0], sc[1])))
        for size, color in ordered:
            if not isinstance(size, int) or isinstance(size, bool) or size < 1 or size % 2 == 0:
                raise ValueError(f"part sizes must be odd positive integers, got {size!r}")
            if color not in (1, 2):
                raise ValueError(f"colors must be 1 or 2, got {color!r}")
            if color == 2 and size <= r:
                raise ValueError(f"second color needs size > {r}, got {size}")
        self.parts: tuple[tuple[int, int], ...] = ordered
        self.r = r

    @property
    def weight(self) -> int:
        return sum(size for size, _ in self.parts)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColoredPartition)
            and self.parts == other.parts
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash(("ColoredPartition", self.parts, self.r))

    def __repr__(self) -> str:
        return f"ColoredPartition({list(self.parts)!r}, r={self.r})"

    def text(self) -> str:
        """Canonical textual form, e.g. ``5_2 1_1``; `-` when empty."""
        if not self.parts:
            return "-"
        return " ".join(f"{size}_{color}" for size, color in self.parts)

    @classmethod
    def from_text(cls, text: str, r: int) -> "ColoredPartition":
        pairs = [
            (int(token[:-2]), int(token[-1]))
            for token in _tokens(text, _COLORED_LINE, "colored partition")
        ]
        for (s1, c1), (s2, c2) in zip(pairs, pairs[1:]):
            if s1 < s2 or (s1 == s2 and c1 > c2):
                raise ValueError(f"tokens must be in canonical order: {text.strip()!r}")
        return cls(pairs, r)


# Member type of each family kind, in the order the command line lists them.
MEMBER_TYPES = {
    "p": Partition, "pbar": Overpartition,
    "pmex": Partition, "obar": Overpartition,
    "pe": Partition, "po2": ColoredPartition,
}
FAMILY_KINDS = tuple(MEMBER_TYPES)


@dataclass(frozen=True)
class Family:
    """Identifier for one of the named counting families.

    The one place that knows which kinds take ``r`` and which need it odd
    (``pe``) or even (``po2``); a bijection's r rule is that of its domain
    and codomain families.
    """

    kind: str
    r: int | None = None

    def __post_init__(self):
        if self.kind not in MEMBER_TYPES:
            raise ValueError(f"unknown family {self.kind!r}")
        if self.kind in ("p", "pbar"):
            if self.r is not None:
                raise ValueError(f"family {self.kind!r} takes no parameter r")
            return
        _require_int(self.r, 1, f"r of family {self.kind!r}")
        if self.kind == "pe" and self.r % 2 == 0:
            raise ValueError(f"family 'pe' needs odd r, got {self.r}")
        if self.kind == "po2" and self.r % 2 == 1:
            raise ValueError(f"family 'po2' needs even r, got {self.r}")


def _second_color_above(parts: Iterable[tuple[int, int]], r: int) -> bool:
    return all(color == 1 or size > r for size, color in parts)


def is_member(family: Family, obj: object) -> bool:
    """Membership predicate for every family; enumeration filters through this."""
    kind, r = family.kind, family.r
    if not isinstance(obj, MEMBER_TYPES[kind]):
        return False
    if kind == "pmex":
        return mex_sequence(obj).at_least(r)
    if kind == "obar":
        return all(x > r and (x - r - 1) % 2 == 0 for x in obj.plain)
    if kind == "pe":
        return not any(x % 2 == 0 and x < r for x in obj.parts)
    if kind == "po2":
        return _second_color_above(obj.parts, r)
    return True


def _descending_parts(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _descending_parts(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _partitions(n: int) -> tuple[Partition, ...]:
    return tuple(Partition(parts) for parts in _descending_parts(n, n))


@lru_cache(maxsize=8)
def _overpartitions(n: int) -> tuple[Overpartition, ...]:
    # An overpartition is a partition plus a choice of part sizes to overline;
    # enumerating the choices with the largest size as the most significant
    # bit keeps the whole list in canonical order without sorting.
    out = []
    for p in _partitions(n):
        sizes = sorted(set(p.parts), reverse=True)
        for bits in product((False, True), repeat=len(sizes)):
            overlined = tuple(s for s, bit in zip(sizes, bits) if bit)
            remaining = list(p.parts)
            for s in overlined:
                remaining.remove(s)
            out.append(Overpartition(overlined, remaining))
    return tuple(out)


@lru_cache(maxsize=8)
def _two_colored_odd(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Raw (size, color) tuples with colors unrestricted; the family filter
    # applies the threshold.  Within one size block the second-color count
    # runs 0..multiplicity, which is exactly canonical order.
    out = []
    for p in _partitions(n):
        if any(part % 2 == 0 for part in p.parts):
            continue
        sizes = sorted(set(p.parts), reverse=True)
        mults = [p.parts.count(s) for s in sizes]
        for counts in product(*(range(m + 1) for m in mults)):
            parts: list[tuple[int, int]] = []
            for size, mult, second in zip(sizes, mults, counts):
                parts.extend([(size, 1)] * (mult - second))
                parts.extend([(size, 2)] * second)
            out.append(tuple(parts))
    return tuple(out)


def enumerate_family(family: Family, n: int):
    """All weight-``n`` members of ``family``, each exactly once.

    The order is fixed and documented: descending lexicographic on part
    sizes, then on the overline/color pattern.  Repeated calls with equal
    arguments return identical sequences.
    """
    _require_int(n, 0, "weight")
    if family.kind == "po2":
        return tuple(
            ColoredPartition(parts, family.r)
            for parts in _two_colored_odd(n)
            if _second_color_above(parts, family.r)
        )
    if family.kind in ("p", "pbar"):
        return _partitions(n) if family.kind == "p" else _overpartitions(n)
    base = _partitions(n) if family.kind in ("pmex", "pe") else _overpartitions(n)
    return tuple(obj for obj in base if is_member(family, obj))


def count_family(family: Family, n: int) -> int:
    """Number of weight-``n`` members, by exhaustive enumeration."""
    return len(enumerate_family(family, n))
