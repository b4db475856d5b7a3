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

Each family's rule is written once, in ``_rule``, as data: the sizes the
walk skips (``pe``'s even sizes below r, ``po2``'s even sizes), the sizes it
takes at most once (those that must be overlined), ``marks(s, m)``, the
ascending range of how many of a block's m copies of size s carry a mark
(an overline, or ``po2``'s second color), and for ``pmex`` the filter that
keeps the partitions whose mex run has length >= r, an open run counting as
long enough (the walk's block sizes, read from the smallest, go through the
same scan as :func:`~mexpart.mex_sequence`, and the filter applies the rule
of ``MexSequence.at_least``).  ``_members`` expands the rule into members:
the walk is iterative, one explicit stack of (size, multiplicity) blocks,
filled greedily and backtracked, that yields each partition as soon as it
is complete, and each block becomes one pattern per number in ``marks``.
``_series`` counts by the same rule and builds no member and no pattern: a
knapsack over the allowed sizes, each block weighed by ``len(marks(s, m))``,
gives every weight up to a degree at once.  Every count is a coefficient of
that series.  For ``pmex`` the knapsack starts from the sum over the mex m
of q^(m(m-1)/2) (q^m;q)_r: the sizes below m that a member of mex m must
have, and the r sizes from m it must miss, so ``keep`` serves the walk
alone.  :class:`Family` holds the r rule and is the only holder of r: the
member types carry none, so a ``ColoredPartition`` is any two-colored odd
partition, and ``po2``'s bound on the second color lives, like every
family's rule, in ``_rule`` and :func:`is_member`.

The membership predicates stay the definition of every family: the tests
check each generator against the unrestricted base family filtered through
:func:`is_member`.  Generators wrap their already canonical output with the
private ``_trusted`` constructors, which skip the sorting and checks of the
public ones.

The fixed enumeration order is descending lexicographic on the part sizes,
with ties broken by the overline/color pattern (plain before overlined,
first color before second).  :func:`enumerate_family` returns a tuple;
the command line streams from the same generators without holding them.

Each member type prints one canonical line (``~6 ~4 3 3``, ``5_2 1_1``)
and its ``from_text`` accepts exactly the lines ``text()`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from operator import add, itemgetter, mul, sub
from typing import Iterable, Iterator

from .partitions import _UNBOUNDED, Partition, _descending, _require_int, _tokens
from .partitions import _colored_arguments, _colored_token, _mex_and_run, _overpartition_arguments
from .partitions import _overpartition_token, _refuse, _run_at_least

__all__ = [
    "ColoredPartition",
    "Family",
    "Overpartition",
    "count_family",
    "enumerate_family",
    "is_member",
]


@dataclass(slots=True, unsafe_hash=True, init=False, repr=False)
class Overpartition:
    """An overpartition: distinct overlined parts plus unrestricted plain parts."""

    overlined: tuple[int, ...]
    plain: tuple[int, ...]

    def __init__(self, overlined: Iterable[int] = (), plain: Iterable[int] = ()):
        over, rest = _descending(overlined), _descending(plain)
        if len(set(over)) != len(over):
            raise ValueError("overlined parts must be distinct")
        self.overlined = over
        self.plain = rest

    @classmethod
    def _trusted(cls, overlined: tuple[int, ...], plain: tuple[int, ...]) -> "Overpartition":
        """Wrap two descending tuples as is, skipping sort and checks."""
        obj = object.__new__(cls)
        obj.overlined = overlined
        obj.plain = plain
        return obj

    @property
    def weight(self) -> int:
        return sum(self.overlined) + sum(self.plain)

    def __repr__(self) -> str:
        return f"Overpartition({list(self.overlined)!r}, {list(self.plain)!r})"

    def text(self) -> str:
        """Canonical textual form, e.g. ``~6 ~4 ~3 3 3 ~2 ~1``; `-` when empty.

        Print order is sizes descending, the overlined copy first within a
        size: one merge of the two descending tuples, in which a plain part
        goes first only when it is larger than the next overlined one.
        """
        over, words = self.overlined, []
        i, count = 0, len(over)
        for size in self.plain:
            while i < count and over[i] >= size:
                words.append(f"~{over[i]}")
                i += 1
            words.append(str(size))
        words += [f"~{size}" for size in over[i:]]
        return " ".join(words) if words else "-"

    @classmethod
    def from_text(cls, text: str) -> "Overpartition":
        """Parse one line: exactly what :meth:`text` prints, nothing else.

        In print order an overlined part is smaller than the part before
        it, and a plain part no larger.
        """
        line = text.strip()
        tokens = _tokens(line)
        overlined, plain, last = [], [], _UNBOUNDED
        for part in map(_overpartition_token, tokens):
            if part is None:
                _refuse(cls, line, tokens, _overpartition_arguments)
            size, over = part
            if size > last or (over and size == last):
                _refuse(cls, line, tokens, _overpartition_arguments)
            (overlined if over else plain).append(size)
            last = size
        return cls._trusted(tuple(overlined), tuple(plain))


@dataclass(slots=True, unsafe_hash=True, init=False, repr=False)
class ColoredPartition:
    """Odd parts in two colors, any size in either color; ``po2``'s bound on
    the second color is the family's, checked by :func:`is_member`."""

    parts: tuple[tuple[int, int], ...]

    def __init__(self, parts: Iterable[tuple[int, int]] = ()):
        ordered = list(parts)
        for part in ordered:
            if not isinstance(part, tuple) or len(part) != 2:
                raise ValueError(f"parts must be (size, color) tuples, got {part!r}")
            size, color = part
            if not isinstance(size, int) or isinstance(size, bool) or size < 1 or size % 2 == 0:
                raise ValueError(f"part sizes must be odd positive integers, got {size!r}")
            if not isinstance(color, int) or isinstance(color, bool) or color not in (1, 2):
                raise ValueError(f"colors must be 1 or 2, got {color!r}")
        # Canonical order, size descending and then color ascending, from
        # two stable sorts with C-level keys.
        ordered.sort(key=_COLOR)
        ordered.sort(key=_SIZE, reverse=True)
        self.parts = tuple(ordered)

    @classmethod
    def _trusted(cls, parts: tuple[tuple[int, int], ...]) -> "ColoredPartition":
        """Wrap canonically ordered parts as is, skipping sort and checks."""
        obj = object.__new__(cls)
        obj.parts = parts
        return obj

    @property
    def weight(self) -> int:
        return sum(size for size, _ in self.parts)

    def __repr__(self) -> str:
        return f"ColoredPartition({list(self.parts)!r})"

    def text(self) -> str:
        """Canonical textual form, e.g. ``5_2 1_1``; `-` when empty."""
        return " ".join([f"{size}_{color}" for size, color in self.parts]) if self.parts else "-"

    @classmethod
    def from_text(cls, text: str) -> "ColoredPartition":
        """Parse one line: exactly what :meth:`text` prints, nothing else."""
        line = text.strip()
        tokens = _tokens(line)
        parts = list(map(_colored_token, tokens))
        last_size, last_color = _UNBOUNDED, 1
        for part in parts:
            if part is None:
                _refuse(cls, line, tokens, _colored_arguments)
            size, color = part
            if size > last_size or (size == last_size and color < last_color):
                _refuse(cls, line, tokens, _colored_arguments)
            last_size, last_color = part
        # Unlike the other two types, built through the public constructor:
        # perfbench's tracer counts colored objects there, and its self-test
        # expects each parsed colored line to be counted.
        return cls(parts)


_SIZE, _COLOR = itemgetter(0), itemgetter(1)


# Member type of each family kind, in the order the command line lists them.
MEMBER_TYPES = {
    "p": Partition, "pbar": Overpartition,
    "pmex": Partition, "obar": Overpartition,
    "pe": Partition, "po2": ColoredPartition,
}
FAMILY_KINDS = tuple(MEMBER_TYPES)


@dataclass(frozen=True)
class Family:
    """Identifier for one of the named counting families, and the one place
    that knows which kinds take ``r`` and which need it odd (``pe``) or even
    (``po2``); a bijection's r rule is that of its domain and codomain
    families."""

    kind: str
    r: int | None = None

    def __post_init__(self):
        kind, r = self.kind, self.r
        if kind not in MEMBER_TYPES:
            raise ValueError(f"unknown family {kind!r}")
        if kind in ("p", "pbar"):
            if r is not None:
                raise ValueError(f"family {kind!r} takes no parameter r")
            return
        _require_int(r, 1, f"r of family {kind!r}")
        if kind == "pe" and r % 2 == 0:
            raise ValueError(f"family 'pe' needs odd r, got {r}")
        if kind == "po2" and r % 2 == 1:
            raise ValueError(f"family 'po2' needs even r, got {r}")


def is_member(family: Family, obj: object) -> bool:
    """Membership predicate for every family: the definition each generator
    below must agree with."""
    kind, r = family.kind, family.r
    if not isinstance(obj, MEMBER_TYPES[kind]):
        return False
    if kind == "pmex":
        return _run_at_least(_mex_and_run(reversed(obj.parts))[1], r)
    if kind == "obar":
        # every plain part > r with the parity of r+1: the smallest part is
        # > r, and the plain parts hold no odd part for odd r, only odd
        # parts for even r
        plain = obj.plain
        if not plain:
            return True
        return plain[-1] > r and sum(map((1).__and__, plain)) == (0 if r & 1 else len(plain))
    # pe and po2 restrict only the parts at or below r: the tail
    if kind == "pe":
        for size in reversed(obj.parts):
            if size > r:
                return True
            if size % 2 == 0:
                return False
    elif kind == "po2":
        for size, color in reversed(obj.parts):
            if size > r:
                return True
            if color == 2:
                return False
    return True


def _walk(n: int, skip, once) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of ``n`` with no size in ``skip`` and each size in ``once``
    at most once, as ``(size, multiplicity)`` blocks, sizes descending.

    The largest size comes first and, for it, the most copies first, which
    is descending lexicographic order on the parts (Knuth, TAOCP 4A,
    7.2.1.4, Algorithm P in block form).  One explicit stack of blocks
    holds the partition being built: the remainder is filled greedily,
    each block taking the largest allowed size and as many copies as fit,
    and a full stack is yielded.  Then the last block gives up one copy
    (or is popped when it has one) and the filling resumes below its size.
    A remainder that no smaller allowed size can fill is a dead end and is
    backtracked the same way.
    """
    blocks: list[tuple[int, int]] = []
    rest, size = n, n  # size: the largest the next block may take
    while True:
        while rest:
            if size > rest:
                size = rest
            while size and size in skip:
                size -= 1
            if not size:
                break
            mult = 1 if size in once else rest // size
            blocks.append((size, mult))
            rest -= size * mult
            size -= 1
        if not rest:
            yield tuple(blocks)
        if not blocks:
            return
        size, mult = blocks[-1]
        rest += size
        if mult > 1:
            blocks[-1] = (size, mult - 1)
        else:
            blocks.pop()
        size -= 1


def _flat(blocks) -> Partition:
    parts = ()
    for size, mult in blocks:
        parts += (size,) * mult
    return Partition._trusted(parts)


def _rule(family: Family, n: int):
    """The one statement of ``family``'s rule at weight ``n``, as data that
    :func:`_members` expands and :func:`_series` counts: ``(skip, once,
    marks, keep)``.

    ``skip`` and ``once`` are the sizes the walk skips and the sizes it
    takes at most once.  ``marks(s, m)`` is the ascending range of how many
    of the ``m`` parts of size ``s`` in a block carry a mark, an overline
    for the overpartition kinds and the second color for ``po2``; each
    number is one pattern of the block, and ascending is canonical order
    (plain before overlined, first color before second).  The partition
    kinds mark nothing, ``range(1)``.  ``keep`` is ``pmex``'s mex-run filter
    on a walk's blocks, None for every other kind; :func:`_series` counts
    ``pmex`` from its mex sum instead.  Nothing here grows with r: each set
    of sizes is a range or bounded by ``n``.
    """
    kind, r = family.kind, family.r
    if kind in ("pbar", "obar"):
        # obar: a size at most r or of r's parity is always overlined, so
        # it occurs once; every other size is plain or has one copy
        # overlined.
        forced = () if kind == "pbar" else frozenset(s for s in range(1, n + 1) if s <= r or (s - r) % 2 == 0)
        return (), forced, lambda s, m: range(1, 2) if s in forced else range(2), None
    if kind == "po2":  # odd sizes only; a second color only above r
        return range(2, n + 1, 2), (), lambda s, m: range(m + 1 if s > r else 1), None
    keep = None
    if kind == "pmex":  # block sizes ascend from the last block
        keep = lambda walk: (b for b in walk if _run_at_least(_mex_and_run(map(_SIZE, reversed(b)))[1], r))
    return range(2, r, 2) if kind == "pe" else (), (), lambda s, m: range(1), keep  # pe: no even size below r


def _blocks(n: int, skip, once) -> Iterator[tuple[int, range]]:
    """Each size the rule allows up to ``n``, with its multiplicities."""
    for s in range(1, n + 1):
        if s not in skip:
            yield s, range(1, (1 if s in once else n // s) + 1)


# One pattern of a block: ``m`` parts of size ``s`` with ``c`` of them
# marked, as an (overlined, plain) pair or as colored parts.
_PATTERN = {
    Overpartition: lambda s, m, c: ((s,) * c, (s,) * (m - c)),
    ColoredPartition: lambda s, m, c: ((s, 1),) * (m - c) + ((s, 2),) * c,
}


def _fan_out(walk, patterns, cls) -> Iterator:
    # Each partition's members, built block by block from the smallest
    # size: a larger block's pattern varies slower, which is canonical order.
    # Overpartition patterns are (overlined, plain) pairs, joined field by
    # field; a colored pattern is a tuple of parts, joined as it is.
    make = cls._trusted
    if cls is ColoredPartition:
        for blocks in walk:
            built = [()]
            for block in reversed(blocks):
                built = [c + a for c in patterns[block] for a in built]
            yield from map(make, built)
        return
    for blocks in walk:
        built = [((), ())]
        for block in reversed(blocks):
            built = [(c + a, d + b) for c, d in patterns[block] for a, b in built]
        yield from starmap(make, built)


def _members(family: Family, n: int) -> Iterator:
    """The weight-``n`` members of ``family``, lazily, in canonical order:
    the rule's walk, each block rendered as its patterns, one per number of
    marked copies, once per call for every block of weight <= ``n``."""
    _require_int(n, 0, "weight")
    skip, once, marks, keep = _rule(family, n)
    walk = _walk(n, skip, once)
    if keep is not None:
        walk = keep(walk)
    cls = MEMBER_TYPES[family.kind]
    if cls is Partition:
        return map(_flat, walk)
    pattern = _PATTERN[cls]
    patterns = {
        (s, m): [pattern(s, m, c) for c in marks(s, m)] for s, mults in _blocks(n, skip, once) for m in mults
    }
    return _fan_out(walk, patterns, cls)


def _series(family: Family, degree: int) -> list[int]:
    """``series[n]`` is the number of weight-``n`` members of ``family`` for
    0 <= n <= ``degree``, building no member and no pattern.

    A knapsack over the sizes the rule allows: the product over them of
    sum_m len(marks(s, m)) q^(s m), with m <= 1 for the sizes taken at most
    once.  Each size's factor is applied in place, from the top coefficient
    down.  The product starts from 1, and for ``pmex`` from its mex sum
    sum_{m >= 1} q^(m(m-1)/2) (q^m;q)_r: a member of mex m has every size
    below m and none of m..m+r-1, and the knapsack, over every size, adds
    the other copies.  Only the factors (1 - q^e) with e <= ``degree``
    apply, so the cost does not grow with r.
    """
    skip, once, marks, _ = _rule(family, degree)
    series = [1] + [0] * degree
    if family.kind == "pmex":
        series, mex, low = [0] * (degree + 1), 1, 0  # low: mex(mex-1)/2
        while low <= degree:
            term = [1] + [0] * (degree - low)
            for e in range(mex, min(mex + family.r, degree - low + 1)):
                term[e:] = map(sub, term[e:], term[:-e])
            series[low:] = map(add, series[low:], term)
            low += mex
            mex += 1
    for s, mults in _blocks(degree, skip, once):
        weights = [len(marks(s, m)) for m in mults]
        for n in range(degree, s - 1, -1):
            series[n] += sum(map(mul, weights, series[n - s::-s]))
    return series


def _count(family: Family, n: int) -> int:
    """The number of weight-``n`` members of ``family``, building none: the
    coefficient of q^n in the rule's series."""
    _require_int(n, 0, "weight")
    return _series(family, n)[n]


def enumerate_family(family: Family, n: int) -> tuple:
    """All weight-``n`` members of ``family``, each exactly once.

    The order is fixed and documented: descending lexicographic on part
    sizes, then on the overline/color pattern.  Repeated calls with equal
    arguments return identical sequences.
    """
    return tuple(_members(family, n))


def count_family(family: Family, n: int) -> int:
    """Number of weight-``n`` members, by exhaustive enumeration: the
    reference the tests hold ``_count`` to."""
    return len(enumerate_family(family, n))
