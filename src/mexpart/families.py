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

Each kind is stated once, as its row of the private table ``_KINDS``: its
member type, its r rule (none, any, odd or even), its membership predicate
and its rule.  ``MEMBER_TYPES``, ``FAMILY_KINDS``, :class:`Family`'s r
check, :func:`is_member`, ``_rule`` and the command line read the rows, so
a new kind is one new row.  A rule is data (``_rule``): the sizes the walk
skips or takes at most once, how many of a block's copies may carry a
mark, and the components, each ``(must, miss)``.  ``_members`` expands the
rule: it walks each component's (size, multiplicity) blocks, renders each
block as one pattern per number of marked copies, and merges the
components' streams into canonical order.  ``_series`` counts by the same
rule and builds no member and no pattern: each component adds q^|must|
times the product over ``miss`` of (1 - q^e), and each allowed size
multiplies that by its factor in closed form, such as (1 + q^s)/(1 - q^s),
so every weight up to a degree comes at once.  Every count is a
coefficient of that series.  Only a :class:`Family` holds r: the member
types carry none, so a ``ColoredPartition`` is any two-colored odd
partition, and ``po2``'s bound on the second color is in its row.

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

from collections.abc import Iterable, Iterator
from itertools import chain, groupby, repeat, starmap
from operator import add, itemgetter, sub

from .partitions import _UNBOUNDED, Partition, _Record, _descending, _require_int, _set, _tokens
from .partitions import _colored_arguments, _colored_token, _mex_and_run, _overpartition_arguments
from .partitions import _Parts, _overpartition_token, _refuse, _run_at_least

__all__ = [
    "ColoredPartition",
    "Family",
    "Overpartition",
    "count_family",
    "enumerate_family",
    "is_member",
]


class Overpartition:
    """An overpartition: distinct overlined parts plus unrestricted plain parts."""

    __slots__ = ("overlined", "plain")

    def __init__(self, overlined: Iterable[int] = (), plain: Iterable[int] = ()):
        over, rest = _descending(overlined), _descending(plain)
        if len(set(over)) != len(over):
            raise ValueError("overlined parts must be distinct")
        self.overlined = over
        self.plain = rest

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.overlined == other.overlined and self.plain == other.plain
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.overlined, self.plain))

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


class ColoredPartition(_Parts):
    """Odd parts in two colors, any size in either color; ``po2``'s bound on
    the second color is the family's, checked by :func:`is_member`."""

    __slots__ = ("parts",)

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

    @property
    def weight(self) -> int:
        return sum(size for size, _ in self.parts)

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


_ODD = (1).__and__  # x & 1, bound once, not per call


def _in_obar(obj, r: int) -> bool:
    # every plain part > r with the parity of r+1: the smallest is > r, and
    # no plain part is odd for odd r, every one is for even r
    if not isinstance(obj, Overpartition):
        return False
    plain = obj.plain
    if not plain:
        return True
    return plain[-1] > r and sum(map(_ODD, plain)) == (0 if r & 1 else len(plain))


# pe and po2 restrict only the parts at or below r: the tail
def _in_pe(obj, r: int) -> bool:
    if not isinstance(obj, Partition):
        return False
    for size in reversed(obj.parts):
        if size > r:
            return True
        if size % 2 == 0:
            return False
    return True


def _in_po2(obj, r: int) -> bool:
    if not isinstance(obj, ColoredPartition):
        return False
    for size, color in reversed(obj.parts):
        if size > r:
            return True
        if color == 2:
            return False
    return True


def _pmex_rule(r: int, n: int):
    # one component per mex m whose staircase 1..m-1 (weight m(m-1)/2) fits
    components = [
        (range(1, m), range(m, min(m + r, n - m * (m - 1) // 2 + 1)))
        for m in range(1, n + 2)
        if m * (m - 1) // 2 <= n
    ]
    return (), (), lambda s: 0, components


# The one component of every kind but pmex: no size required or missed.
_WHOLE = (((), ()),)

# Each kind, in the order the command line lists them: member type; r rule,
# None for no r, else "any", "odd" or "even" r >= 1; membership predicate of
# (obj, r), type check included; rule of (r, n), as ``_rule`` describes.
_KINDS = {
    "p": (Partition, None, lambda obj, r: isinstance(obj, Partition), lambda r, n: ((), (), lambda s: 0, _WHOLE)),
    "pbar": (
        Overpartition, None, lambda obj, r: isinstance(obj, Overpartition),
        lambda r, n: ((), (), lambda s: 1, _WHOLE),
    ),
    "pmex": (
        Partition, "any",
        lambda obj, r: isinstance(obj, Partition) and _run_at_least(_mex_and_run(reversed(obj.parts))[1], r),
        _pmex_rule,
    ),
    # a size at most r or of r's parity is always overlined, so it occurs
    # once; every other size is plain or has one copy overlined
    "obar": (
        Overpartition, "any", _in_obar,
        lambda r, n: ((), frozenset(s for s in range(1, n + 1) if s <= r or (s - r) % 2 == 0), lambda s: 1, _WHOLE),
    ),
    # no even size below r
    "pe": (Partition, "odd", _in_pe, lambda r, n: (range(2, min(r, n + 1), 2), (), lambda s: 0, _WHOLE)),
    # odd sizes only; a second color only above r
    "po2": (
        ColoredPartition, "even", _in_po2,
        lambda r, n: (range(2, n + 1, 2), (), lambda s: _UNBOUNDED if s > r else 0, _WHOLE),
    ),
}
MEMBER_TYPES = {kind: row[0] for kind, row in _KINDS.items()}
FAMILY_KINDS = tuple(_KINDS)
_MEMBER = {kind: row[2] for kind, row in _KINDS.items()}


class Family(_Record):
    """Identifier for one of the named counting families: a kind and the
    ``r`` that its row's r rule accepts.  A bijection's r rule is that of
    its domain and codomain families."""

    __slots__ = ("kind", "r")

    def __init__(self, kind: str, r: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown family {kind!r}")
        takes = _KINDS[kind][1]
        if takes is None:
            if r is not None:
                raise ValueError(f"family {kind!r} takes no parameter r")
        else:
            _require_int(r, 1, f"r of family {kind!r}")
            if takes not in ("any", ("even", "odd")[r & 1]):
                raise ValueError(f"family {kind!r} needs {takes} r, got {r}")
        _set(self, "kind", kind)
        _set(self, "r", r)


def is_member(family: Family, obj: object) -> bool:
    """Whether ``obj`` is in ``family``, by its row's predicate: the
    definition each generator below must agree with."""
    return _MEMBER[family.kind](obj, family.r)


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


def _flat(blocks, stair: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of a walk's ``blocks`` with one more copy of each size in
    ``stair``, a staircase k, k-1, ..., 1 (or none), placed as the blocks
    pass those sizes: ``stair[-top:]`` is the staircase still to place."""
    parts, top = (), len(stair)
    for size, mult in blocks:
        if size <= top:
            parts += stair[-top:-size] + (size,) * (mult + 1)
            top = size - 1
        else:
            parts += (size,) * mult
    return parts + stair[-top:] if top else parts


def _rule(family: Family, n: int):
    """``family``'s rule at weight ``n``, from its row, as data that
    :func:`_members` expands and :func:`_series` counts: ``(skip, once,
    most, components)``.

    ``skip`` and ``once`` are the sizes the walk skips and the sizes it
    takes at most once.  ``most(s)`` is the most of a block's m parts of
    size s that carry a mark, an overline or the second color: 0, 1, or
    ``_UNBOUNDED`` for all m.  The fewest is 1 for a size in ``once`` and
    0 for any other, and each number between is one pattern of the block,
    ascending in canonical order.  The members fall into disjoint
    ``components``, each ``(must, miss)``: a member of the component takes
    every size in ``must`` at least once and none in ``miss``.  ``pmex``'s
    ``must`` is the staircase below a mex m, which :func:`_flat` places,
    and its ``miss`` the r sizes from m, up to the largest the rest of
    ``n`` can take.  Nothing here grows with r: each set of sizes is a
    range or bounded by ``n``.
    """
    return _KINDS[family.kind][3](family.r, n)


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
    marked copies, once per call for every block of weight <= ``n``.

    A partition kind walks each component at ``n`` less its ``must`` over
    the sizes not in ``miss``, and places the ``must`` staircase as it
    flattens the blocks; more than one component goes through
    :func:`_merged`.  The marked kinds have the one component ``((), ())``.
    """
    _require_int(n, 0, "weight")
    skip, once, most, components = _rule(family, n)
    cls = MEMBER_TYPES[family.kind]
    if cls is Partition:
        streams = [
            map(_flat, _walk(n - sum(must), {*skip, *miss}, once), repeat(tuple(reversed(must))))
            for must, miss in components
        ]
        return map(Partition._trusted, streams[0] if len(streams) == 1 else _merged(streams))
    pattern = _PATTERN[cls]
    patterns = {
        (s, m): [pattern(s, m, c) for c in range(s in once, min(most(s), m) + 1)]
        for s in range(1, n + 1) if s not in skip for m in range(1, (1 if s in once else n // s) + 1)
    }
    return _fan_out(_walk(n, skip, once), patterns, cls)


def _merged(streams) -> Iterator[tuple[int, ...]]:
    """One canonical stream of nonempty parts from several, each canonical
    and disjoint: each stream's runs of equal largest part (``_SIZE``, the
    first) are merged by a heap, and the parts of equal largest part are
    sorted together, descending."""
    # Imported here, the one user, so that importing the package does not load it.
    from heapq import merge

    runs = [((largest, list(run)) for largest, run in groupby(stream, _SIZE)) for stream in streams]
    for _, same in groupby(merge(*runs, key=_SIZE, reverse=True), _SIZE):
        yield from sorted(chain.from_iterable(run for _, run in same), reverse=True)


def _series(family: Family, degree: int) -> list[int]:
    """``series[n]`` is the number of weight-``n`` members of ``family`` for
    0 <= n <= ``degree``, building no member and no pattern.

    Each component ``(must, miss)`` of the rule adds q^|must| times the
    product over ``miss`` of (1 - q^e): a member has every size in ``must``
    and none in ``miss``.  For ``pmex`` that is its definition's sum over
    the mex m of q^(m(m-1)/2) (q^m;q)_r, only the factors with e <=
    ``degree`` applied, so the cost does not grow with r.  Each size s the
    rule allows then multiplies the sum by its blocks' patterns, in closed
    form (Andrews, *The Theory of Partitions*, ch. 1): 1 + q^s, one step,
    for a size in ``once``, and for any other one pass in place per factor
    1/(1 - q^s), times 1 + q^s when ``most`` is 1 or 1/(1 - q^s) when all.
    """
    skip, once, most, components = _rule(family, degree)
    series = [0] * (degree + 1)
    for must, miss in components:
        low = sum(must)
        term = [1] + [0] * (degree - low)
        for e in miss:
            term[e:] = map(sub, term[e:], term[:-e])
        series[low:] = map(add, series[low:], term)
    for s in range(1, degree + 1):
        if s in skip:
            continue
        marked = most(s)
        if marked == 1:
            series[s:] = map(add, series[s:], series[:-s])
        for _ in range(0 if s in once else 2 if marked > 1 else 1):
            for n in range(s, degree + 1):
                series[n] += series[n - s]
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
