"""Partitions, the mex statistic, and the classical maps on them.

A partition is a weakly decreasing tuple of positive integers; the empty
tuple is the unique partition of 0.  Everything here is an immutable value
and every operation is a pure function, so concurrent use is safe.

The kernels of conjugation and of Glaisher's merge and split, which the
bijections call on every object, go through bounded memos shared by every
caller (``_memoized``), so a component that recurs, at another r or in
another map, is computed once.  Each memo is a ``functools.lru_cache`` that
holds only its own kernel's results, so a memo answer is the kernel's own
and concurrent use stays safe.

The printer is the textual grammar of every object type: ``from_text``
accepts a line iff it is exactly how the object it reads as prints.  That
is decided from the tokens alone, in one pass: each token goes through a
bounded memo (``TOKEN_MEMO_SIZE`` strings per type) that gives the part it
stands for only if the token is how that part prints, and the parts must
come in print order.  An accepted line is wrapped with ``_trusted``; a
refused one is converted with ``int``, built by the public constructor and
printed, only to word its message.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache, wraps
from operator import add

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


# The object types are ``__slots__`` classes with their own checking
# ``__init__``, each equal only to an object of the same class and hashed
# as the tuple of its fields.  ``Partition`` and ``ColoredPartition`` hold
# one ``parts`` tuple and take equality, hashing, ``_trusted`` and
# ``__repr__`` from ``_Parts``; ``Overpartition``, the one type with two
# fields, writes its own.  The hot methods read the fields by name: reading
# them through an ``attrgetter``, as one base for every type would, made
# ``Partition ==`` 1.8 times and ``Overpartition ==`` 2.3 times as slow
# (``timeit``, one CPU).  No type writes ``__ne__``: the package compares
# its objects only with ``==``, and Python's default ``!=`` inverts it.
# The types are not frozen: a frozen class assigns through
# object.__setattr__, which doubled the cost of ``_trusted``, the
# generators' hot path.  ``TruncatedSeries``, which no hot loop compares,
# is a ``_Record``.
class _Parts:
    """Base of the types that hold one canonical ``parts`` tuple.

    Both types share these methods' code, and so its attribute caches: a
    loop that alternates the two types object by object ran ``==`` 45-49%
    slower than with a copy of the methods in each class.  No loop here
    mixes them; each keeps to one type for thousands of objects.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    @classmethod
    def _trusted(cls, parts: tuple):
        """Wrap ``parts`` as is, skipping sort and checks: for generators,
        parsers and maps whose output is already in canonical order."""
        # Build ``parts`` from a list, never a generator: tuples grown from
        # generators raised the round trips' peak RSS by 7.5% (CPython 3.11).
        obj = object.__new__(cls)
        obj.parts = parts
        return obj

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({list(self.parts)!r})"


class Partition(_Parts):
    """A partition stored in canonical form (sorted descending, parts >= 1)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        self.parts = _descending(parts)

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

    def text(self) -> str:
        """Canonical textual form: space-separated parts, `-` when empty."""
        return " ".join(map(str, self.parts)) if self.parts else "-"

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse one line: exactly what :meth:`text` prints, nothing else."""
        line = text.strip()
        tokens = _tokens(line)
        sizes = list(map(_size_token, tokens))
        last = _UNBOUNDED
        for size in sizes:
            if size is None or size > last:
                _refuse(cls, line, tokens, _partition_arguments)
            last = size
        return cls._trusted(tuple(sizes))


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


# The most token strings each parser's memo holds.  A memo maps a token to
# the part it stands for when the token is exactly how that part prints, and
# to None otherwise: a pure function of the string, so a line gets the same
# verdict and message whether its tokens are cached or not.  One stream of
# objects reuses few tokens (the partitions of 34 use 34 sizes), so nearly
# every lookup hits, and the bound keeps a stream of fresh tokens from
# growing a memo.
TOKEN_MEMO_SIZE = 1024

# Above every size, so that the first part of a line is in print order.
_UNBOUNDED = float("inf")


def _printed_integer(text: str) -> int | None:
    """The integer that prints as ``text``, or None: ASCII digits without a
    leading zero, an optional ``-``, no ``+``, no ``_``, no space.  Every
    integer read as text, a part here or an option of the command line,
    follows this rule."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _printed_size(token: str) -> int | None:
    """The positive integer that prints as ``token``, or None."""
    size = _printed_integer(token)
    return size if size is not None and size > 0 else None


@lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _size_token(token: str) -> int | None:
    """The part a ``Partition`` token such as ``7`` prints, or None."""
    return _printed_size(token)


@lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _overpartition_token(token: str) -> tuple[int, bool] | None:
    """(size, overlined) of an ``Overpartition`` token such as ``~6`` or
    ``3``, or None."""
    overlined = token[:1] == "~"
    size = _printed_size(token[1:] if overlined else token)
    return None if size is None else (size, overlined)


@lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _colored_token(token: str) -> tuple[int, int] | None:
    """(size, color) of a ``ColoredPartition`` token such as ``5_2``, or
    None: the size odd, the color 1 or 2."""
    size, _, color = token.partition("_")
    odd = _printed_size(size)
    if odd is None or odd % 2 == 0 or color not in ("1", "2"):
        return None
    return odd, int(color)


# The largest weight of a component that the kernel memos below store.  It
# trades hits for memory: up to 17 there are 207 partitions into distinct
# parts, as many into odd parts and as many without gaps, the components
# the maps pass, so each memo can hold them all, and 80% of the kernel calls
# of ``verify_roundtrips(22, 5)`` are answered from a memo, at about 0.2 MB
# of peak memory; a cap of 25 answered 95% at 0.57 MB.  A stream of heavier
# components (``map`` over the objects of weight 34) would only churn a
# memo, and one near the weight ceiling of ``map`` (50000, whose conjugate
# may have 50000 parts) is never held.
KERNEL_MEMO_WEIGHT = 17


def _memoized(kernel):
    """Decorator: ``kernel`` behind its own ``lru_cache`` of
    ``TOKEN_MEMO_SIZE`` entries, for the inputs that weigh at most
    ``KERNEL_MEMO_WEIGHT``; a heavier input is computed and not stored.
    Each memo holds only what its own kernel computed for that very input,
    so a memo answer is the kernel's own, cold or warm, and no memo answers
    for another kernel: the inverse of a result is computed by the inverse
    kernel, or found among that kernel's own results.
    ``__wrapped__`` is the plain kernel, ``cache_info`` and ``cache_clear``
    the memo's."""
    memo = lru_cache(maxsize=TOKEN_MEMO_SIZE)(kernel)

    @wraps(kernel)
    def memoized(parts: tuple[int, ...]) -> tuple[int, ...]:
        return memo(parts) if sum(parts) <= KERNEL_MEMO_WEIGHT else kernel(parts)

    memoized.cache_info, memoized.cache_clear = memo.cache_info, memo.cache_clear
    return memoized


def _tokens(line: str) -> list[str]:
    """The stripped ``line`` split on single spaces; none for ``-``."""
    return [] if line == "-" else line.split(" ")


# What ``int`` makes of a refused line's tokens, as constructor arguments.
def _partition_arguments(tokens: list[str]) -> tuple[list[int]]:
    return (list(map(int, tokens)),)


def _overpartition_arguments(tokens: list[str]) -> tuple[list[int], list[int]]:
    overlined = [int(token[1:]) for token in tokens if token[:1] == "~"]
    return overlined, [int(token) for token in tokens if token[:1] != "~"]


def _colored_arguments(tokens: list[str]) -> tuple[list[tuple[int, int]]]:
    pieces = [token.split("_") for token in tokens]
    return ([(int(size), int(color)) for size, color in pieces],)


def _refuse(cls, line: str, tokens: list[str], arguments):
    """Raise the error for a ``cls`` line that the token pass refused.

    The message is worded from the public route: ``arguments`` converts
    the tokens with ``int`` and the public constructor builds the object.
    Tokens that do not convert get one message, the constructor's own
    ValueError propagates, and otherwise the message shows how the object
    prints.
    """
    try:
        args = arguments(tokens)
    except ValueError:
        raise ValueError(f"not a canonical {cls.__name__} line: {line!r}") from None
    printed = cls(*args).text()
    raise ValueError(f"not a canonical {cls.__name__} line: {line!r}; it prints as {printed!r}")


class _InfiniteLength:
    """Tag for a mex run that never closes; deliberately not an integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self) -> str:
        # Pickled and copied by name, so ``length is INFINITE`` still holds.
        return "INFINITE"


INFINITE = _InfiniteLength()


_set = object.__setattr__


class _Record:
    """Base of the immutable values that no hot loop compares:
    ``MexSequence``, ``Family``, ``SigmaDecomposition``, ``Check``,
    ``VerificationReport`` and ``TruncatedSeries``.

    A record's fields are its ``__slots__``, in order, set once by its own
    ``__init__`` through ``_set``; any other assignment or deletion raises
    AttributeError.  It prints as ``Name(field=value, ...)`` unless it
    defines its own ``__repr__``, is equal only to a record of the same
    class with equal fields, hashes as the tuple of its fields, and pickles
    as its class called on its fields, so unpickling runs the checks of its
    ``__init__`` again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MexSequence(_Record):
    """Maximal run of consecutive missing integers starting at the mex.

    ``length`` is either a positive integer (the run closes at the next
    present part) or :data:`INFINITE` (no part lies beyond the start).
    """

    __slots__ = ("start", "length")

    def __init__(self, start: int, length: int | _InfiniteLength):
        _set(self, "start", start)
        _set(self, "length", length)

    @property
    def is_infinite(self) -> bool:
        return self.length is INFINITE

    def at_least(self, r: int) -> bool:
        """True when the run has length >= r; an infinite run always does."""
        return _run_at_least(self.length, r)


def _run_at_least(length: int | _InfiniteLength, r: int) -> bool:
    """The ``pmex`` rule: a mex run of ``length`` counts as >= r when it is
    at least r long or never closes."""
    return length is INFINITE or length >= r


def mex(p: Partition) -> int:
    """Least positive integer that is not a part of ``p``."""
    return _mex_and_run(reversed(p.parts))[0]


def mex_sequence(p: Partition) -> MexSequence:
    """The mex run of ``p``: infinite iff no part exceeds the mex."""
    return MexSequence(*_mex_and_run(reversed(p.parts)))


def _mex_and_run(sizes: Iterable[int]) -> tuple[int, int | _InfiniteLength]:
    """(start, length) of the mex run of a partition whose parts ascend in
    ``sizes``: ``reversed(parts)``.

    The mex m is the first size the scan skips, and the run ends at the
    first size above m.
    """
    m = 1
    for size in sizes:
        if size > m:
            return m, size - m
        if size == m:
            m += 1
    return m, INFINITE


def conjugate(p: Partition) -> Partition:
    """Transpose of the Ferrers diagram: part k counts original parts >= k."""
    return Partition._trusted(_conjugate(p.parts))


@_memoized
def _conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of :func:`conjugate` for descending ``parts``.

    Read from the smallest part up: the j-th largest part is the width j
    of every k above the next smaller part and up to itself, so each part
    extends the output by one run.
    """
    widths: list[int] = []
    below, j = 0, len(parts)
    for part in reversed(parts):
        if part > below:
            widths += [j] * (part - below)
            below = part
        j -= 1
    return tuple(widths)


def has_no_gaps(p: Partition) -> bool:
    """True iff every size from 1 up to the largest part occurs (true for empty)."""
    present = set(p.parts)
    return all(k in present for k in range(1, p.largest + 1))


def oplus(a: Partition, b: Partition) -> Partition:
    """Part-wise sum; the shorter operand is padded with zeros."""
    return Partition._trusted(_oplus(a.parts, b.parts))


def _oplus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of :func:`oplus`.  Both operands descend, so the sums do too."""
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    sums = list(map(add, longer, shorter))
    sums += longer[len(shorter):]
    return tuple(sums)


def glaisher_split(p: Partition) -> Partition:
    """Halve even parts repeatedly: part 2^a * b (b odd) becomes 2^a copies of b.

    Defined on distinct-part partitions; the image has only odd parts.
    """
    if len(set(p.parts)) != len(p.parts):
        raise ValueError("glaisher_split needs pairwise distinct parts")
    return Partition._trusted(tuple(sorted(_split(p.parts), reverse=True)))


def glaisher_merge(p: Partition) -> Partition:
    """Merge equal parts pairwise until none repeats.

    Defined on odd-part partitions; an odd size b of multiplicity m yields one
    part 2^i * b for each set bit 2^i of m, so the image has distinct parts.
    """
    if any(part % 2 == 0 for part in p.parts):
        raise ValueError("glaisher_merge needs all parts odd")
    return Partition._trusted(_merge(p.parts))


@_memoized
def _split(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of :func:`glaisher_split`, unchecked and unsorted."""
    out = []
    for part in parts:
        copies = 1
        while part % 2 == 0:
            part //= 2
            copies *= 2
        out.extend([part] * copies)
    return tuple(out)


@_memoized
def _merge(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The parts of :func:`glaisher_merge`, unchecked, descending."""
    counts: dict[int, int] = {}
    for part in parts:
        counts[part] = counts.get(part, 0) + 1
    out = []
    for base, mult in counts.items():
        scale = 1
        while mult:
            if mult & 1:
                out.append(scale * base)
            mult >>= 1
            scale <<= 1
    out.sort(reverse=True)
    return tuple(out)
