"""Weight-preserving bijections between the counting families.

Three forward/inverse pairs, all landing in the ``obar`` overpartitions
(plain parts > r with the parity of r+1):

* ``mex_forward`` / ``mex_inverse``: from partitions whose mex run has
  length >= r (the ``pmex`` family).  Ids ``t5`` / ``t5inv``.
* ``odd_forward`` / ``odd_inverse``: from partitions with no even part
  below an odd r (the ``pe`` family).  Ids ``odd`` / ``oddinv``.
* ``even_forward`` / ``even_inverse``: from two-colored odd partitions
  with an even r (the ``po2`` family).  Ids ``even`` / ``eveninv``.

The registry at the end of this module is the one place where a
bijection is written down: ``_PAIRS`` lists each pair once, forward map
first, each map as its id, the kind of its domain family and the function,
and ``MAPS``, ``INVERSE`` and ``DOMAIN`` are read off it.  The command line,
the oracle and the reference tables all read those, and
:func:`map_families` gives a map's two families at r.  A map's r rule is
that of its domain and codomain :class:`Family`, so no map checks the
parity of r itself.

Each map checks its input once, on entry, and builds its image with the
private ``_trusted`` constructors: the image is canonical by construction,
so the public constructors' sorting and checks would only repeat work.
A map whose check is the membership test of its domain is written once,
as its body under ``@_checked(id)``, which puts the test in front of the
body.  ``mex_forward`` checks its input itself, since its check is the mex
run that its body needs anyway.  No map can be called without its check:
a caller that needs to know whether an object is in a map's domain calls
the map and catches its ``ValueError``.
"""

from __future__ import annotations

from functools import lru_cache, wraps

from .families import _SIZE, ColoredPartition, Family, Overpartition, is_member
from .partitions import (
    INFINITE, Partition, _conjugate, _merge, _mex_and_run, _oplus, _Record, _require_int, _run_at_least,
    _set, _split,
)

__all__ = [
    "SigmaDecomposition",
    "even_forward",
    "even_inverse",
    "mex_forward",
    "mex_inverse",
    "odd_forward",
    "odd_inverse",
    "sigma_decompose",
]


class SigmaDecomposition(_Record):
    """Split of a partition into a padding summand and a gap-free core.

    ``oplus(delta, sigma)`` reconstructs the original partition; every part
    of ``delta`` exceeds ``r`` and has the parity of ``r + 1``; ``sigma``
    has no gaps.
    """

    __slots__ = ("delta", "sigma", "r")

    def __init__(self, delta: Partition, sigma: Partition, r: int):
        _set(self, "delta", delta)
        _set(self, "sigma", sigma)
        _set(self, "r", r)


def _checked(map_id: str):
    """Decorator: map ``map_id`` as the decorated body behind its check,
    which refuses an ``r`` that the map's families refuse and an object
    outside its domain.  The body is reached only through the check."""

    def decorate(body):
        @wraps(body)
        def checked(obj, r: int):
            domain, _ = _families(map_id, _require_int(r, 1, "r"))
            if not is_member(domain, obj):
                raise _outside(domain, obj)
            return body(obj, r)

        return checked

    return decorate


def _outside(domain: Family, obj) -> ValueError:
    """The error for ``obj`` outside ``domain``; any value may be passed."""
    shown = obj.text() if isinstance(obj, (Partition, Overpartition, ColoredPartition)) else obj
    return ValueError(f"{shown!r} is not in family {domain.kind!r} at r={domain.r}")


def sigma_decompose(kappa: Partition, r: int) -> SigmaDecomposition:
    """Split ``kappa`` (finite mex run of length >= r) as delta plus sigma.

    Let m be the mex and i the number of parts above m.  Seed a running
    value at m - 1 and sweep the i large parts from smallest to largest:
    keep the running value when the difference to the current part already
    has the parity of r + 1, otherwise bump it by one.  The differences
    form ``delta``; the running values together with the parts below m
    form the gap-free ``sigma``.
    """
    _require_int(r, 1, "r")
    if not isinstance(kappa, Partition):
        raise ValueError(f"sigma_decompose needs a Partition, got {kappa!r}")
    m, run = _mex_and_run(reversed(kappa.parts))
    if run is INFINITE or run < r:
        raise ValueError(
            f"partition {kappa.text()!r} needs a finite mex run of length >= {r}"
        )
    delta, sigma = _sigma_parts(kappa.parts, m, r)
    return SigmaDecomposition(Partition._trusted(delta), Partition._trusted(sigma), r)


def _sigma_parts(parts: tuple[int, ...], m: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parts of ``delta`` and ``sigma`` for ``parts`` with mex ``m`` and a
    run of length >= r, both descending.  An infinite run leaves no part
    above the mex: ``delta`` is empty and ``sigma`` is ``parts``.

    The running values rise by at most one per part, and only between
    unequal parts, so ``delta`` descends; ``sigma`` does too, since the
    running values are at least m - 1 and the parts below the mex at most
    m - 1.
    """
    count_above = 0
    while count_above < len(parts) and parts[count_above] > m:
        count_above += 1
    want = (r + 1) % 2
    running = m - 1
    sig = [0] * count_above
    for idx in range(count_above - 1, -1, -1):
        if (parts[idx] - running) % 2 != want:
            running += 1
        sig[idx] = running
    delta = [parts[idx] - sig[idx] for idx in range(count_above)]
    sig += parts[count_above:]
    return tuple(delta), tuple([x for x in sig if x > 0])


def mex_forward(kappa: Partition, r: int) -> Overpartition:
    """Map a ``pmex`` partition to its ``obar`` overpartition.

    The gap-free core of :func:`sigma_decompose` is conjugated into the
    overlined parts and the padding summand stays plain.  An infinite mex
    run means ``kappa`` has no gaps: it is its own core, and its image is
    purely overlined.
    """
    # Both families accept every r >= 1, and the domain check is the mex run:
    # the domain is looked up only to word a refusal.
    _require_int(r, 1, "r")
    if not isinstance(kappa, Partition):
        raise _outside(_families("t5", r)[0], kappa)
    m, run = _mex_and_run(reversed(kappa.parts))
    if not _run_at_least(run, r):
        raise _outside(_families("t5", r)[0], kappa)
    delta, sigma = _sigma_parts(kappa.parts, m, r)
    return Overpartition._trusted(_conjugate(sigma), delta)


@_checked("t5inv")
def mex_inverse(op: Overpartition, r: int) -> Partition:
    """Map an ``obar`` overpartition back: conjugate the overlined parts and
    add the plain parts part-wise."""
    return Partition._trusted(_oplus(_conjugate(op.overlined), op.plain))


@_checked("odd")
def odd_forward(p: Partition, r: int) -> Overpartition:
    """Map a ``pe`` partition (odd r): merge the odd parts into distinct
    overlined ones, keep the even parts plain."""
    overlined = _merge([x for x in p.parts if x % 2 == 1])
    plain = [x for x in p.parts if x % 2 == 0]
    return Overpartition._trusted(tuple(overlined), tuple(plain))


@_checked("oddinv")
def odd_inverse(op: Overpartition, r: int) -> Partition:
    """Inverse of :func:`odd_forward`: split the overlined parts into odd
    ones and take the union with the plain parts."""
    parts = _split(op.overlined)
    parts += op.plain
    parts.sort(reverse=True)
    return Partition._trusted(tuple(parts))


@_checked("even")
def even_forward(colored: ColoredPartition, r: int) -> Overpartition:
    """Map a ``po2`` colored partition (even r): merge the first-color sizes
    into distinct overlined parts, keep the second-color sizes plain."""
    overlined = _merge([size for size, color in colored.parts if color == 1])
    plain = [size for size, color in colored.parts if color == 2]
    return Overpartition._trusted(tuple(overlined), tuple(plain))


@_checked("eveninv")
def even_inverse(op: Overpartition, r: int) -> ColoredPartition:
    """Inverse of :func:`even_forward`: split the overlined parts into odd
    first-color sizes and give the plain parts the second color."""
    parts = [(s, 1) for s in _split(op.overlined)] + [(s, 2) for s in op.plain]
    # Stable, so each size keeps its first-color copies ahead of the second.
    parts.sort(key=_SIZE, reverse=True)
    return ColoredPartition._trusted(tuple(parts))


# The registry: each pair, forward map first, as (id, kind of the domain
# family, map) per direction.  A map's codomain is the domain of its inverse.
# ``MAPS``, ``INVERSE`` and ``DOMAIN`` are read off this table, in its order.
# Callers call a map only through ``MAPS``, never through this table or a
# copy of their own, so one entry serves the command line, the oracle and the
# tables alike, and a map replaced there (a tracer or a test injecting a
# fault does so) is the map every caller runs.
_PAIRS = (
    (("t5", "pmex", mex_forward), ("t5inv", "obar", mex_inverse)),
    (("odd", "pe", odd_forward), ("oddinv", "obar", odd_inverse)),
    (("even", "po2", even_forward), ("eveninv", "obar", even_inverse)),
)
MAPS = {map_id: fn for pair in _PAIRS for map_id, _, fn in pair}
INVERSE = {a: b for (forward, _, _), (inverse, _, _) in _PAIRS for a, b in ((forward, inverse), (inverse, forward))}
DOMAIN = {map_id: kind for pair in _PAIRS for map_id, kind, _ in pair}


def map_families(map_id: str, r: int) -> tuple[Family, Family]:
    """Domain and codomain of map ``map_id`` at ``r``.

    Raises ValueError when either family refuses ``r``, which is how a map
    that needs odd or even r says so.
    """
    return _families(map_id, _require_int(r, 1, "r"))


@lru_cache(maxsize=64)
def _families(map_id: str, r: int) -> tuple[Family, Family]:
    # Every map call checks its r here.  Building both families on each call
    # made a forward-and-inverse round trip 17-20% slower than this cache.
    return Family(DOMAIN[map_id], r), Family(DOMAIN[INVERSE[map_id]], r)
