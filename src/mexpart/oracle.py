"""Cross-verification harness: enumeration vs bijections vs the series oracle.

``verify_counts`` checks the four-way count identity (family sizes, read
off each family's own series, against the generating-function
coefficients), ``verify_roundtrips`` exhaustively round-trips every
bijection, a map and its inverse together, so that on a passing run each
map is called once per object, and ``reproduce_table`` recomputes the six
reference pairing tables that are stored as golden files under
``mexpart/golden/``.
Failures accumulate in the report instead of aborting, so one run surfaces
every discrepancy.

Bijections are named here only by id: their maps, inverses and domains come
from the registry in :mod:`mexpart.bijections`, so a map added there is
round-tripped here without further code.
"""

from __future__ import annotations

from .bijections import INVERSE, MAPS, UNCHECKED, map_families
from .families import Family, _series, enumerate_family, is_member
from .partitions import _Record, _require_int, _set, conjugate, glaisher_split
from .qseries import gf_pmex

__all__ = [
    "Check",
    "VerificationReport",
    "golden_table",
    "reproduce_table",
    "verify_counts",
    "verify_roundtrips",
]

TABLE_IDS = (1, 2, 3, 4, 5, 6)


class Check(_Record):
    """One comparison: passes iff expected equals actual."""

    __slots__ = ("name", "params", "expected", "actual")

    def __init__(self, name: str, params: str, expected: object, actual: object):
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "expected", expected)
        _set(self, "actual", actual)

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return f"{status} {self.name} [{self.params}]: expected {self.expected}, actual {self.actual}"


class VerificationReport(_Record):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[Check, ...]):
        _set(self, "checks", checks)

    @property
    def overall(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[Check]:
        return [check for check in self.checks if not check.passed]


def verify_counts(max_n: int, max_r: int) -> VerificationReport:
    """Compare family counts with the series oracle for every (n, r).

    For each 0 <= n <= max_n and 1 <= r <= max_r the ``pmex`` count must
    equal the generating-function coefficient and the count of every other
    family that accepts r: ``obar``, plus ``pe`` for odd r or ``po2`` for
    even r.  Every family's counts for every n come from one series per
    (family, r), read off its rule (``families._series``), which for
    ``pmex`` is a sum over the mex, computed apart from ``gf_pmex``'s
    product.  No member object is built and no partition is walked.
    """
    _require_int(max_n, 0, "max_n")
    _require_int(max_r, 1, "max_r")
    series = {r: gf_pmex(r, max_n) for r in range(1, max_r + 1)}
    counted = {
        r: [(family, _series(family, max_n)) for family in _families_accepting(r, ("pmex", "obar", "pe", "po2"))]
        for r in range(1, max_r + 1)
    }
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            params = f"n={n} r={r}"
            (_, pmex), *others = counted[r]
            checks.append(Check("pmex count = series coefficient", params, series[r][n], pmex[n]))
            for family, counts in others:
                checks.append(Check(f"{family.kind} count = pmex count", params, pmex[n], counts[n]))
    return VerificationReport(tuple(checks))


def _families_accepting(r: int, kinds) -> list[Family]:
    """The families of ``kinds`` that accept ``r``, in the order given."""
    families = []
    for kind in kinds:
        try:
            families.append(Family(kind, r))
        except ValueError:
            continue
    return families


def verify_roundtrips(max_n: int, max_r: int) -> VerificationReport:
    """Round-trip every applicable bijection over every object at each (n, r).

    A map applies at r when its domain and codomain families accept r.  The
    maps run by pair, a map and then its inverse, in registry order; each
    codomain is enumerated once per (n, r) and each pair's domain once per
    pair.  Each map is a pure function of (object, r), so the inverse pass
    does not repeat the forward pass: see :func:`_roundtrip_pair`.  The
    report is check for check the one that two separate passes, one per
    map, would give.
    """
    _require_int(max_n, 0, "max_n")
    _require_int(max_r, 1, "max_r")
    forward_ids = []
    for map_id in MAPS:
        if INVERSE[map_id] not in forward_ids:
            forward_ids.append(map_id)
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            params = f"n={n} r={r}"
            codomains = {}
            for map_id in forward_ids:
                try:
                    domain, codomain = map_families(map_id, r)
                except ValueError:
                    continue
                _roundtrip_pair(checks, map_id, params, n, r, domain, codomain, codomains)
    return VerificationReport(tuple(checks))


def _roundtrip_pair(checks, map_id, params, n, r, domain, codomain, codomains):
    """Append the two checks of map ``map_id`` and then the two of its inverse.

    The forward pass maps each source ``a`` with the checked map, tests the
    image with ``is_member`` and calls the inverse unchecked
    (``UNCHECKED``) on it.  When the inverse returns ``a``, the image ``b``
    is a member of the codomain with ``inverse(b) == a`` and
    ``forward(a) == b``, so the inverse pass has only
    ``is_member(domain, a)`` left to test for that ``b``; every other ``b``
    takes the full round trip.  ``codomains`` holds each codomain's members
    for the (n, r); the domain's members and the index of verified pairs
    are dropped with this call.
    """
    sources = enumerate_family(domain, n)
    if codomain not in codomains:
        codomains[codomain] = enumerate_family(codomain, n)
    targets = codomains[codomain]
    forward, inverse = MAPS[map_id], MAPS[INVERSE[map_id]]
    unchecked_forward, unchecked_inverse = UNCHECKED.get(forward, forward), UNCHECKED.get(inverse, inverse)
    verified = dict.fromkeys(targets)  # image -> its source, once the pair is verified
    bad_image = bad_identity = 0
    for a in sources:
        b = forward(a, r)
        if not is_member(codomain, b):
            # the inverse is not defined there; it cannot return the source
            bad_image += 1
            bad_identity += 1
        elif unchecked_inverse(b, r) != a:
            bad_identity += 1
        else:
            verified[b] = a
    checks.append(Check(f"{map_id}: images in codomain", params, 0, bad_image))
    checks.append(Check(f"{map_id}: inverse returns source", params, 0, bad_identity))
    bad_image = bad_identity = 0
    for b in targets:
        a = verified[b]
        full = a is None
        if full:
            a = inverse(b, r)
        if not is_member(domain, a):
            bad_image += 1
            bad_identity += 1
        elif full and unchecked_forward(a, r) != b:
            bad_identity += 1
    checks.append(Check(f"{INVERSE[map_id]}: images in codomain", params, 0, bad_image))
    checks.append(Check(f"{INVERSE[map_id]}: inverse returns source", params, 0, bad_identity))


def _distinct_partitions(n: int):
    return [p for p in enumerate_family(Family("p"), n) if len(set(p.parts)) == len(p.parts)]


def reproduce_table(table_id: int) -> str:
    """Recompute one of the six reference tables as pairing rows.

    Each row is ``domain<TAB>image`` in the textual grammar; table 4 has two
    blocks (the forward map at r=2 and the inverse map at r=3) separated by
    a blank line.  Every image is computed by the corresponding map, never
    hard-coded.
    """
    _require_int(table_id, 1, "table id")
    if table_id == 1:
        rows = [(d, conjugate(d)) for d in _distinct_partitions(6)]
    elif table_id == 2:
        rows = [(d, glaisher_split(d)) for d in _distinct_partitions(6)]
    elif table_id == 3:  # pe at r = 1 is every partition
        rows = _map_rows("odd", 1, 6)
    elif table_id == 4:
        return _rows_text(_map_rows("t5", 2, 7)) + "\n" + _rows_text(_map_rows("t5inv", 3, 7))
    elif table_id == 5:
        rows = _map_rows("odd", 3, 8)
    elif table_id == 6:
        rows = _map_rows("even", 2, 6)
    else:
        raise ValueError(f"table id must be 1..6, got {table_id!r}")
    return _rows_text(rows)


def _map_rows(map_id: str, r: int, n: int):
    """(object, image) for every weight-``n`` object of the map's domain."""
    domain, _ = map_families(map_id, r)
    return [(obj, MAPS[map_id](obj, r)) for obj in enumerate_family(domain, n)]


def _rows_text(rows) -> str:
    return "".join(f"{a.text()}\t{b.text()}\n" for a, b in rows)


def golden_table(table_id: int) -> str:
    """The stored expected text for one table."""
    if _require_int(table_id, 1, "table id") not in TABLE_IDS:
        raise ValueError(f"table id must be 1..6, got {table_id!r}")
    # imported here: it loads pathlib, tempfile and zipfile support, which
    # every other command would pay for at start-up
    from importlib import resources

    path = resources.files("mexpart") / "golden" / f"table{table_id}.txt"
    return path.read_text(encoding="utf-8")
