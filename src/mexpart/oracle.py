"""Cross-verification harness: enumeration vs bijections vs the series oracle.

``verify_counts`` checks the four-way count identity (family sizes, read
off each family's own series, against the generating-function
coefficients), ``verify_roundtrips`` exhaustively round-trips every
bijection, each direction of a pair through one pass, the inverse's pass
skipping the objects the forward pass verified, so that on a passing run
each map is called once per object, and ``reproduce_table``
recomputes the six reference pairing tables that are stored as golden
files under ``mexpart/golden/``.
Failures accumulate in the report instead of aborting, so one run surfaces
every discrepancy.

Bijections and families are named here only through the registry in
:mod:`mexpart.bijections`.  The pairs that apply at each r, and so the
families whose counts are compared, are the forward maps of its one pairs
table whose families accept r (:func:`_pairs`); every map is called
through ``MAPS``.  A pair added to that table is round-tripped and its
families counted here without further code.  Tables 3-6 are data, each
block a (map id, r, n) whose rows that map computes.
"""

from __future__ import annotations

from .bijections import _PAIRS, INVERSE, MAPS, map_families
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
    equal the generating-function coefficient, and the count of every other
    family that a bijection joins at r (:func:`_pairs`) must equal the
    ``pmex`` count: ``obar``, then ``pe`` for odd r or ``po2`` for even r.
    Every family's counts for every n come from one series per (family, r),
    read off its rule (``families._series``), which for ``pmex`` is a sum
    over the mex, computed apart from ``gf_pmex``'s product.  No member
    object is built and no partition is walked.
    """
    _require_int(max_n, 0, "max_n")
    _require_int(max_r, 1, "max_r")
    compared = {}  # r -> (check name, expected counts, actual counts) per check
    for r in range(1, max_r + 1):
        joined = {family.kind: family for _, *pair in _pairs(r) for family in pair}
        pmex = _series(joined.pop("pmex"), max_n)
        compared[r] = [("pmex count = series coefficient", gf_pmex(r, max_n).coeffs, pmex)] + [
            (f"{kind} count = pmex count", pmex, _series(family, max_n)) for kind, family in joined.items()
        ]
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            params = f"n={n} r={r}"
            for name, expected, actual in compared[r]:
                checks.append(Check(name, params, expected[n], actual[n]))
    return VerificationReport(tuple(checks))


def _pairs(r: int) -> list[tuple[str, Family, Family]]:
    """(id, domain, codomain) of every forward map that applies at ``r``, in
    registry order: the first map of each pair in ``bijections._PAIRS``,
    when its families accept r."""
    pairs = []
    for (map_id, _, _), _ in _PAIRS:
        try:
            pairs.append((map_id, *map_families(map_id, r)))
        except ValueError:
            pass
    return pairs


def verify_roundtrips(max_n: int, max_r: int) -> VerificationReport:
    """Round-trip every applicable bijection over every object at each (n, r).

    The maps run by pair (:func:`_pairs`), a forward map and then its
    inverse, each direction through :func:`_round_trip`.  Each codomain is
    enumerated once per (n, r) and each pair's domain once per pair.  The
    inverse pass skips the images the forward pass verified, so on a
    passing run each map is called once per object; the report is check for
    check the one that two separate passes, one per map, would give.
    """
    _require_int(max_n, 0, "max_n")
    _require_int(max_r, 1, "max_r")
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            params = f"n={n} r={r}"
            codomains = {}
            for map_id, domain, codomain in _pairs(r):
                if codomain not in codomains:
                    codomains[codomain] = enumerate_family(codomain, n)
                verified = _round_trip(checks, params, map_id, enumerate_family(domain, n), codomain, r, set())
                _round_trip(checks, params, INVERSE[map_id], codomains[codomain], domain, r, verified)
                del verified  # drop the pair's objects before the next domain is enumerated
    return VerificationReport(tuple(checks))


def _round_trip(checks, params, map_id, sources, codomain, r, known) -> set:
    """Append the two checks of map ``map_id`` over ``sources`` and return
    its verified images.

    Both maps are called through ``MAPS``, each with its own domain check.
    Each source ``a`` not in ``known`` is mapped to ``b`` and the inverse is
    called on ``b``: the pair is verified when the inverse returns ``a``.
    The inverse's check is the test that ``b`` lies in ``codomain``, so only
    when the inverse refuses ``b`` is ``is_member(codomain, b)`` asked
    whether the image or the inverse is at fault.  ``known`` holds the
    images the inverse's own pass verified: for a source in it, both maps
    are known to send one object to the other, and the other object came
    from its family's enumeration, so there is nothing left to test.  A
    source that the map refuses has no image: it counts as a failed round
    trip, not as an image outside the codomain.
    """
    forward, inverse = MAPS[map_id], MAPS[INVERSE[map_id]]
    verified = set()
    bad_image = bad_identity = 0
    for a in sources:
        if a in known:
            continue
        b = None
        try:
            b = forward(a, r)
            if inverse(b, r) == a:
                verified.add(b)
                continue
        except ValueError:
            # the map refused a (b is None), or the inverse refused b: then
            # the image is at fault iff b is outside the codomain
            bad_image += b is not None and not is_member(codomain, b)
        bad_identity += 1
    checks.append(Check(f"{map_id}: images in codomain", params, 0, bad_image))
    checks.append(Check(f"{map_id}: inverse returns source", params, 0, bad_identity))
    return verified


def _distinct_partitions(n: int):
    return [p for p in enumerate_family(Family("p"), n) if len(set(p.parts)) == len(p.parts)]


# The tables of a map's pairing: each block lists the image of every
# weight-n member of the map's domain at r, as (map id, r, n).
_MAP_TABLES = {
    3: (("odd", 1, 6),),  # pe at r = 1 is every partition
    4: (("t5", 2, 7), ("t5inv", 3, 7)),
    5: (("odd", 3, 8),),
    6: (("even", 2, 6),),
}


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
    elif table_id in _MAP_TABLES:
        return "\n".join(_rows_text(_map_rows(*block)) for block in _MAP_TABLES[table_id])
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
