import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from mexpart import (
    ColoredPartition,
    Family,
    Overpartition,
    Partition,
    count_family,
    enumerate_family,
    is_member,
    mex_sequence,
)
from mexpart import TruncatedSeries, gf_pmex, poch_distinct, poch_inv, series_mul
from mexpart.cli import MAX_N
from mexpart.families import FAMILY_KINDS, MEMBER_TYPES, _count, _rule, _series, _walk

overpartitions = st.builds(
    Overpartition,
    st.sets(st.integers(min_value=1, max_value=30), max_size=8),
    st.lists(st.integers(min_value=1, max_value=30), max_size=8),
)


odd_sizes = st.integers(min_value=0, max_value=12).map(lambda k: 2 * k + 1)
colored_partitions = st.builds(
    ColoredPartition, st.lists(st.tuples(odd_sizes, st.sampled_from([1, 2])), max_size=10)
)


def print_order(op):
    """(size, overlined) pairs of ``op`` in print order, by one sort: sizes
    descending, the overlined copy first within a size."""
    return sorted([(s, True) for s in op.overlined] + [(s, False) for s in op.plain], reverse=True)


def canonical_key(obj):
    """Documented enumeration order, restated independently of the library:
    part sizes descending-lex, then the overline/color pattern."""
    if isinstance(obj, Partition):
        return tuple(-x for x in obj.parts), ()
    if isinstance(obj, Overpartition):
        tokens = print_order(obj)
        return tuple(-s for s, _ in tokens), tuple(int(over) for _, over in tokens)
    return tuple(-s for s, _ in obj.parts), tuple(c for _, c in obj.parts)


class TestOverpartitionType:
    def test_normalizes(self):
        op = Overpartition([1, 3], [2, 5, 2])
        assert op.overlined == (3, 1)
        assert op.plain == (5, 2, 2)
        assert op.weight == 13

    def test_rejects_repeated_overlined(self):
        with pytest.raises(ValueError):
            Overpartition([3, 3], [])

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Overpartition([0], [])
        with pytest.raises(ValueError):
            Overpartition([], [-2])
        with pytest.raises(ValueError):
            Overpartition([], [None, 1])

    def test_text_forms(self):
        assert Overpartition([6, 4, 3, 2, 1], [3, 3]).text() == "~6 ~4 ~3 3 3 ~2 ~1"
        assert Overpartition([2], [2]).text() == "~2 2"
        assert Overpartition().text() == "-"

    def test_from_text_round_trip(self):
        for text in ("-", "7", "~7", "~6 ~4 ~3 3 3 ~2 ~1", "~2 2", "5 ~2"):
            assert Overpartition.from_text(text).text() == text

    @given(overpartitions)
    def test_text_matches_the_sorted_reference(self, op):
        # the rendering before text() merged the two tuples: sort all tokens
        tokens = print_order(op)
        assert op.text() == (" ".join(f"~{s}" if over else str(s) for s, over in tokens) or "-")

    @given(overpartitions)
    def test_text_parses_back(self, op):
        assert Overpartition.from_text(op.text()) == op

    @pytest.mark.parametrize(
        "bad",
        ["1 2", "2 ~2", "~x", "~0", "3 ~3 ~3", "", "~", "~01", "01 1", "~\u0663", "~3\xa01", "~3  1"],
    )
    def test_from_text_rejects(self, bad):
        with pytest.raises(ValueError):
            Overpartition.from_text(bad)


class TestColoredPartitionType:
    def test_normalizes(self):
        c = ColoredPartition([(3, 2), (3, 1), (5, 2)])
        assert c.parts == ((5, 2), (3, 1), (3, 2))
        assert c.weight == 11

    def test_rejects_even_size_and_bad_color(self):
        with pytest.raises(ValueError):
            ColoredPartition([(4, 1)])
        with pytest.raises(ValueError):
            ColoredPartition([(3, 3)])
        with pytest.raises(ValueError):
            ColoredPartition([(True, 1)])
        with pytest.raises(ValueError):
            ColoredPartition([(3, 1.0)])
        with pytest.raises(ValueError):
            ColoredPartition([(5, True)])
        with pytest.raises(ValueError):
            ColoredPartition([("3", 1)])
        with pytest.raises(ValueError):
            ColoredPartition([(3,)])

    def test_text_forms(self):
        assert ColoredPartition([(1, 1), (5, 2)]).text() == "5_2 1_1"
        assert ColoredPartition(()).text() == "-"
        assert ColoredPartition.from_text("5_2 1_1").parts == ((5, 2), (1, 1))
        assert ColoredPartition.from_text("-") == ColoredPartition(())

    @given(colored_partitions)
    def test_text_parses_back(self, colored):
        assert ColoredPartition.from_text(colored.text()) == colored

    @pytest.mark.parametrize(
        "bad",
        ["5_3", "4_1", "3_2 3_1", "1_1 3_1", "x_1", "05_1", "\u0663_1", "3_1\xa01_1", "3_1  1_1"],
    )
    def test_from_text_rejects(self, bad):
        with pytest.raises(ValueError):
            ColoredPartition.from_text(bad)

    def test_second_color_parses_at_any_size(self):
        # The bound on the second color is po2's, not the type's.
        assert ColoredPartition.from_text("1_2") == ColoredPartition([(1, 2)])


class TestFamilyId:
    def test_parametrized_families_need_r(self):
        for kind in ("pmex", "obar", "pe", "po2"):
            with pytest.raises(ValueError):
                Family(kind)
        with pytest.raises(ValueError):
            Family("pmex", 0)

    def test_parity_constraints(self):
        with pytest.raises(ValueError):
            Family("pe", 2)
        with pytest.raises(ValueError):
            Family("po2", 3)
        Family("pe", 1)
        Family("po2", 2)

    def test_unparametrized_families_reject_r(self):
        with pytest.raises(ValueError):
            Family("p", 1)
        with pytest.raises(ValueError):
            Family("pbar", 2)
        with pytest.raises(ValueError):
            Family("nope")


class TestEnumerate:
    def test_p4_exact(self):
        got = [p.parts for p in enumerate_family(Family("p"), 4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_pbar4_exact(self):
        expected = {
            Overpartition([], [4]),
            Overpartition([4], []),
            Overpartition([], [3, 1]),
            Overpartition([1], [3]),
            Overpartition([3], [1]),
            Overpartition([3, 1], []),
            Overpartition([], [2, 2]),
            Overpartition([2], [2]),
            Overpartition([], [2, 1, 1]),
            Overpartition([1], [2, 1]),
            Overpartition([2], [1, 1]),
            Overpartition([2, 1], [1]),
            Overpartition([], [1, 1, 1, 1]),
            Overpartition([1], [1, 1, 1]),
        }
        got = enumerate_family(Family("pbar"), 4)
        assert len(got) == 14
        assert set(got) == expected

    def test_pmex_2_7_exact(self):
        got = [p.text() for p in enumerate_family(Family("pmex", 2), 7)]
        assert got == [
            "7",
            "6 1",
            "5 1 1",
            "4 3",
            "4 1 1 1",
            "3 2 1 1",
            "2 2 2 1",
            "2 2 1 1 1",
            "2 1 1 1 1 1",
            "1 1 1 1 1 1 1",
        ]

    def test_obar_3_7_exact(self):
        got = [o.text() for o in enumerate_family(Family("obar", 3), 7)]
        assert got == ["~7", "6 ~1", "~6 ~1", "~5 ~2", "4 ~3", "~4 ~3", "4 ~2 ~1", "~4 ~2 ~1"]

    def test_po2_2_6_exact(self):
        got = [c.text() for c in enumerate_family(Family("po2", 2), 6)]
        assert got == [
            "5_1 1_1",
            "5_2 1_1",
            "3_1 3_1",
            "3_1 3_2",
            "3_2 3_2",
            "3_1 1_1 1_1 1_1",
            "3_2 1_1 1_1 1_1",
            "1_1 1_1 1_1 1_1 1_1 1_1",
        ]

    @pytest.mark.parametrize(
        "family,n,expected",
        [
            (Family("p"), 4, 5),
            (Family("pbar"), 4, 14),
            (Family("pe", 3), 8, 11),
            (Family("obar", 3), 7, 8),
            (Family("po2", 2), 6, 8),
            (Family("pmex", 1), 0, 1),
            (Family("pmex", 7), 0, 1),
        ],
    )
    def test_counts(self, family, n, expected):
        assert count_family(family, n) == expected

    def test_weight_zero_is_the_empty_object(self):
        assert enumerate_family(Family("p"), 0) == (Partition(),)
        assert enumerate_family(Family("pbar"), 0) == (Overpartition(),)
        assert enumerate_family(Family("obar", 3), 0) == (Overpartition(),)
        assert enumerate_family(Family("po2", 2), 0) == (ColoredPartition(()),)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            enumerate_family(Family("p"), -1)

    def test_pmex_1_equals_p(self):
        for n in range(26):
            assert enumerate_family(Family("pmex", 1), n) == enumerate_family(Family("p"), n)

    def test_pmex_nesting(self):
        for n in range(26):
            for r in range(1, 7):
                smaller = set(enumerate_family(Family("pmex", r + 1), n))
                assert smaller <= set(enumerate_family(Family("pmex", r), n))

    def test_membership_soundness(self):
        for n in range(13):
            for r in (1, 2, 3, 4):
                for p in enumerate_family(Family("pmex", r), n):
                    assert mex_sequence(p).at_least(r)
                for op in enumerate_family(Family("obar", r), n):
                    assert all(x > r and (x - r - 1) % 2 == 0 for x in op.plain)
            for r in (1, 3):
                for p in enumerate_family(Family("pe", r), n):
                    assert not any(x % 2 == 0 and x < r for x in p.parts)
            for r in (2, 4):
                for c in enumerate_family(Family("po2", r), n):
                    assert all(s % 2 == 1 for s, _ in c.parts)
                    assert all(col == 1 or s > r for s, col in c.parts)

    def test_each_member_exactly_once(self):
        for family in (Family("p"), Family("pbar"), Family("obar", 2), Family("po2", 2)):
            members = enumerate_family(family, 8)
            assert len(set(members)) == len(members)

    def test_documented_order(self):
        for family in (
            Family("p"),
            Family("pbar"),
            Family("pmex", 2),
            Family("obar", 2),
            Family("pe", 3),
            Family("po2", 2),
        ):
            members = enumerate_family(family, 9)
            assert list(members) == sorted(members, key=canonical_key)

    def test_deterministic(self):
        for family in (Family("pbar"), Family("po2", 4), Family("obar", 3)):
            assert enumerate_family(family, 10) == enumerate_family(family, 10)


def reference_partitions(n, largest):
    """Every partition of ``n`` into parts ``<= largest``, as descending
    tuples in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in reference_partitions(n - first, first):
            yield (first,) + rest


def reference_overpartitions(n):
    """Every overpartition of ``n`` in canonical order: each partition with
    every choice of sizes to overline, the largest size as the most
    significant bit."""
    for parts in reference_partitions(n, n):
        sizes = sorted(set(parts), reverse=True)
        for bits in product((False, True), repeat=len(sizes)):
            overlined = tuple(s for s, bit in zip(sizes, bits) if bit)
            remaining = list(parts)
            for s in overlined:
                remaining.remove(s)
            yield Overpartition._trusted(overlined, tuple(remaining))


def two_colored_odd(n):
    """Every odd-part partition of ``n`` with each part in either color, in
    canonical order."""
    for parts in reference_partitions(n, n):
        if any(part % 2 == 0 for part in parts):
            continue
        sizes = sorted(set(parts), reverse=True)
        mults = [parts.count(s) for s in sizes]
        for seconds in product(*(range(m + 1) for m in mults)):
            colored = []
            for size, mult, second in zip(sizes, mults, seconds):
                colored += [(size, 1)] * (mult - second) + [(size, 2)] * second
            yield ColoredPartition._trusted(tuple(colored))


def base_family(kind, n, r):
    """The unrestricted family that ``Family(kind, r)`` is a subset of."""
    if kind in ("pbar", "obar"):
        return reference_overpartitions(n)
    if kind == "po2":
        return two_colored_odd(n)
    return map(Partition, reference_partitions(n, n))


class TestGeneratorsMatchTheFilter:
    """Each family built by construction equals its unrestricted base family
    filtered through ``is_member``, in the same order."""

    @pytest.mark.parametrize("kind", ["obar", "pe", "po2", "pmex", "p", "pbar"])
    def test_equals_generate_then_filter(self, kind):
        for n in range(21):
            for r in [None] if kind in ("p", "pbar") else range(1, 7):
                try:
                    family = Family(kind, r)
                except ValueError:
                    continue
                expected = tuple(x for x in base_family(kind, n, r) if is_member(family, x))
                assert enumerate_family(family, n) == expected, (kind, n, r)

    def test_trusted_objects_equal_validated_rebuilds(self):
        rebuild = {
            Partition: lambda x: Partition(x.parts),
            Overpartition: lambda x: Overpartition(x.overlined, x.plain),
            ColoredPartition: lambda x: ColoredPartition(x.parts),
        }
        families = [Family("p"), Family("pbar")] + [
            Family(kind, r) for kind in ("pmex", "obar", "pe", "po2") for r in range(1, 7)
            if (kind, r % 2) not in (("pe", 0), ("po2", 1))
        ]
        for family in families:
            for n in range(15):
                for x in enumerate_family(family, n):
                    assert rebuild[type(x)](x) == x, (family, x)


def recursive_walk(n, limit, skip, once):
    """The recursive block walk that ``families._walk`` replaced, kept as the
    reference for its order: the same blocks, passed up one frame per
    block."""
    if n == 0:
        yield ()
        return
    for size in range(min(n, limit), 0, -1):
        if size in skip:
            continue
        for mult in range(1 if size in once else n // size, 0, -1):
            rest = n - mult * size
            if rest == 0:
                yield ((size, mult),)
            elif size > 1:
                for tail in recursive_walk(rest, size - 1, skip, once):
                    yield ((size, mult),) + tail


size_sets = st.one_of(
    st.frozensets(st.integers(min_value=1, max_value=31), max_size=8),
    st.sampled_from([(), range(2, 31, 2), range(1, 31, 2), frozenset(range(1, 31))]),
)


class TestBlockWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=30), size_sets, size_sets)
    # Dead ends: an odd remainder with 1 skipped, a remainder left after the
    # single allowed 1, and no allowed size at all below the first block.
    @example(11, frozenset({1}), ())
    @example(9, (), frozenset({1}))
    @example(7, frozenset(range(1, 5)), ())
    @example(30, range(2, 31, 2), frozenset({1, 3}))
    @example(30, (), ())
    def test_equals_the_recursive_walk(self, n, skip, once):
        assert list(_walk(n, skip, once)) == list(recursive_walk(n, n, skip, once))


class TestPmexTally:
    def test_equals_enumeration(self):
        # r up to 10 includes, for every n <= 10, an r that no finite mex run
        # reaches, so only the open runs count there; r = 10^6 is such an r
        # for every n.
        for r in range(1, 11):
            family = Family("pmex", r)
            assert _series(family, 24) == [count_family(family, n) for n in range(25)], r
        family = Family("pmex", 10**6)
        assert _series(family, 16) == [count_family(family, n) for n in range(17)]


def _families_up_to(max_r):
    """Every family, at every r <= max_r it accepts."""
    families = []
    for kind in FAMILY_KINDS:
        for r in (None, *range(1, max_r + 1)):
            try:
                families.append(Family(kind, r))
            except ValueError:
                pass
    return families


class TestBlockCount:
    @pytest.mark.parametrize("family", _families_up_to(7), ids=repr)
    def test_equals_the_enumeration(self, family):
        for n in range(21):
            assert _count(family, n) == count_family(family, n), n

    def test_equals_each_definition_beyond_enumeration(self):
        # Each family's series from its own definition, at the largest --n
        # of `count`: the sizes a family allows, as q-Pochhammer factors.
        n = MAX_N
        p = poch_inv(1, 1, n)
        definitions = {Family("p"): p, Family("pbar"): series_mul(poch_distinct(1, 1, n), p)}
        for r in range(1, 5):
            tail = poch_inv(r + 1, 2, n)
            definitions[Family("obar", r)] = series_mul(poch_distinct(1, 1, n), tail)
            definitions[Family("pmex", r)] = gf_pmex(r, n)
            if r % 2:
                definitions[Family("pe", r)] = gf_pmex(r, n)
            else:
                definitions[Family("po2", r)] = series_mul(poch_inv(1, 2, n), tail)
        assert {family: _count(family, n) for family in definitions} == {
            family: series[n] for family, series in definitions.items()
        }

    def test_series_equals_each_definition_to_degree_400(self):
        # The whole series, far beyond MAX_N, against each family's product
        # written straight from its definition and, for the families of the
        # identity, against gf_pmex: a wrong rule names its family here.
        # pmex's series is a sum over the mex, so gf_pmex's product is its
        # witness.
        d = 400
        p, distinct = poch_inv(1, 1, d), poch_distinct(1, 1, d)
        identity = {r: gf_pmex(r, d) for r in range(1, 7)}
        definitions = {Family("p"): p, Family("pbar"): series_mul(distinct, p)}
        for r in range(1, 7):
            tail = poch_inv(r + 1, 2, d)
            definitions[Family("pmex", r)] = identity[r]
            definitions[Family("obar", r)] = series_mul(distinct, tail)
            if r % 2:
                pe = p  # times (1 - q^e) for each even e < r
                for e in range(2, r, 2):
                    pe = series_mul(TruncatedSeries([1] + [0] * (e - 1) + [-1] + [0] * (d - e)), pe)
                definitions[Family("pe", r)] = pe
            else:
                definitions[Family("po2", r)] = series_mul(poch_inv(1, 2, d), tail)
        for family, definition in definitions.items():
            series = _series(family, d)
            assert series == list(definition.coeffs), family
            if family.r is not None:
                assert series == list(identity[family.r].coeffs), family


def one_block_objects(cls, s, m):
    """Every object of type ``cls`` made of ``m`` parts of size ``s``, as
    (number of marked copies, object) pairs, by the public constructors."""
    if cls is Partition:
        return [(0, Partition([s] * m))]
    if cls is Overpartition:  # overlined parts are distinct
        return [(c, Overpartition([s] * c, [s] * (m - c))) for c in range(min(m, 1) + 1)]
    if s % 2 == 0:  # colored parts are odd
        return []
    return [(c, ColoredPartition([(s, 1)] * (m - c) + [(s, 2)] * c)) for c in range(m + 1)]


class TestRuleData:
    @pytest.mark.parametrize("family", _families_up_to(7), ids=repr)
    def test_count_is_the_number_of_patterns(self, family):
        # A block's weight in the series, len(marks(s, m)), is the number of
        # its patterns: the one-block objects that is_member accepts are
        # exactly those whose number of marked copies is in marks(s, m),
        # ascending, and there are none for a skipped size, for two or more
        # copies of a size taken once, or for a block that keep drops.
        n = 24
        skip, once, marks, keep = _rule(family, n)
        cls = MEMBER_TYPES[family.kind]
        for s in range(1, n + 1):
            for m in range(1, n // s + 1):
                accepted = [c for c, x in one_block_objects(cls, s, m) if is_member(family, x)]
                allowed = s not in skip and (m == 1 or s not in once)
                if keep is not None:
                    allowed = allowed and any(keep([((s, m),)]))
                assert accepted == (list(marks(s, m)) if allowed else []), (s, m)

    def test_series_builds_no_pattern(self):
        # Every pattern of po2 up to weight 300 takes 5.8 MiB, so counting
        # under 1 MiB builds none of them.
        family = Family("po2", 2)
        _series(family, 1)  # first-call setup outside the trace
        tracemalloc.start()
        try:
            series = _series(family, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series[42] == 26384
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("family", _families_up_to(6), ids=repr)
    def test_series_prefix_is_the_series_of_lower_degree(self, family):
        whole = _series(family, 60)
        for k in (0, 1, 2, 7, 31, 59):
            assert whole[: k + 1] == _series(family, k), k


class TestIsMember:
    def test_type_mismatch_is_not_membership(self):
        assert not is_member(Family("p"), Overpartition([1], []))
        assert not is_member(Family("obar", 2), Partition([3]))

    def test_obar_predicate(self):
        assert is_member(Family("obar", 2), Overpartition([5, 2], [3, 3]))
        assert not is_member(Family("obar", 2), Overpartition([], [4]))
        assert not is_member(Family("obar", 2), Overpartition([], [1]))
        assert is_member(Family("obar", 1), Overpartition([], [2]))

    def test_obar_predicate_is_the_definition(self):
        # every pbar member of n <= 14 against obar at r <= 9: 29,331 pairs
        pairs = 0
        for n in range(15):
            for obj in enumerate_family(Family("pbar"), n):
                for r in range(1, 10):
                    expected = all(x > r and (x - r - 1) % 2 == 0 for x in obj.plain)
                    assert is_member(Family("obar", r), obj) == expected, (obj, r)
                    pairs += 1
        assert pairs == 29_331

    def test_pe_predicate(self):
        assert is_member(Family("pe", 3), Partition([6, 1, 1]))
        assert not is_member(Family("pe", 3), Partition([2, 1]))
        assert is_member(Family("pe", 1), Partition([2, 1]))

    def test_po2_predicate(self):
        assert is_member(Family("po2", 2), ColoredPartition([(3, 2)]))
        assert not is_member(Family("po2", 4), ColoredPartition([(3, 2)]))
        assert is_member(Family("po2", 4), ColoredPartition([(5, 2), (3, 1)]))

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_po2_second_color_needs_size_above_r(self, r):
        family = Family("po2", r)
        for size in range(1, r + 1, 2):
            assert not is_member(family, ColoredPartition([(size, 2)])), size
            assert is_member(family, ColoredPartition([(size, 1)])), size
        assert is_member(family, ColoredPartition([(r + 1, 2)]))
