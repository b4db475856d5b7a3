import pytest
from hypothesis import given, strategies as st

from mexpart import (
    INFINITE,
    Family,
    MexSequence,
    Partition,
    conjugate,
    enumerate_family,
    glaisher_merge,
    glaisher_split,
    has_no_gaps,
    mex,
    mex_sequence,
    oplus,
)

partitions = st.lists(st.integers(min_value=1, max_value=20), max_size=18).map(Partition)
distinct_partitions = st.sets(st.integers(min_value=1, max_value=40), max_size=8).map(Partition)
odd_partitions = st.lists(
    st.integers(min_value=0, max_value=10).map(lambda k: 2 * k + 1), max_size=12
).map(Partition)


def all_partitions_up_to(limit):
    for n in range(limit + 1):
        yield from enumerate_family(Family("p"), n)


class TestPartitionType:
    def test_normalizes_and_validates(self):
        assert Partition([1, 3, 2]).parts == (3, 2, 1)
        assert Partition().parts == ()
        assert Partition([5]).weight == 5
        assert Partition().weight == 0
        for bad in ([0], [-1], [1.5], [True], ["2"], [1, "2"]):
            with pytest.raises(ValueError):
                Partition(bad)

    def test_iterates_and_measures_its_parts(self):
        p = Partition([1, 3, 2, 3])
        assert list(p) == [3, 3, 2, 1]
        assert len(p) == 4
        assert list(Partition()) == [] and len(Partition()) == 0

    def test_equality_and_hash(self):
        assert Partition([2, 1]) == Partition((1, 2))
        assert hash(Partition([2, 1])) == hash(Partition([1, 2]))
        assert Partition([2]) != Partition([1, 1])

    def test_text_round_trip(self):
        assert Partition([8, 7, 3, 2, 1, 1]).text() == "8 7 3 2 1 1"
        assert Partition().text() == "-"
        assert Partition.from_text("8 7 3 2 1 1").parts == (8, 7, 3, 2, 1, 1)
        assert Partition.from_text("-") == Partition()
        assert Partition.from_text("  3 3 ") == Partition([3, 3])

    @given(partitions)
    def test_text_parses_back(self, p):
        assert Partition.from_text(p.text()) == p

    @pytest.mark.parametrize(
        "bad",
        ["1 2", "0", "3 0", "x", "", "3,2", "-1", "01 1", "\u0663 1", "3\xa01", "3  1", "3\t1"],
    )
    def test_from_text_rejects(self, bad):
        with pytest.raises(ValueError):
            Partition.from_text(bad)


class TestMex:
    @pytest.mark.parametrize(
        "parts,expected",
        [([4], 1), ([9, 4, 4, 3, 1], 2), ([], 1), ([1, 2, 3], 4)],
    )
    def test_examples(self, parts, expected):
        assert mex(Partition(parts)) == expected

    @pytest.mark.parametrize(
        "parts,start,length",
        [
            ([4], 1, 3),
            ([9, 4, 4, 3, 1], 2, 1),
            ([4, 3, 3, 3, 2, 1, 1], 5, INFINITE),
            ([], 1, INFINITE),
        ],
    )
    def test_sequence_examples(self, parts, start, length):
        assert mex_sequence(Partition(parts)) == MexSequence(start, length)

    def test_at_least(self):
        assert MexSequence(1, INFINITE).at_least(10 ** 6)
        assert MexSequence(2, 3).at_least(3)
        assert not MexSequence(2, 3).at_least(4)

    def test_infinite_is_a_tag_not_a_number(self):
        assert repr(INFINITE) == "INFINITE"
        assert not isinstance(INFINITE, int)
        assert INFINITE != 0 and INFINITE != 10 ** 9

    def test_sequence_invariants_exhaustive(self):
        for p in all_partitions_up_to(15):
            run = mex_sequence(p)
            present = set(p.parts)
            assert run.start == mex(p)
            if run.is_infinite:
                assert not any(x >= run.start for x in p.parts)
            else:
                assert all(run.start + k not in present for k in range(run.length))
                assert run.start + run.length in present

    @given(partitions)
    def test_mex_coherence(self, p):
        m = mex(p)
        present = set(p.parts)
        assert m not in present
        assert all(k in present for k in range(1, m))

    def test_mex_coherence_exhaustive(self):
        for p in all_partitions_up_to(25):
            m = mex(p)
            present = set(p.parts)
            assert m not in present
            assert all(k in present for k in range(1, m))
            assert mex_sequence(p).is_infinite == has_no_gaps(p)


class TestConjugate:
    @pytest.mark.parametrize(
        "parts,expected",
        [
            ([5, 3, 2, 1], [4, 3, 2, 1, 1]),
            ([5, 1], [2, 1, 1, 1, 1]),
            ([], []),
        ],
    )
    def test_examples(self, parts, expected):
        assert conjugate(Partition(parts)) == Partition(expected)

    def test_definition_exhaustive(self):
        for p in all_partitions_up_to(12):
            q = conjugate(p)
            assert q.weight == p.weight
            for k in range(1, p.largest + 1):
                assert q.parts[k - 1] == sum(1 for x in p.parts if x >= k)

    @given(partitions)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p

    @given(partitions)
    def test_exchanges_distinct_and_no_gaps(self, p):
        distinct = len(set(p.parts)) == len(p.parts)
        assert has_no_gaps(conjugate(p)) == distinct


class TestHasNoGaps:
    @pytest.mark.parametrize(
        "parts,expected",
        [([3, 2, 1], True), ([9, 4, 4, 3, 1], False), ([], True), ([2, 2, 1], True)],
    )
    def test_examples(self, parts, expected):
        assert has_no_gaps(Partition(parts)) == expected


class TestOplus:
    def test_examples(self):
        assert oplus(Partition([4, 2]), Partition([5, 1, 1])) == Partition([9, 3, 1])
        assert oplus(Partition([3, 3]), Partition([5, 4, 3, 2, 1, 1])) == Partition(
            [8, 7, 3, 2, 1, 1]
        )

    @given(partitions)
    def test_empty_is_identity(self, p):
        assert oplus(p, Partition()) == p
        assert oplus(Partition(), p) == p

    @given(partitions, partitions)
    def test_weight_additive_and_commutative(self, a, b):
        result = oplus(a, b)
        assert result.weight == a.weight + b.weight
        assert result == oplus(b, a)


class TestGlaisher:
    @pytest.mark.parametrize(
        "parts,expected",
        [([6], [3, 3]), ([4, 2], [1] * 6), ([5, 1], [5, 1])],
    )
    def test_split_examples(self, parts, expected):
        assert glaisher_split(Partition(parts)) == Partition(expected)

    @pytest.mark.parametrize(
        "parts,expected",
        [([3, 3], [6]), ([3, 1, 1, 1], [3, 2, 1]), ([1] * 6, [4, 2])],
    )
    def test_merge_examples(self, parts, expected):
        assert glaisher_merge(Partition(parts)) == Partition(expected)

    def test_rejects_bad_domains(self):
        with pytest.raises(ValueError):
            glaisher_split(Partition([3, 3]))
        with pytest.raises(ValueError):
            glaisher_merge(Partition([2, 1]))

    @given(distinct_partitions)
    def test_split_then_merge(self, d):
        split = glaisher_split(d)
        assert all(x % 2 == 1 for x in split.parts)
        assert split.weight == d.weight
        assert glaisher_merge(split) == d

    @given(odd_partitions)
    def test_merge_then_split(self, o):
        merged = glaisher_merge(o)
        assert len(set(merged.parts)) == len(merged.parts)
        assert merged.weight == o.weight
        assert glaisher_split(merged) == o

    def test_inverse_pair_exhaustive(self):
        for p in all_partitions_up_to(14):
            if len(set(p.parts)) == len(p.parts):
                assert glaisher_merge(glaisher_split(p)) == p
            if all(x % 2 == 1 for x in p.parts):
                assert glaisher_split(glaisher_merge(p)) == p


class TestOutputsAreCanonical:
    """These maps build their result without the public constructor; it must
    equal the constructor's rebuild of the same parts."""

    @given(partitions)
    def test_conjugate(self, p):
        result = conjugate(p)
        assert result == Partition(result.parts)

    @given(partitions, partitions)
    def test_oplus(self, a, b):
        result = oplus(a, b)
        assert result == Partition(result.parts)

    @given(distinct_partitions)
    def test_glaisher_split(self, d):
        result = glaisher_split(d)
        assert result == Partition(result.parts)

    @given(odd_partitions)
    def test_glaisher_merge(self, o):
        result = glaisher_merge(o)
        assert result == Partition(result.parts)
