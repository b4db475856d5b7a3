"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

All comparisons are exact integer equality (tolerance zero).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines;
without ``-s`` pytest shows them with ``-rP``.
"""

import time
from contextlib import contextmanager

import pytest

from mexpart import (
    ColoredPartition,
    Family,
    Overpartition,
    Partition,
    conjugate,
    count_family,
    enumerate_family,
    gf_pmex,
    glaisher_merge,
    glaisher_split,
    golden_table,
    has_no_gaps,
    mex_forward,
    mex_inverse,
    mex_sequence,
    oplus,
    poch_distinct,
    poch_inv,
    reproduce_table,
    verify_counts,
    verify_euler,
    verify_roundtrips,
)


@contextmanager
def criterion(number, limit_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    if limit_seconds is not None and elapsed >= limit_seconds:
        print(f"criterion {number}: FAIL (runtime {elapsed:.2f}s, limit {limit_seconds}s)")
        pytest.fail(f"criterion {number} exceeded its runtime limit")
    print(f"criterion {number}: PASS ({elapsed:.2f}s)")


def test_criterion_1_reference_constants():
    with criterion(1, limit_seconds=1.0):
        p4 = enumerate_family(Family("p"), 4)
        assert [x.parts for x in p4] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

        pbar4 = enumerate_family(Family("pbar"), 4)
        assert len(pbar4) == 14
        assert set(pbar4) == {
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

        po2 = enumerate_family(Family("po2", 2), 6)
        assert len(po2) == 8
        assert set(po2) == {
            ColoredPartition([(5, 1), (1, 1)]),
            ColoredPartition([(5, 2), (1, 1)]),
            ColoredPartition([(3, 1), (3, 1)]),
            ColoredPartition([(3, 1), (3, 2)]),
            ColoredPartition([(3, 2), (3, 2)]),
            ColoredPartition([(3, 1), (1, 1), (1, 1), (1, 1)]),
            ColoredPartition([(3, 2), (1, 1), (1, 1), (1, 1)]),
            ColoredPartition([(1, 1)] * 6),
        }


def test_criterion_2_table_reproduction():
    with criterion(2, limit_seconds=1.0):
        for table_id in range(1, 7):
            assert reproduce_table(table_id) == golden_table(table_id)


def test_criterion_3_worked_examples():
    with criterion(3):
        kappa = Partition([8, 7, 3, 2, 1, 1])
        assert mex_forward(kappa, 2) == Overpartition([6, 4, 3, 2, 1], [3, 3])
        assert mex_forward(kappa, 3) == Overpartition([6, 4, 3, 1], [4, 4])

        source = Overpartition.from_text("~5 5 ~3 3 3 ~2 ~1")
        image = mex_inverse(source, 2)
        assert image == Partition([9, 6, 5, 1, 1])
        run = mex_sequence(image)
        assert run.start == 2 and run.length == 3


def test_criterion_4_four_way_count_identity():
    with criterion(4, limit_seconds=60.0):
        report = verify_counts(30, 8)
        assert report.overall, [c.describe() for c in report.failures()][:10]
        # spot check the identity directly against the series coefficients
        for r in (1, 4, 8):
            series = gf_pmex(r, 30)
            for n in (0, 7, 19, 30):
                assert count_family(Family("pmex", r), n) == series[n]


def test_criterion_5_bijection_round_trips():
    with criterion(5, limit_seconds=60.0):
        report = verify_roundtrips(22, 5)
        assert report.overall, [c.describe() for c in report.failures()][:10]


def test_criterion_6_classical_map_properties():
    with criterion(6):
        for n in range(26):
            for p in enumerate_family(Family("p"), n):
                q = conjugate(p)
                assert q.weight == n
                assert conjugate(q) == p
                distinct = len(set(p.parts)) == len(p.parts)
                assert has_no_gaps(q) == distinct
                if distinct:
                    split = glaisher_split(p)
                    assert split.weight == n
                    assert glaisher_merge(split) == p
                if all(x % 2 == 1 for x in p.parts):
                    merged = glaisher_merge(p)
                    assert merged.weight == n
                    assert glaisher_split(merged) == p
        # part-wise sums add weights
        for a_weight in range(11):
            for a in enumerate_family(Family("p"), a_weight):
                for b in enumerate_family(Family("p"), 10 - a_weight):
                    assert oplus(a, b).weight == 10


def test_criterion_7_euler_identity():
    with criterion(7, limit_seconds=5.0):
        assert verify_euler(200) is True
        for series in (poch_distinct(1, 1, 200), poch_inv(1, 2, 200)):
            assert all(isinstance(c, int) for c in series.coeffs)
