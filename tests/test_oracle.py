from collections import Counter

import pytest

from mexpart import Family, Overpartition, Partition, bijections, families, oracle
from mexpart.qseries import gf_pmex
from mexpart import (
    Check,
    VerificationReport,
    golden_table,
    reproduce_table,
    verify_counts,
    verify_roundtrips,
)


class TestCheck:
    def test_pass_flag(self):
        assert Check("c", "n=1", 3, 3).passed
        assert not Check("c", "n=1", 3, 4).passed

    def test_describe_mentions_values(self):
        line = Check("pmex count", "n=7 r=2", 10, 9).describe()
        assert "FAIL" in line and "10" in line and "9" in line


class TestReport:
    def test_overall_is_conjunction(self):
        good = Check("a", "", 1, 1)
        bad = Check("b", "", 1, 2)
        assert VerificationReport((good,)).overall
        assert not VerificationReport((good, bad)).overall
        assert VerificationReport((good, bad)).failures() == [bad]
        assert VerificationReport(()).overall


class TestVerifyCounts:
    def test_small_run_passes(self):
        report = verify_counts(7, 3)
        assert report.overall
        row = next(
            c
            for c in report.checks
            if c.name == "pmex count = series coefficient" and c.params == "n=7 r=2"
        )
        assert row.actual == 10

    def test_po2_row_present(self):
        report = verify_counts(6, 2)
        row = next(
            c
            for c in report.checks
            if c.name == "po2 count = pmex count" and c.params == "n=6 r=2"
        )
        assert row.actual == 8 and row.passed

    def test_weight_zero(self):
        report = verify_counts(0, 1)
        assert report.overall
        assert all(c.expected == 1 and c.actual == 1 for c in report.checks)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_counts(-1, 1)
        with pytest.raises(ValueError):
            verify_counts(5, 0)
        with pytest.raises(ValueError, match="max_n"):
            verify_counts(2.5, 1)

    def test_row_order_is_deterministic(self):
        assert verify_counts(5, 3).checks == verify_counts(5, 3).checks

    def test_every_family_is_counted_in_order(self):
        # three checks per (n, r): the series, obar, then pe or po2 by parity
        report = verify_counts(3, 4)
        expected = []
        for n in range(4):
            for r in range(1, 5):
                other = "pe" if r % 2 else "po2"
                for name in ("pmex count = series coefficient", "obar count = pmex count",
                             f"{other} count = pmex count"):
                    expected.append((name, f"n={n} r={r}"))
        assert [(c.name, c.params) for c in report.checks] == expected
        assert report.overall

    def test_walks_no_partition(self, monkeypatch):
        # Every count, pmex's included, is a coefficient of its family's
        # series: neither verify_counts nor _count walks the partitions.
        def walk(*args):
            raise AssertionError("walked the partitions")

        monkeypatch.setattr(families, "_walk", walk)
        assert verify_counts(12, 6).overall
        assert families._count(Family("pmex", 2), 42) == 26384


class TestVerifyRoundtrips:
    def test_small_run_passes(self):
        assert verify_roundtrips(8, 3).overall

    def test_trivial_run(self):
        report = verify_roundtrips(0, 1)
        assert report.overall and len(report.checks) > 0

    def test_full_scale_invariant(self):
        assert verify_roundtrips(25, 5).overall

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_roundtrips(5, 0)
        with pytest.raises(ValueError):
            verify_roundtrips(True, 1)

    def test_every_map_is_round_tripped_in_order(self):
        # two checks per map: t5, t5inv, then the pair for the parity of r
        report = verify_roundtrips(3, 4)
        expected = []
        for n in range(4):
            for r in range(1, 5):
                pair = ("odd", "oddinv") if r % 2 else ("even", "eveninv")
                for name in ("t5", "t5inv", *pair):
                    for check in ("images in codomain", "inverse returns source"):
                        expected.append((f"{name}: {check}", f"n={n} r={r}"))
        assert [(c.name, c.params) for c in report.checks] == expected
        assert report.overall

    def test_reads_the_registry(self, monkeypatch):
        monkeypatch.setitem(bijections.MAPS, "oddinv", lambda op, r: Overpartition())
        report = verify_roundtrips(4, 3)
        assert not report.overall
        assert {c.name.split(":")[0] for c in report.failures()} == {"odd", "oddinv"}

    def test_each_map_runs_once_per_object(self, monkeypatch):
        # A map's own pass calls it once per object of its domain; its
        # inverse's pass reuses the pairs the forward pass verified.
        calls = Counter()

        def counting(map_id, f):
            def counted(obj, r):
                calls[map_id] += 1
                return f(obj, r)
            return counted

        for map_id, f in list(bijections.MAPS.items()):
            monkeypatch.setitem(bijections.MAPS, map_id, counting(map_id, f))
        assert verify_roundtrips(10, 4).overall
        objects = {"t5": 0, "odd": 0, "even": 0}
        for r in range(1, 5):
            total = sum(gf_pmex(r, 10).coeffs)
            objects["t5"] += total
            objects["odd" if r % 2 else "even"] += total
        assert calls == {map_id: objects[map_id.removesuffix("inv")] for map_id in bijections.MAPS}

    def test_each_object_gets_one_membership_test_per_map(self, monkeypatch):
        # On a passing run each object is tested once by the map that takes
        # it, and the oracle tests nothing itself: |domain| + |codomain| calls
        # per pair.  mex_forward checks its input by its mex run, not by
        # is_member, so pmex objects get no call.
        calls = Counter()
        is_member = families.is_member

        def counting(family, obj):
            calls[family.kind] += 1
            return is_member(family, obj)

        monkeypatch.setattr(bijections, "is_member", counting)
        monkeypatch.setattr(oracle, "is_member", counting)
        assert verify_roundtrips(8, 4).overall
        expected = Counter()
        for r in range(1, 5):
            total = sum(gf_pmex(r, 8).coeffs)
            expected["obar"] += 2 * total  # the codomain of t5 and of odd or even
            expected["pe" if r % 2 else "po2"] += total
        assert calls == expected

    @pytest.mark.parametrize("fault", ["t5 not injective", "oddinv drops a part", "even leaves obar"])
    def test_faults_are_reported_as_two_passes_report_them(self, monkeypatch, fault):
        if fault == "t5 not injective":  # every two-part partition goes where 1^n goes
            t5 = bijections.mex_forward
            map_id, faulty = "t5", lambda k, r: t5(Partition([1] * k.weight) if len(k.parts) == 2 else k, r)
        elif fault == "oddinv drops a part":
            oddinv = bijections.odd_inverse
            map_id, faulty = "oddinv", lambda op, r: Partition(oddinv(op, r).parts[len(op.plain) == 1:])
        else:  # the plain part 2 is never in obar at even r
            even = bijections.even_forward
            map_id, faulty = "even", lambda c, r: Overpartition([], [2]) if len(c.parts) == 3 else even(c, r)
        monkeypatch.setitem(bijections.MAPS, map_id, faulty)
        report = verify_roundtrips(9, 4)
        assert report.failures()
        assert report == _two_passes(9, 4)

    def test_a_source_its_map_refuses_fails_one_check(self, monkeypatch):
        # (2) has mex 1 and a part in 1..2, so it is not in pmex at r = 2 and
        # t5 refuses it: one failed round trip, and the report goes on with
        # the checks a passing run makes.
        passing = verify_roundtrips(4, 2)
        enumerate_family = oracle.enumerate_family

        def with_outsider(family, n):
            members = enumerate_family(family, n)
            return [*members, Partition([2])] if (family.kind, family.r, n) == ("pmex", 2, 2) else members

        monkeypatch.setattr(oracle, "enumerate_family", with_outsider)
        report = verify_roundtrips(4, 2)
        assert [(c.name, c.params) for c in report.checks] == [(c.name, c.params) for c in passing.checks]
        assert [c.describe() for c in report.failures()] == [
            "FAIL t5: inverse returns source [n=2 r=2]: expected 0, actual 1"
        ]

    def test_each_domain_is_enumerated_once(self, monkeypatch):
        calls = Counter()
        enumerate_family = oracle.enumerate_family

        def recording(family, n):
            calls[family.kind, family.r, n] += 1
            return enumerate_family(family, n)

        monkeypatch.setattr(oracle, "enumerate_family", recording)
        assert verify_roundtrips(6, 4).overall
        expected = {
            (kind, r, n): 1
            for n in range(7)
            for r in range(1, 5)
            for kind in ("pmex", "obar", "pe" if r % 2 else "po2")
        }
        assert calls == expected


def _two_passes(max_n, max_r):
    """The round trips as one pass per map: the reference for the paired
    passes of verify_roundtrips."""
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            for map_id in bijections.MAPS:
                try:
                    domain, codomain = bijections.map_families(map_id, r)
                except ValueError:
                    continue
                forward, inverse = bijections.MAPS[map_id], bijections.MAPS[bijections.INVERSE[map_id]]
                bad_image = bad_identity = 0
                for obj in families.enumerate_family(domain, n):
                    image = forward(obj, r)
                    if not families.is_member(codomain, image):
                        bad_image += 1
                        bad_identity += 1
                    elif inverse(image, r) != obj:
                        bad_identity += 1
                params = f"n={n} r={r}"
                checks.append(Check(f"{map_id}: images in codomain", params, 0, bad_image))
                checks.append(Check(f"{map_id}: inverse returns source", params, 0, bad_identity))
    return VerificationReport(tuple(checks))


class TestTables:
    def test_tables_match_goldens(self):
        for table_id in range(1, 7):
            assert reproduce_table(table_id) == golden_table(table_id)

    def test_table2_content(self):
        rows = [line.split("\t") for line in reproduce_table(2).splitlines()]
        assert rows == [
            ["6", "3 3"],
            ["5 1", "5 1"],
            ["4 2", "1 1 1 1 1 1"],
            ["3 2 1", "3 1 1 1"],
        ]

    def test_row_counts(self):
        assert len(reproduce_table(3).splitlines()) == 11
        assert len(reproduce_table(6).splitlines()) == 8
        lines = reproduce_table(4).splitlines()
        assert lines.count("") == 1  # two blocks
        assert len([l for l in lines if l]) == 18

    def test_rejects_bad_id(self):
        with pytest.raises(ValueError):
            reproduce_table(0)
        with pytest.raises(ValueError):
            reproduce_table(7)
        with pytest.raises(ValueError):
            golden_table(9)
        for bad in (True, 1.0):
            with pytest.raises(ValueError):
                reproduce_table(bad)
            with pytest.raises(ValueError):
                golden_table(bad)
