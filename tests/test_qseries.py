import pytest

from mexpart import (
    DEFAULT_DEGREE,
    Family,
    TruncatedSeries,
    enumerate_family,
    gf_pmex,
    poch_distinct,
    poch_inv,
    series_mul,
    verify_euler,
)


def brute_count_progression(n, a, step):
    """Independent oracle: partitions of n into parts a, a+step, a+2*step, ...
    counted by filtering the plain enumeration."""
    allowed = set(range(a, n + 1, step))
    return sum(
        1
        for p in enumerate_family(Family("p"), n)
        if all(x in allowed for x in p.parts)
    )


def brute_count_distinct_progression(n, a, step):
    allowed = set(range(a, n + 1, step))
    return sum(
        1
        for p in enumerate_family(Family("p"), n)
        if len(set(p.parts)) == len(p.parts) and all(x in allowed for x in p.parts)
    )


class TestTruncatedSeries:
    def test_degree_matches_length(self):
        s = TruncatedSeries([1, 0, 2])
        assert s.degree == 2
        assert len(s.coeffs) == s.degree + 1

    def test_one(self):
        assert TruncatedSeries.one(3).coeffs == (1, 0, 0, 0)

    def test_getitem_bounds(self):
        s = TruncatedSeries([1, 2])
        assert s[1] == 2
        with pytest.raises(IndexError):
            s[2]
        with pytest.raises(IndexError):
            s[-1]

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 0.5])
        with pytest.raises(ValueError):
            TruncatedSeries([])


class TestSeriesMul:
    def test_identity(self):
        a = poch_inv(1, 2, 9)
        assert series_mul(a, TruncatedSeries.one(9)) == a

    def test_difference_of_squares(self):
        got = series_mul(TruncatedSeries([1, 1, 0]), TruncatedSeries([1, -1, 0]))
        assert got.coeffs == (1, 0, -1)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            series_mul(TruncatedSeries.one(3), TruncatedSeries.one(4))


class TestPochhammer:
    def test_poch_inv_counts_partitions(self):
        # constant term onward: 1, 1, 2, 3, 5, 7 (p(4) = 5)
        assert poch_inv(1, 1, 5).coeffs == (1, 1, 2, 3, 5, 7)
        expected = tuple(len(enumerate_family(Family("p"), n)) for n in range(6))
        assert poch_inv(1, 1, 5).coeffs == expected

    def test_poch_inv_odd_parts(self):
        assert poch_inv(1, 2, 6)[6] == 4
        assert poch_inv(1, 2, 6)[6] == brute_count_progression(6, 1, 2)

    def test_poch_inv_empty_product(self):
        assert poch_inv(3, 2, 0).coeffs == (1,)

    def test_poch_distinct_examples(self):
        assert poch_distinct(1, 1, 6)[6] == 4
        assert poch_distinct(1, 1, 4)[0] == 1
        assert poch_distinct(1, 1, 10)[10] == 10
        assert poch_distinct(1, 1, 10)[10] == brute_count_distinct_progression(10, 1, 1)

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_coefficients_match_brute_force(self, a, step):
        inv = poch_inv(a, step, 12)
        dist = poch_distinct(a, step, 12)
        for n in range(13):
            assert inv[n] == brute_count_progression(n, a, step)
            assert dist[n] == brute_count_distinct_progression(n, a, step)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poch_inv(0, 1, 5)
        with pytest.raises(ValueError):
            poch_distinct(1, 0, 5)
        with pytest.raises(ValueError):
            poch_inv(1, 1, -1)
        with pytest.raises(ValueError):
            poch_inv(1.5, 2, 10)


class TestGfPmex:
    def test_table_counts(self):
        assert gf_pmex(2, 7)[7] == 10
        assert gf_pmex(3, 7)[7] == 8

    def test_constant_term(self):
        for r in (1, 2, 5):
            assert gf_pmex(r, 10)[0] == 1

    def test_default_degree(self):
        assert gf_pmex(1).degree == DEFAULT_DEGREE == 64

    def test_r1_reduces_to_the_partition_series(self):
        assert gf_pmex(1, 100) == poch_inv(1, 1, 100)

    def test_distinct_parts_form(self):
        # 1/((q;q^2)(q^{r+1};q^2)) = (-q;q)/(q^{r+1};q^2) via the Euler identity
        for r in range(1, 7):
            lhs = gf_pmex(r, 100)
            rhs = series_mul(poch_distinct(1, 1, 100), poch_inv(r + 1, 2, 100))
            assert lhs == rhs

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            gf_pmex(0, 5)


class TestEuler:
    @pytest.mark.parametrize("degree", [0, 6, 200])
    def test_identity_holds(self, degree):
        assert verify_euler(degree) is True

    def test_coefficients_stay_nonnegative(self):
        for series in (
            poch_inv(1, 1, 200),
            poch_inv(1, 2, 200),
            poch_distinct(1, 1, 200),
            gf_pmex(4, 200),
        ):
            assert all(c >= 0 for c in series.coeffs)
            assert all(isinstance(c, int) for c in series.coeffs)
