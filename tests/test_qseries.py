import pytest
from hypothesis import example, given, strategies as st

from mexpart import (
    DEFAULT_DEGREE,
    Family,
    TruncatedSeries,
    enumerate_family,
    gf_pmex,
    poch_distinct,
    poch_inv,
    qseries,
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

    def test_repr_shows_the_degree_and_at_most_six_coefficients(self):
        assert repr(TruncatedSeries([7])) == "TruncatedSeries(degree=0, [7])"
        assert repr(TruncatedSeries([1, 0, 2])) == "TruncatedSeries(degree=2, [1, 0, 2])"
        assert repr(TruncatedSeries(range(6))) == "TruncatedSeries(degree=5, [0, 1, 2, 3, 4, 5])"
        assert repr(TruncatedSeries(range(-3, 5))) == "TruncatedSeries(degree=7, [-3, -2, -1, 0, 1, 2, ...])"

    def test_refuses_assignment_and_deletion(self):
        s = TruncatedSeries([1, 2])
        for name in ("coeffs", "degree", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, (5,))
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s.coeffs == (1, 2)


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

    def test_checks_r_before_degree(self):
        with pytest.raises(ValueError, match="^r must"):
            gf_pmex(0, -1)
        with pytest.raises(ValueError, match="^degree must be an integer >= 0, got -1$"):
            gf_pmex(2, -1)

    @pytest.mark.parametrize("r, degree", [(True, 5), (2.0, 5), (2, True), (2, 1.5), ("2", 5)])
    def test_rejects_non_integers(self, r, degree):
        with pytest.raises(ValueError):
            gf_pmex(r, degree)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_degree_zero(self, r):
        assert gf_pmex(r, 0).coeffs == (1,)

    @pytest.mark.parametrize("degree", [1, 2, 7, 40, 61, 200])
    def test_applies_no_factor_above_the_degree(self, monkeypatch, degree):
        # (1 - q^e) with e > degree is 1 up to q^degree, so every r >= degree
        # gives the same series, and a huge r costs no more factor passes.
        # Each r takes the cheaper route, finite factors below r or Euler's
        # sum: at most (degree + 1)^2 / 8 coefficient updates, a pass for e
        # over a series of len(coeffs) coefficients updating len(coeffs) - e.
        expected = gf_pmex(degree, degree)
        bound = (degree + 1) ** 2 // 8
        calls = []

        def counting(apply):
            def counted(coeffs, e):
                calls.append((e, max(0, len(coeffs) - e)))
                if sum(updates for _, updates in calls) > bound:
                    raise AssertionError(f"factor passes update more than {bound} coefficients")
                apply(coeffs, e)

            return counted

        for name in ("_times_one_minus", "_times_inverse_one_minus"):
            monkeypatch.setattr(qseries, name, counting(getattr(qseries, name)))
        for r in [*range(1, degree + 4), 10**12, 10**12 + 1]:
            calls.clear()
            series = qseries.gf_pmex(r, degree)
            assert all(e <= degree for e, _ in calls)
            if r >= degree:
                assert series == expected


def one_loop_quotient(numerator, denominator, degree):
    """(1 + numerator) / (1 + denominator) one term at a time: coefficient n
    is numerator_n minus d_e * T_{n-e} for each denominator term e <= n."""
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for e, c in numerator:
        coeffs[e] = c
    for n in range(1, degree + 1):
        acc = coeffs[n]
        for e, c in denominator:
            if e > n:
                break
            acc -= c * coeffs[n - e]
        coeffs[n] = acc
    return coeffs


SPARSE_SERIES = {
    "pentagonal": qseries._pentagonal,
    "pentagonal step 2": lambda degree: qseries._pentagonal(degree, 2),
    "theta": qseries._theta,
}


class TestSparseQuotient:
    @pytest.mark.parametrize("denominator", SPARSE_SERIES)
    def test_matches_the_one_loop_quotient(self, denominator):
        for degree in range(401):
            den = SPARSE_SERIES[denominator](degree)
            for num in ((), *(series(degree) for series in SPARSE_SERIES.values())):
                assert qseries._sparse_quotient(num, den, degree) == one_loop_quotient(num, den, degree)

    @given(
        st.integers(0, 60),
        st.integers(0, 5),
        st.lists(st.tuples(st.integers(1, 65), st.booleans()), max_size=12),
        st.dictionaries(st.integers(1, 60), st.integers(-9, 9), max_size=6),
    )
    def test_matches_it_for_any_one_magnitude(self, degree, magnitude, terms, numerator):
        denominator = [(e, -magnitude if negative else magnitude) for e, negative in sorted(terms)]
        num = [(e, c) for e, c in numerator.items() if e <= degree]
        assert qseries._sparse_quotient(num, denominator, degree) == one_loop_quotient(num, denominator, degree)

    @pytest.mark.parametrize("denominator", [[(1, 1), (2, -2)], [(1, -2), (4, 2), (5, 1)], [(3, 0), (4, 1)]])
    def test_refuses_two_magnitudes(self, denominator):
        with pytest.raises(ValueError, match="denominator"):
            qseries._sparse_quotient((), denominator, 6)


def product(r, degree):
    """The paper's product the direct way: two dense inverses and their
    O(degree^2) Cauchy product."""
    return series_mul(poch_inv(1, 2, degree), poch_inv(r + 1, 2, degree))


def finite_product(exponents, degree):
    """Product of (1 - q^e) over ``exponents``, truncated at ``degree``."""
    coeffs = [1] + [0] * degree
    for e in exponents:
        for n in range(degree, e - 1, -1):
            coeffs[n] -= coeffs[n - e]
    return TruncatedSeries(coeffs)


class TestGfPmexMatchesTheProduct:
    @pytest.mark.parametrize("r", range(1, 11))
    def test_degree_300(self, r):
        assert gf_pmex(r, 300) == product(r, 300)

    @pytest.mark.parametrize("r", [2, 3])
    def test_degree_1500(self, r):
        assert gf_pmex(r, 1500) == product(r, 1500)

    @given(st.integers(1, 12), st.integers(0, 80))
    @example(1, 0)
    @example(2, 0)
    @example(1, 1)
    @example(2, 1)
    @example(12, 1)
    def test_small(self, r, degree):
        assert gf_pmex(r, degree) == product(r, degree)

    @pytest.mark.parametrize("degree", [0, 1, 2, 4, 7, 30, 61, 200])
    def test_both_routes_agree_with_the_product(self, monkeypatch, degree):
        # Three routes: the finite factors below r over the quotient by
        # (q; q)_inf (odd r) or by phi(-q) (even r), and Euler's sum over the
        # quotient by phi(-q).  Every r up to past the degree takes one of
        # them; from degree 7 on each is taken at some r.  At degrees 1 to 3
        # a finite-route step weighs 9/8 of one of Euler's, so every r takes
        # Euler's sum; from degree 4 on, r = 1 takes the quotient by (q; q)_inf.
        quotient, terms = qseries._sparse_quotient, qseries._euler_terms
        taken = []

        def spied_quotient(numerator, denominator, degree):
            taken.append("theta" if denominator and denominator == qseries._theta(degree) else "pentagonal")
            return quotient(numerator, denominator, degree)

        def spied_terms(coeffs, step):
            taken.append("euler")
            return terms(coeffs, step)

        monkeypatch.setattr(qseries, "_sparse_quotient", spied_quotient)
        monkeypatch.setattr(qseries, "_euler_terms", spied_terms)
        routes = set()
        for r in range(1, degree + 4):
            taken.clear()
            assert qseries.gf_pmex(r, degree) == product(r, degree)
            routes.add(taken[-1])
        if degree >= 7:
            assert routes == {"pentagonal", "theta", "euler"}
        elif degree >= 4:
            assert routes == {"pentagonal", "euler"}
        elif degree >= 1:
            assert routes == {"euler"}

    def test_calls_neither_dense_product(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("gf_pmex must not build the dense product")

        monkeypatch.setattr(qseries, "poch_inv", refuse)
        monkeypatch.setattr(qseries, "series_mul", refuse)
        assert qseries.gf_pmex(2, 40)[7] == 10
        assert qseries.gf_pmex(3, 40)[7] == 8


def pmex_definition(r, degree):
    """Generating function of the pmex family, read off its definition.

    A partition with mex m has every part 1..m-1 at least once, no part in
    m..m+r-1, and any parts >= m+r: q^{m(m-1)/2} / ((q; q)_{m-1} (q^{m+r}; q)_inf)
    = P q^{m(m-1)/2} (q^m; q)_r with P = 1/(q; q)_inf, summed over m >= 1.
    """
    total = [0] * (degree + 1)
    m = 1
    while m * (m - 1) // 2 <= degree:
        shift = m * (m - 1) // 2
        term = finite_product(range(m, m + r), degree - shift)
        for n, c in enumerate(term.coeffs):
            total[n + shift] += c
        m += 1
    return series_mul(poch_inv(1, 1, degree), TruncatedSeries(total))


class TestPaperIdentityAsSeries:
    """|pmex| = the product, checked far past what enumeration reaches."""

    def test_definition_matches_enumeration(self):
        for r in (1, 2, 3):
            series = pmex_definition(r, 14)
            for n in range(15):
                assert series[n] == len(enumerate_family(Family("pmex", r), n))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_pmex_definition_equals_gf(self, r):
        assert pmex_definition(r, 300) == gf_pmex(r, 300)

    @pytest.mark.parametrize("r", [1, 3, 5, 7])
    def test_pmex_equals_pe_for_odd_r(self, r):
        # pe: partitions whose even parts are all >= r+1, so
        # (q^2; q^2)_{(r-1)/2} P
        pe = series_mul(finite_product(range(2, r, 2), 300), poch_inv(1, 1, 300))
        assert pmex_definition(r, 300) == pe


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
