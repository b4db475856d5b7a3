"""Exact truncated power series in q over arbitrary-precision integers.

The series here are the standard Pochhammer products: ``poch_inv`` builds
a product of 1/(1 - q^e) factors and ``poch_distinct`` a product of
(1 + q^e) factors over the arithmetic progression a, a+step, a+2*step, ...
All arithmetic is exact; no floating point is involved anywhere.

``gf_pmex`` does not multiply dense series.  It rewrites the paper's product
with two classical identities so that each infinite factor is a sparse
series (Andrews, *The Theory of Partitions*, ch. 1-2): Euler's pentagonal
number theorem, (q; q)_inf = sum over k in Z of (-1)^k q^{k(3k-1)/2}, and
Gauss's phi(-q) = sum over k in Z of (-1)^k q^{k^2} = (q; q)_inf^2 / (q^2; q^2)_inf,
whose inverse is the overpartition series (-q; q)_inf / (q; q)_inf
(Corteel and Lovejoy, "Overpartitions", 2004).  Both sparse series have
O(sqrt(n)) terms up to q^n, each +c or -c for one c (1 or 2), so dividing
by one costs O(degree^1.5) big-integer additions in all and one multiply
per coefficient; each finite factor (1 - q^e) costs one pass, or for larger
r each term of Euler's sum (Andrews, Cor. 2.2).  ``poch_inv`` and
``series_mul`` compute the same product the direct way, in O(degree^2), and
serve as its test oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import add

from .partitions import _Record, _require_int, _set

__all__ = [
    "DEFAULT_DEGREE",
    "TruncatedSeries",
    "gf_pmex",
    "poch_distinct",
    "poch_inv",
    "series_mul",
    "verify_euler",
]

DEFAULT_DEGREE = 64


class TruncatedSeries(_Record):
    """Coefficients 0..degree of a formal power series, exact integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        _set(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, degree: int) -> "TruncatedSeries":
        """The constant series 1 truncated at ``degree``."""
        return cls([1] + [0] * degree)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.degree:
            raise IndexError(f"coefficient index {n} outside 0..{self.degree}")
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.degree >= 6 else ""
        return f"TruncatedSeries(degree={self.degree}, [{head}{tail}])"


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common degree."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    n = a.degree
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n - i + 1):
                out[i + j] += ai * b.coeffs[j]
    return TruncatedSeries(out)


def poch_inv(a: int, step: int, degree: int) -> TruncatedSeries:
    """Product of 1/(1 - q^e) over e = a, a+step, ... up to ``degree``.

    Coefficient n counts partitions of n into parts congruent to a modulo
    step that are at least a.
    """
    _require_int(a, 1, "a")
    _require_int(step, 1, "step")
    _require_int(degree, 0, "degree")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    e = a
    while e <= degree:
        for n in range(e, degree + 1):
            coeffs[n] += coeffs[n - e]
        e += step
    return TruncatedSeries(coeffs)


def poch_distinct(a: int, step: int, degree: int) -> TruncatedSeries:
    """Product of (1 + q^e) over e = a, a+step, ... up to ``degree``.

    Coefficient n counts partitions of n into distinct parts congruent to a
    modulo step.
    """
    _require_int(a, 1, "a")
    _require_int(step, 1, "step")
    _require_int(degree, 0, "degree")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    e = a
    while e <= degree:
        for n in range(degree, e - 1, -1):
            coeffs[n] += coeffs[n - e]
        e += step
    return TruncatedSeries(coeffs)


def _pentagonal(degree: int, step: int = 1) -> list[tuple[int, int]]:
    """(q^step; q^step)_inf - 1 as sparse (exponent, coefficient) pairs up to
    ``degree``, exponents ascending.

    Euler's pentagonal number theorem: (q; q)_inf is the sum over k >= 1 of
    (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}), plus 1.
    """
    terms = []
    k = 1
    while step * k * (3 * k - 1) // 2 <= degree:
        sign = -1 if k % 2 else 1
        for e in (step * k * (3 * k - 1) // 2, step * k * (3 * k + 1) // 2):
            if e <= degree:
                terms.append((e, sign))
        k += 1
    return terms


def _theta(degree: int) -> list[tuple[int, int]]:
    """phi(-q) - 1 = 2 * sum over k >= 1 of (-1)^k q^{k^2}, sparse up to
    ``degree``, exponents ascending."""
    terms = []
    k = 1
    while k * k <= degree:
        terms.append((k * k, -2 if k % 2 else 2))
        k += 1
    return terms


def _sparse_quotient(numerator, denominator, degree: int) -> list[int]:
    """Coefficients 0..degree of (1 + numerator) / (1 + denominator).

    Both are sparse (exponent, coefficient) pairs with exponents >= 1,
    ``denominator`` ascending, and every coefficient of ``denominator`` is
    +c or -c for one c, as in the pentagonal (c = 1) and theta (c = 2)
    series; any other denominator raises ValueError.  Coefficient n of the
    quotient T is numerator_n - c * (sum of T_{n-e} over the + exponents
    e <= n minus the same sum over the - exponents), so one coefficient
    costs one addition per denominator term up to n and one multiply.
    """
    magnitude = abs(denominator[0][1]) if denominator else 0
    for _, c in denominator:
        if abs(c) != magnitude:
            raise ValueError(
                f"denominator coefficients must all be +c or -c for one c, got {magnitude} and {abs(c)}"
            )
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for e, c in numerator:
        coeffs[e] = c
    plus, minus = [], []  # the exponents up to n of each sign
    i = 0
    for n in range(1, degree + 1):
        while i < len(denominator) and denominator[i][0] <= n:
            e, c = denominator[i]
            (plus if c > 0 else minus).append(e)
            i += 1
        total = 0
        for e in plus:
            total += coeffs[n - e]
        for e in minus:
            total -= coeffs[n - e]
        coeffs[n] -= magnitude * total
    return coeffs


def _times_one_minus(coeffs: list[int], e: int) -> None:
    """Multiply the truncated series ``coeffs`` by (1 - q^e) in place."""
    for n in range(len(coeffs) - 1, e - 1, -1):
        coeffs[n] -= coeffs[n - e]


def _times_inverse_one_minus(coeffs: list[int], e: int) -> None:
    """Divide the truncated series ``coeffs`` by (1 - q^e) in place."""
    for n in range(e, len(coeffs)):
        coeffs[n] += coeffs[n - e]


def _updates(exponents: Iterable[int], degree: int) -> int:
    """Coefficients that one pass per exponent in ``exponents`` updates."""
    return sum(degree + 1 - e for e in exponents)


def _euler_terms(coeffs: list[int], step: int) -> Iterator[tuple[int, list[int]]]:
    """Euler's sum 1/(z q; q^2)_inf = sum of z^k q^k / (q^2; q^2)_k at
    z = q^(step-1), times ``coeffs``: yields (k * step, coeffs / (q^2; q^2)_k
    cut at degree - k * step) while k * step <= degree, dividing and cutting
    ``coeffs`` in place."""
    k = 0
    while True:
        yield k * step, coeffs
        k += 1
        size = len(coeffs) - step
        if size <= 0:
            return
        del coeffs[size:]
        _times_inverse_one_minus(coeffs, 2 * k)


def gf_pmex(r: int, degree: int = DEFAULT_DEGREE) -> TruncatedSeries:
    """Generating function 1 / ((q; q^2)_inf (q^{r+1}; q^2)_inf), truncated.

    Coefficient n predicts the count of the ``pmex`` family at weight n,
    independently of any enumeration.  Every infinite factor is a sparse
    series or the inverse of one, on one of two routes:

    * finite: odd r is (q^2; q^2)_{(r-1)/2} / (q; q)_inf, since
      (q; q^2)_inf (q^2; q^2)_inf = (q; q)_inf; even r is
      (q; q^2)_{r/2} (q^2; q^2)_inf / phi(-q), since Gauss's
      phi(-q) = (q; q)_inf^2 / (q^2; q^2)_inf = (q; q^2)_inf^2 (q^2; q^2)_inf.
      Each factor (1 - q^e) with e <= degree costs one pass.
    * Euler: U = 1/(q; q^2)_inf = (q; q)_inf / phi(-q) times Euler's sum
      for 1/(q^{r+1}; q^2)_inf, about degree^2 / (r+1) updates.  Dividing
      by theta, with about sqrt(degree) terms below the degree, takes fewer
      steps than (q^2; q^2)_inf / (q; q)_inf, whose pentagonal denominator
      has about 1.63 sqrt(degree).

    The route whose passes, sums and sparse quotient (one step per
    denominator term below each coefficient) cost less is taken, each step
    weighed by its measured cost, so the passes update O(degree^1.5)
    coefficients for any r.
    """
    _require_int(r, 1, "r")
    _require_int(degree, 0, "degree")
    pentagonal, theta = _pentagonal(degree), _theta(degree)
    quotient = theta if r % 2 == 0 else pentagonal
    finite = range(2 if r % 2 else 1, min(r, degree + 1), 2)
    # Each step weighed by its measured cost (degree 50000, one pinned CPU,
    # min of 3): a sparse-quotient step costs 4/5 of a pass or sum step
    # (61-80 ns against 79-111 on the finite route, 56-68 against 70-83 on
    # Euler's), and a finite-route step 9/8 of one of Euler's, whose
    # coefficients, U's, have about 1/sqrt(2) as many digits.  Euler's sum
    # is then first taken at r = 223 for odd r and r = 284 for even r, where
    # timing both routes puts the crossings, near r = 231 and r = 283.
    finite_cost = 9 * (5 * _updates(finite, degree) + 4 * _updates((e for e, _ in quotient), degree))
    euler_cost = 8 * (
        5 * _updates(range(r + 3, degree + 1, r + 3), degree)
        + 5 * _updates(range(r + 1, degree + 1, r + 1), degree)
        + 4 * _updates((e for e, _ in theta), degree)
    )
    if euler_cost < finite_cost:
        terms = _euler_terms(_sparse_quotient(pentagonal, theta, degree), r + 1)
        coeffs = next(terms)[1].copy()
        for shift, term in terms:
            coeffs[shift:] = map(add, coeffs[shift:], term)
        return TruncatedSeries(coeffs)
    numerator = () if r % 2 else _pentagonal(degree, 2)
    coeffs = _sparse_quotient(numerator, quotient, degree)
    for e in finite:
        _times_one_minus(coeffs, e)
    return TruncatedSeries(coeffs)


def verify_euler(degree: int) -> bool:
    """Check (-q; q)_inf = 1 / (q; q^2)_inf coefficient-wise up to ``degree``."""
    return poch_distinct(1, 1, degree) == poch_inv(1, 2, degree)
