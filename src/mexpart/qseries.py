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
(Corteel and Lovejoy, "Overpartitions", 2004).  Dividing by a sparse series
with O(sqrt(n)) terms up to q^n costs O(degree^1.5) steps in all, and each
finite factor (1 - q^e) one pass.  ``poch_inv`` and ``series_mul`` compute
the same product the direct way, in O(degree^2), and serve as its test
oracle.
"""

from __future__ import annotations

from typing import Iterable

from .partitions import _require_int

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


class TruncatedSeries:
    """Coefficients 0..degree of a formal power series, exact integers;
    equal and hashed by ``coeffs``, as the types of :mod:`mexpart.partitions`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        self.coeffs = cs

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs != other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

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
    ``denominator`` ascending.  Coefficient n of the quotient T is
    numerator_n - sum of d_e * T_{n-e} over the denominator's exponents
    e <= n, so one coefficient costs as many steps as the denominator has
    terms up to n.
    """
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


def _times_one_minus(coeffs: list[int], e: int) -> None:
    """Multiply the truncated series ``coeffs`` by (1 - q^e) in place."""
    for n in range(len(coeffs) - 1, e - 1, -1):
        coeffs[n] -= coeffs[n - e]


def _times_inverse_one_minus(coeffs: list[int], e: int) -> None:
    """Divide the truncated series ``coeffs`` by (1 - q^e) in place."""
    for n in range(e, len(coeffs)):
        coeffs[n] += coeffs[n - e]


def _updates(exponents: range, degree: int) -> int:
    """Coefficients that one pass per exponent in ``exponents`` updates."""
    return sum(degree + 1 - e for e in exponents)


def gf_pmex(r: int, degree: int = DEFAULT_DEGREE) -> TruncatedSeries:
    """Generating function 1 / ((q; q^2)_inf (q^{r+1}; q^2)_inf), truncated.

    Coefficient n predicts the count of the ``pmex`` family at weight n,
    independently of any enumeration.  The product is rewritten so that
    every infinite factor is a sparse series or the inverse of one:

    * odd r: (q^2; q^2)_{(r-1)/2} / (q; q)_inf, since (q; q^2)_inf (q^2; q^2)_inf
      = (q; q)_inf;
    * even r: (q; q^2)_{r/2} (q^2; q^2)_inf / phi(-q), since Gauss's
      phi(-q) = (q; q)_inf^2 / (q^2; q^2)_inf = (q; q^2)_inf^2 (q^2; q^2)_inf.

    Both quotients cost O(degree^1.5) steps, then each finite factor one pass.
    A factor (1 - q^e) with e > degree is 1 modulo q^(degree+1), so only the
    factors up to ``degree`` are applied.  For large r it is cheaper to
    start from 1/(q; q^2)_inf = (q^2; q^2)_inf / (q; q)_inf, also a sparse
    quotient, and divide by (1 - q^e) for e = r+1, r+3, ... up to ``degree``.
    A pass for e updates degree + 1 - e coefficients, and the route whose
    passes update fewer is taken: at most (degree + 1)^2 / 8 updates,
    whatever r is, the most near r = 0.29 * degree.
    """
    _require_int(r, 1, "r")
    _require_int(degree, 0, "degree")
    finite = range(2 if r % 2 else 1, min(r, degree + 1), 2)
    tail = range(r + 1, degree + 1, 2)
    if _updates(tail, degree) < _updates(finite, degree):
        coeffs = _sparse_quotient(_pentagonal(degree, 2), _pentagonal(degree), degree)
        for e in tail:
            _times_inverse_one_minus(coeffs, e)
        return TruncatedSeries(coeffs)
    if r % 2:
        coeffs = _sparse_quotient((), _pentagonal(degree), degree)
    else:
        coeffs = _sparse_quotient(_pentagonal(degree, 2), _theta(degree), degree)
    for e in finite:
        _times_one_minus(coeffs, e)
    return TruncatedSeries(coeffs)


def verify_euler(degree: int) -> bool:
    """Check (-q; q)_inf = 1 / (q; q^2)_inf coefficient-wise up to ``degree``."""
    return poch_distinct(1, 1, degree) == poch_inv(1, 2, degree)
