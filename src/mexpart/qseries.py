"""Exact truncated power series in q over arbitrary-precision integers.

The series here are the standard Pochhammer products: ``poch_inv`` builds
a product of 1/(1 - q^e) factors and ``poch_distinct`` a product of
(1 + q^e) factors over the arithmetic progression a, a+step, a+2*step, ...
All arithmetic is exact; no floating point is involved anywhere.
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
    """Coefficients 0..degree of a formal power series, exact integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        self.coeffs: tuple[int, ...] = cs

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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("TruncatedSeries", self.coeffs))

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


def gf_pmex(r: int, degree: int = DEFAULT_DEGREE) -> TruncatedSeries:
    """Generating function 1 / ((q; q^2)_inf (q^{r+1}; q^2)_inf), truncated.

    Coefficient n predicts the count of the ``pmex`` family at weight n,
    independently of any enumeration.
    """
    _require_int(r, 1, "r")
    return series_mul(poch_inv(1, 2, degree), poch_inv(r + 1, 2, degree))


def verify_euler(degree: int) -> bool:
    """Check (-q; q)_inf = 1 / (q; q^2)_inf coefficient-wise up to ``degree``."""
    return poch_distinct(1, 1, degree) == poch_inv(1, 2, degree)
