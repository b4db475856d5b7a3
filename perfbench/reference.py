"""Reference values and object rules computed apart from mexpart.

Nothing here imports the package.  Coefficients come from the Euler
transform (the logarithmic derivative) of a product of 1/(1 - q^e)
factors, which shares no code or method with the package's ``poch_inv`` /
``series_mul``; partitions numbers also have the pentagonal recurrence.
The object rules work on the benchmark's own parse of the text grammar.
"""

from __future__ import annotations


def euler_transform(mult, degree: int) -> list[int]:
    """Coefficients 0..degree of prod_{e >= 1} 1/(1 - q^e)^mult(e).

    With c_k = sum over d | k of d * mult(d), the coefficients satisfy
    n a_n = sum_{k=1..n} c_k a_{n-k}.
    """
    c = [0] * (degree + 1)
    for d in range(1, degree + 1):
        m = mult(d)
        if m:
            for k in range(d, degree + 1, d):
                c[k] += d * m
    a = [1] + [0] * degree
    for n in range(1, degree + 1):
        total = sum(c[k] * a[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError(f"Euler transform not integral at n={n}")
        a[n] = total // n
    return a


def identity_coefficients(r: int, degree: int) -> list[int]:
    """[q^n] 1/((q;q^2)_inf (q^{r+1};q^2)_inf) for n = 0..degree."""
    return euler_transform(lambda d: d % 2 + (d > r and (d - r - 1) % 2 == 0), degree)


def overpartition_counts(degree: int) -> list[int]:
    """[q^n] (-q;q)_inf/(q;q)_inf = 1/((q;q^2)_inf (q;q)_inf)."""
    return euler_transform(lambda d: 1 + d % 2, degree)


def partition_numbers(degree: int) -> list[int]:
    """p(0..degree) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * degree
    for n in range(1, degree + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
        p[n] = total
    return p


def series_times_products(coeffs: list[int], r: int) -> list[int]:
    """``coeffs`` times prod (1 - q^e) over e = 1, 3, 5, ... and
    e = r+1, r+3, ..., truncated at the series' own degree.

    For the coefficients of 1/((q;q^2)_inf (q^{r+1};q^2)_inf) the result is
    exactly 1, 0, 0, ...
    """
    degree = len(coeffs) - 1
    s = list(coeffs)
    for start in (1, r + 1):
        for e in range(start, degree + 1, 2):
            s[e:] = [a - b for a, b in zip(s[e:], s)]
    return s


def _number(token: str) -> int:
    if not token.isascii() or not token.isdigit() or token[0] == "0":
        raise ValueError(f"bad size {token!r}")
    return int(token)


def parse_partition(line: str) -> list[int]:
    if line == "-":
        return []
    parts = [_number(t) for t in line.split(" ")]
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts not weakly decreasing: {line!r}")
    return parts


def parse_overpartition(line: str) -> tuple[list[int], list[int]]:
    """(overlined, plain) from ``~6 ~4 3 3``-style text."""
    over: list[int] = []
    plain: list[int] = []
    if line == "-":
        return over, plain
    last = None
    for token in line.split(" "):
        overlined = token.startswith("~")
        size = _number(token[1:] if overlined else token)
        key = (size, overlined)
        if last is not None and (size > last[0] or (size == last[0] and overlined and not last[1])):
            raise ValueError(f"tokens out of order: {line!r}")
        last = key
        (over if overlined else plain).append(size)
    return over, plain


def parse_colored(line: str) -> list[tuple[int, int]]:
    if line == "-":
        return []
    pairs = []
    for token in line.split(" "):
        size, sep, color = token.partition("_")
        if not sep or color not in ("1", "2"):
            raise ValueError(f"bad colored token {token!r}")
        pairs.append((_number(size), int(color)))
    if any(a[0] < b[0] or (a[0] == b[0] and a[1] > b[1]) for a, b in zip(pairs, pairs[1:])):
        raise ValueError(f"tokens out of order: {line!r}")
    return pairs


def pmex_ok(parts: list[int], r: int) -> bool:
    """Mex run (missing sizes from the mex upward) has length >= r or is infinite."""
    present = set(parts)
    m = 1
    while m in present:
        m += 1
    above = [x for x in parts if x > m]
    return not above or min(above) - m >= r


def pe_ok(parts: list[int], r: int) -> bool:
    return not any(x % 2 == 0 and x < r for x in parts)


def po2_ok(pairs: list[tuple[int, int]], r: int) -> bool:
    return all(size % 2 == 1 and (color == 1 or size > r) for size, color in pairs)


def obar_ok(over: list[int], plain: list[int], r: int) -> bool:
    """Overlined sizes distinct; plain parts > r with the parity of r + 1."""
    return len(set(over)) == len(over) and all(x > r and (x - r - 1) % 2 == 0 for x in plain)
