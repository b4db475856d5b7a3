"""The parsers' token memos change no verdict and hold a bounded number of tokens.

Each ``from_text`` converts its tokens through an ``lru_cache`` keyed by the
token string.  A line must get the same object or the same message whether
its tokens are cached or not, and a near miss such as ``01`` must still be
refused after its canonical form ``1`` has been cached.

The maps' kernel memos are held to the same rules: every answer is the
kernel's own, cold or warm, no memo answers for another kernel, and each
memo is bounded in entries and in the weight of what it stores.
"""

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from mexpart import ColoredPartition, Family, Overpartition, Partition, bijections, enumerate_family, partitions
from mexpart.oracle import verify_roundtrips

MEMOS = (partitions._size_token, partitions._overpartition_token, partitions._colored_token)

PARSERS = {
    "Partition": Partition.from_text,
    "Overpartition": Overpartition.from_text,
    "ColoredPartition": ColoredPartition.from_text,
}


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _verdict(parse, text):
    try:
        obj = parse(text)
    except ValueError as exc:
        return "refused", str(exc)
    return "accepted", obj, obj.text()


# Canonical tokens of all three types next to near misses that convert to
# the same integers: a leading zero, a sign, a padded digit, a doubled mark.
TOKENS = [
    "1", "01", "+1", "3", "03", "5", "05", "10", "0",
    "~1", "~01", "~3", "~03", "~~3", "~0",
    "1_1", "3_1", "5_1", "05_1", "5_01", "5_2", "3_2", "1_2", "5_3", "5_1_1",
    "-", "_", "~", "\xa01", "٣",
]
_line = st.one_of(
    st.just("-"),
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=5).map(" ".join),
)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=200)
@given(texts=st.lists(_line, min_size=1, max_size=6))
def test_warm_memo_gives_the_cold_verdict(name, texts):
    parse = PARSERS[name]
    cold = []
    for text in texts:
        _clear()
        cold.append(_verdict(parse, text))
    _clear()
    # each line after the first meets the tokens of the lines before it
    assert [_verdict(parse, text) for text in texts] == cold
    assert [_verdict(parse, text) for text in texts] == cold


@pytest.mark.parametrize(
    "parse,warm,line,message",
    [
        (Partition.from_text, "1", "01", "not a canonical Partition line: '01'; it prints as '1'"),
        (Overpartition.from_text, "~3", "~03", "not a canonical Overpartition line: '~03'; it prints as '~3'"),
        (
            lambda text: ColoredPartition.from_text(text), "5_1", "05_1",
            "not a canonical ColoredPartition line: '05_1'; it prints as '5_1'",
        ),
    ],
)
def test_near_miss_is_refused_after_its_canonical_form(parse, warm, line, message):
    _clear()
    assert parse(warm).text() == warm
    with pytest.raises(ValueError) as caught:
        parse(line)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "parse,memo,token",
    [
        (Partition.from_text, partitions._size_token, str),
        (Overpartition.from_text, partitions._overpartition_token, lambda k: f"~{k}"),
        (lambda text: ColoredPartition.from_text(text), partitions._colored_token, lambda k: f"{2 * k + 1}_1"),
    ],
)
def test_memo_holds_at_most_its_bound(parse, memo, token):
    size = partitions.TOKEN_MEMO_SIZE
    assert memo.cache_info().maxsize == size
    _clear()
    for k in range(1, size + 50):
        parse(token(k))
    assert memo.cache_info().currsize == size


# The kernel memos: conjugation, and Glaisher's merge and split.  Each
# kernel with the test of its domain; ``__wrapped__`` is the kernel's plain
# computation.
KERNELS = {
    "conjugate": (partitions._conjugate, lambda parts: True),
    "merge": (partitions._merge, lambda parts: all(part % 2 for part in parts)),
    "split": (partitions._split, lambda parts: len(set(parts)) == len(parts)),
}
INVERSES = {"conjugate": "conjugate", "merge": "split", "split": "merge"}


def _clear_kernels():
    for kernel, _ in KERNELS.values():
        kernel.cache_clear()


def _stored():
    return {name: kernel.cache_info().currsize for name, (kernel, _) in KERNELS.items()}


def _components(name, max_weight=20):
    """Every component of kernel ``name``'s domain up to ``max_weight``."""
    in_domain = KERNELS[name][1]
    return [p.parts for n in range(max_weight + 1) for p in enumerate_family(Family("p"), n) if in_domain(p.parts)]


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_memo_gives_the_plain_result_cold_and_warm(name):
    kernel = KERNELS[name][0]
    components = _components(name)
    plain = [kernel.__wrapped__(parts) for parts in components]
    cold = []
    for parts in components:
        _clear_kernels()
        cold.append(kernel(parts))
    assert cold == plain
    _clear_kernels()
    assert [kernel(parts) for parts in components] == plain
    assert [kernel(parts) for parts in components] == plain


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_the_inverse_of_a_result_is_computed_by_the_inverse_kernel(name):
    # A kernel stores its results in its own memo only, so the inverse
    # half of a round trip is computed, not answered from the forward
    # half: the inverse misses on every image it has not seen itself.
    kernel = KERNELS[name][0]
    inverse = KERNELS[INVERSES[name]][0]
    components = _components(name, 16)  # 915 partitions, all held at once
    _clear_kernels()
    images = [kernel(parts) for parts in components]
    assert _stored() == {other: len(components) if other == name else 0 for other in KERNELS}
    inverse.cache_clear()
    misses = inverse.cache_info().misses
    # the split is unsorted
    assert [tuple(sorted(inverse(image), reverse=True)) for image in images] == components
    assert inverse.cache_info().misses - misses == len(set(images))


def _swapping(kernel, a, b):
    """``kernel``'s plain computation with its results ``a`` and ``b``
    exchanged: a wrong kernel whose wrong results still lie in the
    codomain."""

    def swapped(parts):
        out = kernel.__wrapped__(parts)
        return b if out == a else a if out == b else out

    return swapped


@pytest.mark.parametrize(
    "name,a,b,maps",
    [
        # the conjugates of the gap-free (2, 2, 1, 1) and (2, 1, 1, 1, 1)
        ("_conjugate", (4, 2), (5, 1), {"t5", "t5inv"}),
        # the merges of (1, 1, 1, 1) and (3, 1)
        ("_merge", (4,), (3, 1), {"odd", "oddinv", "even", "eveninv"}),
        # the splits of (4,) and (3, 1)
        ("_split", (1, 1, 1, 1), (3, 1), {"odd", "oddinv", "even", "eveninv"}),
    ],
)
def test_a_memo_does_not_vouch_for_a_faulty_kernel(monkeypatch, name, a, b, maps):
    # Were a result stored under the inverse kernel too, the inverse half
    # of each round trip would give back the source whatever the kernel
    # computed, and a wrong kernel would pass.
    kernel = getattr(partitions, name)
    monkeypatch.setattr(bijections, name, partitions._memoized(_swapping(kernel, a, b)))
    report = verify_roundtrips(8, 4)
    assert not report.overall
    assert {check.name.split(":")[0] for check in report.checks if not check.passed} == maps


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_kernel_returns_a_tuple(name):
    kernel = KERNELS[name][0]
    _clear_kernels()
    for parts in _components(name, 8) + [(partitions.KERNEL_MEMO_WEIGHT + 1,)]:
        assert type(kernel(parts)) is tuple
        assert type(kernel(parts)) is tuple


def test_kernel_memos_hold_at_most_their_bound():
    _clear_kernels()
    size = partitions.TOKEN_MEMO_SIZE
    for parts in _components("conjugate", 24):  # 7,338 partitions
        for kernel, _ in KERNELS.values():
            kernel(parts)
        assert all(stored <= size for stored in _stored().values())
    assert all(kernel.cache_info().maxsize == size for kernel, _ in KERNELS.values())
    assert _stored() == dict.fromkeys(KERNELS, size)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_component_above_the_weight_cap_is_not_stored(name):
    kernel = KERNELS[name][0]
    cap = partitions.KERNEL_MEMO_WEIGHT
    at_cap, above = ((1,) * cap, (1,) * (cap + 1)) if name == "merge" else ((cap - 1, 1), (cap, 1))
    _clear_kernels()
    assert kernel(at_cap) == kernel.__wrapped__(at_cap)
    assert sum(_stored().values()) == 1
    _clear_kernels()
    assert kernel(above) == kernel(above) == kernel.__wrapped__(above)
    assert sum(_stored().values()) == 0


@pytest.mark.parametrize(
    "name,outside,image,back",
    [
        # (1, 2) does not descend: its conjugate (2, 2) conjugates to itself
        ("conjugate", (1, 2), (2, 2), (2, 2)),
        # a zero part: (2, 0) conjugates to (1, 1), which conjugates to (2,)
        ("conjugate", (2, 0), (1, 1), (2,)),
        # an even part: (2, 1, 1) merges to (2, 2), which splits to four 1s
        ("merge", (2, 1, 1), (2, 2), (1, 1, 1, 1)),
        # a repeated part: (2, 2) splits to four 1s, which merge to (4,)
        ("split", (2, 2), (1, 1, 1, 1), (4,)),
    ],
)
def test_an_input_outside_the_domain_gets_the_plain_result(name, outside, image, back):
    kernel = KERNELS[name][0]
    inverse = KERNELS[INVERSES[name]][0]
    _clear_kernels()
    assert kernel(outside) == kernel(outside) == image
    assert inverse(image) == inverse(image) == back
    _clear_kernels()
    assert inverse(image) == back
    assert kernel(outside) == image


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_every_short_tuple_gets_the_plain_result(name):
    # Every tuple of up to 4 parts from 1..4, in any order, in the kernel's
    # domain or not: the memo answers as the plain kernel does, cold and
    # warm.
    kernel = KERNELS[name][0]
    tuples = [parts for length in range(5) for parts in itertools.product(range(1, 5), repeat=length)]
    plain = [kernel.__wrapped__(parts) for parts in tuples]
    cold = []
    for parts in tuples:
        _clear_kernels()
        cold.append(kernel(parts))
    assert cold == plain
    assert [kernel(parts) for parts in tuples] == plain


def _round_trips(max_n):
    """(object, image, image's inverse) as text for every object of both
    families of the t5, odd and even pairs at r <= 4 and n <= ``max_n``,
    from each side."""
    rows = []
    for r in range(1, 5):
        for map_id in bijections.MAPS:
            try:
                domain, _ = bijections.map_families(map_id, r)
            except ValueError:
                continue
            forward, inverse = bijections.MAPS[map_id], bijections.MAPS[bijections.INVERSE[map_id]]
            for n in range(max_n + 1):
                for obj in enumerate_family(domain, n):
                    image = forward(obj, r)
                    rows.append((obj.text(), image.text(), inverse(image, r).text()))
    return rows


def test_kernel_memos_are_safe_in_threads(monkeypatch):
    # Four threads share the memos, rebuilt at 64 entries so that they
    # evict often while the others read and store; every thread must see
    # the round trips of a single-thread run, and no memo may pass its
    # bound.
    _clear_kernels()
    expected = _round_trips(14)
    assert all(obj == back for obj, _, back in expected)
    monkeypatch.setattr(partitions, "TOKEN_MEMO_SIZE", 64)
    small = {}
    for name in ("_conjugate", "_merge", "_split"):
        small[name] = partitions._memoized(getattr(partitions, name).__wrapped__)
        monkeypatch.setattr(bijections, name, small[name])
    results, errors = [None] * 4, []

    def work(k):
        try:
            results[k] = _round_trips(14)
        except Exception as exc:  # reported below, with the thread's number
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(rows == expected for rows in results)
    assert all(memo.cache_info().currsize == 64 for memo in small.values())
