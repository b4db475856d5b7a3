"""The parsers' token memos change no verdict and hold a bounded number of tokens.

Each ``from_text`` converts its tokens through an ``lru_cache`` keyed by the
token string.  A line must get the same object or the same message whether
its tokens are cached or not, and a near miss such as ``01`` must still be
refused after its canonical form ``1`` has been cached.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mexpart import ColoredPartition, Overpartition, Partition, partitions

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
