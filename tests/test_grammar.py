"""The parsers against the textual grammar written out as regexes.

Each ``from_text`` and the CLI integer type accept a string iff it is how
mexpart prints the value it reads as.  The reference below states the same
grammar the long way, as whole-line patterns plus the token-order rules, and
the properties check that both accept exactly the same strings.
"""

import re

from hypothesis import given, settings, strategies as st

from mexpart import ColoredPartition, Overpartition, Partition, cli

SIZE = "[1-9][0-9]*"  # ASCII digits, no leading zero


def _line(token: str) -> re.Pattern:
    """A line of ``token``s separated by single ASCII spaces."""
    return re.compile(f"{token}(?: {token})*")


PARTITION_LINE = _line(SIZE)
OVERPARTITION_LINE = _line(f"~?{SIZE}")
COLORED_LINE = _line(f"{SIZE}_[12]")
INTEGER = re.compile(f"0|-?{SIZE}")


def _tokens(text: str, line: re.Pattern):
    """The tokens of the stripped ``text`` if it matches ``line`` (none for
    the empty object ``-``), else None."""
    stripped = text.strip()
    if stripped == "-":
        return []
    if line.fullmatch(stripped) is None:
        return None
    return stripped.split(" ")


def reference_partition(text: str):
    tokens = _tokens(text, PARTITION_LINE)
    if tokens is None:
        return None
    parts = [int(token) for token in tokens]
    if any(a < b for a, b in zip(parts, parts[1:])):  # weakly decreasing
        return None
    return Partition(parts)


def reference_overpartition(text: str):
    tokens = _tokens(text, OVERPARTITION_LINE)
    if tokens is None:
        return None
    pairs = [(int(t[1:]), True) if t[0] == "~" else (int(t), False) for t in tokens]
    for (s1, o1), (s2, o2) in zip(pairs, pairs[1:]):
        # sizes weakly decreasing, the overlined copy before the plain ones
        if s1 < s2 or (s1 == s2 and not o1 and o2):
            return None
    try:
        return Overpartition([s for s, o in pairs if o], [s for s, o in pairs if not o])
    except ValueError:  # an overlined size twice
        return None


def reference_colored(text: str):
    tokens = _tokens(text, COLORED_LINE)
    if tokens is None:
        return None
    pairs = [(int(t[:-2]), int(t[-1])) for t in tokens]
    for (s1, c1), (s2, c2) in zip(pairs, pairs[1:]):
        # sizes weakly decreasing, the first color before the second
        if s1 < s2 or (s1 == s2 and c1 > c2):
            return None
    try:
        return ColoredPartition(pairs)
    except ValueError:  # an even size
        return None


def reference_integer(text: str):
    return int(text) if INTEGER.fullmatch(text) else None


def _parsed(parse, text: str, error=ValueError):
    try:
        return parse(text)
    except error:
        return None


# Pieces that are valid on their own, and the near misses the grammar must
# reject: a zero, a leading zero, a stray mark or sign, a double space, a
# no-break space, a tab and a non-ASCII digit.
FRAGMENTS = [
    "1", "2", "3", "5", "7", "9", "10", "~3", "1_1", "3_1", "5_2", "7_2",
    "0", "01", "~", "_", "_1", "_2", "+", "-", " ", "  ", "\xa0", "\t", "٣",
]
_free = st.lists(st.sampled_from(FRAGMENTS), max_size=12).map("".join)
_token = st.one_of(
    st.sampled_from(["1", "3", "10", "~1", "~3", "1_1", "3_1", "3_2", "5_2"]),
    st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3).map("".join),
)
_tokenized = st.builds(
    lambda lead, tokens, trail: lead + " ".join(tokens) + trail,
    st.sampled_from(["", " ", "\t"]),
    st.lists(_token, max_size=6),
    st.sampled_from(["", " ", "\n"]),
)
lines = st.one_of(_free, _tokenized)
# Few drawn lines are valid, so each property draws more than the default.
thorough = settings(max_examples=300)


def _check(got, expected, text: str):
    assert got == expected
    if got is not None:
        assert got.text() == text.strip()


@thorough
@given(lines)
def test_partition_parser_accepts_exactly_the_grammar(text):
    _check(_parsed(Partition.from_text, text), reference_partition(text), text)


@thorough
@given(lines)
def test_overpartition_parser_accepts_exactly_the_grammar(text):
    _check(_parsed(Overpartition.from_text, text), reference_overpartition(text), text)


@thorough
@given(lines)
def test_colored_parser_accepts_exactly_the_grammar(text):
    _check(_parsed(ColoredPartition.from_text, text), reference_colored(text), text)


@thorough
@given(lines)
def test_cli_integer_accepts_exactly_the_grammar(text):
    got = _parsed(cli._integer, text)
    assert got == reference_integer(text)
    if got is not None:
        assert str(got) == text
