"""The one-pass parse: accepted lines skip ``text()`` and, for partitions
and overpartitions, the public constructor; refused lines keep their exact
messages.

``test_grammar.py`` checks which strings each parser accepts; this file
checks how it gets there and what a refused near miss is told.
"""

import pytest

from mexpart import ColoredPartition, Family, Overpartition, Partition, enumerate_family
from mexpart.families import FAMILY_KINDS, MEMBER_TYPES

TYPES = (Partition, Overpartition, ColoredPartition)
R = {"p": None, "pbar": None, "pe": 3}  # every other kind at r = 2


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_accepted_lines_build_no_checked_object_and_print_nothing(monkeypatch, kind):
    r = R.get(kind, 2)
    members = enumerate_family(Family(kind, r), 12)
    lines = [obj.text() for obj in members]

    def refuse(*args, **kwargs):
        raise AssertionError("an accepted line went through the checking route")

    # A colored line is still built by its public constructor, where
    # perfbench's tracer counts colored objects; nothing prints a line back.
    for cls in TYPES:
        if cls is not ColoredPartition:
            monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "text", refuse)
    parse = MEMBER_TYPES[kind].from_text
    assert len(lines) > 1
    assert [parse(line) for line in lines] == list(members)


@pytest.mark.parametrize(
    "cls,line,message",
    [
        (Partition, "3 4", "not a canonical Partition line: '3 4'; it prints as '4 3'"),
        (Overpartition, "~3 ~3", "overlined parts must be distinct"),
        (Overpartition, "~3 3 ~3", "overlined parts must be distinct"),
        (Overpartition, "3 ~3", "not a canonical Overpartition line: '3 ~3'; it prints as '~3 3'"),
        (Partition, "03", "not a canonical Partition line: '03'; it prints as '3'"),
        (Partition, "0", "parts must be positive integers, got 0"),
        (ColoredPartition, "4_1", "part sizes must be odd positive integers, got 4"),
        (ColoredPartition, "5_3", "colors must be 1 or 2, got 3"),
        (
            ColoredPartition, "3_1 5_1",
            "not a canonical ColoredPartition line: '3_1 5_1'; it prints as '5_1 3_1'",
        ),
        (
            ColoredPartition, "3_2 3_1",
            "not a canonical ColoredPartition line: '3_2 3_1'; it prints as '3_1 3_2'",
        ),
        (Partition, "3  2", "not a canonical Partition line: '3  2'"),
        (Partition, "", "not a canonical Partition line: ''"),
        (Overpartition, "", "not a canonical Overpartition line: ''"),
        (ColoredPartition, "", "not a canonical ColoredPartition line: ''"),
    ],
)
def test_near_miss_keeps_its_message(cls, line, message):
    with pytest.raises(ValueError) as caught:
        cls.from_text(line)
    assert str(caught.value) == message
