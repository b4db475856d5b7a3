import ast
from pathlib import Path

import mexpart
from mexpart import ColoredPartition, Overpartition, Partition, TruncatedSeries
from mexpart import bijections, families, oracle, partitions, qseries

MODULES = (bijections, families, oracle, partitions, qseries)


def test_public_names_are_the_modules_public_names():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union) == len(mexpart.__all__)
    assert set(mexpart.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mexpart, name) is getattr(module, name)


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10: the sources must parse on 3.10 even when
    # the tests run on a newer Python.
    sources = sorted(Path(mexpart.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        ast.parse(source.read_text(encoding="utf-8"), str(source), feature_version=(3, 10))


def test_value_types_compare_and_hash_by_their_fields():
    pairs = [
        (Partition([1, 3, 1]), Partition._trusted((3, 1, 1))),
        (Overpartition([1, 4], [2, 3]), Overpartition._trusted((4, 1), (3, 2))),
        (ColoredPartition([(1, 1), (5, 2)]), ColoredPartition._trusted(((5, 2), (1, 1)))),
        (TruncatedSeries([1, 0, 2]), TruncatedSeries((1, 0, 2))),
    ]
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
    assert ColoredPartition([(5, 1)]) != ColoredPartition([(5, 2)])
    assert Partition([3, 1]) != Partition([3])
    assert Overpartition([2], []) != Overpartition([], [2])
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])

    # objects of different types are never equal, even with matching tuples
    objects = [a for a, _ in pairs] + [
        Partition([3, 1]), TruncatedSeries([3, 1]), Partition([2]), Overpartition([], [2]),
    ]
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            if type(a) is not type(b):
                assert a != b and not a == b, (i, j)
        assert a != 1
