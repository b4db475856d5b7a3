import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mexpart
from mexpart import INFINITE, Check, ColoredPartition, Family, MexSequence, Overpartition, Partition
from mexpart import SigmaDecomposition, TruncatedSeries, VerificationReport, sigma_decompose
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
        assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in type(a).__slots__))
        assert {a: "found"}[b] == "found"
        assert pickle.loads(pickle.dumps(a)) == a
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


def test_parts_types_print_as_their_class_and_parts():
    printed = [
        (Partition([1, 3, 1]), "Partition([3, 1, 1])"),
        (Partition._trusted((2,)), "Partition([2])"),
        (Partition(), "Partition([])"),
        (ColoredPartition([(1, 1), (5, 2), (3, 2), (3, 1)]), "ColoredPartition([(5, 2), (3, 1), (3, 2), (1, 1)])"),
        (ColoredPartition._trusted(((3, 2),)), "ColoredPartition([(3, 2)])"),
        (ColoredPartition(), "ColoredPartition([])"),
    ]
    for obj, text in printed:
        assert repr(obj) == text
        assert type(obj._trusted(obj.parts)) is type(obj)
        assert obj._trusted(obj.parts) == obj


def test_records_compare_hash_print_and_refuse_assignment():
    check = Check("c", "n=1", 3, 4)
    records = [
        (MexSequence(4, 3), MexSequence(start=4, length=3), "MexSequence(start=4, length=3)"),
        (MexSequence(1, INFINITE), MexSequence(1, INFINITE), "MexSequence(start=1, length=INFINITE)"),
        (Family("pmex", 2), Family(kind="pmex", r=2), "Family(kind='pmex', r=2)"),
        (Family("p"), Family("p", None), "Family(kind='p', r=None)"),
        (
            sigma_decompose(Partition([5, 3, 1]), 1),
            SigmaDecomposition(Partition([4, 2]), Partition([1, 1, 1]), 1),
            "SigmaDecomposition(delta=Partition([4, 2]), sigma=Partition([1, 1, 1]), r=1)",
        ),
        (check, Check(name="c", params="n=1", expected=3, actual=4), "Check(name='c', params='n=1', expected=3, actual=4)"),
        (
            VerificationReport((check,)),
            VerificationReport(checks=(Check("c", "n=1", 3, 4),)),
            "VerificationReport(checks=(Check(name='c', params='n=1', expected=3, actual=4),))",
        ),
    ]
    for a, b, printed in records:
        assert repr(a) == repr(b) == printed
        assert a == b and not a != b
        fields = tuple(getattr(a, name) for name in type(a).__slots__)
        assert hash(a) == hash(b) == hash(fields)
        assert pickle.loads(pickle.dumps(a)) == a
        for name in (*type(a).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert tuple(getattr(a, name) for name in type(a).__slots__) == fields

    # a record differs from one whose fields differ, and from any other type
    assert MexSequence(4, 3) != MexSequence(4, 4)
    assert Family("pe", 3) != Family("obar", 3)
    assert Check("c", "n=1", 3, 4) != Check("c", "n=1", 3, 3)
    objects = [a for a, _, _ in records] + [(4, 3), ("pmex", 2), Partition([4, 3])]
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            if type(a) is not type(b):
                assert a != b and not a == b, (i, j)


def test_import_loads_neither_dataclasses_nor_heapq():
    # Every command starts a process, so what importing the package loads
    # is paid on each one: dataclasses alone brings inspect, ast, dis and
    # tokenize, typing brings re and warnings for annotations alone, and
    # heapq is needed only when pmex's streams are merged.
    src = str(Path(mexpart.__file__).resolve().parents[1])
    code = "import sys, mexpart, mexpart.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mexpart.cli" in loaded
    assert not loaded & {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "heapq",
        "argparse", "gettext", "locale", "json", "importlib.resources", "typing",
    }


def test_a_command_loads_no_argument_parser():
    # The CLI reads argv from its own option table, so running a command
    # loads neither argparse nor the gettext and locale lookups it brings.
    src = str(Path(mexpart.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from mexpart import cli\n"
        "sys.argv = ['mexpart', 'count', '--family', 'p', '--n', '5']\n"
        "code = cli.main()\n"
        "print(code, ' '.join(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "7\n", "0 \n")
