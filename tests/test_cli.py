import gc
import io
import json
import os
import select
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mexpart import Check, ColoredPartition, Family, Overpartition, Partition, VerificationReport, bijections, cli
from mexpart import DEFAULT_DEGREE, families, gf_pmex, oracle
from mexpart import count_family, enumerate_family
from mexpart.cli import run
from mexpart.families import FAMILY_KINDS

SRC = Path(__file__).resolve().parents[1] / "src"


def _env(**extra):
    """The environment for a ``python -m mexpart`` subprocess: this
    checkout's ``src`` first on ``PYTHONPATH``, plus ``extra``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_count_po2():
    assert run(["count", "--family", "po2", "--n", "6", "--r", "2"]) == (0, "8\n", "")


def test_count_p_zero():
    assert run(["count", "--family", "p", "--n", "0"]) == (0, "1\n", "")


def _traced_peak(call):
    """(result of ``call()``, the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_holds_no_members():
    # `count` reads the coefficient of the family's series and builds no
    # member: its peak stays a small fraction of the peak of building the
    # tuple of every member.
    n = 24
    run(["count", "--family", "pbar", "--n", "1"])  # first-call setup outside the trace
    (code, out, err), count_peak = _traced_peak(lambda: run(["count", "--family", "pbar", "--n", str(n)]))
    members, members_peak = _traced_peak(lambda: enumerate_family(Family("pbar"), n))
    assert (code, out, err) == (0, f"{len(members)}\n", "")
    assert count_peak < members_peak / 10, (count_peak, members_peak)


@pytest.mark.parametrize("kind,r", [("pmex", 10**9), ("obar", 10**9), ("pe", 10**9 + 1), ("po2", 10**9)])
def test_count_at_a_huge_r_stays_small(kind, r):
    # No set of sizes in a family's rule grows with r, and the pmex tally
    # has at most n + 2 slots, since no finite mex run is longer than n.
    family = Family(kind, r)
    argv = ["count", "--family", kind, "--r", str(r), "--n"]
    run([*argv, "1"])  # first-call setup outside the trace
    for n in range(13):
        (code, out, err), peak = _traced_peak(lambda: run([*argv, str(n)]))
        assert (code, out, err) == (0, f"{count_family(family, n)}\n", ""), n
        assert peak < 1 << 20, (n, peak)


def test_map_worked_example():
    code, out, err = run(["map", "--bijection", "t5", "--r", "2"], "8 7 3 2 1 1")
    assert (code, out, err) == (0, "~6 ~4 ~3 3 3 ~2 ~1\n", "")


def test_map_preserves_order_and_skips_blank_lines():
    stdin = "6 1 1\n\n3 3 1 1\n"
    code, out, _ = run(["map", "--bijection", "odd", "--r", "3"], stdin)
    assert code == 0
    assert out == "6 ~2\n~6 ~2\n"


def test_map_reads_iterables():
    code, out, _ = run(["map", "--bijection", "eveninv", "--r", "2"], iter(["~6\n", "3 3\n"]))
    assert code == 0
    assert out == "3_1 3_1\n3_2 3_2\n"


def test_map_without_stdin_reads_no_lines():
    assert run(["map", "--bijection", "t5", "--r", "1"]) == (0, "", "")


def test_map_even_parses_colored_input():
    code, out, _ = run(["map", "--bijection", "even", "--r", "2"], "5_2 1_1\n3_1 3_2")
    assert code == 0
    assert out == "5 ~1\n~3 3\n"


def test_map_even_refuses_a_colored_line_outside_po2_at_its_r():
    # 3_2 is a colored partition, so it parses; the domain check refuses it
    # at r = 4, as it refuses any line outside po2.
    argv = ["map", "--bijection", "even", "--r", "4"]
    expected = (2, "5\n", "error: line 2: '3_2' is not in family 'po2' at r=4\n")
    assert run(argv, "5_2\n3_2\n") == expected
    env = _env()
    proc = subprocess.run(
        [sys.executable, "-m", "mexpart", *argv], input=b"5_2\n3_2\n", capture_output=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected


def test_map_malformed_line_names_the_line():
    code, out, err = run(["map", "--bijection", "t5", "--r", "2"], "7\nbogus\n")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "bijection,line", [("t5", "01 1"), ("t5", "3  1"), ("t5inv", "~01"), ("even", "05_1")]
)
def test_map_rejects_non_canonical_sizes(bijection, line):
    code, out, err = run(["map", "--bijection", bijection, "--r", "2"], f"-\n{line}\n")
    assert code == 2
    assert "line 2" in err


def test_map_domain_violation_is_a_usage_error():
    code, _, err = run(["map", "--bijection", "t5", "--r", "2"], "5 2")
    assert code == 2
    assert "line 1" in err


def test_enumerate_text():
    code, out, _ = run(["enumerate", "--family", "p", "--n", "4"])
    assert code == 0
    assert out == "4\n3 1\n2 2\n2 1 1\n1 1 1 1\n"


def test_enumerate_jsonl():
    code, out, _ = run(["enumerate", "--family", "obar", "--n", "3", "--r", "2", "--format", "jsonl"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {"overlined": [], "plain": [3]} in records
    assert all(set(rec) == {"overlined", "plain"} for rec in records)


def test_enumerate_po2_jsonl():
    code, out, _ = run(["enumerate", "--family", "po2", "--n", "3", "--r", "2", "--format", "jsonl"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert {"parts": [[3, 2]]} in records


@pytest.mark.parametrize("argv, expected", [
    (["--family", "p", "--n", "4"],
     '{"parts":[4]}\n{"parts":[3,1]}\n{"parts":[2,2]}\n{"parts":[2,1,1]}\n{"parts":[1,1,1,1]}\n'),
    (["--family", "obar", "--n", "4", "--r", "1"],
     '{"overlined":[],"plain":[4]}\n{"overlined":[4],"plain":[]}\n{"overlined":[3,1],"plain":[]}\n'
     '{"overlined":[],"plain":[2,2]}\n{"overlined":[2],"plain":[2]}\n'),
    (["--family", "po2", "--n", "6", "--r", "2"],
     '{"parts":[[5,1],[1,1]]}\n{"parts":[[5,2],[1,1]]}\n{"parts":[[3,1],[3,1]]}\n'
     '{"parts":[[3,1],[3,2]]}\n{"parts":[[3,2],[3,2]]}\n{"parts":[[3,1],[1,1],[1,1],[1,1]]}\n'
     '{"parts":[[3,2],[1,1],[1,1],[1,1]]}\n{"parts":[[1,1],[1,1],[1,1],[1,1],[1,1],[1,1]]}\n'),
], ids=["Partition", "Overpartition", "ColoredPartition"])
def test_enumerate_jsonl_bytes(argv, expected):
    # Key order, separators and nesting of each member type's record, byte
    # for byte.
    assert run(["enumerate", *argv, "--format", "jsonl"]) == (0, expected, "")


def test_map_jsonl():
    code, out, _ = run(["map", "--bijection", "t5", "--r", "2", "--format", "jsonl"], "8 7 3 2 1 1")
    assert code == 0
    assert json.loads(out) == {"overlined": [6, 4, 3, 2, 1], "plain": [3, 3]}


def test_pipe_round_trip_is_byte_exact():
    for n, r in ((12, 2), (20, 3)):
        _, stream, _ = run(["enumerate", "--family", "pmex", "--n", str(n), "--r", str(r)])
        _, mapped, _ = run(["map", "--bijection", "t5", "--r", str(r)], stream)
        _, back, _ = run(["map", "--bijection", "t5inv", "--r", str(r)], mapped)
        assert back == stream


def test_identical_invocations_identical_bytes():
    first = run(["enumerate", "--family", "pbar", "--n", "8"])
    second = run(["enumerate", "--family", "pbar", "--n", "8"])
    assert first == second


def test_gf_output_format():
    code, out, _ = run(["gf", "--r", "2", "--degree", "7"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0\t1"
    assert lines[7] == "7\t10"
    assert len(lines) == 8


def test_gf_default_degree_env(monkeypatch):
    monkeypatch.setenv("MEX_DEFAULT_DEGREE", "5")
    code, out, _ = run(["gf", "--r", "1"])
    assert code == 0
    assert len(out.splitlines()) == 6

    monkeypatch.setenv("MEX_DEFAULT_DEGREE", "0")
    assert run(["gf", "--r", "1"]) == (0, "0\t1\n", "")

    for raw in ("junk", "1_0", "\u0661\u0660", " 5", "5 ", "05", "+5", "-1", ""):
        monkeypatch.setenv("MEX_DEFAULT_DEGREE", raw)
        code, out, err = run(["gf", "--r", "1"])
        assert (code, out) == (2, ""), raw
        assert "MEX_DEFAULT_DEGREE" in err


def test_gf_negative_degree_message():
    assert run(["gf", "--r", "2", "--degree", "-1"]) == (
        2, "", "error: degree must be an integer >= 0, got -1\n"
    )


def test_gf_degree_ceiling(monkeypatch):
    over = str(cli.MAX_DEGREE + 1)
    code, out, err = run(["gf", "--r", "2", "--degree", over])
    assert (code, out) == (2, "")
    assert "--degree" in err and str(cli.MAX_DEGREE) in err

    monkeypatch.setenv("MEX_DEFAULT_DEGREE", over)
    code, out, err = run(["gf", "--r", "2"])
    assert (code, out) == (2, "")
    assert "MEX_DEFAULT_DEGREE" in err and str(cli.MAX_DEGREE) in err

    # the ceiling itself is accepted; a stub keeps the series small
    # (each run asks for the head of DEFAULT_DEGREE first, then the ceiling)
    asked = []
    monkeypatch.setattr(cli, "gf_pmex", lambda r, degree: asked.append(degree) or gf_pmex(r, 0))
    monkeypatch.setenv("MEX_DEFAULT_DEGREE", str(cli.MAX_DEGREE))
    assert run(["gf", "--r", "2"]) == (0, "0\t1\n", "")
    monkeypatch.delenv("MEX_DEFAULT_DEGREE")
    assert run(["gf", "--r", "2", "--degree", str(cli.MAX_DEGREE)]) == (0, "0\t1\n", "")
    assert asked == [DEFAULT_DEGREE, cli.MAX_DEGREE, DEFAULT_DEGREE, cli.MAX_DEGREE]


def test_gf_builtin_default_degree():
    code, out, _ = run(["gf", "--r", "1"])
    assert code == 0
    assert len(out.splitlines()) == 65


def test_table_matches_oracle():
    from mexpart import reproduce_table

    code, out, _ = run(["table", "--id", "4"])
    assert code == 0
    assert out == reproduce_table(4)


def test_verify_passes():
    code, out, _ = run(["verify", "--max-n", "5", "--max-r", "2"])
    assert code == 0
    assert "0 failures" in out


def test_verify_failure_exits_one(monkeypatch):
    from mexpart import cli

    fake = VerificationReport((Check("forced", "n=0", 1, 2),))
    monkeypatch.setattr(cli.oracle, "verify_counts", lambda max_n, max_r: fake)
    monkeypatch.setattr(cli.oracle, "verify_roundtrips", lambda max_n, max_r: fake)
    code, out, _ = run(["verify", "--max-n", "1", "--max-r", "1"])
    assert code == 1
    assert "FAIL forced" in out


def test_verify_reports_a_source_its_map_refuses(monkeypatch):
    # (2) is not in pmex at r = 2, so t5 refuses it: a failed check and
    # exit 1, not an error and exit 2.
    enumerate_family = oracle.enumerate_family

    def with_outsider(family, n):
        members = enumerate_family(family, n)
        return [*members, Partition([2])] if (family.kind, family.r, n) == ("pmex", 2, 2) else members

    monkeypatch.setattr(oracle, "enumerate_family", with_outsider)
    code, out, err = run(["verify", "--max-n", "4", "--max-r", "2"])
    assert (code, err) == (1, "")
    assert out == (
        "FAIL t5: inverse returns source [n=2 r=2]: expected 0, actual 1\n"
        "counts: 30 checks, 0 failures\n"
        "roundtrips: 80 checks, 1 failures\n"
    )


_USAGE_ERRORS = [
    ["count", "--family", "nope", "--n", "4"],
    ["count", "--family", "pmex", "--n", "4"],  # missing --r
    ["count", "--family", "p", "--n", "4", "--r", "1"],  # spurious --r
    ["count", "--family", "pe", "--n", "5", "--r", "2"],  # even r
    ["count", "--family", "po2", "--n", "5", "--r", "3"],  # odd r
    ["count", "--family", "p", "--n", "-1"],
    ["table", "--id", "7"],
    ["gf", "--r", "0", "--degree", "5"],
    ["map", "--bijection", "odd", "--r", "2"],
    ["map", "--bijection", "even", "--r", "3"],
    ["map", "--bijection", "t5", "--r", "0"],
    ["nonsense"],
    [],
    ["count", "--family", "p", "--n", "1_0"],
    ["count", "--family", "p", "--n", "\u0663"],
    ["count", "--family", "p", "--n", " 5"],
    ["count", "--family", "p", "--n", "05"],
]


@pytest.mark.parametrize(
    "argv,named",
    [
        *(pytest.param(argv, None, id=f"argv{i}") for i, argv in enumerate(_USAGE_ERRORS)),
        # Outside the grammar `mexpart COMMAND (--OPTION VALUE)...`: the first
        # line of stderr names the word at fault, the second is the usage line.
        pytest.param(["count", "--fam", "p", "--n", "3"], "'--fam'", id="abbreviation"),
        pytest.param(["count", "--family", "p", "--n=5"], "'--n=5'", id="option=value"),
        pytest.param(["count", "--family", "pmex", "--n", "3", "--r", "1", "--r", "1"], "--r ", id="repeated"),
        pytest.param(["count", "--family", "p", "--n"], "--n ", id="no-value"),
        pytest.param(["count", "--family", "p", "--n", "3", "--bogus", "1"], "'--bogus'", id="unknown-option"),
        pytest.param(["--family", "p", "count", "--n", "3"], "'--family'", id="option-before-command"),
    ],
)
def test_usage_errors_exit_two(argv, named):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    if named:
        first, usage = err.splitlines()
        assert named in first
        assert usage.startswith("usage: mexpart ")


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("kind", ["pmex", "obar", "pe", "po2"])
def test_a_family_that_takes_r_names_a_missing_r(command, kind):
    code, out, err = run([command, "--family", kind, "--n", "4"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: --r is required for --family {kind}", f"usage: {cli._usage(command)}"]


def _choices(command, option):
    return cli._COMMANDS[command][2][option][2]


def test_choices_come_from_the_registries():
    assert set(_choices("map", "--bijection")) == set(bijections.MAPS)
    assert tuple(_choices("count", "--family")) == FAMILY_KINDS
    assert tuple(_choices("enumerate", "--family")) == FAMILY_KINDS


def test_help_lists_every_command_and_option():
    # `--help` lists every command with every option and choice; `COMMAND
    # --help`, or -h at any option's place, lists that command's.
    code, out, err = run(["--help"])
    assert (code, err) == (0, "")
    assert run(["-h"]) == (0, out, "")
    for command, (_, text, options) in cli._COMMANDS.items():
        own = run([command, "--help"])
        assert own[0] == 0 and own[2] == ""
        assert run([command, "-h"]) == own
        for listing in (out, own[1]):
            assert f"mexpart {command} " in listing and text in listing
            for option, (_, _, choices) in options.items():
                assert f"{option} " in listing
                if choices is not cli._integer:
                    assert "{" + ",".join(map(str, choices)) + "}" in listing
    assert run(["count", "--family", "p", "--help"]) == run(["count", "--help"])


def _first_line_then_close(argv):
    """Run ``python -m mexpart ARGV``, read one line of its stdout and close
    the pipe, as ``| head -n 1`` does; (that line, exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "mexpart", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env()
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    return line, code, err


def test_closed_stdout_ends_quietly():
    # `mexpart enumerate --family pbar --n 27 | head -1`: the reader leaves
    # after one line of about 1 MB of output
    assert _first_line_then_close(["enumerate", "--family", "pbar", "--n", "27"]) == (b"27\n", 141, b"")


def test_closed_stdout_ends_quietly_while_streaming():
    # `mexpart enumerate --family obar --n 40 --r 1 | head -1`, about 740 kB
    assert _first_line_then_close(["enumerate", "--family", "obar", "--n", "40", "--r", "1"]) == (b"40\n", 141, b"")


def test_closed_stdout_ends_quietly_after_gf():
    # `mexpart gf --r 3 --degree 50000 | head -1`, about 8 MB written one
    # line per write call
    assert _first_line_then_close(["gf", "--r", "3", "--degree", str(cli.MAX_DEGREE)]) == (b"0\t1\n", 141, b"")


def _collector_state():
    return gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()


@pytest.mark.parametrize(
    "argv,stdin,code",
    [
        (["count", "--family", "p", "--n", "5"], None, 0),
        (["enumerate", "--family", "pmex", "--n", "7", "--r", "2"], None, 0),
        (["map", "--bijection", "t5", "--r", "2"], "8 7 3 2 1 1\n", 0),
        (["map", "--bijection", "t5", "--r", "2"], "7\n3 4\n", 2),  # line 2 is refused
        (["gf", "--r", "3", "--degree", "7"], None, 0),
        (["verify", "--max-n", "4", "--max-r", "2"], None, 0),
        (["table", "--id", "4"], None, 0),
        (["count", "--family", "p"], None, 2),  # usage error: no --n
    ],
    ids=["count", "enumerate", "map", "map-refused", "gf", "verify", "table", "usage-error"],
)
def test_run_leaves_the_collector_as_it_found_it(argv, stdin, code):
    # Only the command's process entry, main(), freezes the heap; a library
    # caller or a test that calls run() keeps its collector as it was.
    before = _collector_state()
    assert run(argv, stdin)[0] == code
    assert _collector_state() == before


def test_the_command_freezes_the_import_time_heap():
    # main() is the process entry: nothing is frozen when it is called and
    # the import-time heap is frozen when it returns, with the usual output.
    script = (
        "import gc, sys\n"
        "from mexpart.cli import main\n"
        "before = gc.get_freeze_count()\n"
        "sys.argv = ['mexpart', 'count', '--family', 'p', '--n', '1']\n"
        "code = main()\n"
        "print(before, gc.get_freeze_count(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"1\n")
    before, after = map(int, proc.stderr.split())
    assert before == 0 and after > 0


@pytest.mark.parametrize("degree", ["0", "3000"])
def test_gf_command_writes_what_run_returns(degree):
    argv = ["gf", "--r", "3", "--degree", degree]
    proc = subprocess.run([sys.executable, "-m", "mexpart", *argv], capture_output=True, env=_env(), timeout=60)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == run(argv)


@pytest.mark.parametrize(
    "family,r", [("obar", "1"), ("pbar", None), ("p", None), ("pmex", "1")]
)
def test_enumerate_prints_each_member_as_it_is_built(monkeypatch, family, r):
    built = []
    for owner in (Overpartition, Partition):
        def counting(cls, *args, trusted=owner._trusted.__func__):
            built.append(args)
            return trusted(cls, *args)

        monkeypatch.setattr(owner, "_trusted", classmethod(counting))

    class ClosedAfterOneLine(io.StringIO):
        def write(self, text):
            if "\n" in self.getvalue():
                raise BrokenPipeError
            return super().write(text)

    argv = ["enumerate", "--family", family, "--n", "40"] + (["--r", r] if r else [])
    out = ClosedAfterOneLine()
    with redirect_stdout(out), pytest.raises(BrokenPipeError):
        cli._execute(argv, None)
    assert out.getvalue() == "40\n"
    assert len(built) == 2  # of 37,338 members, or 1,263,272 for pbar


class FlushRecorder(io.StringIO):
    """A stdout that records how many characters had been written at each
    ``flush``."""

    def __init__(self):
        super().__init__()
        self.flushed_at = []

    def flush(self):
        self.flushed_at.append(self.tell())
        super().flush()


_OBAR_30 = run(["enumerate", "--family", "obar", "--n", "30", "--r", "1"])[1]  # 5,604 lines


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["enumerate", "--family", "pbar", "--n", "20"], None),  # 7,336 lines
        (["enumerate", "--family", "pbar", "--n", "20", "--format", "jsonl"], None),
        (["enumerate", "--family", "pmex", "--n", "7", "--r", "2"], None),  # 6 lines
        (["map", "--bijection", "t5inv", "--r", "1"], _OBAR_30),
        (["map", "--bijection", "t5inv", "--r", "1"], "".join(_OBAR_30.splitlines(True)[:100])),
        (["gf", "--r", "3", "--degree", "5000"], None),
        (["gf", "--r", "3", "--degree", "0"], None),
    ],
    ids=["enumerate", "enumerate-jsonl", "enumerate-short", "map", "map-short", "gf", "gf-one-line"],
)
def test_the_first_lines_are_flushed_after_lines_1_2_4(argv, stdin):
    # Flushed after lines 1, 2, 4, ..., cli._FLUSHED of the output and never
    # after that, and the bytes are what run() returns; gf flushes once more
    # after its head, the DEFAULT_DEGREE + 1 lines it writes before it
    # computes the rest.
    out = FlushRecorder()
    with redirect_stdout(out):
        assert cli._execute(argv, stdin) == 0
    text = out.getvalue()
    assert (0, text, "") == run(argv, stdin)
    lines = text.splitlines(keepends=True)
    due = [1 << k for k in range(cli._FLUSHED.bit_length()) if 1 << k <= min(len(lines), cli._FLUSHED)]
    if argv[0] == "gf" and len(lines) > DEFAULT_DEGREE + 1:
        due = sorted(due + [DEFAULT_DEGREE + 1])
    assert out.flushed_at == [len("".join(lines[:count])) for count in due]


@pytest.mark.parametrize("degree", [DEFAULT_DEGREE + 1, 5000])
def test_gf_flushes_its_head_before_it_computes_the_rest(monkeypatch, degree):
    # Lines 0..DEFAULT_DEGREE come from a series of that degree and are
    # written and flushed before gf_pmex is called at the full degree.
    argv = ["gf", "--r", "3", "--degree", str(degree)]
    head = run(["gf", "--r", "3", "--degree", str(DEFAULT_DEGREE)])[1]
    whole = run(argv)[1]
    out = FlushRecorder()
    seen = []

    def spied(r, degree):
        seen.append((degree, out.getvalue(), out.flushed_at[-1:]))
        return gf_pmex(r, degree)

    monkeypatch.setattr(cli, "gf_pmex", spied)
    with redirect_stdout(out):
        assert cli._execute(argv, None) == 0
    assert head.count("\n") == DEFAULT_DEGREE + 1
    assert seen == [(DEFAULT_DEGREE, "", []), (degree, head, [len(head)])]
    assert out.getvalue() == whole


def test_the_head_is_derived_from_the_pipe_buffer():
    assert cli._FLUSHED == cli._PIPE_BUFFER // 16 == 4096


def test_map_answers_its_first_line_before_its_input_ends():
    # A coprocess: `map` must write the image of line 1 while its stdin is
    # still open, and exit 0 once stdin closes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "mexpart", "map", "--bijection", "odd", "--r", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    try:
        proc.stdin.write(b"3 1\n")
        proc.stdin.flush()
        first, deadline = b"", time.monotonic() + 10
        while not first.endswith(b"\n"):
            ready, _, _ = select.select([proc.stdout], [], [], max(0, deadline - time.monotonic()))
            chunk = os.read(proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                break
            first += chunk
        assert first == b"~3 ~1\n"
        rest, err = proc.communicate(timeout=60)
        assert (proc.returncode, rest, err) == (0, b"", b"")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# Tokens that no object line holds.
STRAY_TOKENS = ["x", "~", "+1", "01", "3_", "_1", "~~2", "1.0", "-"]


def _domain_lines(map_id, r, n):
    domain, _ = bijections.map_families(map_id, r)
    return [obj.text() for obj in enumerate_family(domain, n)]


@st.composite
def rejected_stream(draw, map_id):
    """Valid domain lines of a map with one invalid line at a drawn place:
    out of order, from another family, or with a stray token."""
    r = draw(st.sampled_from([r for r in range(1, 7) if _accepts(map_id, r)]))
    lines = draw(
        st.lists(st.integers(0, 7).flatmap(lambda n: st.sampled_from(_domain_lines(map_id, r, n))), max_size=6)
    )
    way = draw(st.sampled_from(["order", "family", "token"]))
    if way == "order":
        pool = [line.split(" ") for n in range(2, 8) for line in _domain_lines(map_id, r, n)]
        tokens = draw(st.sampled_from([t for t in pool if t[0] != t[-1]]))
        bad = " ".join(reversed(tokens))
    elif way == "family":
        others = [
            obj
            for kind, kind_r in (("p", None), ("pbar", None), ("po2", 2), ("po2", 4))
            for n in range(1, 6)
            for obj in enumerate_family(Family(kind, kind_r), n)
        ]
        bad = draw(
            st.sampled_from(others).map(lambda obj: obj.text()).filter(
                lambda text: text not in _domain_lines(map_id, r, sum(_sizes(text)))
            )
        )
    else:
        tokens = draw(st.sampled_from(_domain_lines(map_id, r, draw(st.integers(1, 7))))).split(" ")
        at = draw(st.integers(0, len(tokens)))
        bad = " ".join(tokens[:at] + [draw(st.sampled_from(STRAY_TOKENS))] + tokens[at:])
    at = draw(st.integers(0, len(lines)))
    return r, lines[:at], bad, lines[at:]


def _accepts(map_id, r):
    try:
        bijections.map_families(map_id, r)
    except ValueError:
        return False
    return True


def _sizes(text):
    return [int(token.lstrip("~").split("_")[0]) for token in text.split(" ")]


@pytest.mark.parametrize("map_id", sorted(bijections.MAPS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rejected_line_stops_the_stream(map_id, data):
    r, before, bad, after = data.draw(rejected_stream(map_id))
    stdin = "".join(line + "\n" for line in before + [bad] + after)
    code, out, err = run(["map", "--bijection", map_id, "--r", str(r)], stdin)
    parse = cli._PARSERS[map_id]
    images = [bijections.MAPS[map_id](parse(line), r).text() for line in before]
    assert code == 2
    assert err.startswith(f"error: line {len(before) + 1}: ") and err.count("\n") == 1, err
    assert out == "".join(image + "\n" for image in images)


@pytest.mark.parametrize("mark", ["\f", "\r", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_run_splits_lines_as_the_command_does(mark):
    # str.splitlines() would break `3<mark>2` into two valid lines; stdin
    # breaks only at \n, so the command refuses line 2 after line 1's image.
    stdin = f"3 2\n3{mark}2\n1\n"
    argv = ["map", "--bijection", "t5", "--r", "1"]
    env = _env(PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mexpart", *argv], input=stdin.encode(), capture_output=True, env=env, timeout=60
    )
    command = (proc.returncode, proc.stdout.decode(), proc.stderr.decode())
    assert command == (2, "2 2 ~1\n", f"error: line 2: not a canonical Partition line: {f'3{mark}2'!r}\n")
    assert run(argv, stdin) == command


@pytest.mark.parametrize(
    "argv,ceiling,option",
    [
        (["count", "--family", "p"], cli.MAX_N, "--n"),
        (["enumerate", "--family", "pbar"], cli.MAX_N, "--n"),
        (["verify", "--max-r", "1"], cli.MAX_VERIFY_N, "--max-n"),
        (["verify", "--max-n", "1"], cli.MAX_VERIFY_R, "--max-r"),
    ],
)
def test_size_ceilings(monkeypatch, argv, ceiling, option):
    # Stubs stand in for the work, so no test enumerates at the ceiling.
    asked = []
    monkeypatch.setattr(cli, "_count", lambda family, n: asked.append(n) or 0)
    monkeypatch.setattr(cli, "_members", lambda family, n: asked.append(n) or ())
    report = VerificationReport(())
    monkeypatch.setattr(
        cli.oracle, "verify_counts",
        lambda max_n, max_r: asked.append(max_r if option == "--max-r" else max_n) or report,
    )
    monkeypatch.setattr(cli.oracle, "verify_roundtrips", lambda max_n, max_r: report)
    code, out, err = run([*argv, option, str(ceiling + 1)])
    assert (code, out, err) == (2, "", f"error: {option} must be at most {ceiling}, got {ceiling + 1}\n")
    assert asked == []
    code, _, err = run([*argv, option, str(ceiling)])
    assert (code, err) == (0, "")
    assert asked == [ceiling]


@pytest.mark.parametrize("bijection,r", [("t5inv", 1), ("oddinv", 1), ("eveninv", 2)])
def test_map_bounds_the_weight_of_an_object_from_obar(bijection, r):
    # These maps can build an image far larger than their input line: at
    # r = 1, t5inv sends ~k to k parts of size 1.
    argv = ["map", "--bijection", bijection, "--r", str(r)]
    limit = cli.MAX_DEGREE
    code, out, err = run(argv, f"~{limit}\n")
    assert (code, err) == (0, "")
    parse = cli._PARSERS[bijections.INVERSE[bijection]]
    assert parse(out).weight == limit
    refused = f"error: line 2: the weight of an input object must be at most {limit}, got {limit + 1}\n"
    assert run(argv, f"~{limit}\n~{limit + 1}\n") == (2, out, refused)
    env = _env()
    proc = subprocess.run(
        [sys.executable, "-m", "mexpart", *argv], input=f"~{limit + 1}\n".encode(), capture_output=True, env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", refused.replace("line 2", "line 1"))


@pytest.mark.parametrize("bijection,r,at_limit,over_limit", [
    ("t5", 1, "50000", "50001"),
    ("odd", 1, "50000", "50001"),
    ("even", 2, "49999_1 1_1", "50001_1"),
])
def test_map_bounds_the_weight_of_every_input(bijection, r, at_limit, over_limit):
    # The forward maps take the same ceiling as the maps from obar.
    argv = ["map", "--bijection", bijection, "--r", str(r)]
    limit = cli.MAX_DEGREE
    assert cli._PARSERS[bijection](at_limit).weight == limit
    assert cli._PARSERS[bijection](over_limit).weight == limit + 1
    code, out, err = run(argv, f"{at_limit}\n")
    assert (code, err) == (0, "")
    assert cli._PARSERS[bijections.INVERSE[bijection]](out).weight == limit
    refused = f"error: line 2: the weight of an input object must be at most {limit}, got {limit + 1}\n"
    assert run(argv, f"{at_limit}\n{over_limit}\n") == (2, out, refused)


def test_map_bounds_the_length_of_every_line():
    # The ceiling is the longest canonical line of weight MAX_DEGREE: that
    # line maps, and any line one character longer is refused, padded or not,
    # by run() for a string or a list as by the command.
    limit = cli.MAX_LINE
    longest = " ".join(["1_1"] * cli.MAX_DEGREE)
    assert len(longest) == limit
    code, out, err = run(["map", "--bijection", "even", "--r", "2"], longest + "\n")
    assert (code, err) == (0, "")
    assert cli._PARSERS["eveninv"](out).weight == cli.MAX_DEGREE
    argv = ["map", "--bijection", "odd", "--r", "1"]
    padded = "3 1".center(limit)
    for stdin in (f"1\n{padded}\n", f"1\n{padded}", ["1\n", padded + "\n"], ["1", padded]):
        assert run(argv, stdin) == (0, "~1\n~3 ~1\n", "")
    refused = f"error: line 2: an input line must be at most {limit} characters long\n"
    blank = " " * (limit + 1)
    for stdin in (f"1\n {padded}\n", f"1\n{padded} ", f"1\n{blank}\n3\n", ["1\n", padded + " \n"], ["1", blank]):
        assert run(argv, stdin) == (2, "~1\n", refused)


def test_map_refuses_a_long_line_before_it_holds_it():
    # A 4 MB line of 2,000,000 `1`s was read and parsed whole before its
    # weight was refused, at a 70-73 MB peak.  Now the command reads at most
    # MAX_LINE + 1 characters of it, and the refusal peaked at 15.1 MB, as a
    # one-line run did (VmHWM of each child, three runs each, x86-64,
    # CPython 3.11).  The bound is 4 MiB above the one-line run: less than
    # the line itself, held whole.
    script = (
        "import sys\n"
        "from mexpart.cli import main\n"
        "sys.argv = ['mexpart', 'map', '--bijection', 'odd', '--r', '1']\n"
        "code = main()\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )

    def command(stdin: str):
        proc = subprocess.run([sys.executable, "-c", script], input=stdin.encode(), capture_output=True, env=_env(),
                              timeout=60)
        *messages, peak_kib = proc.stderr.decode().splitlines()
        return proc.returncode, proc.stdout.decode(), messages, int(peak_kib)

    code, out, messages, quiet = command("1\n")
    assert (code, out, messages) == (0, "~1\n", [])
    code, out, messages, peak = command(" ".join(["1"] * 2_000_000) + "\n")
    assert (code, out) == (2, "")
    assert messages == [f"error: line 1: an input line must be at most {cli.MAX_LINE} characters long"]
    assert peak - quiet < 4096, (quiet, peak)


def test_count_and_verify_counts_build_no_member(monkeypatch):
    # They count by the families' block rule, so no generator of members
    # and no member constructor may run.
    specs = [("p", None), ("pbar", None), ("pmex", 2), ("obar", 2), ("pe", 3), ("po2", 2)]
    expected = {kind: len(enumerate_family(Family(kind, r), 12)) for kind, r in specs}

    def refuse(*args, **kwargs):
        raise AssertionError("a member was built")

    for module, name in [(cli, "_members"), (families, "_members"), (families, "enumerate_family"),
                         (families, "count_family"), (oracle, "enumerate_family")]:
        monkeypatch.setattr(module, name, refuse)
    for cls in (Partition, Overpartition, ColoredPartition):
        monkeypatch.setattr(cls, "__init__", refuse)
        monkeypatch.setattr(cls, "_trusted", refuse)
    for kind, r in specs:
        argv = ["count", "--family", kind, "--n", "12"] + ([] if r is None else ["--r", str(r)])
        assert run(argv) == (0, f"{expected[kind]}\n", ""), kind
    assert oracle.verify_counts(16, 6).overall


def test_size_ceilings_exceed_every_size_in_use():
    # perfbench enumerates at n = 37 and the tests at n = 40; the acceptance
    # oracle runs verify_counts(30, 8).
    assert cli.MAX_N > 40
    assert cli.MAX_VERIFY_N > 30
    assert cli.MAX_VERIFY_R >= 8
