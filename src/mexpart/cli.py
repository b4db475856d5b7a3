"""Command-line front end.

Subcommands: ``count``, ``enumerate``, ``map``, ``gf``, ``verify``,
``table``.  Objects stream one per line in their canonical text (partition
``8 7 3 2 1 1``, overpartition ``~6 ~4 3``, colored partition ``5_2 1_1``,
empty object ``-``), so maps compose via shell pipes.  Input is accepted
iff it is exactly how mexpart prints that value: an object line as its
``text()``, an integer option as ``str(int)``.  Exit codes: 0 on success,
1 on verification failure, 2 on usage or parse errors.

Output is written as it is produced.  ``enumerate``, ``map`` and ``gf``
flush stdout after their lines 1, 2, 4, ..., 4096 (``_flushing``), so that
the next stage of a pipe, or a coprocess, sees the first line at once; past
that head the lines go out in 64 KiB blocks.  ``gf`` flushes its lines
0..64, from the series of degree 64, before it computes the full series.
The ``--bijection`` choices, each map's input parser and its r rule all
come from the registry in :mod:`mexpart.bijections`; the ``--family``
choices from :data:`mexpart.families.FAMILY_KINDS`.

Argv is read from one table, ``_COMMANDS``, which also gives ``--help``.
The grammar is exactly ``mexpart COMMAND (--OPTION VALUE)...``: each option
by its full name, at most once, its value the next word; any other argv
exits 2 with a message that names the word at fault and the usage line.

The ``mexpart`` command (:func:`main`) first freezes the heap its imports
built, so that the collections at interpreter shutdown skip it.  From the
moment the imports are done to exit, a process of ``count --family p --n 1``
took 12.0 ms without the freeze and 4.0 ms with it, and one of ``gf --r 3
--degree 3000`` 44.8 ms and 37.1 ms; importing this module took 26.9 ms
(medians of 41 processes each, alternating, one CPU of a shared 2-CPU
x86-64 host, CPython 3.11, no ``__pycache__``).  :func:`run`
does not touch the collector.
"""

from __future__ import annotations

import gc
import io
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import chain, islice
from types import SimpleNamespace

from . import oracle
from .bijections import DOMAIN, map_families
from .bijections import MAPS as _MAPS
from .families import FAMILY_KINDS, MEMBER_TYPES, Family
from .families import _count, _members
from .partitions import _printed_integer
from .qseries import DEFAULT_DEGREE, gf_pmex

__all__ = ["main", "run"]

DEGREE_ENV_VAR = "MEX_DEFAULT_DEGREE"
# The largest degree `gf` computes, whether it comes from `--degree` or from
# MEX_DEFAULT_DEGREE; above it `gf` exits 2.  At the ceiling the command
# writes about 8 MB, peaks at 20-30 MB resident (VmHWM; Euler's sum takes
# the most) and took 0.5-1.6 s for every r measured (2, 3, 8, 173, 201, 221,
# 235, 1000, 5858, 14645, 25000 and 50000, fastest of three runs each).
# gf_pmex takes the finite factors below r or Euler's sum, whichever costs
# less, each step weighed by its measured cost; the costliest r by that
# weight, where the two routes cost within 0.2% of each other, is 221:
# gf_pmex(221, 50000) took 1.28-1.33 s, and the command 1.39-1.76 s (three
# runs each; one CPU of a 2-CPU shared x86-64 host, CPython 3.11).
# It is also the largest weight of an object `map` takes, whatever the map.
# The maps from obar can build an image far larger than their input: at
# r = 1, t5inv sends the 9-byte line `~1048576` to 1,048,576 parts (2 MB of
# output, about a 100 MB peak).  At the limit a map writes at most about
# 130 kB and peaks at about 21 MB.  The check costs about 0.2 us a line.
MAX_DEGREE = 50_000
# The most characters of a `map` input line before its newline: the longest
# canonical line of weight MAX_DEGREE, MAX_DEGREE copies of `1_1`.  A longer
# line is refused before it is held whole.
MAX_LINE = 4 * MAX_DEGREE - 1
# The largest --n of `count` and `enumerate`, and the largest --max-n and
# --max-r of `verify`; above them the command exits 2.  A family grows about
# 1.25-fold per unit of n, `pbar` the fastest.  At the ceilings (2-CPU shared
# x86-64 host, CPython 3.11): `enumerate --family pbar --n 42` 7.2 s at a
# 16 MB peak, `count --family pbar --n 42` 0.08-0.09 s at 16 MB, nearly all
# of it interpreter start (`count` reads one coefficient of the family's
# series and builds no member; the `pmex` series to degree 42 takes
# 0.09-0.29 ms in process, growing with r up to r = 42), and `verify
# --max-n 32 --max-r 16` 3.4-3.9 s at 20 MB, against 2.6-3.2 s for
# `--max-r 8`, the acceptance size, nearly all of it the round trips
# (minimum and median of 5 runs, each pinned to one CPU, peak resident
# memory from ru_maxrss).
# Unbounded, `verify --max-n 2 --max-r 20000` ran for 25 s at 150 MB.
MAX_N = 42
MAX_VERIFY_N = 32
MAX_VERIFY_R = 16
# Output to a pipe or file goes out in 64 KiB blocks once the first
# _FLUSHED lines are out.  With Python's default buffer, the stages of
# `enumerate | map | map` sharing one CPU wake each other so often that the
# chain took 18% longer than with 64 KiB (perfbench `pipeline` workload,
# 2-CPU host: median wall_s 3.31 s against 2.80 s over ten alternating
# pairs, 64 KiB faster in every pair), so past the head every line still
# waits for its block.
_PIPE_BUFFER = 1 << 16
# The head of every streamed output: stdout is flushed after its lines 1, 2,
# 4, ..., _FLUSHED, so the next stage of a pipe starts on the first line and
# not on the first full block.  The next doubled flush would come 4096 lines
# after the last, and by then a 64 KiB block of lines of 16 bytes or more has
# filled and gone out on its own, so the head ends at _PIPE_BUFFER // 16
# lines, after 13 flushes.
_FLUSHED = _PIPE_BUFFER // 16


# domain parser per map id
_PARSERS = {map_id: MEMBER_TYPES[kind].from_text for map_id, kind in DOMAIN.items()}


def _integer(text: str) -> int:
    """The type of every integer option: ``text`` iff it is how Python
    prints ``int(text)`` (``partitions._printed_integer``).  Negative values
    pass here so that the range checks can name them."""
    value = _printed_integer(text)
    if value is None:
        raise ValueError(f"must be an integer in ASCII digits without a leading zero, got {text!r}")
    return value


def _emitter(fmt: str):
    """``emit(obj)``: write one object's line to the current stdout."""
    write = sys.stdout.write
    if fmt == "jsonl":
        import json  # here, so that no command writing text loads it

        # The keys are the member type's fields, its __slots__, in order.
        # Tuples encode as JSON arrays, so each field is written as it is held.
        encode = json.JSONEncoder(separators=(",", ":")).encode
        return lambda obj: write(encode({name: getattr(obj, name) for name in type(obj).__slots__}) + "\n")
    return lambda obj: write(obj.text() + "\n")


def _flushing(items: Iterable) -> Iterator:
    """``items``, flushing stdout before taking the one after the 1st, 2nd,
    4th, ..., _FLUSHED-th of them, that is once the consumer has written
    their lines; after the head, the raw iterator, so each later item costs
    what it costs without this."""
    items = iter(items)
    flush = sys.stdout.flush

    def head():
        due = 1
        for count, item in enumerate(islice(items, _FLUSHED), start=1):
            yield item
            if count == due:
                flush()
                due <<= 1

    return chain(head(), items)


def _iter_lines(stdin) -> Iterable[str]:
    """The lines of ``stdin``, each with its newline if it has one, and cut
    after MAX_LINE + 1 characters.  A string splits only at line feeds, as
    ``sys.stdin`` does, so ``run`` and the ``mexpart`` command see the same
    lines."""
    if stdin is None:
        return ()
    if isinstance(stdin, str):
        stdin = io.StringIO(stdin)
    readline = getattr(stdin, "readline", None)
    if readline is None:
        return stdin
    return iter(partial(readline, MAX_LINE + 1), "")


def _default_degree() -> int:
    raw = os.environ.get(DEGREE_ENV_VAR)
    if raw is None:
        return DEFAULT_DEGREE
    try:
        degree = _integer(raw)
    except ValueError:
        degree = -1
    if degree < 0:
        raise ValueError(
            f"{DEGREE_ENV_VAR} must be a nonnegative integer in ASCII digits"
            f" without a leading zero, got {raw!r}"
        )
    return degree


def _at_most(value: int, ceiling: int, option: str) -> int:
    if value > ceiling:
        raise ValueError(f"{option} must be at most {ceiling}, got {value}")
    return value


def _family(command: str, args) -> Family:
    """The family of ``--family`` and ``--r``; a kind that takes r refuses a
    missing ``--r`` as a missing required option."""
    try:
        return Family(args.family, args.r)
    except ValueError:
        if args.r is None:
            raise _refused(command, f"--r is required for --family {args.family}") from None
        raise


def _cmd_count(args, stdin) -> int:
    n = _at_most(args.n, MAX_N, "--n")
    print(_count(_family("count", args), n))
    return 0


def _cmd_enumerate(args, stdin) -> int:
    n = _at_most(args.n, MAX_N, "--n")
    # lazily, so the first member is printed before the last is built
    emit = _emitter(args.format)
    for obj in _flushing(_members(_family("enumerate", args), n)):
        emit(obj)
    return 0


def _cmd_map(args, stdin) -> int:
    try:
        map_families(args.bijection, args.r)
    except ValueError as exc:
        raise ValueError(f"--bijection {args.bijection} --r {args.r}: {exc}") from exc
    apply_map = _MAPS[args.bijection]
    parse = _PARSERS[args.bijection]
    emit = _emitter(args.format)
    r = args.r
    for lineno, line in enumerate(_flushing(_iter_lines(stdin)), start=1):
        if len(line) > MAX_LINE and line[MAX_LINE:] != "\n":
            raise ValueError(f"line {lineno}: an input line must be at most {MAX_LINE} characters long")
        if not line or line.isspace():  # a blank line; the parser strips the rest
            continue
        try:
            obj = parse(line)
            _at_most(obj.weight, MAX_DEGREE, "the weight of an input object")
            image = apply_map(obj, r)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        emit(image)
    return 0


def _cmd_gf(args, stdin) -> int:
    degree = args.degree if args.degree is not None else _default_degree()
    _at_most(degree, MAX_DEGREE, DEGREE_ENV_VAR if args.degree is None else "--degree")
    write = sys.stdout.write
    for n, value in enumerate(_flushing(_gf_coefficients(args.r, degree))):
        write(f"{n}\t{value}\n")
    return 0


def _gf_coefficients(r: int, degree: int) -> Iterator[int]:
    """Coefficients 0..degree of ``gf_pmex(r, degree)``; those up to
    DEFAULT_DEGREE come from the series of that degree, then stdout is flushed."""
    head = min(degree, DEFAULT_DEGREE)
    yield from gf_pmex(r, head).coeffs
    if degree > head:
        sys.stdout.flush()
        yield from islice(gf_pmex(r, degree).coeffs, head + 1, None)


def _cmd_verify(args, stdin) -> int:
    _at_most(args.max_n, MAX_VERIFY_N, "--max-n")
    _at_most(args.max_r, MAX_VERIFY_R, "--max-r")
    counts = oracle.verify_counts(args.max_n, args.max_r)
    trips = oracle.verify_roundtrips(args.max_n, args.max_r)
    for report in (counts, trips):
        for check in report.failures():
            print(check.describe())
    print(f"counts: {len(counts.checks)} checks, {len(counts.failures())} failures")
    print(f"roundtrips: {len(trips.checks)} checks, {len(trips.failures())} failures")
    return 0 if counts.overall and trips.overall else 1


def _cmd_table(args, stdin) -> int:
    print(oracle.reproduce_table(args.id), end="")
    return 0


_FORMATS = ("text", "jsonl")
_HELP = ("-h", "--help")

# The whole argv grammar, `mexpart COMMAND (--OPTION VALUE)...`: each command
# maps to its handler, its help line and its options, each option by its
# full name to (required, default, choices), where choices is _integer or
# the tuple of the values the option accepts.
_COMMANDS = {
    "count": (_cmd_count, "print the size of a family at one weight", {
        "--family": (True, None, FAMILY_KINDS),
        "--n": (True, None, _integer),
        "--r": (False, None, _integer),
    }),
    "enumerate": (_cmd_enumerate, "print every member of a family, one per line", {
        "--family": (True, None, FAMILY_KINDS),
        "--n": (True, None, _integer),
        "--r": (False, None, _integer),
        "--format": (False, "text", _FORMATS),
    }),
    "map": (_cmd_map, "apply a bijection to objects read from stdin", {
        "--bijection": (True, None, tuple(sorted(_MAPS))),
        "--r": (True, None, _integer),
        "--format": (False, "text", _FORMATS),
    }),
    "gf": (_cmd_gf, "print generating-function coefficients 0..degree", {
        "--r": (True, None, _integer),
        "--degree": (False, None, _integer),
    }),
    "verify": (_cmd_verify, "run the count and round-trip oracles", {
        "--max-n": (True, None, _integer),
        "--max-r": (True, None, _integer),
    }),
    "table": (_cmd_table, "recompute one of the six reference tables", {
        "--id": (True, None, oracle.TABLE_IDS),
    }),
}


def _usage(command) -> str:
    """The usage line of ``command``, or of every command when it is None."""
    if command is None:
        return f"mexpart {{{','.join(_COMMANDS)}}} [--OPTION VALUE]..."
    words = ["mexpart", command]
    for option, (required, _, choices) in _COMMANDS[command][2].items():
        if choices is _integer:
            value = option[2:].upper().replace("-", "_")
        else:
            value = "{" + ",".join(map(str, choices)) + "}"
        words.append(f"{option} {value}" if required else f"[{option} {value}]")
    return " ".join(words)


def _help(command) -> str:
    """The text of ``mexpart --help``, or of ``mexpart COMMAND --help``."""
    if command is not None:
        return f"usage: {_usage(command)}\n\n{_COMMANDS[command][1]}"
    lines = [f"usage: {_usage(None)}", "", "Exact counting, enumeration, and bijections for partition mex runs.", ""]
    for name, (_, text, _) in _COMMANDS.items():
        lines += [f"  {_usage(name)}", f"      {text}"]
    lines += ["", "Each option is written by its full name, at most once, and its value is the next word."]
    return "\n".join(lines)


def _refused(command, message: str) -> ValueError:
    return ValueError(f"{message}\nusage: {_usage(command)}")


def _parse(argv) -> tuple:
    """(command, its option values by attribute name) for ``argv``, the
    values None when ``argv`` asks for help.  Any other argv raises a
    ValueError that names the word at fault and gives the usage line."""
    words = iter(argv)
    command = next(words, None)
    if command in _HELP:
        return None, None
    if command not in _COMMANDS:
        raise _refused(None, "no command given" if command is None else f"unknown command {command!r}")
    options = _COMMANDS[command][2]
    given = {}
    for word in words:
        if word in _HELP:
            return command, None
        if word not in options:
            raise _refused(command, f"unknown option {word!r}")
        if word in given:
            raise _refused(command, f"{word} given twice")
        value = next(words, None)
        if value is None:
            raise _refused(command, f"{word} needs a value")
        choices = options[word][2]
        if choices is _integer:
            try:
                given[word] = _integer(value)
            except ValueError as exc:
                raise _refused(command, f"{word}: {exc}") from None
        else:
            by_text = {str(choice): choice for choice in choices}
            if value not in by_text:
                raise _refused(command, f"{word}: invalid choice {value!r} (choose from {', '.join(by_text)})")
            given[word] = by_text[value]
    values = {}
    for option, (required, default, _) in options.items():
        if required and option not in given:
            raise _refused(command, f"{option} is required")
        values[option[2:].replace("-", "_")] = given.get(option, default)
    return command, values


def _execute(argv, stdin) -> int:
    """Run one invocation, writing to the current ``sys.stdout`` and
    ``sys.stderr`` as output is produced; returns the exit code."""
    try:
        command, values = _parse(argv)
        if values is None:
            print(_help(command))
            return 0
        return _COMMANDS[command][0](SimpleNamespace(**values), stdin)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv, stdin=None) -> tuple[int, str, str]:
    """Execute one invocation and return (exit code, stdout text, stderr text).

    ``stdin`` may be None, a string, or an iterable of lines; only ``map``
    reads it.
    """
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = _execute(argv, stdin)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    """The ``mexpart`` command: streams to stdout and returns the exit code,
    141 (as for SIGPIPE) when the reader of stdout leaves early."""
    # Move the import-time heap (about 12.0k tracked objects, which live
    # until exit anyway) into the collector's permanent generation, so that
    # the collections at interpreter shutdown skip it: after importing this
    # module, sys.exit(0) took 9.9-13.8 ms, or 2.8-4.0 ms with this freeze
    # first (quartiles of 41 processes, one CPU of a shared 2-CPU x86-64
    # host, CPython 3.11, no __pycache__).  The first _parse then takes
    # 0.02-0.03 ms.
    # What the run allocates stays collectable.  Only the process entry
    # freezes; run() and importing mexpart leave the collector alone.
    gc.freeze()
    out = sys.stdout
    if not out.isatty():
        out = open(out.fileno(), "w", buffering=_PIPE_BUFFER, encoding=out.encoding, closefd=False)
    try:
        with redirect_stdout(out):
            code = _execute(sys.argv[1:], sys.stdin)
        out.flush()
    except BrokenPipeError:
        # Point stdout at /dev/null so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
