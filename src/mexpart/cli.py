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
that head the lines go out in 64 KiB blocks.  The ``--bijection`` choices,
each map's input parser and its r rule all come from the registry in
:mod:`mexpart.bijections`; the ``--family`` choices from
:data:`mexpart.families.FAMILY_KINDS`.

The ``mexpart`` command (:func:`main`) first freezes the heap its imports
built, so that the collections at interpreter shutdown skip it.  From the
moment the imports are done to exit, a process of ``count --family p --n 1``
took 20.9 ms without the freeze and 8.5 ms with it, and one of ``gf --r 3
--degree 3000`` 59 ms and 45 ms (medians of 41 processes each, one CPU of a
shared 2-CPU x86-64 host, CPython 3.11).  :func:`run` does not touch the
collector.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from itertools import chain, islice
from typing import Iterable, Iterator

from . import oracle
from .bijections import DOMAIN, map_families
from .bijections import MAPS as _MAPS
from .families import FAMILY_KINDS, MEMBER_TYPES, Family
from .families import _count, _members
from .qseries import DEFAULT_DEGREE, gf_pmex

__all__ = ["main", "run"]

DEGREE_ENV_VAR = "MEX_DEFAULT_DEGREE"
# The largest degree `gf` computes, whether it comes from `--degree` or from
# MEX_DEFAULT_DEGREE; above it `gf` exits 2.  At the ceiling the command
# writes about 8 MB and peaks at 22 MB resident.  It takes 1.6-2.1 s for
# r = 2 and 8 and 2.5-3.2 s for r = 3.  Each factor (1 - q^e) it applies
# costs one pass over the coefficients from q^e up, and gf_pmex applies the
# finite factors below r or the tail factors above r, whichever update
# fewer coefficients.  At the ceiling that is 30 s for r = 10000, 41 s near
# r = 14645 (0.29 * degree, the slowest), 24 s for r = 25000, 12 s for
# r = 33333 and 2.7 s for r = 50000, which took 83 s with the finite
# factors alone (2-CPU shared x86-64 host, CPython 3.11).
# It is also the largest weight of an object `map` takes from obar, the one
# domain whose maps can build an image far larger than their input: at
# r = 1, t5inv sends the 9-byte line `~1048576` to 1,048,576 parts (2 MB of
# output, about a 100 MB peak).  At the limit a map writes at most about
# 130 kB and peaks at about 21 MB.
MAX_DEGREE = 50_000
# The largest --n of `count` and `enumerate`, and the largest --max-n and
# --max-r of `verify`; above them the command exits 2.  A family grows about
# 1.25-fold per unit of n, `pbar` the fastest.  At the ceilings (2-CPU shared
# x86-64 host, CPython 3.11): `enumerate --family pbar --n 42` 7.2 s at a
# 16 MB peak, `count --family pbar --n 42` 0.08-0.09 s at 16 MB, nearly all
# of it interpreter start (`count` reads one coefficient of the family's
# series and builds no member; the `pmex` series to degree 42 takes
# 0.5-0.8 ms in process, at any r), and `verify --max-n 32 --max-r 16`
# 8.8-10.4 s at 20 MB, against 6.5-6.6 s for `--max-r 8`, the acceptance
# size, nearly all of it the round trips.  Unbounded, `verify --max-n 2
# --max-r 20000` ran for 25 s at 150 MB.
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
    prints ``int(text)``, so ASCII digits with no leading zero or ``+``.
    Negative values pass here so that the range checks can name them."""
    try:
        value = int(text)
        if str(value) == text:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an integer in ASCII digits without a leading zero, got {text!r}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mexpart",
        description="Exact counting, enumeration, and bijections for partition mex runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("count", help="print the size of a family at one weight")
    cmd.add_argument("--family", required=True, choices=FAMILY_KINDS)
    cmd.add_argument("--n", required=True, type=_integer)
    cmd.add_argument("--r", type=_integer)

    cmd = sub.add_parser("enumerate", help="print every member of a family, one per line")
    cmd.add_argument("--family", required=True, choices=FAMILY_KINDS)
    cmd.add_argument("--n", required=True, type=_integer)
    cmd.add_argument("--r", type=_integer)
    cmd.add_argument("--format", choices=("text", "jsonl"), default="text")

    cmd = sub.add_parser("map", help="apply a bijection to objects read from stdin")
    cmd.add_argument("--bijection", required=True, choices=sorted(_MAPS))
    cmd.add_argument("--r", required=True, type=_integer)
    cmd.add_argument("--format", choices=("text", "jsonl"), default="text")

    cmd = sub.add_parser("gf", help="print generating-function coefficients 0..degree")
    cmd.add_argument("--r", required=True, type=_integer)
    cmd.add_argument("--degree", type=_integer)

    cmd = sub.add_parser("verify", help="run the count and round-trip oracles")
    cmd.add_argument("--max-n", required=True, type=_integer)
    cmd.add_argument("--max-r", required=True, type=_integer)

    cmd = sub.add_parser("table", help="recompute one of the six reference tables")
    cmd.add_argument("--id", required=True, type=_integer, choices=oracle.TABLE_IDS)

    return parser


# The keys of a member type's JSONL record: its dataclass fields, in order.
_FIELDS = {cls: tuple(field.name for field in fields(cls)) for cls in MEMBER_TYPES.values()}


def _record(obj) -> str:
    # Tuples encode as JSON arrays, so each field is written as it is held.
    return json.dumps({name: getattr(obj, name) for name in _FIELDS[type(obj)]}, separators=(",", ":"))


def _emitter(fmt: str):
    """``emit(obj)``: write one object's line to the current stdout."""
    write = sys.stdout.write
    if fmt == "jsonl":
        return lambda obj: write(_record(obj) + "\n")
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
    """The lines of ``stdin``, each with its newline if it has one.  A string
    splits only at line feeds, as ``sys.stdin`` does, so ``run`` and the
    ``mexpart`` command see the same lines."""
    if stdin is None:
        return ()
    if isinstance(stdin, str):
        return io.StringIO(stdin)
    return stdin


def _default_degree() -> int:
    raw = os.environ.get(DEGREE_ENV_VAR)
    if raw is None:
        return DEFAULT_DEGREE
    try:
        degree = _integer(raw)
    except argparse.ArgumentTypeError:
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


def _cmd_count(args, stdin) -> int:
    n = _at_most(args.n, MAX_N, "--n")
    print(_count(Family(args.family, args.r), n))
    return 0


def _cmd_enumerate(args, stdin) -> int:
    n = _at_most(args.n, MAX_N, "--n")
    # lazily, so the first member is printed before the last is built
    emit = _emitter(args.format)
    for obj in _flushing(_members(Family(args.family, args.r), n)):
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
    # Only the maps from obar can build an image larger than their input.
    bounded = DOMAIN[args.bijection] == "obar"
    for lineno, line in enumerate(_flushing(_iter_lines(stdin)), start=1):
        if not line or line.isspace():  # a blank line; the parser strips the rest
            continue
        try:
            obj = parse(line)
            if bounded:
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
    for n, value in enumerate(_flushing(gf_pmex(args.r, degree).coeffs)):
        write(f"{n}\t{value}\n")
    return 0


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


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "map": _cmd_map,
    "gf": _cmd_gf,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def _execute(argv, stdin) -> int:
    """Run one invocation, writing to the current ``sys.stdout`` and
    ``sys.stderr`` as output is produced; returns the exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
        return _COMMANDS[args.command](args, stdin)
    except SystemExit as exc:  # argparse reports its own usage errors
        return exc.code if isinstance(exc.code, int) else 2
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
    # Move the import-time heap (about 13.8k tracked objects, which live
    # until exit anyway) into the collector's permanent generation, so that
    # the collections at interpreter shutdown skip it: after importing this
    # module, sys.exit(0) took 12-15 ms, or 3.5-3.9 ms with this freeze
    # first (medians, one CPU of a shared 2-CPU x86-64 host, CPython 3.11).
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
