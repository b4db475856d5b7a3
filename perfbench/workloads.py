"""Workload inputs and the independent checks on their outputs.

Every size lives here, so the process rounds in ``run.py`` and the
in-process traced rounds in ``child.py`` run the same jobs.  A round is
checked as a list of operations; each operation's check returns a list of
error strings, empty when the output is correct.  The checks use only
``reference`` (computed apart from the program) and properties every
correct output must have; none compares with a stored copy of an output.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple

import reference as ref

# verify_counts(24, 8), not the acceptance size (30, 8): one (30, 8) call
# took 8-14 s on a shared 2-CPU machine, so a run held one or two rounds,
# too few for a steady median (five runs spread by 10-14%).
COUNTS_SIZE = (24, 8)  # verify_counts(max_n, max_r)
ROUNDTRIPS_SIZE = (22, 5)  # verify_roundtrips(max_n, max_r)


class Chain(NamedTuple):
    """``enumerate | map forward``, then ``map inverse`` on the middle output."""

    label: str
    family: str
    r: int
    n: int
    forward: str
    inverse: str


# 6.4k to 6.8k lines per chain: a round takes about 4 s, so a 25 s run
# holds five or six; with 9k lines per chain it held three or four and ten
# runs spread by 15%.
CHAINS = (
    Chain("t5", "pmex", 2, 34, "t5", "t5inv"),
    Chain("odd", "pe", 3, 37, "odd", "oddinv"),
    Chain("even", "po2", 2, 34, "even", "eveninv"),
)
JSONL = ("obar", 1, 28)  # enumerate --format jsonl: family, r, n
SERIES = ((2, 3000), (3, 3000))  # gf: (r, degree), one even and one odd r

SHUFFLE_BLOCK = 512


def counts_expected(max_n: int, max_r: int) -> int:
    """Checks in verify_counts: pmex vs series, obar, and pe or po2."""
    return (max_n + 1) * max_r * 3


def roundtrips_expected(max_n: int, max_r: int) -> int:
    """Checks in verify_roundtrips: two maps, two checks each, both directions."""
    return (max_n + 1) * max_r * 8


def enumerate_argv(family: str, r: int, n: int, fmt: str = "text") -> list[str]:
    return ["enumerate", "--family", family, "--n", str(n), "--r", str(r), "--format", fmt]


def map_argv(bijection: str, r: int) -> list[str]:
    return ["map", "--bijection", bijection, "--r", str(r)]


def gf_argv(r: int, degree: int) -> list[str]:
    return ["gf", "--r", str(r), "--degree", str(degree)]


def shuffle_block(block: list, seed: int, label: str, index: int) -> list:
    """Block ``index`` of a stream, reordered by the seed.

    Lines are shuffled within blocks of SHUFFLE_BLOCK so that a relay can
    forward each block as soon as it is full.
    """
    order = list(range(len(block)))
    random.Random(f"{seed}/{label}/{index}").shuffle(order)
    return [block[i] for i in order]


def block_shuffle(lines: list, seed: int, label: str) -> list:
    out: list = []
    for index, start in enumerate(range(0, len(lines), SHUFFLE_BLOCK)):
        out.extend(shuffle_block(lines[start:start + SHUFFLE_BLOCK], seed, label, index))
    return out


def run_stages(run, workload: str, seed: int) -> dict:
    """Outputs of one round of a CLI workload, each stage a call of ``run``
    (``mexpart.cli.run`` or a stand-in with its signature)."""
    if workload == "series":
        return {"gf": [_stage(run, gf_argv(r, degree)) for r, degree in SERIES]}
    chains = {}
    for chain in CHAINS:
        enum = _stage(run, enumerate_argv(chain.family, chain.r, chain.n))
        fed = block_shuffle(enum["text"].splitlines(), seed, f"{chain.label}/fwd")
        mid = _stage(run, map_argv(chain.forward, chain.r), fed)
        fed = block_shuffle(mid["text"].splitlines(), seed, f"{chain.label}/inv")
        inv = _stage(run, map_argv(chain.inverse, chain.r), fed)
        chains[chain.label] = {"codes": [enum["code"], mid["code"], inv["code"]],
                               "enum": enum["text"], "mid": mid["text"], "inv": inv["text"]}
    return {"chains": chains, "jsonl": _stage(run, enumerate_argv(*JSONL, fmt="jsonl"))}


def _stage(run, argv, stdin=None) -> dict:
    code, out, _ = run(argv, stdin)
    return {"code": code, "text": out}


# -- checks -------------------------------------------------------------------


def check_round(workload: str, outputs: dict, seed: int) -> list[list[str]]:
    """Errors per operation of one round; an empty list is a passed operation."""
    if workload == "counts":
        return [check_counts(outputs["checks"], *COUNTS_SIZE)]
    if workload == "roundtrips":
        return [check_roundtrips(outputs["checks"], outputs["sizes"], *ROUNDTRIPS_SIZE)]
    if workload == "series":
        return [check_series(r, degree, gf) for (r, degree), gf in zip(SERIES, outputs["gf"])]
    ops = [check_chain(chain, seed, outputs["chains"][chain.label]) for chain in CHAINS]
    ops.append(check_jsonl(*JSONL, outputs["jsonl"]))
    return ops


def _failed_checks(checks: list, want: int) -> list[str]:
    errors = []
    if len(checks) != want:
        errors.append(f"{len(checks)} checks in the report, expected {want}")
    failed = [c for c in checks if c[2] != c[3]]
    if failed:
        errors.append(f"{len(failed)} failed checks, first {failed[0]}")
    return errors


def check_counts(checks: list, max_n: int, max_r: int) -> list[str]:
    """``checks`` holds [name, params, expected, actual] per Check."""
    errors = _failed_checks(checks, counts_expected(max_n, max_r))
    series = {params: expected for name, params, expected, _ in checks if "series" in name}
    for r in range(1, max_r + 1):
        coeffs = ref.identity_coefficients(r, max_n)
        for n in range(max_n + 1):
            got = series.get(f"n={n} r={r}")
            if got != coeffs[n]:
                errors.append(f"series coefficient n={n} r={r}: report {got}, reference {coeffs[n]}")
    return errors


def domain_kinds(r: int) -> tuple[str, ...]:
    return ("pmex", "obar", "pe" if r % 2 else "po2")


def check_roundtrips(checks: list, sizes: dict, max_n: int, max_r: int) -> list[str]:
    """``sizes`` maps "kind r n" to len(enumerate_family(...)): an empty
    domain would pass every round trip, so its size is checked too."""
    errors = _failed_checks(checks, roundtrips_expected(max_n, max_r))
    for r in range(1, max_r + 1):
        coeffs = ref.identity_coefficients(r, max_n)
        for n in range(max_n + 1):
            for kind in domain_kinds(r):
                got = sizes.get(f"{kind} {r} {n}")
                if got != coeffs[n]:
                    errors.append(f"domain {kind} r={r} n={n}: {got} objects, reference {coeffs[n]}")
    return errors


def _domain_rule(family: str):
    def rule(line: str, r: int) -> tuple[int, bool]:
        if family == "po2":
            pairs = ref.parse_colored(line)
            return sum(size for size, _ in pairs), ref.po2_ok(pairs, r)
        parts = ref.parse_partition(line)
        return sum(parts), (ref.pmex_ok if family == "pmex" else ref.pe_ok)(parts, r)

    return rule


def _obar_rule(line: str, r: int) -> tuple[int, bool]:
    over, plain = ref.parse_overpartition(line)
    return sum(over) + sum(plain), ref.obar_ok(over, plain, r)


def _family_errors(what: str, lines: list[str], rule, r: int, n: int, count: int) -> list[str]:
    errors = []
    if len(lines) != count:
        errors.append(f"{what}: {len(lines)} lines, reference count {count}")
    if len(set(lines)) != len(lines):
        errors.append(f"{what}: {len(lines) - len(set(lines))} repeated lines")
    for line in lines:
        try:
            weight, ok = rule(line, r)
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(f"{what}: {exc}")
            break
        if weight != n or not ok:
            errors.append(f"{what}: {line!r} is not a weight-{n} member")
            break
    return errors


def check_chain(chain: Chain, seed: int, out: dict) -> list[str]:
    """Domain and middle lines are distinct members of the right size and
    number; the inverse output is the fed input, byte for byte."""
    errors = [f"{chain.label}: stage {i} exited {code}" for i, code in enumerate(out["codes"]) if code]
    count = ref.identity_coefficients(chain.r, chain.n)[chain.n]
    enum = out["enum"].splitlines()
    errors += _family_errors(f"{chain.label} enumerate", enum, _domain_rule(chain.family), chain.r, chain.n, count)
    errors += _family_errors(f"{chain.label} middle", out["mid"].splitlines(), _obar_rule, chain.r, chain.n, count)
    fed = block_shuffle(enum, seed, f"{chain.label}/fwd")
    expected = "".join(line + "\n" for line in block_shuffle(fed, seed, f"{chain.label}/inv"))
    if out["inv"] != expected:
        errors.append(f"{chain.label}: inverse output differs from the enumerate output it came from")
    return errors


def check_jsonl(family: str, r: int, n: int, out: dict) -> list[str]:
    errors = [f"jsonl: exited {out['code']}"] if out["code"] else []
    lines = out["text"].splitlines()
    count = ref.identity_coefficients(r, n)[n]

    def rule(line, r):
        record = json.loads(line)
        if set(record) != {"overlined", "plain"}:
            raise ValueError(f"unexpected keys in {line!r}")
        over, plain = record["overlined"], record["plain"]
        return sum(over) + sum(plain), ref.obar_ok(over, plain, r)

    return errors + _family_errors(f"jsonl {family}", lines, rule, r, n, count)


def check_series(r: int, degree: int, out: dict) -> list[str]:
    """The printed series times the finite products over both progressions is 1."""
    errors = [f"gf r={r}: exited {out['code']}"] if out["code"] else []
    coeffs = []
    for i, line in enumerate(out["text"].splitlines()):
        index, sep, value = line.partition("\t")
        if not sep or index != str(i):
            return errors + [f"gf r={r}: bad line {i}: {line!r}"]
        coeffs.append(int(value))
    if len(coeffs) != degree + 1:
        return errors + [f"gf r={r}: {len(coeffs)} coefficients, expected {degree + 1}"]
    if ref.series_times_products(coeffs, r) != [1] + [0] * degree:
        errors.append(f"gf r={r}: series times the products is not 1")
    return errors
