"""Self-tests of the benchmark: reference values, checkers, tracer, metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import layertrace
import mexpart
import mexpart.cli
import reference as ref
import run
import workloads as W

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def failed_ops(workload, outputs, seed=0):
    return sum(1 for errors in W.check_round(workload, outputs, seed) if errors)


# -- reference values ----------------------------------------------------------


def test_partition_numbers():
    assert ref.partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert ref.euler_transform(lambda d: 1, 60) == ref.partition_numbers(60)


def test_overpartition_counts():
    assert ref.overpartition_counts(9) == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154]


def test_identity_coefficients():
    # r = 1: 1/((q;q^2)(q^2;q^2)) = 1/(q;q), the partition numbers
    assert ref.identity_coefficients(1, 40) == ref.partition_numbers(40)
    assert ref.identity_coefficients(2, 7)[7] == 10
    for r in (2, 3):
        coeffs = ref.identity_coefficients(r, 60)
        assert ref.series_times_products(coeffs, r) == [1] + [0] * 60
        coeffs[37] += 1
        assert ref.series_times_products(coeffs, r) != [1] + [0] * 60


def test_object_rules():
    assert ref.pmex_ok([8, 7, 3, 2, 1, 1], 3)  # mex 4, run 4 5 6
    assert not ref.pmex_ok([8, 7, 3, 2, 1, 1], 4)
    assert ref.pmex_ok([3, 2, 1], 9)  # no part beyond the mex: infinite run
    assert ref.obar_ok(*ref.parse_overpartition("~6 ~4 ~3 3 3 ~2 ~1"), 2)
    assert not ref.obar_ok(*ref.parse_overpartition("~6 4"), 2)
    assert ref.po2_ok(ref.parse_colored("5_2 1_1"), 2)
    assert not ref.po2_ok(ref.parse_colored("1_2"), 2)
    assert not ref.pe_ok([2, 1], 3)
    for bad in ("01 1", "3  1", "1 3", "~3 ~3x"):
        with pytest.raises(ValueError):
            ref.parse_partition(bad) if "~" not in bad else ref.parse_overpartition(bad)
    with pytest.raises(ValueError):
        ref.parse_overpartition("3 ~3")


# -- checkers reject corrupted output ---------------------------------------------


def counts_report():
    max_n, max_r = W.COUNTS_SIZE
    checks = []
    for n in range(max_n + 1):
        for r in range(1, max_r + 1):
            c = ref.identity_coefficients(r, max_n)[n]
            params = f"n={n} r={r}"
            checks.append(["pmex count = series coefficient", params, c, c])
            checks.append(["obar count = pmex count", params, c, c])
            checks.append([f"{'pe' if r % 2 else 'po2'} count = pmex count", params, c, c])
    return checks


def test_counts_checker():
    checks = counts_report()
    assert len(checks) == W.counts_expected(*W.COUNTS_SIZE) == 600
    assert W.counts_expected(30, 8) == 744
    assert failed_ops("counts", {"checks": checks}) == 0
    wrong = [list(c) for c in checks]
    i = checks.index(["pmex count = series coefficient", "n=20 r=3", *[ref.identity_coefficients(3, 20)[20]] * 2])
    wrong[i][2] = wrong[i][3] = wrong[i][2] + 1  # passes, but not the true coefficient
    assert failed_ops("counts", {"checks": wrong}) == 1
    failing = [list(c) for c in checks]
    failing[5][3] += 1
    assert failed_ops("counts", {"checks": failing}) == 1
    assert failed_ops("counts", {"checks": checks[:-1]}) == 1


def test_roundtrips_checker():
    max_n, max_r = W.ROUNDTRIPS_SIZE
    checks = [["t5: images in codomain", "", 0, 0]] * W.roundtrips_expected(max_n, max_r)
    assert len(checks) == 920
    sizes = {
        f"{k} {r} {n}": ref.identity_coefficients(r, max_n)[n]
        for r in range(1, max_r + 1) for k in W.domain_kinds(r) for n in range(max_n + 1)
    }
    assert failed_ops("roundtrips", {"checks": checks, "sizes": sizes}) == 0
    assert failed_ops("roundtrips", {"checks": checks, "sizes": dict(sizes, **{"pe 3 22": 0})}) == 1
    one_failed = checks[:-1] + [["t5: inverse returns source", "", 0, 1]]
    assert failed_ops("roundtrips", {"checks": one_failed, "sizes": sizes}) == 1


@pytest.fixture
def small_workloads(monkeypatch):
    monkeypatch.setattr(W, "CHAINS", (
        W.Chain("t5", "pmex", 2, 9, "t5", "t5inv"),
        W.Chain("odd", "pe", 3, 9, "odd", "oddinv"),
        W.Chain("even", "po2", 2, 9, "even", "eveninv"),
    ))
    monkeypatch.setattr(W, "JSONL", ("obar", 1, 7))
    monkeypatch.setattr(W, "SERIES", ((2, 60), (3, 60)))


def test_pipeline_checker(small_workloads):
    outputs = W.run_stages(mexpart.cli.run, "pipeline", 7)
    assert outputs["chains"]["t5"]["enum"] != outputs["chains"]["t5"]["inv"]  # the seed reorders
    assert failed_ops("pipeline", outputs, seed=7) == 0
    assert failed_ops("pipeline", outputs, seed=8) == 3  # a different order than was fed

    def corrupt(label, stage, edit):
        bad = json.loads(json.dumps(outputs))
        bad["chains"][label][stage] = edit(bad["chains"][label][stage])
        return failed_ops("pipeline", bad, seed=7)

    drop_first = lambda text: text.split("\n", 1)[1]  # noqa: E731
    assert corrupt("t5", "inv", drop_first) == 1
    assert corrupt("odd", "enum", drop_first) == 1
    assert corrupt("even", "mid", drop_first) == 1
    assert corrupt("t5", "mid", lambda text: text.replace("~", "", 1)) == 1  # breaks the obar rule
    bad = dict(outputs, jsonl=dict(outputs["jsonl"], text=outputs["jsonl"]["text"].split("\n", 1)[1]))
    assert failed_ops("pipeline", bad, seed=7) == 1


def test_series_checker(small_workloads):
    outputs = W.run_stages(mexpart.cli.run, "series", 0)
    assert failed_ops("series", outputs) == 0
    lines = outputs["gf"][1]["text"].splitlines()
    lines[40] = "40\t" + str(int(lines[40].split("\t")[1]) + 1)
    bad = {"gf": [outputs["gf"][0], dict(outputs["gf"][1], text="\n".join(lines) + "\n")]}
    assert failed_ops("series", bad) == 1


# -- tracer and the declared metrics ------------------------------------------------


def test_tracer_wraps_lookup_names_and_restores_them():
    originals = (mexpart.oracle.enumerate_family, mexpart.cli._MAPS["even"], mexpart.cli._PARSERS["even"])
    tracer = layertrace.Tracer(trace_memory=False)
    tracer.install(mexpart)
    try:
        assert mexpart.oracle.enumerate_family is not originals[0]
        code, out, _ = mexpart.cli.run(["map", "--bijection", "even", "--r", "2"], "5_2 1_1\n3_1 3_2")
        assert (code, out) == (0, "5 ~1\n~3 3\n")
        mexpart.count_family(mexpart.Family("obar", 2), 6)
    finally:
        tracer.uninstall()
    agg = tracer.aggregates()
    assert agg["calls"]["even_forward"] == 2
    assert agg["calls"]["ColoredPartition.from_text"] == 2
    assert agg["counts"]["lines_in"] == 2 and agg["counts"]["lines_out"] == 2
    assert agg["counts"]["kept"] == mexpart.count_family(mexpart.Family("obar", 2), 6)
    assert agg["counts"]["ColoredPartition"] >= 2
    assert (mexpart.oracle.enumerate_family, mexpart.cli._MAPS["even"]) == originals[:2]
    assert mexpart.cli._PARSERS["even"] == originals[2]
    assert not hasattr(mexpart.Partition.__init__, "__wrapped__")


def test_benchmark_json_lists_every_emitted_metric():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    empty = {"calls": {}, "inclusive": {}, "self_time": {}, "layer_self": {}, "counts": {},
             "peak_mem_bytes": 0, "layer_of": {}}
    emitted = {name: unit for name, (_, unit) in layertrace.layer_metrics(empty).items()}
    emitted.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert declared == emitted
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == dict(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
