"""Tests of the benchmark itself: the smoke mode runs every workload and
every check, the generated inputs keep their promises, the checks catch
wrong outputs, and a checkout without the package makes the benchmark
fail instead of reporting.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import ops  # noqa: E402
import probe  # noqa: E402
import worker  # noqa: E402


def _load(path):
    with open(path) as f:
        return json.load(f)


SPEC = _load(os.path.join(ROOT, "BENCHMARK.json"))
DESC = _load(os.path.join(BENCH, "workloads.json"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_runs_every_workload_and_check(trace, group):
    proc = _run("--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = {"%s.%s" % (w["name"], m["name"]) for w in SPEC["workloads"] for m in SPEC[group]}
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert all(result["metrics"]["%s.trace.overhead_ratio" % w]["value"] > 0 for w in DESC["workloads"])
        assert result["metrics"]["cli-mix.cli.main.census.s"]["value"] > 0
        assert result["metrics"]["upq-census.classify.calls"]["value"] > 0


def test_manifest_matches_workload_descriptions():
    assert [w["name"] for w in SPEC["workloads"]] == list(DESC["workloads"]) == list(gen.GENERATORS)
    for w in SPEC["workloads"]:
        assert w["why"] == DESC["workloads"][w["name"]]["why"]
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert SPEC["paths"] == ["perfbench"]


def _key(inp):
    return json.dumps({k: v for k, v in inp.items() if k not in ("oracle", "deep")}, sort_keys=True)


@pytest.mark.parametrize("name", list(gen.GENERATORS))
@pytest.mark.parametrize("smoke", [True, False])
def test_inputs_are_seeded_distinct_and_disjoint_from_warmup(name, smoke):
    make = gen.GENERATORS[name]
    a = make(random.Random("1:" + name), smoke)
    assert a == make(random.Random("1:" + name), smoke)
    assert a != make(random.Random("2:" + name), smoke)
    timed = [_key(x) for row in a["passes"] for x in row]
    assert len(set(timed)) == len(timed)
    assert not set(timed) & {_key(x) for x in a["warmup"]}
    sizes = {len(row) for row in a["passes"]}
    assert len(sizes) == 1


def test_checks_catch_wrong_outputs(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.path.join(ROOT, "src"))
    inp = {"t": [3, 2, 4, -1], "g": 3, "oracle": True}
    out = ops.op_triple(inp, worker.direct)
    assert ops.check_triple(inp, out) == []
    out["dim"] += 1
    assert "dimension closed form" in ops.check_triple(inp, out)
    out["dim"] -= 1
    out["walls"] = out["walls"][:-1]
    assert "walls differ from the oracle" in ops.check_triple(inp, out)

    inp = gen.upq_census(random.Random(0), True)["passes"][0][0]
    out = ops.op_census(inp, worker.direct)
    assert ops.check_census(inp, out) == []
    out["region"] = dataclasses.replace(out["region"], count=out["region"].count + 1)
    assert ops.check_census(inp, out)

    inp = {"argv": ["census", "--p", "1", "--q", "1", "--g", "1"], "expect": 1, "deep": True}
    assert ops.check_cli(inp, ops.op_cli(inp, worker.direct)) == []
    assert ops.check_cli({**inp, "expect": 0}, ops.op_cli(inp, worker.direct))


def test_probes_rescale_each_latency_by_the_probes_around_it():
    ref = probe.REFERENCE_NS
    assert probe.scaled_ns(10.0, ref, ref) == 10.0
    assert probe.scaled_ns(10.0, 2 * ref, 2 * ref) == 5.0
    probes = probe.Probes()
    probes.take()
    assert probes.mark() == 0 and probes.times[0] > 0
    probes.times[:] = [ref, 3 * ref]
    assert probes.scale(0, 8.0) == 4.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "triple-sweep", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
