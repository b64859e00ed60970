"""Tests of the benchmark itself (not of the package):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _take(cls, seed, blocks=3):
    return list(itertools.islice(cls(seed).requests(), blocks * len(cls.BLOCK)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_request_list(name):
    cls = workloads.WORKLOADS[name]
    assert _take(cls, 7) == _take(cls, 7)
    assert _take(cls, 7) != _take(cls, 8)


@pytest.mark.parametrize("name", ["cliffordf-fp", "cli-forms"])
def test_every_block_keeps_the_mix(name):
    cls = workloads.WORKLOADS[name]
    size = len(cls.BLOCK)
    requests = _take(cls, 5)
    want = Counter(k if isinstance(k, str) else k[1] for k in cls.BLOCK)
    for start in range(0, len(requests), size):
        assert Counter(r["kind"] for r in requests[start:start + size]) == want


def test_metric_names_are_well_formed_and_match_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.match(name) and len(name) <= 64, name
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(worker.LAYER_METRICS) + ["trace.overhead_ratio"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"][:-1]:
        assert metric["unit"] == worker.LAYER_METRICS[metric["name"]][0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_run_is_whole_blocks_and_enough_for_the_tail(name):
    size = len(workloads.WORKLOADS[name].BLOCK)
    for seconds in (1, 20):
        for share in (0.5, 1.0):
            count = run.request_count(name, seconds, share)
            assert count % size == 0
        assert run.request_count(name, seconds) >= run.MIN_REQUESTS


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert run.percentile(list(range(20)), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        run.percentile(list(range(19)), 50)


def _traced(name, count, out):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", "3",
           "--mode", "run", "--count", str(count), "--trace", "--trace-out", str(out)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    dump = json.loads(out.read_text())
    calls = {k: v["calls"] for k, v in dump["stats"].items()}
    counts = {
        k: v for k, v in result["layer_metrics"].items()
        if worker.LAYER_METRICS[k][0] in ("count", "ratio")
    }
    return result, calls, dump["counters"], counts


@pytest.mark.parametrize("name,count", [("gca-qw", 24), ("cliffordf-fp", 15), ("cli-forms", 21)])
def test_two_traced_runs_at_one_seed_count_the_same(name, count, tmp_path):
    first = _traced(name, count, tmp_path / "a.json")
    second = _traced(name, count, tmp_path / "b.json")
    assert first[1:] == second[1:]
    assert first[0]["attempted"] == count and first[0]["wrong"] == 0
    assert not first[0]["missing_targets"]
    assert sum(first[1].values()) > count


# -- the checks refute wrong answers ---------------------------------------------------


def _cli_request(kind, seed=1):
    cls = workloads.CliForms(seed)
    cls.setup(worker._Timer)
    req = next(r for r in cls.requests() if r["kind"] == kind)
    return cls, req


def test_cli_check_refutes_a_wrong_discriminant():
    cls, req = _cli_request("disc")
    code, out, err = cls.execute(req, None)
    cls.check(req, None, (code, out, err))
    data = json.loads(out)
    data["delta"] = (data["delta"] + 1) % req["p"]
    with pytest.raises(CheckFailed):
        cls.check(req, None, (code, json.dumps(data), err))


def test_cli_check_refutes_an_unconfirmed_domain_error():
    cls, req = _cli_request("diagonalize")
    p, f = req["p"], req["coeffs"]
    square = workloads.is_square(-workloads.disc(f, p) * pow(108, -1, p), p)
    claim = json.dumps({"error": "square-root-absent", "message": ""})
    if square:
        with pytest.raises(CheckFailed):
            cls.check(req, None, (1, "", claim))
    else:
        cls.check(req, None, (1, "", claim))


def test_cliffordf_check_refutes_dependence_and_a_wrong_product():
    cls = workloads.CliffordfFp(2)
    cls.setup(worker._Timer)
    req = next(r for r in cls.requests() if r["kind"] == "gamma1" and r["p"] == 7)
    with pytest.raises(CheckFailed):
        cls.check(req, cls.prepare(req), False)
    req = next(r for r in cls.requests() if r["kind"] == "mul")
    prepared = cls.prepare(req)
    product = cls.execute(req, prepared)
    cls.check(req, prepared, product)
    with pytest.raises(CheckFailed):
        cls.check(req, prepared, product + prepared["u"])
