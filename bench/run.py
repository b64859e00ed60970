"""Run one named benchmark workload with a seed and print every
metric by name, with its unit and sample count.

    python3 bench/run.py --workload gca-qw --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload gca-qw --seed 1 --seconds 20 --trace 1

A run is a fixed amount of work: the first ``NOMINAL_RPS * seconds``
requests of the workload's stream, rounded to whole blocks, which take
about ``--seconds`` of request time on the machine the benchmark was
sized on. With
``--trace 0`` it prints the end-to-end metrics: set-up time is the median
over several fresh interpreters, and the closed loop (one client) runs in
one more fresh interpreter. With ``--trace 1`` it prints the per-layer
metrics: the first half of those requests runs once untraced and once
traced, each in a fresh interpreter, so counts repeat exactly and the
ratio of the two timed totals is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when the run completed, whatever the failures; it is 2 when the package
sources are not next to the benchmark, and 1 when a worker failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from worker import COMPUTED, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7  # fresh interpreters whose set-up times give setup_s
MIN_REQUESTS = 100  # enough for ten samples beyond the 90th percentile
TOTAL_BUDGET_S = 170.0
END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# failures that trace to a defect of the package known when the benchmark
# was written; anything else is new
KNOWN_DEFECTS = {
    ("cliffordf-fp", "raised:OverflowError"): (
        "cliffordf._rank eliminates in numpy int64, which cannot hold residues "
        "of the prime in (2^63, 2^64)"
    ),
}


def percentile(samples, q: float) -> float:
    """The q-th percentile (linear between closest ranks). Refused unless at
    least ten samples lie beyond it, so a tail figure always rests on a
    tail."""
    n = len(samples)
    beyond = n - math.ceil(q / 100 * n)
    if beyond < 10:
        raise ValueError(f"p{q:g} needs ten samples beyond it; {n} samples leave {beyond}")
    ordered = sorted(samples)
    pos = q / 100 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def request_count(workload, seconds: float, share: float = 1.0) -> int:
    """Requests in one run (``share`` of them in a traced run): whole blocks,
    so every run has exactly the block's mix, fixed by the arguments alone."""
    cls = WORKLOADS[workload]
    size = len(cls.BLOCK)
    blocks = max(math.ceil(MIN_REQUESTS / size), round(cls.NOMINAL_RPS * seconds / size))
    return math.ceil(blocks * share) * size


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TOTAL_BUDGET_S
        self.env = dict(os.environ)
        # one thread per worker, and hash order fixed so counts repeat
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, mode: str, *extra) -> dict:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("time budget exhausted before a worker could start")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=self.env,
                              timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(workload, run):
    return {
        reason: {"count": n, "known_defect": KNOWN_DEFECTS.get((workload, reason))}
        for reason, n in sorted(run["failures"].items())
    }


def end_to_end(runner: Runner, seconds: float):
    runner.worker("setup")  # warm the file cache and byte-code; not counted
    # set-ups on both sides of the loop, so their median spans the run
    before = (SETUP_RUNS - 1) // 2
    setups = [runner.worker("setup")["setup"] for _ in range(before)]
    loop = runner.worker("run", "--count", str(request_count(runner.workload, seconds)))
    setups.append(loop["setup"])
    setups += [runner.worker("setup")["setup"] for _ in range(SETUP_RUNS - 1 - before)]
    lat_ms = [ns / 1e6 for ns in loop["latencies_ns"]]
    attempted = loop["attempted"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_rps": loop["verified"] / (loop["busy_ns"] / 1e9),
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "verified_ratio": loop["verified"] / attempted,
        "peak_rss_mb": loop["rss_kb"] / 1024,
    }
    report = {
        "samples": {"setup_s": len(setups), "latency": attempted},
        "failed_ratio": 1 - loop["verified"] / attempted,
        "busy_s": loop["busy_ns"] / 1e9,
        "setup_import_s": statistics.median(s["import_s"] for s in setups),
    }
    return metrics, END_TO_END, [loop], report


def per_layer(runner: Runner, seconds: float):
    count = request_count(runner.workload, seconds, share=0.5)
    runner.worker("setup")  # warm the file cache and byte-code; not counted
    plain = runner.worker("run", "--count", str(count))
    out = ROOT / ".bench_out" / f"trace-{runner.workload}-seed{runner.seed}.json"
    traced = runner.worker("run", "--count", str(count), "--trace", "--trace-out", str(out))
    metrics = dict(traced["layer_metrics"])
    for name in ("setup.import_s", "setup.structure_s"):
        key = name.split(".", 1)[1]
        metrics[name] = statistics.median([plain["setup"][key], traced["setup"][key]])
    metrics["trace.overhead_ratio"] = traced["busy_ns"] / plain["busy_ns"]
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units["trace.overhead_ratio"] = "ratio"
    report = {
        "samples": {"requests": count},
        "missing": traced["missing_metrics"],
        "missing_targets": traced["missing_targets"],
        "computed": list(COMPUTED),
        "untraced_s": plain["busy_ns"] / 1e9,
        "traced_s": traced["busy_ns"] / 1e9,
        "trace_file": str(out.relative_to(ROOT)),
    }
    return metrics, units, [plain, traced], report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubiclifford" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, units, runs, report = measure(runner, args.seconds)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    last = runs[-1]
    wrong = sum(run["wrong"] for run in runs)
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        requests_by_kind=last["kinds"],
        failures=_failures(args.workload, last),
        examples=last["examples"],
        env=last["env"],
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  {last['env']['cpu_model']} x{last['env']['nproc']}")
    for name, value in metrics.items():
        tag = " (computed)" if name in COMPUTED else ""
        tag += " (missing)" if name in report.get("missing", ()) else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{tag}")
    print(f"  samples: {report['samples']}")
    print(f"  requests by kind: {last['kinds']}")
    print(f"  failures by reason: {json.dumps(report['failures'])}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": wrong == 0,
        "attempted": last["attempted"],
        "failed": last["attempted"] - last["verified"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
