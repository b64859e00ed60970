"""One fresh, single-threaded interpreter of the benchmark.

Modes:

* ``setup``: import the package, do the workload's one-time set-up, report
  the times and exit;
* ``run``: set up, then run the first ``--count`` requests of the stream
  as a closed loop (one client: the next request is sent only after the
  previous one returned and was checked), with the tracer installed when
  ``--trace`` is given. A fixed count is a fixed amount of work: caches
  warm the same way however fast the program is, and traced counters
  repeat exactly.

The worker prints one JSON object on the last line of its standard output.
Run it through ``run.py``; it expects the repository's ``src`` directory
next to the benchmark's directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

WALL_CAP_S = 110.0  # a worker stops here even when short of its count


class _Timer:
    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._start
        return False


# -- outside model of the gca word-prefix cache ---------------------------------------


class WordCacheModel:
    """Which words a GenericCliffordAlgebra has folded, seen from its
    arguments: a reduced word folds its length minus its longest
    already-reduced prefix, and every prefix is kept."""

    def __init__(self):
        self.reduced = {""}

    def reduce(self, words):
        """(words found whole in the cache, letters folded) for one reduce."""
        hits = folds = 0
        for w in words:
            k = len(w)
            while w[:k] not in self.reduced:
                k -= 1
            hits += k == len(w)
            folds += len(w) - k
            self.reduced.update(w[:i] for i in range(k + 1, len(w) + 1))
        return hits, folds


def install_tracer(tracer: Tracer):
    """Hooks that derive computed counters from public arguments and
    results, then the wrappers themselves."""
    from cubiclifford import gca

    models = {}

    def on_reduce(args):
        words = list(args[1].terms)
        hits, folds = models.setdefault(id(args[0]), WordCacheModel()).reduce(words)
        tracer.count("gca.word_lookups", len(words))
        tracer.count("gca.word_hits", hits)
        tracer.count("gca.letter_folds", folds)

    def on_gca_mul(args):
        v = args[2]
        folds = sum(len(gca.BASIS_WORDS[j]) for j, c in enumerate(v.coords) if not c.is_zero())
        tracer.count("gca.letter_folds", folds)

    def on_rank(args):
        vectors = args[0]
        tracer.count("cliffordf.elim_rows", len(vectors))
        tracer.count("cliffordf.elim_cols", len(vectors[0]) if vectors else 0)

    def on_poly_mul(args, result):
        tracer.count("spoly.terms_out", len(result.terms))

    def on_orbits(args, result):
        tracer.count("forms.orbit_forms_visited", sum(o.size for o in result))

    tracer.add_hook("gca:GenericCliffordAlgebra.reduce", before=on_reduce)
    tracer.add_hook("gca:GenericCliffordAlgebra.mul", before=on_gca_mul)
    tracer.add_hook("cliffordf:_rank", before=on_rank)
    tracer.add_hook("spoly:SPolynomial.__mul__", after=on_poly_mul)
    tracer.add_hook("forms:orbit_enumerate", after=on_orbits)
    tracer.install()


SCALAR_OPS = tuple(
    f"fields:Scalar.{op}"
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
)

# per-layer metric -> (unit, how it is read, the wrapped names or layer it
# reads). "calls", "self" and "total" read the wrappers' aggregates,
# "layer" the self time of every wrapper of one layer, "counter" a counter
# computed by a hook, "words" the word-cache model, "lru" the
# specialized-algebra cache_info() and "setup" the set-up timings.
LAYER_METRICS = {
    "fields.scalar_ops": ("count", "calls", SCALAR_OPS),
    "fields.inverse_calls": ("count", "calls", ("fields:Scalar.inverse",)),
    "fields.self_s": ("s", "layer", "fields"),
    "spoly.mul_calls": ("count", "calls", ("spoly:SPolynomial.__mul__",)),
    "spoly.terms_out": ("count", "counter", ("spoly:SPolynomial.__mul__",)),
    "spoly.self_s": ("s", "layer", "spoly"),
    "freealg.parse_calls": (
        "count", "calls", ("freealg:parse_free_expression", "cli:parse_free_expression")),
    "freealg.substitute_calls": (
        "count", "calls", ("freealg:linear_substitute", "cliffordf:linear_substitute")),
    "freealg.self_s": ("s", "layer", "freealg"),
    "gca.reduce_calls": ("count", "calls", ("gca:GenericCliffordAlgebra.reduce",)),
    "gca.reduce_self_s": ("s", "self", ("gca:GenericCliffordAlgebra.reduce",)),
    "gca.mul_calls": ("count", "calls", ("gca:GenericCliffordAlgebra.mul",)),
    "gca.mul_self_s": ("s", "self", ("gca:GenericCliffordAlgebra.mul",)),
    "gca.identities_self_s": (
        "s", "self", ("gca:GenericCliffordAlgebra.verify_center_identities",)),
    "gca.letter_folds": (
        "count", "counter",
        ("gca:GenericCliffordAlgebra.reduce", "gca:GenericCliffordAlgebra.mul")),
    "gca.word_cache_hit_ratio": ("ratio", "words", ("gca:GenericCliffordAlgebra.reduce",)),
    "cliffordf.algebra_builds": ("count", "calls", ("cliffordf:SpecializedAlgebra.__init__",)),
    "cliffordf.algebra_cache_hit_ratio": ("ratio", "lru", None),
    "cliffordf.mul_calls": ("count", "calls", ("cliffordf:SpecializedAlgebra.mul",)),
    "cliffordf.mul_self_s": ("s", "self", ("cliffordf:SpecializedAlgebra.mul",)),
    "cliffordf.gamma_free_self_s": ("s", "self", ("cliffordf:gamma_independence_check",)),
    "cliffordf.elim_rows": ("count", "counter", ("cliffordf:_rank",)),
    "cliffordf.elim_cols": ("count", "counter", ("cliffordf:_rank",)),
    "cliffordf.elim_self_s": ("s", "self", ("cliffordf:_rank",)),
    "forms.orbit_self_s": ("s", "self", ("forms:orbit_enumerate",)),
    "forms.orbit_forms_visited": ("count", "counter", ("forms:orbit_enumerate",)),
    "forms.stabilizer_self_s": ("s", "self", ("forms:stabilizer",)),
    "forms.act_calls": ("count", "calls", ("forms:act_gl2", "cliffordf:act_gl2")),
    "curves.point_search_self_s": ("s", "self", ("curves:point_search",)),
    "curves.point_candidates": (
        "count", "calls", ("curves:cube_root_in_field", "curves:prime_power_root_mod")),
    "curves.curve_points_self_s": ("s", "self", ("curves:curve_points",)),
    "curves.ell_add_calls": ("count", "calls", ("curves:ell_add",)),
    "cli.main_calls": ("count", "calls", ("cli:main",)),
    "cli.self_s": ("s", "layer", "cli"),
    "cli.parser_build_s": ("s", "total", ("cli:build_parser",)),
    "setup.import_s": ("s", "setup", None),
    "setup.structure_s": ("s", "setup", None),
}
COMPUTED = tuple(
    name for name, (_, how, _) in LAYER_METRICS.items() if how in ("counter", "words", "lru")
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, setup: dict, cache):
    """(values, names of the metrics that could not be measured; they read 0)."""
    values, missing = {}, []
    counters = tracer.counters
    for name, (_, how, source) in LAYER_METRICS.items():
        if how == "layer":
            keys = [k for k, layer in tracer.layers.items() if layer == source]
        else:
            keys = [k for k in source or () if k in tracer.stats]
        hook_failed = how in ("counter", "words") and any(
            f"hook {k}" in tracer.missing for k in keys
        )
        if (source is not None and not keys) or (how == "lru" and cache is None) or hook_failed:
            missing.append(name)
        if how == "calls":
            values[name] = tracer.calls(*keys)
        elif how in ("self", "layer"):
            values[name] = tracer.self_s(*keys)
        elif how == "total":
            values[name] = tracer.total_s(*keys)
        elif how == "counter":
            values[name] = counters.get(name, 0)
        elif how == "words":
            values[name] = _ratio(counters.get("gca.word_hits", 0), counters.get("gca.word_lookups", 0))
        elif how == "lru":
            hits, misses = (cache["hits"], cache["misses"]) if cache else (0, 0)
            values[name] = _ratio(hits, hits + misses)
        else:
            values[name] = setup[name.split(".", 1)[1]]
    return values, missing


# -- the request loop ----------------------------------------------------------------


def environment() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _cache_info():
    """The specialized-algebra LRU counters, or None if there is none."""
    from cubiclifford import cliffordf

    info = getattr(getattr(cliffordf, "specialized_algebra", None), "cache_info", None)
    return None if info is None else info()


def run_requests(workload, count: int, tracer=None) -> dict:
    latencies, kinds, failures, examples = [], {}, {}, {}
    verified = wrong = 0
    busy = 0
    cache = {"hits": 0, "misses": 0} if _cache_info() is not None else None
    start = time.perf_counter()
    for req in workload.requests():
        if req["id"] >= count or time.perf_counter() - start > WALL_CAP_S:
            break
        kind = req["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        prepared = workload.prepare(req)
        before = _cache_info() if cache is not None else None
        if tracer is not None:
            tracer.begin_request(req["id"], kind)
        error = None
        t0 = time.perf_counter_ns()
        try:
            result = workload.execute(req, prepared)
        except Exception as exc:  # a failed request is counted, never retried
            error = exc
        elapsed = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end_request()
        if cache is not None:
            after = _cache_info()
            cache["hits"] += after.hits - before.hits
            cache["misses"] += after.misses - before.misses
        latencies.append(elapsed)
        busy += elapsed
        reason = None
        if error is not None:
            reason = f"raised:{type(error).__name__}"
            detail = "".join(traceback.format_exception_only(type(error), error)).strip()
        else:
            try:
                workload.check(req, prepared, result)
            except CheckFailed as exc:
                reason, detail, wrong = f"wrong:{exc.reason}", str(exc), wrong + 1
            except Exception as exc:  # the output could not be checked
                reason, wrong = f"wrong:unreadable-{type(exc).__name__}", wrong + 1
                detail = traceback.format_exc(limit=3)
        if reason is None:
            verified += 1
        else:
            failures[reason] = failures.get(reason, 0) + 1
            examples.setdefault(reason, f"request {req['id']} ({kind}): {detail}"[:2000])
    return {
        "attempted": len(latencies),
        "verified": verified,
        "wrong": wrong,
        "failures": failures,
        "examples": examples,
        "kinds": kinds,
        "latencies_ns": latencies,
        "busy_ns": busy,
        "cache": cache,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run"))
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None, help="file for spans and counters")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cubiclifford  # noqa: F401

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[args.workload](args.seed)
    setup = workload.setup(_Timer)
    setup = {"import_s": import_s, "structure_s": setup["structure_s"],
             "setup_s": time.perf_counter() - t0}
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "setup": setup}
    if args.mode != "setup":
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_tracer(tracer)
        out.update(run_requests(workload, args.count, tracer))
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["env"] = environment()
        if tracer is not None:
            tracer.uninstall()
            values, missing = layer_metrics(tracer, setup, out["cache"])
            out["layer_metrics"], out["missing_metrics"] = values, missing
            out["missing_targets"] = tracer.missing
            if args.trace_out:
                dump = tracer.dump()
                dump.update(workload=args.workload, seed=args.seed, count=args.count,
                            layer_metrics=values, computed=list(COMPUTED))
                path = Path(args.trace_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(dump))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
