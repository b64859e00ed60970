"""In-memory tracing of the package's entry points, installed from outside.

Wrappers are set by attribute name on the modules and classes of
``cubiclifford`` after set-up. A wrapper does nothing but call through
unless a request is being timed, so the benchmark's own output checks are
never counted. For every wrapped name it keeps the call count, the
inclusive time and the self time (inclusive time minus the time of
wrapped calls made inside it). Coarse entry points also keep one span each
(id, parent id, request id, name, start, end); hot leaf operations such as
``Scalar.__mul__`` keep only their aggregates, so memory stays bounded.

A name that no longer exists, or a hook that cannot read the data it
expects, is reported in ``missing`` instead of raising, so the traced run
survives refactors of the package.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, layer, keeps spans). Module functions are named
# as the caller sees them: a function imported by name into another module
# is wrapped in that module too.
TARGETS = (
    # fields: scalar arithmetic and roots
    ("fields", "Scalar.__add__", "fields", False),
    ("fields", "Scalar.__radd__", "fields", False),
    ("fields", "Scalar.__sub__", "fields", False),
    ("fields", "Scalar.__rsub__", "fields", False),
    ("fields", "Scalar.__mul__", "fields", False),
    ("fields", "Scalar.__rmul__", "fields", False),
    ("fields", "Scalar.__neg__", "fields", False),
    ("fields", "Scalar.__truediv__", "fields", False),
    ("fields", "Scalar.__pow__", "fields", False),
    ("fields", "Scalar.inverse", "fields", False),
    ("forms", "sqrt_in_field", "fields", False),
    ("forms", "cube_root_in_field", "fields", False),
    ("curves", "sqrt_in_field", "fields", False),
    ("curves", "cube_root_in_field", "fields", False),
    ("curves", "prime_power_root_mod", "fields", False),
    ("cliffordf", "sqrt_in_field", "fields", False),
    # spoly: polynomial arithmetic over S and k[GA]
    ("spoly", "SPolynomial.__add__", "spoly", False),
    ("spoly", "SPolynomial.__sub__", "spoly", False),
    ("spoly", "SPolynomial.__neg__", "spoly", False),
    ("spoly", "SPolynomial.__mul__", "spoly", False),
    ("spoly", "SPolynomial.__pow__", "spoly", False),
    ("spoly", "SPolynomial.scale", "spoly", False),
    ("spoly", "SPolynomial.substitute", "spoly", False),
    # freealg and the shared expression parser
    ("freealg", "FreeElement.__add__", "freealg", False),
    ("freealg", "FreeElement.__sub__", "freealg", False),
    ("freealg", "FreeElement.__neg__", "freealg", False),
    ("freealg", "FreeElement.__mul__", "freealg", False),
    ("freealg", "FreeElement.__pow__", "freealg", False),
    ("freealg", "FreeElement.scale", "freealg", False),
    ("_parsing", "ExprParser.parse", "freealg", False),
    ("freealg", "parse_free_expression", "freealg", True),
    ("cli", "parse_free_expression", "freealg", True),
    ("freealg", "linear_substitute", "freealg", True),
    ("cliffordf", "linear_substitute", "freealg", True),
    # gca: the generic algebra over S
    ("gca", "GenericCliffordAlgebra.reduce", "gca", True),
    ("gca", "GenericCliffordAlgebra.mul", "gca", True),
    ("gca", "GenericCliffordAlgebra.verify_center_identities", "gca", True),
    # cliffordf: specialized algebras over k[GA]
    ("cliffordf", "SpecializedAlgebra.__init__", "cliffordf", True),
    ("cliffordf", "SpecializedAlgebra.mul", "cliffordf", True),
    ("cliffordf", "SpecializedAlgebra.reduce_free", "cliffordf", True),
    ("cliffordf", "check_clifford_iso", "cliffordf", True),
    ("cliffordf", "symbol_relations_check", "cliffordf", True),
    ("cliffordf", "gamma_independence_check", "cliffordf", True),
    ("cliffordf", "_rank", "cliffordf", True),
    # forms
    ("forms", "BinaryCubicForm.discriminant", "forms", False),
    ("forms", "act_gl2", "forms", False),
    ("cliffordf", "act_gl2", "forms", False),
    ("forms", "diagonalize", "forms", True),
    ("forms", "stabilizer", "forms", True),
    ("forms", "orbit_enumerate", "forms", True),
    # curves
    ("curves", "ell_add", "curves", False),
    ("curves", "jacobian_constant", "curves", True),
    ("curves", "torsion_points", "curves", True),
    ("curves", "curve_points", "curves", True),
    ("curves", "point_search", "curves", True),
    ("curves", "construct_cover_point", "curves", True),
    # cli
    ("cli", "main", "cli", True),
    ("cli", "build_parser", "cli", True),
    ("cli", "field_from_args", "cli", True),
    ("cli", "form_from_args", "cli", True),
    ("cli", "matrix_from_args", "cli", True),
)

MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Spans and counters of the wrapped entry points, kept in memory."""

    def __init__(self):
        self.active = False
        self.stack = []  # frames: [start_ns, child_ns, span_id]
        self.stats: dict[str, Stat] = {}
        self.spans = []
        self.spans_dropped = 0
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.request_id = None
        self._next_span = 1
        self.layers: dict[str, str] = {}
        self._installed = []
        self._hooks = {}

    # -- installation --------------------------------------------------------

    def add_hook(self, key: str, before=None, after=None):
        """Call ``before(args)`` / ``after(args, result)`` around a target,
        only while active; ``key`` is "module:attr.path"."""
        self._hooks[key] = (before, after)

    def install(self, targets=TARGETS):
        for module_name, path, layer, spans in targets:
            key = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(f"cubiclifford.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(key)
                continue
            if not callable(original):
                self.missing.append(key)
                continue
            wrapper = self._wrap(key, layer, original, spans)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, key, layer, fn, keep_span):
        stat = self.stats.setdefault(key, Stat())
        self.layers[key] = layer
        before, after = self._hooks.get(key, (None, None))
        stack = self.stack
        now = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._hook(key, before, args)
            parent = stack[-1][2] if stack else 0
            span_id = parent  # children of a hot call hang off its nearest span
            if keep_span:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [now(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                elapsed = end - frame[0]
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if keep_span:
                    tracer._record(span_id, parent, key, frame[0], end)
            if after is not None:
                tracer._hook(key, after, args, result)
            return result

        return wrapper

    def _hook(self, key, hook, *args):
        try:
            hook(*args)
        except (AttributeError, TypeError, KeyError, IndexError):
            if f"hook {key}" not in self.missing:
                self.missing.append(f"hook {key}")

    # -- requests ---------------------------------------------------------------

    def begin_request(self, request_id: int, kind: str):
        """Open the root span of one request and start counting."""
        self.request_id = request_id
        self.stack.append([time.perf_counter_ns(), 0, self._next_span, f"request.{kind}"])
        self._next_span += 1
        self.active = True

    def end_request(self):
        self.active = False
        end = time.perf_counter_ns()
        root = self.stack.pop()
        if self.stack:
            raise RuntimeError("unbalanced trace stack")
        self._record(root[2], 0, root[3], root[0], end)
        stat = self.stats.setdefault("bench:request", Stat())
        stat.calls += 1
        stat.total_ns += end - root[0]
        stat.self_ns += end - root[0] - root[1]
        self.request_id = None

    def _record(self, span_id, parent, name, start, end):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.request_id, name, start, end))
        else:
            self.spans_dropped += 1

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    # -- results -----------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats[k].calls for k in keys if k in self.stats)

    def self_s(self, *keys) -> float:
        return sum(self.stats[k].self_ns for k in keys if k in self.stats) / 1e9

    def total_s(self, *keys) -> float:
        return sum(self.stats[k].total_ns for k in keys if k in self.stats) / 1e9

    def dump(self) -> dict:
        return {
            "stats": {
                k: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns}
                for k, s in sorted(self.stats.items())
            },
            "layers": dict(sorted(self.layers.items())),
            "counters": dict(sorted(self.counters.items())),
            "missing": list(self.missing),
            "spans_fields": ["span_id", "parent_id", "request_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }
