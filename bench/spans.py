"""In-memory spans around the calls one cosetmoments module makes into another.

`install` rebinds, in each package module, every name imported from a sibling
module to a wrapper that records a span: its name, layer (the callee module),
start, end and the span that was open when it started. Element-level helpers
(field arithmetic, the matrix trace) get no span, so their time counts as the
caller's self time. A few functions also get counters at the layer boundary:
cache misses of the cached enumerations, terms summed, DP coefficients,
moments solved and per-check timings. Nothing in the package is edited; the
wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

PACKAGE = "cosetmoments"
LAYERS = ("finite_field", "kloosterman", "ominus_groups", "coset_codes", "moment_recursion", "cli")
ELEMENT_LEVEL = {
    "finite_field": frozenset({
        "add", "elements", "fpow", "inv", "lambda_char", "mul", "parse_hex",
        "poly_degree", "to_hex", "trace", "units",
    }),
    "ominus_groups": frozenset({"mat_trace"}),
}
ENUMERATIONS = ("enumerate_so2", "enumerate_gl", "enumerate_q_minus", "bruhat_cell")
ROOT = "cli.main"


def nonsingular_symmetric_count(q: int, r: int) -> int:
    """Invertible symmetric r x r matrices over GF(q) (MacWilliams, 1969)."""
    k = r // 2
    count = q ** (k * (k + 1))
    for i in range(1, (r + 1) // 2 + 1):
        count *= q ** (2 * i - 1) - 1
    return count


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent index or -1]
        self._open = [-1]
        self.counters: dict[str, float] = defaultdict(int)
        self.check_s: list[float] = []
        self._caches: dict[str, list] = defaultdict(list)  # layer -> [(cache fn, start info)]

    def span(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, clock(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return traced

    def cache_counter(self, fn, key: str, work):
        """Count cache misses of an lru_cache function and add work(args, result)
        per miss; nested calls to the same function are told apart."""
        counters = self.counters
        misses_key = key + ".misses"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = fn.cache_info().misses
            seen = counters[misses_key]
            out = fn(*args, **kwargs)
            nested = counters[misses_key] - seen
            if fn.cache_info().misses - before > nested:
                counters[misses_key] += 1
                counters[key] += work(args, out)
            return out

        return counted

    def call_counter(self, fn, key: str, work, timed_key: str | None = None):
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += work(args, kwargs)
            if timed_key is None:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[timed_key] += clock() - start

        return counted

    def check_timer(self, fn):
        check_s = self.check_s

        @functools.wraps(fn)
        def timed(entry):
            start = time.perf_counter()
            try:
                return fn(entry)
            finally:
                if entry[1] is not None:  # skipped checks run nothing
                    check_s.append(time.perf_counter() - start)

        return timed

    def install(self):
        """Wrap the package in place and return cli.main wrapped in the root span."""
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        for layer, mod in mods.items():
            for obj in vars(mod).values():
                if callable(obj) and hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                    self._caches[layer].append((obj, obj.cache_info()))
        # counters first, rebound in the defining module, so that spans wrap them
        replaced: dict[int, object] = {}

        def rebind(mod, name: str, make) -> None:
            original = getattr(mod, name, None)
            if original is not None:
                replaced[id(original)] = make(original)
                setattr(mod, name, replaced[id(original)])

        kl, og = mods["kloosterman"], mods["ominus_groups"]
        rebind(kl, "kloosterman_sum", lambda f: self.cache_counter(
            f, "kloosterman.terms", lambda a, out: (a[0].q - 1) ** a[1]))
        for name in ENUMERATIONS:
            rebind(og, name, lambda f: self.cache_counter(
                f, "ominus_groups.matrices_built", lambda a, out: len(out)))
        rebind(og, "b_r_sum", lambda f: self.call_counter(
            f, "ominus_groups.sym_terms",
            lambda a, kw: nonsingular_symmetric_count(a[0].q, a[1]) * a[0].q ** (2 * a[1])))
        rebind(mods["coset_codes"], "prefix_counts_from_distribution", lambda f: self.call_counter(
            f, "coset_codes.prefix_coeffs", lambda a, kw: _arg(a, kw, 2, "j_max") + 1,
            timed_key="coset_codes.prefix_ns"))
        rebind(mods["moment_recursion"], "_solve_recursion", lambda f: self.call_counter(
            f, "moment_recursion.moments_solved", lambda a, kw: _arg(a, kw, 5, "h_max")))
        rebind(mods["cli"], "_run_check", self.check_timer)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if isinstance(obj, type) or not callable(obj) or not owner.startswith(PACKAGE + "."):
                    continue
                owner = owner.rsplit(".", 1)[1]
                if owner == layer or owner not in mods or name in ELEMENT_LEVEL.get(owner, ()):
                    continue
                inner = replaced.get(id(obj), obj)
                setattr(mod, name, self.span(inner, f"{owner}.{name}", owner))
        return self.span(mods["cli"].main, ROOT, "cli")

    def summary(self) -> dict:
        """Per-layer self time, call counts, cache ratios and counters."""
        self_ns = [end - start for _, _, start, end, _ in self.spans]
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                self_ns[parent] -= end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for (name, layer, *_), own in zip(self.spans, self_ns):
            out[f"{layer}.self_s"] += own / 1e9
            if name != ROOT:
                out[f"{layer}.calls"] += 1
        for layer in LAYERS:
            hits = misses = 0
            for fn, start in self._caches[layer]:
                info = fn.cache_info()
                hits += info.hits - start.hits
                misses += info.misses - start.misses
            out[f"{layer}.cache_hits"] = hits
            out[f"{layer}.cache_misses"] = misses
        counters = self.counters
        out["kloosterman.sum_evals"] = counters["kloosterman.terms.misses"]
        out["kloosterman.terms"] = counters["kloosterman.terms"]
        out["ominus_groups.matrices_built"] = counters["ominus_groups.matrices_built"]
        out["ominus_groups.sym_terms"] = counters["ominus_groups.sym_terms"]
        out["coset_codes.prefix_s"] = counters["coset_codes.prefix_ns"] / 1e9
        out["coset_codes.prefix_coeffs"] = counters["coset_codes.prefix_coeffs"]
        out["moment_recursion.moments_solved"] = counters["moment_recursion.moments_solved"]
        out["cli.checks"] = len(self.check_s)
        out["cli.check_s_sum"] = sum(self.check_s)
        out["cli.longest_check_s"] = max(self.check_s, default=0.0)
        out["trace.spans"] = len(self.spans)
        roots = [end - start for name, _, start, end, _ in self.spans if name == ROOT]
        out["trace.root_s"] = sum(roots) / 1e9
        return out
