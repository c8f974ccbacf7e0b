"""Span tracer that times the calls into each qcomb module from outside it.

``Tracer.install`` replaces every public function and method of the qcomb
modules (plus the arithmetic dunders, such as ``QPoly.__mul__``) by a
wrapper that records one span per call: name, start, end and the span that
was open when the call began.  Names re-bound by ``from ... import`` are
replaced too, so a call reaches the wrapper whichever module makes it.  A
generator records one span per resume, and counts the items it yields.

Spans are kept in flat arrays (24 bytes each), written out at the end of the
run, and reduced to the per-layer metrics of ``LAYER_METRICS``.  A layer's
self time is the duration of its spans minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

ARITHMETIC = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__neg__", "__pow__"})

ENGINES = ("stirling2_q", "stirling1_q", "lah_q", "bell_q", "hsu_shiue",
           "gen_bell")
ENUMERATORS = ("enum_partitions", "enum_cycle_perms", "enum_lah",
               "enum_extended_lah")
_VALIDATE = tuple(f"structures.{cls}.validate"
                  for cls in ("SetPartition", "CyclePerm", "LahDist", "ExtLahDist"))

# metric prefix -> (span names it aggregates, fields reported).  A span name
# ending in "." matches every span of that module.  Field kinds:
#   calls         spans recorded (every call, cache hits and recursion too)
#   self_s        summed self time of those spans
#   slowest_s     longest single span
#   cache_hit_ratio  hits / (hits + misses) of the engine's lru_cache
#   anything else a counter recorded at the wrapper, under "<prefix>.<field>"
LAYER_METRICS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "polyring.qpoly_mul": (("polyring.QPoly.__mul__",),
                           ("calls", "self_s", "coeff_products")),
    "polyring.qpoly_add": (("polyring.QPoly.__add__",), ("self_s",)),
    "polyring.exact_div": (("polyring.QPoly.exact_div",), ("calls", "self_s")),
    "polyring.q_binomial": (("polyring.q_binomial",), ("calls", "self_s")),
    "polyring.mpoly_mul": (("polyring.MPoly.__mul__",),
                           ("calls", "self_s", "term_products")),
    **{f"families.{e}": ((f"families.{e}",), ("calls", "self_s", "cache_hit_ratio"))
       for e in ENGINES},
    **{f"structures.{e}": ((f"structures.{e}",), ("structures", "self_s"))
       for e in ENUMERATORS},
    "structures.validate": (_VALIDATE, ("calls", "self_s")),
    "structures.special_elements": (("structures.special_elements",), ("self_s",)),
    "stats.inversions": (("stats.inversions",), ("calls", "self_s")),
    "stats.ext_stats": (("stats.ext_stats",), ("calls", "self_s")),
    "stats.weight": (("stats.weight",), ("self_s",)),
    "classical": (("classical.",), ("calls", "self_s")),
    "oracles.oracle_table": (("oracles.oracle_table",), ("calls", "self_s")),
    "bijection.split_lah": (("bijection.split_lah",), ("self_s",)),
    "bijection.join_lah": (("bijection.join_lah",), ("self_s",)),
    "identities.check": (("identities.check",), ("calls", "self_s", "slowest_s")),
    "cli.main": (("cli.main",), ("self_s",)),
}

# Counts the benchmark harness records itself, outside the tracer.
HARNESS_COUNTS = ("bijection.pairs", "identities.cells", "cli.stdout_bytes")


def metric_names() -> list[str]:
    """Every per-layer metric a traced repetition reports."""
    names = [f"{prefix}.{field}" for prefix, (_spans, fields) in LAYER_METRICS.items()
             for field in fields]
    return names + list(HARNESS_COUNTS)


def unit(metric: str) -> str:
    if metric.endswith(("self_s", "slowest_s", "overhead_s")):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("bytes"):
        return "B"
    return "count"


def _qpoly_products(args) -> int:
    a, b = args[0], args[1]
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def _mpoly_products(args) -> int:
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


# span name -> (counter name, operand-size count taken before the call)
_ARG_COUNTERS = {
    "polyring.QPoly.__mul__": ("polyring.qpoly_mul.coeff_products", _qpoly_products),
    "polyring.MPoly.__mul__": ("polyring.mpoly_mul.term_products", _mpoly_products),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.generators: set[int] = set()
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.originals[name] = fn
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, stack, clock = self.span_parent, self.stack, time.perf_counter
        counts = self.counts

        if inspect.isgeneratorfunction(fn):
            self.generators.add(nid)
            generators = self.generators
            module = name.split(".", 1)[0]
            yields_key = f"{name}.yields"

            def resume(it, counted):
                while True:
                    i = len(starts)
                    names.append(nid)
                    parents.append(stack[-1])
                    ends.append(0.0)
                    stack.append(i)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[i] = clock()
                        stack.pop()
                    if counted:
                        counts[yields_key] += 1
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # a generator driven by another generator of its module (as
                # enum_extended_lah drives enum_extended_lah_tracked) is part
                # of the outer one: its items are counted there
                p = stack[-1]
                nested = (p >= 0 and names[p] in generators
                          and self.names[names[p]].split(".", 1)[0] == module)
                return resume(fn(*args, **kwargs), not nested)
            return traced_gen

        key, measure = _ARG_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if measure is not None:
                counts[key] += measure(args)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
        return traced

    def install(self, modules) -> None:
        """Wrap the public callables defined in ``modules`` and re-bind every
        module-level name that refers to one of them."""
        replaced: dict[int, tuple[object, object]] = {}

        def wrap_once(name, fn):
            if id(fn) not in replaced:
                replaced[id(fn)] = (fn, self._wrap(name, fn))
            return replaced[id(fn)][1]

        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(f"{short}.{attr}", obj, wrap_once)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrap_once(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._replace(mod, attr, replaced[id(obj)][1])

    def uninstall(self) -> None:
        """Put every original back, so that later calls record nothing."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install_methods(self, prefix, cls, wrap_once) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            if inspect.isfunction(obj):
                name = f"{prefix}.{obj.__name__}"
                self._replace(cls, attr, wrap_once(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                name = f"{prefix}.{obj.__func__.__name__}"
                self._replace(cls, attr, type(obj)(wrap_once(name, obj.__func__)))

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as one JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": [["name", "I"], ["start", "d"], ["end", "d"],
                             ["parent", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent):
                arr.tofile(fh)

    def layer_metrics(self, harness_counts: dict[str, int]) -> dict[str, float]:
        """Reduce the spans to the values of ``metric_names()``."""
        nspan = len(self.span_start)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        module = [n.split(".", 1)[0] for n in self.names]
        generators = self.generators
        # a generator span nested in a generator span of its own module is
        # folded into the outer one's key, matching how yields are counted
        key = array("I", names)
        child = array("d", bytes(8 * nspan))
        for i in range(nspan):
            p = parents[i]
            if p < 0:
                continue
            child[p] += ends[i] - starts[i]
            nid = names[i]
            if nid in generators and names[p] in generators \
                    and module[nid] == module[names[p]]:
                key[i] = key[p]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        slowest = [0.0] * len(self.names)
        for i in range(nspan):
            k = key[i]
            dur = ends[i] - starts[i]
            calls[k] += 1
            self_s[k] += dur - child[i]
            if dur > slowest[k]:
                slowest[k] = dur

        out: dict[str, float] = {}
        for prefix, (patterns, fields) in LAYER_METRICS.items():
            ids = [nid for nid, n in enumerate(self.names)
                   if any(n.startswith(p) if p.endswith(".") else n == p
                          for p in patterns)]
            for field in fields:
                metric = f"{prefix}.{field}"
                if field == "calls":
                    out[metric] = sum(calls[i] for i in ids)
                elif field == "self_s":
                    out[metric] = sum(self_s[i] for i in ids)
                elif field == "slowest_s":
                    out[metric] = max((slowest[i] for i in ids), default=0.0)
                elif field == "cache_hit_ratio":
                    info = self.originals[patterns[0]].cache_info()
                    looked_up = info.hits + info.misses
                    out[metric] = info.hits / looked_up if looked_up else 0.0
                elif field == "structures":
                    out[metric] = self.counts[f"{patterns[0]}.yields"]
                else:
                    out[metric] = self.counts[metric]
        for name in HARNESS_COUNTS:
            out[name] = harness_counts.get(name, 0)
        return out
