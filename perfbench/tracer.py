"""Per-layer counters and self times, recorded from outside the package.

install() wraps the package's functions and methods listed in SPANS and
COUNTS. A function bound into several module namespaces by
`from .x import y` is replaced in every one of them; a method is replaced on
its class, so every instance and every caller sees the wrapper.

A span's self time is its duration minus the durations of the spans it
called. Spans are aggregated per name as they close instead of being kept,
because the hot ones close millions of times in one run. COUNTS wrappers only
count: their time stays with the caller's span. So matrix products called
from quotient code count as quotient time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

MODULES = ("roots", "weyl", "quotient", "linkpatterns", "nilpotent", "cli")

# (module, attribute, span name). Names listed in BENCHMARK.json are printed;
# the others only move time into their own layer's total.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("roots", "build_root_system", "roots.build_root_system"),
    ("roots", "RootSystem.span_membership", "roots.span_membership"),
    ("roots", "RootSystem.dominantize", "roots.dominantize"),
    ("weyl", "WeylGroup.__init__", "weyl.WeylGroup"),
    ("weyl", "WeylGroup.bruhat_leq", "weyl.bruhat_leq"),
    ("weyl", "WeylGroup.bruhat_covers_below", "weyl.bruhat_covers_below"),
    ("weyl", "WeylGroup.subgroup_elements", "weyl.subgroup_elements"),
    ("weyl", "WeylElement.reduced_word", "weyl.reduced_word"),
    ("weyl", "WeylElement.length", "weyl.length"),
    ("weyl", "WeylElement.right_descents", "weyl.right_descents"),
    ("weyl", "parabolic_decompose", "weyl.parabolic_decompose"),
    ("weyl", "from_word", "weyl.from_word"),
    ("weyl", "identity", "weyl.identity"),
    ("weyl", "simple_reflection", "weyl.simple_reflection"),
    ("weyl", "reflection", "weyl.reflection"),
    ("weyl", "to_line_notation", "weyl.to_line_notation"),
    ("weyl", "from_line_notation", "weyl.from_line_notation"),
    ("quotient", "IJKDatum.canonical_rep", "quotient.canonical_rep"),
    ("quotient", "IJKDatum.coset", "quotient.coset"),
    ("quotient", "IJKDatum.star_extend", "quotient.star_extend"),
    ("quotient", "IJKDatum.member_of_M", "quotient.member_of_M"),
    ("quotient", "IJKDatum.quotient_elements", "quotient.quotient_elements"),
    ("quotient", "min_set", "quotient.min_set"),
    ("quotient", "leq_O", "quotient.leq_O"),
    ("quotient", "covers_O_below", "quotient.covers_O_below"),
    ("quotient", "build_poset", "quotient.build_poset"),
    ("quotient", "PosetGraph.to_json", "quotient.render"),
    ("quotient", "PosetGraph.to_dot", "quotient.render"),
    ("linkpatterns", "orbit_pair_params", "linkpatterns.orbit_pair_params"),
    ("linkpatterns", "all_patterns", "linkpatterns.all_patterns"),
    ("linkpatterns", "orbit_dimension", "linkpatterns.orbit_dimension"),
    ("linkpatterns", "leq_D", "linkpatterns.leq_D"),
    ("linkpatterns", "leq_rank", "linkpatterns.leq_rank"),
    ("linkpatterns", "leq_seq", "linkpatterns.leq_seq"),
    ("linkpatterns", "q_table", "linkpatterns.q_table"),
    ("linkpatterns", "rank_table", "linkpatterns.rank_table"),
    ("linkpatterns", "perm_from_olp", "linkpatterns.perm_from_olp"),
    ("nilpotent", "classify", "nilpotent.classify"),
    ("nilpotent", "is_rationally_orthogonal", "nilpotent.is_rationally_orthogonal"),
    ("nilpotent", "is_spherical", "nilpotent.is_spherical"),
    ("nilpotent", "height_of_sum", "nilpotent.height_of_sum"),
    ("nilpotent", "levi_and_involution", "nilpotent.levi_and_involution"),
    ("nilpotent", "chain_cascade", "nilpotent.chain_cascade"),
    ("cli", "main", "cli.main"),
)

COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("weyl", "WeylElement.mul", "weyl.mul"),
    ("weyl", "WeylElement.inv", "weyl.inv"),
)

LAYERS = ("roots", "weyl", "quotient", "linkpatterns", "nilpotent")
CACHES = ("q_table", "rank_table")


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_s: Dict[str, float] = defaultdict(float)
        self.events: Dict[str, int] = defaultdict(int)
        # stack[-1] sums the durations of spans closed inside the open span;
        # stack[0] sums the top-level spans.
        self.stack: List[float] = [0.0]
        self.caches: Dict[str, object] = {}
        self._min_set_seen: set = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable, after=None) -> Callable:
        calls, self_s, layer_s, stack = self.calls, self.self_s, self.layer_s, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += own
                layer_s[layer] += own

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_hook(self, name: str):
        events = self.events
        if name == "weyl.WeylGroup":
            def after(args, result):
                events["weyl.WeylGroup.elements"] += len(args[0].elements)
        elif name == "quotient.min_set":
            seen = self._min_set_seen

            def after(args, result):
                key = (id(args[0].datum), args[0].rep)
                if key in seen:
                    events["quotient.min_set.repeats"] += 1
                else:
                    seen.add(key)
        elif name == "quotient.member_of_M":
            def after(args, result):
                events["quotient.member_of_M.accepts"] += bool(result)
        else:
            after = None
        return after

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every SPANS and COUNTS target in the imported package."""
        package = importlib.import_module("weylorbits")
        modules = {m: importlib.import_module(f"weylorbits.{m}") for m in MODULES}
        namespaces = [package, *modules.values()]
        for layer, attr, name in SPANS:
            self._patch(modules[layer], namespaces, attr,
                        lambda fn: self._span(name, layer, fn, self._after_hook(name)))
        for layer, attr, name in COUNTS:
            self._patch(modules[layer], namespaces, attr, lambda fn: self._count(name, fn))

    def _patch(self, module, namespaces, attr: str, make: Callable) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        if attr in CACHES:
            self.caches[attr] = original
        wrapper = make(original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)

    # -- results --------------------------------------------------------------

    def raw(self) -> Dict[str, Dict]:
        """Counters that add up across processes (see merge_raw)."""
        caches = {}
        for attr, fn in self.caches.items():
            info = fn.cache_info()
            caches[attr] = [info.hits, info.misses]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layer_s": dict(self.layer_s),
            "events": dict(self.events),
            "caches": caches,
            "inside_s": self.stack[0],
        }


def merge_raw(raws: List[Dict]) -> Dict:
    out: Dict = {"calls": {}, "self_s": {}, "layer_s": {}, "events": {}, "caches": {}, "inside_s": 0.0}
    for raw in raws:
        for part in ("calls", "self_s", "layer_s", "events"):
            for key, value in raw[part].items():
                out[part][key] = out[part].get(key, 0) + value
        for key, (hits, misses) in raw["caches"].items():
            h, m = out["caches"].get(key, [0, 0])
            out["caches"][key] = [h + hits, m + misses]
        out["inside_s"] += raw["inside_s"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: Dict) -> Dict[str, float]:
    """Metric values by name from raw counters; absent counters read 0."""
    calls, self_s, events = raw["calls"], raw["self_s"], raw["events"]
    names = {name for _, _, name in SPANS}
    out: Dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for _, _, name in COUNTS:
        out[f"{name}.calls"] = calls.get(name, 0)
    out["weyl.WeylGroup.builds"] = calls.get("weyl.WeylGroup", 0)
    out["weyl.WeylGroup.elements"] = events.get("weyl.WeylGroup.elements", 0)
    out["quotient.min_set.hit_ratio"] = _ratio(
        events.get("quotient.min_set.repeats", 0), calls.get("quotient.min_set", 0)
    )
    out["quotient.member_of_M.accept_ratio"] = _ratio(
        events.get("quotient.member_of_M.accepts", 0), calls.get("quotient.member_of_M", 0)
    )
    for attr in CACHES:
        hits, misses = raw["caches"].get(attr, [0, 0])
        out[f"linkpatterns.{attr}.hit_ratio"] = _ratio(hits, hits + misses)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = raw["layer_s"].get(layer, 0.0)
    return out
