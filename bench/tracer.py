"""Span tracer for the benchmark's traced run.

`install` wraps public functions and methods of `vanish` from outside: a
module-level function is rebound at every `vanish` module that imported
it (so `vanish.groebner.buchberger` and `vanish.ideals.buchberger` both
record), a method is replaced on its class.  Every wrapper returns the
wrapped call's result unchanged.

Spans are kept in memory and aggregated per (name, parent).  A span's
self time is its duration minus the durations of its child spans.  Hot
leaves (`MonomialOrder.key`) only count calls.  `snapshot` turns the
aggregates into the flat mapping that `run.per_layer` reads; the
counts in it are deterministic for a given input.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.outer = defaultdict(float)   # inclusive time of outermost spans per name
        self.counts = defaultdict(int)    # counters and summed values
        self.peaks = defaultdict(int)
        self.stack: list[list] = []       # open spans: [name, child_seconds]
        self.depth = defaultdict(int)
        self.key_calls = [0]
        self.lru = None                   # vanish.local._hilbert_numerator, once installed
        self.lru_start = (0, 0)

    def reset(self):
        """Forget everything recorded so far (wrappers hold these objects)."""
        for table in (self.spans, self.outer, self.counts, self.peaks, self.depth):
            table.clear()
        self.stack.clear()
        self.key_calls[0] = 0
        if self.lru is not None:
            info = self.lru.cache_info()
            self.lru_start = (info.hits, info.misses)

    def parent(self) -> str:
        return self.stack[-1][0] if self.stack else ""

    def call(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        depth = self.depth[name]
        self.depth[name] = depth + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            self.depth[name] = depth
            key = (name, parent[0] if parent else "")
            rec = self.spans.get(key)
            if rec is None:
                rec = self.spans[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]
            if depth == 0:
                self.outer[name] += dt
            if parent is not None:
                parent[1] += dt

    def peak(self, name: str, value: int):
        if value > self.peaks[name]:
            self.peaks[name] = value

    def snapshot(self) -> dict:
        """Flat aggregates: `calls:`/`self:`/`incl:` per span name,
        `under:<child>/<parent>` inclusive seconds per pair, counters,
        `max:` peaks and the Hilbert-numerator cache hits and misses."""
        stats: dict[str, float] = defaultdict(int)
        for (name, parent), (calls, total, self_s) in self.spans.items():
            stats["calls:" + name] += calls
            stats["self:" + name] += self_s
            stats[f"under:{name}/{parent}"] += total
        for name, total in self.outer.items():
            stats["incl:" + name] += total
        for name, value in self.counts.items():
            stats[name] += value
        for name, value in self.peaks.items():
            stats["max:" + name] = value
        stats["orders.key.calls"] += self.key_calls[0]
        if self.lru is not None:
            info = self.lru.cache_info()
            stats["local.hilbert_numerator.hits"] += info.hits - self.lru_start[0]
            stats["local.hilbert_numerator.misses"] += info.misses - self.lru_start[1]
        return dict(stats)


def merge(into: dict, stats: dict) -> None:
    """Add one snapshot into another: peaks take the maximum, the rest sum."""
    for key, value in stats.items():
        if key.startswith("max:"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def _rebind(orig, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "vanish" or name.startswith("vanish.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries of an imported `vanish` in spans of `tr`."""
    # every importing module must be loaded before rebinding
    from vanish import cli, fixtures  # noqa: F401
    from vanish import groebner, ideals, idealfile, local, parser, theorems
    from vanish.orders import MonomialOrder
    from vanish.poly import Polynomial

    counts = tr.counts

    def function(module, attr, wrapper_factory):
        orig = getattr(module, attr)
        wrapper = functools.wraps(orig)(wrapper_factory(orig))
        _rebind(orig, wrapper)

    def span(name):
        return lambda orig: lambda *args, **kwargs: tr.call(name, orig, *args, **kwargs)

    def method(cls, attr, name, after=None):
        orig = getattr(cls, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = tr.call(name, orig, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        setattr(cls, attr, wrapper)

    def terms_peak(polys):
        for g in polys:
            tr.peak("poly.terms.peak", len(g.terms))

    # -- groebner --------------------------------------------------------
    def buchberger(orig):
        def wrapper(ring, gens, order=groebner.GREVLEX):
            counts["groebner.buchberger.calls"] += 1
            basis = tr.call(f"groebner.buchberger.{order.kind}", orig, ring, gens, order)
            tr.peak("groebner.basis_len.max", len(basis))
            terms_peak(basis)
            return basis
        return wrapper

    def normal_form(orig):
        def wrapper(f, basis, order=groebner.GREVLEX):
            field = "QQ" if f.ring.field.characteristic == 0 else "GF"
            caller = tr.parent()
            r = tr.call(f"groebner.normal_form.{field}", orig, f, basis, order)
            if caller.startswith("groebner.buchberger."):
                counts["groebner.normal_form.in_buchberger"] += 1
                counts["groebner.normal_form.zero_in_buchberger"] += r.is_zero()
            tr.peak("poly.terms.peak", len(r.terms))
            return r
        return wrapper

    def spoly(orig):
        def wrapper(f, g, order=groebner.GREVLEX):
            s = tr.call("groebner.spoly", orig, f, g, order)
            tr.peak("poly.terms.peak", len(s.terms))
            return s
        return wrapper

    function(groebner, "buchberger", buchberger)
    function(groebner, "normal_form", normal_form)
    function(groebner, "spoly", spoly)

    key_calls = tr.key_calls
    orig_key = MonomialOrder.key

    def key(self, exps):
        key_calls[0] += 1
        return orig_key(self, exps)
    MonomialOrder.key = key

    # -- poly ------------------------------------------------------------
    def product_terms(p):
        if p is not NotImplemented:
            tr.peak("poly.terms.peak", len(p.terms))

    method(Polynomial, "__mul__", "poly.mul", after=product_terms)

    # -- ideals ----------------------------------------------------------
    for attr, name in (("intersect", "ideals.intersect"), ("colon", "ideals.colon"),
                       ("radical_contains", "ideals.radical_contains"),
                       ("eliminate", "ideals.eliminate"), ("__pow__", "ideals.pow"),
                       ("dimension", "ideals.dimension")):
        method(ideals.Ideal, attr, name)

    def saturation_index(result):
        counts["ideals.saturate.index_sum"] += result[1]

    method(ideals.Ideal, "saturate", "ideals.saturate", after=saturation_index)

    orig_gb = ideals.Ideal.groebner_basis

    @functools.wraps(orig_gb)
    def groebner_basis(self, *args, **kwargs):
        before = counts["groebner.buchberger.calls"]
        gb = tr.call("ideals.groebner_basis", orig_gb, self, *args, **kwargs)
        counts["ideals.groebner_basis.hits"] += before == counts["groebner.buchberger.calls"]
        return gb
    ideals.Ideal.groebner_basis = groebner_basis

    orig_eq = ideals.Ideal.__eq__

    @functools.wraps(orig_eq)
    def eq(self, other):
        counts["ideals.eq.calls"] += 1
        return orig_eq(self, other)
    ideals.Ideal.__eq__ = eq

    # -- local -----------------------------------------------------------
    def symbolic_power(orig):
        def wrapper(p, m):
            before = tr.spans.get(("ideals.pow", "local.symbolic_power"), [0])[0]
            result = tr.call("local.symbolic_power", orig, p, m)
            after = tr.spans.get(("ideals.pow", "local.symbolic_power"), [0])[0]
            counts["local.symbolic_power.hits"] += before == after
            return result
        return wrapper

    function(local, "symbolic_power", symbolic_power)
    for attr, name in (("verify_isolated_singularity", "local.verify_isolated_singularity"),
                       ("hilbert_series", "local.hilbert_series"),
                       ("associativity_check", "local.associativity_check"),
                       ("local_length_at_monomial_prime", "local.local_length")):
        function(local, attr, span(name))
    method(local.PrimeWitness, "__init__", "local.PrimeWitness.init")

    # -- theorems, parser, idealfile --------------------------------------
    def verify_sp2(orig):
        def wrapper(*args, **kwargs):
            rep = tr.call("theorems.verify_sp2", orig, *args, **kwargs)
            for phase, seconds in rep.timings.items():
                counts[f"theorems.verify_sp2.{phase}_s"] += seconds
            return rep
        return wrapper

    function(theorems, "verify_sp2", verify_sp2)
    function(parser, "parse_polynomial", span("parser.parse_polynomial"))

    orig_load = idealfile.IdealFile.__dict__["load"].__func__

    @functools.wraps(orig_load)
    def load(cls, path):
        return tr.call("idealfile.load", orig_load, cls, path)
    idealfile.IdealFile.load = classmethod(load)

    tr.lru = local._hilbert_numerator   # its cache_info() gives the hit rate
    tr.reset()
