"""Spans and counters recorded around calls into liestruct's layers.

Nothing here touches the library's source: ``install`` replaces each traced
function by a wrapper in every liestruct module namespace that binds it
(``chief`` and ``crowns`` import module-layer functions by name), and
``count_field_ops`` patches the scalar methods of the two field classes.
Both are meant for a fresh worker process and are never undone.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs whose calls are timed; "Class.method" names a
# classmethod.  Metric names are "<module>.<function>.{calls,incl_s,self_s}".
TRACED = (
    ("linalg", "Subspace.from_vectors"),
    ("linalg", "rref_solve"),
    ("modules", "socle_space"),
    ("modules", "spin"),
    ("modules", "enveloping_basis"),
    ("modules", "certify_irreducible"),
    ("modules", "hom_space"),
    ("modules", "module_isomorphism"),
    ("modules", "split_abelian_extension"),
    ("modules", "socle_and_minimal_ideals"),
    ("polys", "charpoly"),
    ("polys", "is_irreducible"),
    ("algebra", "quotient_algebra"),
    ("algebra", "bracket_spaces"),
    ("algebra", "centralizer"),
    ("chief", "chief_series"),
    ("chief", "connected"),
    ("chief", "module_isomorphic"),
    ("crowns", "all_crowns"),
    ("crowns", "crown_of_factor"),
    ("crowns", "prefrattini"),
    ("primitive", "classify_primitive"),
    ("oracle", "enum_structures"),
    ("oracle", "oracle_check"),
    ("corpus", "load"),
    ("cli", "build_report"),
)

# Counters that are not per-function spans.
DISTINCT = "modules.socle_and_minimal_ideals.distinct"
BUILDS = "oracle.enum_structures.builds"
SUBSPACES = "oracle.subspaces_enumerated"
FIELD_OPS = "fields.ops"
OVERHEAD = "trace.overhead_s"

FIELD_METHODS = ("add", "sub", "mul", "inv", "neg", "is_zero")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, func in TRACED:
        units[f"{module}.{func}.calls"] = "count"
        units[f"{module}.{func}.incl_s"] = "s"
        units[f"{module}.{func}.self_s"] = "s"
    for name in (DISTINCT, BUILDS, SUBSPACES, FIELD_OPS):
        units[name] = "count"
    units[OVERHEAD] = "s"
    return units


class Tracer:
    """In-memory spans of one rung: [name, start, end, parent index, rung]."""

    def __init__(self, rung: str):
        self.rung = rung
        self.spans: list = []
        self._stack: list = []
        self.counts = {SUBSPACES: 0}
        self._socle_args: set = set()

    def wrap(self, name: str, fn):
        spans, stack, rung = self.spans, self._stack, self.rung
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, rung]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _note_socle_args(self, fn):
        seen = self._socle_args

        @functools.wraps(fn)
        def noted(L, I, *args, **kwargs):
            seen.add((L, I))
            return fn(L, I, *args, **kwargs)

        return noted

    def _count_subspaces(self, gen_fn):
        counts = self.counts

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for U in gen_fn(*args, **kwargs):
                counts[SUBSPACES] += 1
                yield U

        return counted

    def install(self) -> None:
        import liestruct.oracle

        modules = _liestruct_modules()
        for module, func in TRACED:
            name = f"{module}.{func}"
            owner = modules[module]
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, orig)))
                continue
            orig = getattr(owner, func)
            wrapped = self.wrap(name, orig)
            if func == "socle_and_minimal_ideals":
                wrapped = self._note_socle_args(wrapped)
            _rebind(modules, orig, wrapped)
        liestruct.oracle.iter_subspaces = self._count_subspaces(liestruct.oracle.iter_subspaces)

    def layer_counts(self) -> dict:
        """Per-function calls, inclusive and self seconds, plus the counters."""
        import liestruct.oracle

        out = {}
        for name, calls, incl, self_s in aggregate(self.spans):
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        out[DISTINCT] = len(self._socle_args)
        out[BUILDS] = liestruct.oracle._enum_structures_cached.cache_info().misses
        return out


def _liestruct_modules() -> dict:
    import liestruct

    mods = {"": liestruct}
    for key, mod in list(sys.modules.items()):
        if key.startswith("liestruct.") and mod is not None:
            mods[key.split(".", 1)[1]] = mod
    return mods


def _rebind(modules: dict, orig, wrapped) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover."""
    children: dict = {}
    for idx, span in enumerate(spans):
        children.setdefault(span[3], []).append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def aggregate(spans: list) -> list:
    """(name, calls, inclusive seconds, self seconds) per span name.

    Inclusive time counts only outermost calls of a name, so a function
    that re-enters itself is not counted twice."""
    selfs = self_times(spans)
    totals: dict = {}
    for idx, span in enumerate(spans):
        name, start, end, parent, _ = span
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[2] += selfs[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t[1] += end - start
    return [(name, c, i, s) for name, (c, i, s) in sorted(totals.items())]


def count_field_ops(counter: list) -> None:
    """Count every scalar add/sub/mul/inv/neg/is_zero call in counter[0]."""
    from liestruct.fields import PrimeField, Rationals

    for cls in (Rationals, PrimeField):
        for meth in FIELD_METHODS:
            setattr(cls, meth, _counting(getattr(cls, meth), counter))


def _counting(fn, counter: list):
    @functools.wraps(fn)
    def counted(*args):
        counter[0] += 1
        return fn(*args)

    return counted
