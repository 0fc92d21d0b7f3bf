"""Span tracer for relhom, installed from outside the package.

``Tracer.install()`` replaces every module-level function of the traced
relhom modules, at every binding that refers to it (each module namespace
that imported the name, module-level dicts of functions such as the suite
table, and the package namespace), with a wrapper that records one span per
call: binding, parent span, start and end.  ``Tracer.uninstall()`` puts the
original objects back.  Spans live in flat arrays and are turned into the
per-layer metrics by ``Tracer.metrics()`` after the traced work is done.

Counters that need extra work (the number of distinct activity patterns) run
after the span closes and are recorded as pauses; pause time is removed from
every enclosing span, so counting costs no layer any time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("slices", "linalg", "taylor", "monomials", "invariants", "properties", "verifier", "cli")

# serialization happens in these methods; they are wrapped like functions
METHODS = (
    ("properties", "PropertyReport", "to_json"),
    ("properties", "Witnesses", "to_json"),
    ("invariants", "InvariantRecord", "to_json"),
)

_LRU_ATTRS = ("cache_info", "cache_clear", "cache_parameters")

# self time of every function is charged to one layer; these functions get
# their own layer, every other function is charged to its module
_LAYER_OF = {
    "slices._ext_activity": "slices.activity",
    "slices._cech_activity": "slices.activity",
    "slices._member_rows": "slices.activity",
    "slices._lattice_dims": "slices.dedup",
    "slices._incidence_rank": "slices.rank",
    "linalg.rank_mod_p": "linalg.rank",
}

# per-layer metrics in report order, with their units
PER_LAYER_UNITS = {
    "slices.grid.degrees": "count",
    "slices.activity.cells": "count",
    "slices.activity.s": "s",
    "slices.dedup.s": "s",
    "slices.dedup.patterns": "count",
    "slices.dedup.ratio": "ratio",
    "slices.rank.calls": "count",
    "slices.rank.misses": "count",
    "slices.rank.hit_ratio": "ratio",
    "slices.rank.s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.entries": "count",
    "linalg.rank.s": "s",
    "slices.profile.calls": "count",
    "slices.tables.built": "count",
    "invariants.grade.calls": "count",
    "invariants.cd.calls": "count",
    "invariants.localization.s": "s",
    "invariants.support.s": "s",
    "taylor.betti.calls": "count",
    "taylor.betti.misses": "count",
    "taylor.betti.s": "s",
    "monomials.primes.s": "s",
    "monomials.decomp.misses": "count",
    "properties.report.self_s": "s",
    "verifier.pair.p50_s": "s",
    "verifier.pair.p95_s": "s",
    "verifier.suites.s": "s",
    "verifier.serialize.s": "s",
    "cache.entries": "count",
    "cli.self_s": "s",
    "share.activity_dedup": "ratio",
    "share.rank": "ratio",
    "share.top_layer": "ratio",
    "trace.overhead_s": "s",
}


def _is_traced_function(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("relhom.") or module.split(".", 1)[1] not in MODULES:
        return False
    return inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "cache_info"))


def distinct_columns(active: np.ndarray) -> int:
    """Number of distinct columns of a boolean (subsets x degrees) activity matrix."""
    if active.shape[1] == 0:
        return 0
    packed = np.packbits(active, axis=0, bitorder="little")
    if packed.shape[0] <= 8:
        key = np.zeros(packed.shape[1], dtype=np.uint64)
        for k, row in enumerate(packed):
            key |= row.astype(np.uint64) << np.uint64(8 * k)
        return int(np.unique(key).size)
    rows = np.ascontiguousarray(packed.T)
    return int(np.unique(rows.view(np.dtype((np.void, rows.shape[1])))).size)


class Tracer:
    """Records spans for every call into the traced relhom functions."""

    def __init__(self):
        self.func_names: list[str] = []
        self.binding_labels: list[str] = []
        self.binding_func = array("i")
        self._restore: list = []
        self._span_binding = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._pause_start = array("d")
        self._pause_end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._caches_at_start: dict[str, tuple[int, int]] = {}
        self._modules = {}

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import relhom

        self._modules = {name: importlib.import_module(f"relhom.{name}") for name in MODULES}
        func_ids: dict[int, int] = {}

        def func_id(fn) -> int:
            if id(fn) not in func_ids:
                func_ids[id(fn)] = len(self.func_names)
                short = fn.__module__.split(".", 1)[1]
                self.func_names.append(f"{short}.{fn.__qualname__}")
            return func_ids[id(fn)]

        namespaces = [(f"relhom.{name}", vars(mod)) for name, mod in self._modules.items()]
        namespaces.append(("relhom", vars(relhom)))
        for label, space in namespaces:
            for name, obj in list(space.items()):
                if _is_traced_function(obj):
                    self._bind(space, name, obj, f"{label}.{name}", func_id(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _is_traced_function(value):
                            self._bind(obj, key, value, f"{label}.{name}[{key!r}]", func_id(value))
        for module, cls_name, method in METHODS:
            cls = getattr(self._modules[module], cls_name)
            fn = cls.__dict__[method]
            self._bind_attr(cls, method, fn, f"relhom.{module}.{cls_name}.{method}", func_id(fn))
        self._caches_at_start = self._cache_stats()
        return self

    def _bind(self, container: dict, key, fn, label: str, fid: int):
        container[key] = self._wrap(fn, label, fid)
        self._restore.append(lambda: container.__setitem__(key, fn))

    def _bind_attr(self, cls, name: str, fn, label: str, fid: int):
        setattr(cls, name, self._wrap(fn, label, fid))
        self._restore.append(lambda: setattr(cls, name, fn))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _wrap(self, fn, label: str, fid: int):
        binding = len(self.binding_labels)
        self.binding_labels.append(label)
        self.binding_func.append(fid)
        hook = _HOOKS.get(self.func_names[fid])
        spans_b, spans_p = self._span_binding, self._span_parent
        starts, ends, stack = self._span_start, self._span_end, self._stack
        counters, pause_start, pause_end = self.counters, self._pause_start, self._pause_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            spans_b.append(binding)
            spans_p.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                paused = clock()
                hook(counters, args, result)
                pause_start.append(paused)
                pause_end.append(clock())
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in _LRU_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    # -- reporting --------------------------------------------------------

    def _caches(self):
        """The incidence-rank, Betti and decomposition lru caches."""
        slices, taylor, monomials = (self._modules[m] for m in ("slices", "taylor", "monomials"))
        return {
            "rank": slices._incidence_rank,
            "betti": taylor.betti_numbers,
            "decomp": monomials.irreducible_decomposition,
        }

    def _cache_stats(self) -> dict[str, tuple[int, int]]:
        return {key: fn.cache_info()[:2] for key, fn in self._caches().items()}

    def cache_entries(self) -> int:
        """Entries held by the profile cache and the three lru caches."""
        profiles = len(self._modules["slices"]._PROFILE_CACHE)
        return profiles + sum(fn.cache_info().currsize for fn in self._caches().values())

    def binding_hits(self) -> dict[str, int]:
        counts = np.bincount(
            np.array(self._span_binding, dtype=np.int32), minlength=len(self.binding_labels)
        )
        return {label: int(c) for label, c in zip(self.binding_labels, counts)}

    def calls(self, func_name: str) -> int:
        fids = self._func_ids({func_name})
        spans = np.array(self._span_binding, dtype=np.int32)
        return int(np.isin(np.array(self.binding_func, dtype=np.int32)[spans], fids).sum())

    def _func_ids(self, names) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.func_names) if n in names], dtype=np.int32)

    def metrics(self, scope_s: float) -> dict[str, float]:
        """Per-layer metrics over everything traced since install.

        ``scope_s`` is the wall time of the traced scope; shares are layer
        self time over that time minus counting pauses.
        """
        n = len(self._span_start)
        binding = np.array(self._span_binding, dtype=np.int32)
        func = np.array(self.binding_func, dtype=np.int32)[binding]
        parent = np.array(self._span_parent, dtype=np.int32)
        start = np.array(self._span_start, dtype=np.float64)
        end = np.array(self._span_end, dtype=np.float64)
        p_start = np.array(self._pause_start, dtype=np.float64)
        p_len = np.array(self._pause_end, dtype=np.float64) - p_start
        cum = np.concatenate(([0.0], np.cumsum(p_len)))

        def paused_before(t):
            return cum[np.searchsorted(p_start, t, side="left")]

        dur = (end - start) - (paused_before(end) - paused_before(start))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        def in_group(names):
            return np.isin(func, self._func_ids(names))

        def inclusive(names) -> float:
            return float(dur[_outermost(in_group(names), parent)].sum())

        def self_of(names) -> float:
            return float(self_time[in_group(names)].sum())

        def count(names) -> int:
            return int(in_group(names).sum())

        caches_now = self._cache_stats()

        def delta(key):
            (h0, m0), (h1, m1) = self._caches_at_start[key], caches_now[key]
            return h1 - h0, m1 - m0

        rank_hits, rank_misses = delta("rank")
        _, betti_misses = delta("betti")
        _, decomp_misses = delta("decomp")
        c = self.counters
        pair = dur[in_group({"verifier.analyze_instance", "cli._cmd_analyze"})]
        layer_names = np.array([_LAYER_OF.get(name, name.split(".", 1)[0]) for name in self.func_names])
        layer_of_span = layer_names[func]
        layer_self = {
            layer: float(self_time[layer_of_span == layer].sum()) for layer in set(layer_names)
        }
        busy = max(scope_s - float(p_len.sum()), 1e-12)
        activity_s = inclusive({"slices._ext_activity", "slices._cech_activity"})
        dedup_s = self_of({"slices._lattice_dims"})
        slices_rank_s = self_of({"slices._incidence_rank"})
        linalg_rank_s = inclusive({"linalg.rank_mod_p"})
        out = {
            "slices.grid.degrees": c["grid_degrees"],
            "slices.activity.cells": c["activity_cells"],
            "slices.activity.s": activity_s,
            "slices.dedup.s": dedup_s,
            "slices.dedup.patterns": c["patterns"],
            "slices.dedup.ratio": c["patterns"] / c["dedup_degrees"] if c["dedup_degrees"] else 0.0,
            "slices.rank.calls": count({"slices._incidence_rank"}),
            "slices.rank.misses": rank_misses,
            "slices.rank.hit_ratio": rank_hits / (rank_hits + rank_misses) if rank_hits + rank_misses else 0.0,
            "slices.rank.s": slices_rank_s,
            "linalg.rank.calls": count({"linalg.rank_mod_p"}),
            "linalg.rank.entries": c["rank_entries"],
            "linalg.rank.s": linalg_rank_s,
            "slices.profile.calls": count({"slices.ext_profile", "slices.lc_profile"}),
            "slices.tables.built": count({"slices.ext_table", "slices.lc_table"}),
            "invariants.grade.calls": count({"invariants.grade"}),
            "invariants.cd.calls": count({"invariants.cd"}),
            "invariants.localization.s": inclusive({"invariants.grade_by_localization"}),
            "invariants.support.s": inclusive({"invariants.cd_by_support", "invariants.sop_witness_by_support"}),
            "taylor.betti.calls": count({"taylor.betti_numbers"}),
            "taylor.betti.misses": betti_misses,
            "taylor.betti.s": inclusive({"taylor.betti_numbers"}),
            "monomials.primes.s": inclusive(
                {"monomials.minimal_primes", "monomials.associated_primes", "monomials.irreducible_decomposition"}
            ),
            "monomials.decomp.misses": decomp_misses,
            "properties.report.self_s": self_of({"properties.full_report"}),
            "verifier.pair.p50_s": float(np.percentile(pair, 50)) if pair.size else 0.0,
            "verifier.pair.p95_s": float(np.percentile(pair, 95)) if pair.size else 0.0,
            "verifier.suites.s": inclusive({"verifier.run_suite", "verifier.reproduce_example"}),
            "verifier.serialize.s": self_of({"verifier.run_all_suites"})
            + inclusive(
                {
                    "verifier.corpus_digest",
                    "properties.PropertyReport.to_json",
                    "properties.Witnesses.to_json",
                    "invariants.InvariantRecord.to_json",
                }
            ),
            "cache.entries": self.cache_entries(),
            "cli.self_s": layer_self.get("cli", 0.0),
            "share.activity_dedup": (activity_s + dedup_s) / busy,
            "share.rank": (slices_rank_s + linalg_rank_s) / busy,
            "share.top_layer": max(layer_self.values(), default=0.0) / busy,
        }
        return out


def _outermost(member: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Spans in ``member`` that have no ancestor in ``member`` (pointer doubling)."""
    n = member.size
    up = np.append(parent, n)
    up[up < 0] = n
    flag = np.append(member, False)
    covered = flag[up]
    while (up[:n] != n).any():
        covered = covered | covered[up]
        up = up[up]
    return member & ~covered[:n]


def _activity_hook(counters, args, result):
    counters["grid_degrees"] += int(args[2].shape[0])
    counters["activity_cells"] += int(result.size)


def _dedup_hook(counters, args, result):
    counters["dedup_degrees"] += int(args[0].shape[1])
    counters["patterns"] += distinct_columns(args[0])


def _rank_hook(counters, args, result):
    counters["rank_entries"] += int(np.prod(np.shape(args[0])))


_HOOKS = {
    "slices._ext_activity": _activity_hook,
    "slices._cech_activity": _activity_hook,
    "slices._lattice_dims": _dedup_hook,
    "linalg.rank_mod_p": _rank_hook,
}
