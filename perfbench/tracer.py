"""Span tracing and cache bookkeeping for the benchmark.

Spans are recorded from the benchmark's own files: ``Tracer.install``
replaces a library function by a timing wrapper in every ``homstab`` module
namespace that binds it (the defining module and every ``from .x import f``
copy), and ``Tracer.restore`` puts the originals back.  IntMat allocations
are counted by wrapping ``IntMat.__init__`` the same way.  No library file
is changed.

A span is (id, parent id, op index, name, start ns, end ns).  Self time is a
span's duration minus the time covered by its direct child spans; the
process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import pkgutil
import time

SPAN_CAP = 200_000  # spans kept for the spans file; statistics keep counting


def package_modules(package) -> list:
    """The package itself and every module in it, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _short(modname: str) -> str:
    return modname.rsplit(".", 1)[-1]


class CacheBook:
    """Every lru cache of the package, found by scanning for ``cache_clear``.

    ``cache_clear`` resets ``cache_info``, so hits and misses are banked
    before each clear and ``totals`` adds the live counts on top.
    """

    def __init__(self, modules):
        self.caches: dict[str, object] = {}
        seen = set()
        for mod in modules:
            holders = [vars(mod)] + [vars(v) for v in vars(mod).values()
                                     if isinstance(v, type)
                                     and v.__module__ == mod.__name__]
            for ns in holders:
                for obj in ns.values():
                    if (callable(getattr(obj, "cache_clear", None))
                            and callable(getattr(obj, "cache_info", None))
                            and id(obj) not in seen):
                        seen.add(id(obj))
                        name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                        self.caches[name] = obj
        self.banked = {name: [0, 0] for name in self.caches}

    def clear(self) -> None:
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.banked[name][0] += info.hits
            self.banked[name][1] += info.misses
            fn.cache_clear()
            if fn.cache_info().currsize != 0:
                raise RuntimeError(f"cache {name} kept entries after clear")

    def reset_counts(self) -> None:
        self.clear()
        self.banked = {name: [0, 0] for name in self.caches}

    def totals(self) -> dict[str, list[int]]:
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            hits, misses = self.banked[name]
            out[name] = [hits + info.hits, misses + info.misses]
        return out


def _max_digits(res) -> int:
    top = 0
    for mat in (res.U, res.Uinv, res.S, res.V, res.Vinv):
        for row in mat.data:
            for x in row:
                if x > top or -x > top:
                    top = abs(x)
    return len(str(top))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total, self] ns
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.intmat_allocs = 0
        self.intmat_cells = 0
        self.snf_max_digits = 0
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next = 1
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, post=None):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else 0, tracer.op,
                                  name, start, end))
                else:
                    tracer.dropped += 1
            if post is not None:
                # the hook is the benchmark's work: keep it out of the
                # caller's self time as if it were a child span
                p0 = clock()
                post(result)
                if parent is not None:
                    parent[1] += clock() - p0
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op: int, fn, *args):
        """Call fn(*args) inside a root span named ``op``."""
        self.op = op
        return self.wrap("op", fn)(*args)

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, modules, orig, replacement) -> None:
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def install(self, modules, targets) -> None:
        """Wrap each ``module.function`` target (short module names) in every
        module namespace binding it; count IntMat allocations and the digits
        of every SNF result."""
        by_short = {_short(m.__name__): m for m in modules}
        for target in targets:
            modname, func = target.split(".", 1)
            mod = by_short.get(modname)
            orig = getattr(mod, func, None) if mod is not None else None
            if not callable(orig):
                self.missing.append(target)
                continue
            post = self._snf_post if target == "exactlin.snf" else None
            self._patch_everywhere(modules, orig, self.wrap(target, orig, post))
        intmat = getattr(by_short.get("exactlin"), "IntMat", None)
        if intmat is None:
            self.missing.append("exactlin.IntMat")
            return
        orig_init = intmat.__init__
        tracer = self

        def counting_init(mat, *args, **kwargs):
            orig_init(mat, *args, **kwargs)
            tracer.intmat_allocs += 1
            tracer.intmat_cells += mat.rows * mat.cols

        intmat.__init__ = counting_init
        self._undo.append((intmat, "__init__", orig_init))

    def _snf_post(self, res) -> None:
        digits = _max_digits(res)
        if digits > self.snf_max_digits:
            self.snf_max_digits = digits

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        for owner, key, orig in self._undo:
            if getattr(owner, key) is not orig:
                raise RuntimeError(f"could not restore {owner.__name__}.{key}")
        self._undo.clear()

    def merge(self, doc: dict, op: int) -> None:
        """Add the export of a tracer that ran op ``op`` in a child process;
        its span ids are shifted past this tracer's."""
        for name, (calls, total, own) in doc["stats"].items():
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += total
            st[2] += own
        self.intmat_allocs += doc["intmat_allocs"]
        self.intmat_cells += doc["intmat_cells"]
        self.snf_max_digits = max(self.snf_max_digits, doc["snf_max_digits"])
        self.missing = sorted(set(self.missing) | set(doc["missing"]))
        self.dropped += doc["dropped"]
        base = self._next
        for sid, parent, _, name, start, end in doc["spans"]:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid + base, parent + base if parent else 0,
                                   op, name, start, end))
            else:
                self.dropped += 1
            self._next = max(self._next, sid + base + 1)

    def export(self) -> dict:
        return {"stats": self.stats, "intmat_allocs": self.intmat_allocs,
                "intmat_cells": self.intmat_cells,
                "snf_max_digits": self.snf_max_digits,
                "missing": self.missing, "dropped": self.dropped,
                "spans": self.spans}
