"""Call tracing for the benchmark's traced runs.

The tracer wraps every public function and method of the measured
modules (plus a few named private ones the layer metrics need) and
replaces every binding of each wrapped object across the loaded
``spinkac`` modules: module attributes bound by ``from`` imports and
module-level tuples such as ``verify.ALL_CRITERIA``. Class methods are
patched on the class, which covers every instance. `uninstall` puts
every original object back.

Every call updates a caller -> callee edge with a count, the inclusive
time and the self time (inclusive minus the time of traced calls made
inside it). Calls not named in `hot` are also kept as spans
``(id, parent_id, name, start, end)`` in memory until `write_spans`.
Time comes from ``time.perf_counter``. Single-threaded use only.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

ROOT = "<root>"


class Tracer:
    def __init__(self, package, modules, private=(), hot=(), watch=None):
        """package: top-level package name; modules: submodule names
        whose functions are traced; private: extra ``module.name`` or
        ``module.Class.name`` entries to trace although they start with
        an underscore; hot: traced names that get no span records;
        watch: traced name -> callable(args, result, seconds) run
        after each call that returns."""
        self.package = package
        self.modules = tuple(modules)
        self.private = frozenset(private)
        self.hot = frozenset(hot)
        self.watch = dict(watch or {})
        self.edges = {}   # (callee, caller) -> [count, inclusive_s, self_s]
        self.spans = []
        self._stack = [[ROOT, 0.0, -1]]   # [name, child_s, span_id]
        self._patched = []                # (owner, attribute, original)

    # -- installation ----------------------------------------------------

    def _wanted(self, qualname, attr):
        return not attr.startswith("_") or qualname in self.private

    def _targets(self):
        """(owner, attribute, original, traced name) for every function
        to wrap; owners are the defining modules and classes."""
        out = []
        for short in self.modules:
            mod = sys.modules[f"{self.package}.{short}"]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and self._wanted(f"{short}.{attr}", attr):
                    out.append((mod, attr, obj, f"{short}.{attr}"))
                elif inspect.isclass(obj):
                    for mattr, meth in vars(obj).items():
                        qual = f"{short}.{attr}.{mattr}"
                        if inspect.isfunction(meth) and self._wanted(qual, mattr):
                            out.append((obj, mattr, meth, qual))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for owner, attr, orig, name in self._targets():
            wrapper = self._wrap(orig, name)
            wrappers[id(orig)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in wrappers for x in obj):
                    self._patch(mod, attr, tuple(wrappers.get(id(x), x) for x in obj))
        return self

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name):
        stack = self._stack
        edges = self.edges
        spans = self.spans
        record_span = name not in self.hot
        watch = self.watch.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if record_span:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[2]
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                key = (name, parent[0])
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]
                if record_span:
                    spans[span_id] = (span_id, parent[2], name, t0, t1)
            if watch is not None:
                watch(args, result, t1 - t0)
            return result

        traced.__traced__ = fn
        return traced

    # -- queries ---------------------------------------------------------

    def calls(self, name, caller=None):
        return sum(e[0] for (callee, c), e in self.edges.items()
                   if callee == name and (caller is None or c == caller))

    def total_s(self, name, caller=None):
        """Inclusive time of calls to `name`, not counting calls made
        from inside `name` itself (recursion)."""
        return sum(e[1] for (callee, c), e in self.edges.items()
                   if callee == name and c != name and (caller is None or c == caller))

    def self_s(self, name):
        return sum(e[2] for (callee, _), e in self.edges.items() if callee == name)

    def write_spans(self, path):
        """One JSON object: span rows and the call-edge table."""
        rows = [s for s in self.spans if s is not None]
        edges = [[callee, caller, *vals] for (callee, caller), vals in sorted(self.edges.items())]
        with open(path, "w") as fh:
            json.dump({"span_fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": rows,
                       "edge_fields": ["callee", "caller", "calls", "inclusive_s", "self_s"],
                       "edges": edges}, fh)
