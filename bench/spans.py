"""Span recorder that times bisectmesh's layers from outside the package.

Every public function of the layer modules is replaced, at every module
binding that refers to it, by a wrapper that records one span per call:
name, start, end, parent span and job id.  ``cli.run_sequence`` and
``harness.refine`` are such bindings: both are imported names, and a call
through them must be timed like a call to the definition.  A few methods
that the per-layer metrics name are wrapped on their class.

Spans stay in memory (compact arrays) until :meth:`Recorder.dump`.  Self
time, the span's duration minus the time its child spans cover, is
aggregated online per name.  Probes attached to some names count work
(bisections, shape classes, bytes, memo hits) where it happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

PACKAGE = "bisectmesh"
LAYERS = (
    "exactgeom",
    "tarray",
    "forest",
    "refine",
    "inittags",
    "harness",
    "pilegame",
    "meshio",
    "cli",
)
# span name -> (module, class, method) for the methods the metrics name
METHODS = {
    "tarray.midpoint_id": ("tarray", "VertexPool", "midpoint_id"),
    "forest.ensure_children": ("forest", "Forest", "ensure_children"),
    "forest.bisect_leaf": ("forest", "Triangulation", "bisect_leaf"),
}


def _modules():
    return {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}


def public_functions():
    """``(span name, function)`` for every public module-level function
    defined in a layer module."""
    return [
        (f"{short}.{attr}", obj)
        for short, mod in _modules().items()
        for attr, obj in sorted(vars(mod).items())
        if not attr.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
    ]


class Recorder:
    """Records spans of wrapped calls; single-threaded by design."""

    def __init__(self, probes=None):
        self.probes = probes or {}
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._undo: list = []
        self.off = False  # set while the benchmark checks answers between jobs
        self.name_of = array("i")
        self.parent = array("q")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        self.job = 0
        self._stack: list = []

    def _name(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return i

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        i = self._name(name)
        probe = self.probes.get(name)
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.off:
                return fn(*args, **kwargs)
            stack = rec._stack
            sid = len(rec.start)
            rec.name_of.append(i)
            rec.parent.append(stack[-1][0] if stack else -1)
            rec.job_of.append(rec.job)
            token = probe.before(rec, args) if probe else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            rec.start.append(t0)
            rec.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec.end[sid] = t1
                rec.calls[i] += 1
                rec.total_s[i] += dur
                rec.self_s[i] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if probe:
                probe.after(rec, args, result, token, dur)
            return result

        return wrapper

    def install(self):
        """Wrap every public layer function at every binding, and the
        named methods on their classes."""
        mods = list(_modules().values())
        for name, fn in public_functions():
            wrapped = self._wrap(name, fn)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))
        by_name = _modules()
        for name, (short, cls_name, meth) in METHODS.items():
            cls = getattr(by_name[short], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def totals(self) -> dict:
        """``{name: (calls, self_s, total_s)}`` for names called at least once."""
        return {
            n: (self.calls[i], self.self_s[i], self.total_s[i])
            for i, n in enumerate(self.names)
            if self.calls[i]
        }

    def counts(self) -> dict:
        """Everything that must repeat exactly between two identical passes."""
        out = {f"{n}.calls": c for n, (c, _, _) in self.totals().items()}
        out.update(
            {k: v for k, v in self.counters.items() if isinstance(v, int)}
        )
        return out

    def calls_in_job(self, name: str, job: int) -> int:
        i = self._index.get(name)
        if i is None:
            return 0
        return sum(
            1 for n, j in zip(self.name_of, self.job_of) if n == i and j == job
        )

    def dump(self, directory):
        """Write the spans as arrays in native byte order plus a JSON header."""
        os.makedirs(directory, exist_ok=True)
        fields = ("name_of", "parent", "job_of", "start", "end")
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "count": len(self.start),
            "byteorder": sys.byteorder,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": self.names,
        }
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump(header, fh, indent=1)


def load_spans(directory):
    """Read a dump written on a host of the same byte order back as
    ``(names, rows)``; a row is ``(name, parent, job, start, end)``."""
    with open(os.path.join(directory, "spans.json")) as fh:
        header = json.load(fh)
    n = header["count"]
    cols = []
    with open(os.path.join(directory, "spans.bin"), "rb") as fh:
        for _, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    names = header["names"]
    rows = [(names[a], b, c, d, e) for a, b, c, d, e in zip(*cols)]
    return names, rows
