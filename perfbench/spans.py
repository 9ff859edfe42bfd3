"""Spans around the calls into each toughkit layer.

``install`` rebinds every public function that a toughkit module holds in
its namespace (its own and the ones it imports from other modules) to a
wrapper that records a span: name, start, end, parent and process.  Calls
from one module into another go through those names, so each layer
boundary gets a span without any change to toughkit itself.  Private
helpers are not wrapped: spans inside a layer are a change to the program,
not to the benchmark.

toughkit forks worker pools.  A forked worker inherits the stack of open
spans, so its spans point at the span that forked it; it appends each
finished span to a file of its own in the spool directory, because pool
workers end without running exit handlers.  The owning process keeps its
spans in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import types

LAYERS = ("cli", "formats", "graphs", "generators", "invariants", "search", "verify")

# Called once per leaf combination inside induced_stars and claw_centers; a
# span there would cost more than the call it measures.
UNWRAPPED = frozenset({"mask_of"})


class Tracer:
    def __init__(self, spool_dir: str):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            span = {"id": f"{os.getpid()}.{self.count}", "name": name,
                    "parent": self.stack[-1] if self.stack else None,
                    "pid": os.getpid()}
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                self._record(span)
        return traced

    def _record(self, span: dict) -> None:
        if span["pid"] == self.pid:
            self.spans.append(span)
            return
        path = os.path.join(self.spool_dir, f"spans-{span['pid']}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, (json.dumps(span) + "\n").encode())
        finally:
            os.close(fd)

    def collect(self) -> list[dict]:
        """This process's spans plus every span the forked workers spooled."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-"):
                with open(os.path.join(self.spool_dir, entry)) as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def install(tracer: Tracer):
    """Wrap the public toughkit functions; returns a callable that undoes it."""
    modules = [importlib.import_module(f"toughkit.{layer}") for layer in LAYERS]
    wrappers: dict = {}
    undo = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                    or attr in UNWRAPPED or inspect.isgeneratorfunction(obj)
                    or not obj.__module__.startswith("toughkit.")):
                continue
            if obj not in wrappers:
                layer = obj.__module__.rsplit(".", 1)[1]
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{obj.__name__}")
            setattr(mod, attr, wrappers[obj])
            undo.append((mod, attr, obj))

    def uninstall():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)
    return uninstall


def orphans(spans: list[dict]) -> list[dict]:
    """Spans whose parent was never recorded."""
    ids = {s["id"] for s in spans}
    return [s for s in spans if s["parent"] is not None and s["parent"] not in ids]


def children_of(spans: list[dict]) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children forked into pool workers run in parallel, so the covered part
    is the union of the children's intervals, not the sum of their lengths.
    """
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(kids.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def outermost(span: dict, kids: dict, names) -> list[dict]:
    """Descendants of ``span`` named in ``names`` with no such ancestor."""
    found = []
    stack = list(kids.get(span["id"], ()))
    while stack:
        s = stack.pop()
        if s["name"] in names:
            found.append(s)
        else:
            stack.extend(kids.get(s["id"], ()))
    return found
