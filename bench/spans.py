"""Span recording for the traced benchmark run.

The recorder wraps public library functions from the outside.  Each call
through a wrapper appends one span (name, start, end, parent span, op id,
integer tag) to flat arrays, so a long run costs a few dozen bytes per
span.  Self time is derived afterwards: a span's duration minus the
durations of its direct children.  Nothing here touches library code; the
wrappers are installed into module namespaces and removed again.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np


class Recorder:
    """Spans and boundary counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("q")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._installed: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, tag=None, observe=None):
        """Return fn wrapped in a span named `name`.

        tag(args, kwargs) gives an integer stored with the span (a size or
        a mode); observe(counters, args, kwargs, result, exc) updates
        boundary counters from the returned value or raised exception.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.tag.append(tag(args, kwargs) if tag else 0)
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(idx)
            self.start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                stack.pop()
                if observe:
                    observe(self.counters, args, kwargs, None, exc)
                raise
            self.end[idx] = clock()
            stack.pop()
            if observe:
                observe(self.counters, args, kwargs, result, None)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def count(self, name, fn):
        """Return fn wrapped so that it only increments counter `name`;
        for calls so cheap that a span would cost more than the call."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, module, attr, wrapper_of):
        """Replace module.attr by wrapper_of(original) in the defining
        module and in every loaded package module that imported it by
        name (for instance rlex_solve.support_enumeration)."""
        orig = getattr(module, attr)
        wrapper = wrapper_of(orig)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix
                                   or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, orig))

    def uninstall(self):
        for mod, key, orig in reversed(self._installed):
            setattr(mod, key, orig)
        self._installed.clear()

    def arrays(self) -> dict:
        """Spans as numpy columns plus derived duration and self time."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = parent >= 0
        child_sum = np.bincount(parent[child], weights=dur[child],
                                minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int64),
            "dur": dur,
            "self": dur - child_sum,
        }

    def save(self, path):
        """Write every span to an .npz file, names alongside."""
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **{
            k: cols[k] for k in ("name", "start", "end", "parent", "op", "tag")
        })


class SpanView:
    """Selections over recorded spans by name, for metric derivation."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.cols = rec.arrays()

    def mask(self, name: str):
        nid = self.rec._name_ids.get(name)
        if nid is None:
            return np.zeros(len(self.cols["name"]), dtype=bool)
        return self.cols["name"] == nid

    def mean(self, name: str, col: str = "dur", where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.cols[col][m].mean()) if m.any() else 0.0

    def total(self, name: str, col: str = "dur", where=None) -> float:
        m = self.mask(name) if where is None else self.mask(name) & where
        return float(self.cols[col][m].sum())

    def tags(self, name: str, where=None):
        m = self.mask(name) if where is None else self.mask(name) & where
        return self.cols["tag"][m]
