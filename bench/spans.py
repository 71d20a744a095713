"""Spans around the package's public functions, kept in memory.

`Tracer.install` replaces every public function of the given modules with a
wrapper that records one span (name, start, end, parent span) per call.
Modules import many of these functions by name, so each wrapper is set
wherever the caller looks the name up (e.g. both `qstat.q_statistic` and
`tau2.q_statistic`), and all of those carry the defining module's name.

Worker processes forked by a process pool inherit the wrappers.  Each
worker writes the spans of one chunk task to a file in `worker_dir` when the
task returns; `collect_workers` merges those files into the parent's record.
"""

from __future__ import annotations

import functools
import glob
import inspect
import os
import pickle
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, worker_dir: str | None = None):
        self.worker_dir = worker_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._flushes = 0
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None, flush: bool = False):
        """`fn` with a span named `name` around each call.  `after(tracer,
        args, result)` runs once the call has returned.  With `flush`, a
        worker process writes out its spans when the call returns."""
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, result)
            if flush and self._in_worker:
                self._flush_worker()
            return result

        return traced

    def install(self, modules: dict, externals=(), hooks=None,
                worker_entry=None) -> None:
        """Wrap the public functions of `modules` ({short name: module}).

        `externals` lists (short name, attribute) pairs of functions that a
        module imports from outside the package, each traced under
        "<short>.<attribute>" in that module only.  `hooks` maps a span name
        to its `after` callback.  `worker_entry` is (short name, attribute)
        of the function a process pool runs in its workers.
        """
        hooks = hooks or {}
        spans: dict[object, str] = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    spans[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(fn, name, hooks.get(name))
                    for fn, name in spans.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        for short, attr in externals:
            mod = modules[short]
            name = f"{short}.{attr}"
            self._set(mod, attr, self.wrap(getattr(mod, attr), name,
                                           hooks.get(name)))
        if worker_entry is not None:
            short, attr = worker_entry
            mod = modules[short]
            self._set(mod, attr, self.wrap(getattr(mod, attr),
                                           f"{short}.worker_chunk", flush=True))

    def _set(self, mod, attr: str, value) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    # -- worker processes --------------------------------------------------

    _in_worker = False

    def _after_fork(self) -> None:
        if self._undo:
            self._in_worker = True
            self.reset()

    def _flush_worker(self) -> None:
        self._flushes += 1
        path = os.path.join(self.worker_dir,
                            f"spans-{os.getpid()}-{self._flushes}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self._dump(), fh)
        self.reset()

    def _dump(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tobytes(),
                "parent": self.parent.tobytes(), "start": self.start.tobytes(),
                "end": self.end.tobytes(), "counts": self.counts}

    def clear_workers(self) -> None:
        for path in glob.glob(os.path.join(self.worker_dir, "spans-*.pkl")):
            os.unlink(path)

    def collect_workers(self) -> int:
        """Merge the span files that workers wrote; returns how many."""
        paths = sorted(glob.glob(os.path.join(self.worker_dir, "spans-*.pkl")))
        for path in paths:
            with open(path, "rb") as fh:
                part = pickle.load(fh)
            offset = len(self.name_id)
            ids = [self._id(n) for n in part["names"]]
            for nid in array("i", part["name_id"]):
                self.name_id.append(ids[nid])
            for p in array("i", part["parent"]):
                self.parent.append(p + offset if p >= 0 else -1)
            self.start.frombytes(part["start"])
            self.end.frombytes(part["end"])
            for key, value in part["counts"].items():
                self.count(key, value)
        return len(paths)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its child spans cover)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        size = len(self.names)
        calls = np.bincount(nid, minlength=size)
        incl = np.bincount(nid, weights=dur, minlength=size)
        own = np.bincount(nid, weights=dur - child, minlength=size)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path: str) -> None:
        """Write every span, as parallel arrays plus the name table."""
        np.savez(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
