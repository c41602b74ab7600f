"""Span tracing of the quartet library from outside it.

The tracer replaces every public function of the layer modules with a wrapper
that records one span per call: name, start, end, parent span and unit id.
A function imported by name into another module (``ascent`` and ``ame`` import
``reduced_matrix`` from ``core``; ``ame`` imports ``ascend``) is wrapped at
every module that binds it, so calls through either binding are seen.  The two
numpy eigensolvers are wrapped as the ``linalg`` layer.

Spans stay in memory in integer arrays and are written out when the run ends.
Self time is a span's duration minus the time its direct children cover.
"""

import contextlib
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("core", "entropy", "ascent", "ame", "canonical", "measure", "catalog", "cli")
LINALG_FUNCTIONS = ("eigh", "eigvalsh")


def layer_functions() -> dict:
    """Map each public function of the layer modules to its ``<module>.<name>`` label.

    Submodules come from ``importlib`` because the package namespace rebinds
    ``quartet.entropy`` and ``quartet.measure`` to same-named functions.
    """
    labels = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"quartet.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                labels[obj] = f"{short}.{name}"
    return labels


class Tracer:
    """Records spans while ``recording`` is set; install with ``with tracer.installed():``."""

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.recording = False
        self.unit = -1
        self._stack = [-1]
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit_id = array("q")
        self._patches = None
        self.known = set()

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, fn, label: str):
        nid = self._label_id(label)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends, parents, units = self.name, self.start, self.end, self.parent, self.unit_id

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.unit)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _find_patches(self):
        """(owner, attribute, wrapper) for every binding of a traced function."""
        targets = layer_functions()
        self.known = set(targets.values()) | {f"linalg.{f}" for f in LINALG_FUNCTIONS}
        wrappers = {fn: self._wrap(fn, label) for fn, label in targets.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "quartet" or name.startswith("quartet."))]
        patches = [(mod, attr, wrappers[obj]) for mod in modules for attr, obj in list(vars(mod).items())
                   if inspect.isfunction(obj) and obj in wrappers]
        patches += [(np.linalg, f, self._wrap(getattr(np.linalg, f), f"linalg.{f}")) for f in LINALG_FUNCTIONS]
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Bind the wrappers in place of the traced functions for the duration of the block."""
        if self._patches is None:
            self._patches = self._find_patches()
        restore = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "unit": np.array(self.unit_id, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per label: call count and self time in seconds."""
        a = self.arrays()
        n_labels = len(self.labels)
        dur = (a["end"] - a["start"]).astype(float)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(a["name"], minlength=n_labels)
        self_total = np.bincount(a["name"], weights=self_ns, minlength=n_labels)
        return {label: {"calls": int(calls[i]), "self_s": float(self_total[i]) * 1e-9}
                for i, label in enumerate(self.labels)}

    def child_calls(self, parent_labels, child_labels) -> int:
        """Spans labelled in ``child_labels`` whose direct parent is labelled in ``parent_labels``."""
        a = self.arrays()
        ids = {self._label_ids[x] for x in child_labels if x in self._label_ids}
        pids = {self._label_ids[x] for x in parent_labels if x in self._label_ids}
        if not ids or not pids:
            return 0
        mask = np.isin(a["name"], list(ids)) & (a["parent"] >= 0)
        parents = a["parent"][mask]
        return int(np.isin(a["name"][parents], list(pids)).sum())

    def save(self, path):
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())
