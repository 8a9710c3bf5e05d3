"""Span recorder that wraps mtkl's layer functions from outside the library.

Each wrapped call records one span (layer name, parent span id, start, end)
in flat arrays and adds to exact per-layer counters. A layer's self time is
its span's duration minus the time its direct child spans cover; calls are
synchronous and single-threaded, so children nest strictly inside parents.

``LAYERS`` lists every binding a caller actually looks up. A module-level
``from .x import f`` gives the importing module its own binding, so a layer
called from two modules is patched in both places under one layer name.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from collections import Counter, defaultdict

import numpy as np


def _pgd(tr, args, kwargs, out):
    tr.counts["accel.hinge_pgd.iters"] += int(out[2])
    tr.counts["accel.hinge_pgd.nonconverged"] += int(not out[3])


def _entries(layer):
    def count(tr, args, kwargs, out):
        tr.counts[f"{layer}.entries"] += int(out.size)
    return count


def _evaluate(tr, args, kwargs, out):
    tr.counts["margin.evaluate.points"] += int(out.size)


def _sample(tr, args, kwargs, out):
    tr.counts["envsim.sample.points"] += int(out[0].shape[0])


def _input_law(tr, args, kwargs, out):
    tr.counts["envsim.input_law.points"] += int(out.shape[0])
    if tr.parent_name() == "envsim.sample":
        tr.counts["envsim.sample.drawn"] += int(out.shape[0])


def _candidates(tr, args, kwargs, out):
    tr.counts["erm.candidates"] += len(out)


def _shattered(tr, args, kwargs, out):
    tr.counts["capacity.is_shattered.hits"] += int(bool(out[0]))


def _scan(tr, args, kwargs, out):
    counts = args[1]
    tr.counts["accel.shatter_scan.combos"] += math.prod(int(c) for c in counts)


# (module, attribute path, layer name, extra counter)
LAYERS = (
    ("mtkl._accel", "hinge_pgd", "accel.hinge_pgd", _pgd),
    ("mtkl._accel", "shatter_scan", "accel.shatter_scan", _scan),
    ("mtkl.kernels", "Kernel.gram", "kernels.gram", _entries("kernels.gram")),
    ("mtkl.kernels", "Kernel.cross", "kernels.cross", _entries("kernels.cross")),
    ("mtkl.margin", "psd_defect", "kernels.psd", None),
    ("mtkl.erm", "instantiate", "kernels.instantiate", None),
    ("mtkl.margin", "Predictor.evaluate", "margin.evaluate", _evaluate),
    ("mtkl.erm", "fit_single_task", "margin.fit", None),
    ("mtkl.envsim", "fit_single_task", "margin.fit", None),
    ("mtkl.envsim", "Distribution.sample", "envsim.sample", _sample),
    ("mtkl.envsim", "InputLaw.sample", "envsim.input_law", _input_law),
    ("mtkl.envsim", "TaskEnvironment.draw_task", "envsim.draw_task", None),
    ("mtkl.envsim", "run_trial", "envsim.run_trial", None),
    ("mtkl.envsim", "overhead_curve", "envsim.overhead_curve", None),
    ("mtkl.envsim", "multitask_epsilon", "bounds", None),
    ("mtkl.erm", "enumerate_candidates", "erm.enumerate", _candidates),
    ("mtkl.envsim", "enumerate_candidates", "erm.enumerate", _candidates),
    ("mtkl.erm", "fit_candidate", "erm.fit_candidate", None),
    ("mtkl.envsim", "fit_candidate", "erm.fit_candidate", None),
    ("mtkl.envsim", "erm_fit", "erm.erm_fit", None),
    ("mtkl.cli", "erm_fit", "erm.erm_fit", None),
    ("mtkl.capacity", "pseudodim_lower_bound", "capacity.pseudodim", None),
    ("mtkl.capacity", "is_shattered", "capacity.is_shattered", _shattered),
    ("mtkl.cli", "load_multitask_sample", "cli.load_sample", None),
    ("mtkl.cli", "main", "cli.learn", None),
)


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory spans plus counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # children included
        self.root_s = 0.0  # wall time covered by spans with no parent
        self._stack: list[list] = []  # [span id, name, child coverage]
        self._saved: list = []

    def parent_name(self):
        """Layer of the innermost open span (counters run after their own
        span has closed, so this is the caller's layer)."""
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn, extra):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_start[span_id] = start
                self.span_end[span_id] = end
                duration = end - start
                self.self_s[name] += duration - frame[2]
                self.total_s[name] += duration
                self.counts[f"{name}.calls"] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_s += duration
            if extra is not None:
                extra(self, args, kwargs, out)
            return out

        return traced

    def install(self):
        for module, path, name, extra in LAYERS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, extra))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write every span (layer, parent id, start, end) as a compressed npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            layer=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
