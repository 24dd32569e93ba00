"""Spans recorded from outside the package.

``install`` wraps chosen public functions and methods of each centext
module, patching the name in every module that bound it (``from .linalg
import kernel_basis`` makes a second reference that must be replaced
too).  Each wrapped call records one span: name, start, end, parent span
and operation id, kept in flat arrays and written out when the run ends.
Self time is a span's duration minus the part its wrapped children cover.
Constructors and very small methods are counted but not timed.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

MODULES = (
    "fields", "linalg", "forms", "identities", "algebra", "cohomology",
    "automorphisms", "extensions", "orbits", "cli",
)


def _kernel_shape(recorder, args, kwargs, result):
    rows, ncols = args[0], args[1]
    recorder.add("linalg.kernel_basis.rows", len(rows))
    recorder.add("linalg.kernel_basis.cols", ncols)
    recorder.add("linalg.kernel_basis.rank", ncols - len(result))


def _orbit_report(recorder, args, kwargs, result):
    recorder.add("orbits.domain_size", result.domain_size)
    recorder.add("orbits.orbit_count", len(result.orbits))


# (module, attribute or Class.method, span name, kind, modules to patch in,
# hook on the result).  "span" records and times; "count" only counts.
# evaluate_tree recurses through its own module global, so it is patched
# only where algebra and cohomology call it: its calls are top-level ones.
TARGETS = (
    ("fields", "Scalar.__init__", "fields.Scalar.created", "count", None, None),
    ("identities", "builtin_variety", "identities.builtin_variety", "span", None, None),
    ("identities", "evaluate_tree", "identities.evaluate_tree", "span", ("algebra", "cohomology"), None),
    ("algebra", "Algebra.multiply", "algebra.multiply", "span", None, None),
    ("algebra", "satisfies_variety", "algebra.satisfies_variety", "span", None, None),
    ("cohomology", "cocycle_space", "cohomology.cocycle_space", "span", None, None),
    ("cohomology", "coboundary_space", "cohomology.coboundary_space", "span", None, None),
    ("cohomology", "second_cohomology", "cohomology.second_cohomology", "span", None, None),
    ("cohomology", "check_cocycle", "cohomology.check_cocycle", "span", None, None),
    ("cohomology", "CohomologySpace.reduce_class", "cohomology.reduce_class", "span", None, None),
    ("cohomology", "annihilator_intersection", "cohomology.annihilator_intersection", "span", None, None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", "span", None, _kernel_shape),
    ("linalg", "rref", "linalg.rref", "span", None, None),
    ("linalg", "rref_with_transform", "linalg.rref_with_transform", "span", None, None),
    ("linalg", "mat_vec", "linalg.mat_vec", "span", None, None),
    ("linalg", "mat_mul", "linalg.mat_mul", "span", None, None),
    ("automorphisms", "Automorphism.__init__", "automorphisms.Automorphism.created", "count", None, None),
    ("automorphisms", "class_action_matrix", "automorphisms.class_action_matrix", "span", None, None),
    ("automorphisms", "act_on_cocycle", "automorphisms.act_on_cocycle", "span", None, None),
    ("orbits", "ClassAction.apply", "orbits.ClassAction.apply", "span", None, None),
    ("orbits", "ClassAction.normalize_line", "orbits.ClassAction.normalize_line.calls", "count", None, None),
    ("orbits", "ClassAction.line_in_t1", "orbits.ClassAction.line_in_t1", "span", None, None),
    ("orbits", "orbits_on_T1", "orbits.classify", "span", None, _orbit_report),
    ("orbits", "orbits_on_H2", "orbits.classify", "span", None, _orbit_report),
    ("orbits", "check_table1", "orbits.check_table1", "span", None, None),
    ("extensions", "central_extension", "extensions.central_extension", "span", None, None),
    ("extensions", "build_extension", "extensions.build_extension", "span", None, None),
    ("cli", "main", "cli.main", "span", None, None),
)


class Recorder:
    """Spans of one traced run, plus per-name calls, self time and counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.op = -1
        self._stack = []        # [span index, time covered by children]
        self.calls = {}
        self.self_s = {}
        self.counters = {}

    def add(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._ids[name]

    def timed(self, name, fn, hook=None):
        nid = self._id(name)
        stack = self._stack
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1][0] if stack else -1)
            rec.op_id.append(rec.op)
            rec.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            rec.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.end[idx] = t1
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rec.calls[name] += 1
                rec.self_s[name] += dur - frame[1]
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """One JSON header line, then the span arrays in machine byte
        order: name_id, parent, op_id (int32) and start, end (float64)."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name_id:i4", "parent:i4", "op_id:i4", "start:f8", "end:f8"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.op_id, self.start, self.end):
                arr.tofile(fh)


def install(recorder):
    """Wrap every target; return a function that restores the originals."""
    mods = {m: importlib.import_module(f"centext.{m}") for m in MODULES}
    everywhere = list(mods.values()) + [importlib.import_module("centext")]
    undo = []
    for mod_name, attr, name, kind, patch_in, hook in TARGETS:
        if "." in attr:  # a method: the class is its only holder
            cls_name, attr = attr.split(".")
            holders = [getattr(mods[mod_name], cls_name)]
            orig = holders[0].__dict__[attr]
        else:
            holders = [mods[m] for m in patch_in] if patch_in else everywhere
            orig = getattr(mods[mod_name], attr)
        wrapped = recorder.counted(name, orig) if kind == "count" else recorder.timed(name, orig, hook)
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, orig))

    def restore():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return restore
