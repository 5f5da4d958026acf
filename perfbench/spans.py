"""Spans and counters recorded from outside the program.

The tracer wraps public functions and methods of the ``loghodge`` modules and
rebinds every module-level name that refers to the wrapped object, so a
caller that did ``from .linalg import rref`` sees the wrapper too.  Function
local imports read the module attribute at call time and need nothing extra.

A span is ``(id, name, start, end, parent id, op id)``.  Spans stay in memory
until the pass ends.  Counters that need the arguments or the result keep
references only; the arithmetic on them happens in ``layer_metrics`` after the
pass, so it never lands inside a timed span.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path, span name).  The span name is the metric prefix.
TARGETS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "Matrix.__mul__", "linalg.matmul"),
    ("linalg", "Matrix.apply", "linalg.apply"),
    ("linalg", "Subspace.intersect", "linalg.intersect"),
    ("linalg", "LinearMap.preimage", "linalg.preimage"),
    ("linalg", "LinearMap.kernel", "linalg.kernel"),
    ("linalg", "induced_map", "linalg.induced_map"),
    ("filtrations", "monodromy_filtration", "filtrations.monodromy"),
    ("filtrations", "relative_monodromy_filtration", "filtrations.relmono"),
    ("filtrations", "star", "filtrations.star"),
    ("model", "load_model", "model.load"),
    ("model", "validate", "model.validate"),
    ("model", "imhs_check", "model.imhs"),
    ("complexes", "build_omega", "complexes.build"),
    ("complexes", "build_ic", "complexes.build"),
    ("complexes", "build_ic_log", "complexes.build"),
    ("complexes", "FilteredComplex.validate", "complexes.validate"),
    ("complexes", "ComplexMap.validate", "complexes.validate"),
    ("complexes", "cohomology", "complexes.cohomology"),
    ("complexes", "quotient_complex", "complexes.quotient"),
    ("complexes", "dualize", "complexes.dualize"),
    ("complexes", "cone", "complexes.cone"),
    ("complexes", "intersection_morphism", "complexes.intersection_morphism"),
    ("complexes", "link_complex", "complexes.link"),
    ("decomposition", "check_graded_decomposition", "decomposition.graded"),
    ("decomposition", "purity_check", "decomposition.purity"),
    ("decomposition", "intersection_image", "decomposition.intersection_image"),
    ("model", "canonical_json", "cli.emit"),
    ("cli", "corpus_entry", "cli.corpus_entry"),
    ("generate", "random_pure_model", "generate.model"),
    ("generate", "random_imhs_model", "generate.model"),
]

BUILD_KINDS = {"build_omega": "omega", "build_ic": "ic", "build_ic_log": "iclog"}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self.rref_inputs = []      # (rows, width, output) per call
        self.apply_matrices = []   # matrix per Matrix.apply call
        self.builds = []           # (op, kind, z, largest term) per builder call
        self.current_op = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- op identity ----------------------------------------------------------

    @property
    def op(self):
        """The op a span belongs to: the pass's current op, or inside
        ``corpus_entry`` (which may run on a pool thread) that op and the
        instance path."""
        return getattr(self._local, "op", None) or self.current_op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ----------------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def wrap(self, name, fn, attr):
        """A wrapper recording a span, plus the references some counters need."""
        run = self.run
        if attr == "rref":
            inputs = self.rref_inputs

            def wrapper(rows, width, *args, **kwargs):
                if not isinstance(rows, (list, tuple)):
                    rows = list(rows)
                out = run(name, fn, rows, width, *args, **kwargs)
                inputs.append((len(rows), width, out))
                return out
        elif attr == "Matrix.apply":
            matrices = self.apply_matrices

            def wrapper(matrix, *args, **kwargs):
                matrices.append(matrix)
                return run(name, fn, matrix, *args, **kwargs)
        elif attr in BUILD_KINDS:
            kind, builds, tracer = BUILD_KINDS[attr], self.builds, self

            def wrapper(model, *args, **kwargs):
                out = run(name, fn, model, *args, **kwargs)
                z = kwargs.get("z", args[0] if args else None)
                key = tuple(sorted(z)) if kind == "iclog" else ()
                builds.append((tracer.op, kind, key, max(out.dims, default=0)))
                return out
        elif attr == "corpus_entry":
            tracer = self

            def wrapper(path, *args, **kwargs):
                tracer._local.op = f"{tracer.current_op}/{path}"
                try:
                    return run(name, fn, path, *args, **kwargs)
                finally:
                    tracer._local.op = None
        else:
            def wrapper(*args, **kwargs):
                return run(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines, in the order they ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


# -- patching ------------------------------------------------------------------

def _resolve(mod, path):
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(package_modules, original, replacement):
    """Point every module-level name bound to original at replacement."""
    for mod in package_modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def install(tracer, package):
    """Wrap every target in TARGETS; returns a callable that undoes it."""
    for mod_name, _path, _span in TARGETS:
        importlib.import_module(f"{package.__name__}.{mod_name}")
    modules = package_modules(package)
    undo = []
    for mod_name, path, span in TARGETS:
        mod = importlib.import_module(f"{package.__name__}.{mod_name}")
        owner, attr = _resolve(mod, path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span, original, path)
        if owner is mod:
            _rebind(modules, original, wrapper)
            undo.append(lambda o=original, w=wrapper: _rebind(modules, w, o))
        else:
            setattr(owner, attr, wrapper)
            undo.append(lambda ow=owner, a=attr, o=original: setattr(ow, a, o))

    def uninstall():
        for step in reversed(undo):
            step()
    return uninstall


class ScalarCounter:
    """Counts Scalar add/sub/mul/div calls and those with an imaginary operand."""

    def __init__(self):
        self.ops = 0
        self.gaussian = 0

    def install(self, scalar_cls):
        originals = {name: scalar_cls.__dict__[name] for name in SCALAR_OPS}
        counter = self

        def counting(fn):
            def op(a, b):
                counter.ops += 1
                if a.im or getattr(b, "im", 0):
                    counter.gaussian += 1
                return fn(a, b)
            return op

        for name, fn in originals.items():
            setattr(scalar_cls, name, counting(fn))

        def uninstall():
            for name, fn in originals.items():
                setattr(scalar_cls, name, fn)
        return uninstall


# -- aggregation ---------------------------------------------------------------

def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - covered([k for k in kids if k[1] > k[0]])
    return out


def _max_bits(rows):
    best = 0
    for row in rows:
        for e in row:
            for part in (e.re, e.im):
                best = max(best, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return best


def layer_metrics(tracer):
    """Per-span-name calls and self time, plus the counters the wrappers keep."""
    selfs = self_times(tracer.spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    for sid, name, *_ in tracer.spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
    out = {}
    for name in sorted({t[2] for t in TARGETS}):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    rrefs = tracer.rref_inputs
    out["linalg.rref.cells"] = sum(rows * width for rows, width, _ in rrefs)
    out["linalg.rref.max_width"] = max((w for _, w, _ in rrefs), default=0)
    out["linalg.rref.max_bits"] = max((_max_bits(o) for _, _, o in rrefs), default=0)
    nonzero, total, seen = 0, 0, {}
    for m in tracer.apply_matrices:
        key = id(m)
        if key not in seen:
            seen[key] = sum(1 for row in m.entries for e in row if e)
        nonzero += seen[key]
        total += m.rows * m.cols
    out["linalg.apply.nonzero_share"] = nonzero / total if total else 0.0
    builds = tracer.builds
    out["complexes.build.max_term_dim"] = max((b[3] for b in builds), default=0)
    distinct = {b[:3] for b in builds}
    out["complexes.build.distinct_share"] = len(distinct) / len(builds) if builds else 0.0
    return out
