"""Spans and counts at polycond's layer boundaries, for the traced run.

Every public function of polycond's modules is wrapped at each module
namespace that binds it: ``from .spectra import eigenvalues`` makes
``perturb.eigenvalues`` and ``cli.eigenvalues`` separate bindings of one
function, and wrapping only the defining module would miss the calls made
through them.  A few methods and NumPy's ``svd``/``eigvals`` are wrapped as
well.  Hot leaf calls get counts only; everything else gets a span (name,
start, end, parent span, op id).  Spans stay in memory until ``dump``.

Recording happens only inside ``Tracer.op``, so the benchmark's own output
checks are neither timed nor counted.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("core", "io", "linearization", "spectra", "condition", "bounds",
           "perturb", "pseudospectra", "cli")

# Called per grid node, per coefficient or per draw: a span each would cost
# more than the call, so these are counted only and their time stays with
# the caller.
COUNT_ONLY = frozenset({
    "core.as_complex_matrix",
    "core.singular_values",
    "core.spectral_norm",
    "core.MatrixPolynomial.eval",
    "core.MatrixPolynomial.eval_derivative",
    "core.WeightSet.eval",
    "perturb.perturbation_rng",
})

# span name -> (count name, amount of work read off the call's result)
RESULT_COUNTS = {
    "pseudospectra.grid_eval": ("pseudospectra.grid_nodes", lambda g: g.nx * g.ny),
    "pseudospectra.contours": ("pseudospectra.contour_segments", lambda cs: len(cs.segments)),
}

# (module, class, attribute, span name) for methods that are layer boundaries
METHODS = (
    ("core", "MatrixPolynomial", "__init__", "core.MatrixPolynomial_init"),
    ("core", "MatrixPolynomial", "eval", "core.MatrixPolynomial.eval"),
    ("core", "MatrixPolynomial", "eval_derivative", "core.MatrixPolynomial.eval_derivative"),
    ("core", "WeightSet", "eval", "core.WeightSet.eval"),
)


def public_functions(module):
    """Functions a module defines and exports: its ``__all__``, or every
    name without a leading underscore when it has none (``cli``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        f = getattr(module, n, None)
        if inspect.isfunction(f) and f.__module__ == module.__name__:
            out[n] = f
    return out


class Tracer:
    """Wraps polycond's layer boundaries and records what crosses them."""

    def __init__(self):
        self.spans = []                 # (id, name, start, end, parent, op)
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self.active = False
        self._op = None
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self._t0 = time.perf_counter()

    # -- recording -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def _span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        frame = [sid, 0.0]              # id, time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if stack:
                stack[-1][1] += dur
            with self._lock:
                self.self_time[name] += dur - frame[1]
                self.counts[name] += 1
                self.spans.append((sid, name, start - self._t0, end - self._t0,
                                   parent, self._op))

    @contextmanager
    def op(self, kind):
        """Root span of one benchmark operation; recording is on inside it."""
        self._op = next(self._ops)
        self.active = True
        try:
            with self._span(f"op.{kind}"):
                yield
        finally:
            self.active = False
            self._op = None

    def spanned(self, f, name):
        tracer = self
        work = RESULT_COUNTS.get(name)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return f(*args, **kwargs)
            with tracer._span(name):
                out = f(*args, **kwargs)
            if work is not None:
                with tracer._lock:
                    tracer.counts[work[0]] += work[1](out)
            return out
        return wrapper

    def counted(self, f, name, matrices=False):
        tracer = self

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer.counts[name] += 1
                    if matrices:
                        shape = np.shape(args[0] if args else kwargs["a"])
                        tracer.counts[name + "_matrices"] += int(np.prod(shape[:-2], dtype=int))
            return f(*args, **kwargs)
        return wrapper

    def _wrap(self, f, name):
        return self.counted(f, name) if name in COUNT_ONLY else self.spanned(f, name)

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of every public polycond function, the methods
        in METHODS, and NumPy's svd/eigvals at the numpy.linalg boundary."""
        package = importlib.import_module("polycond")
        modules = [importlib.import_module(f"polycond.{m}") for m in MODULES]
        wrappers = {}                   # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for n, f in public_functions(mod).items():
                wrappers[id(f)] = (f, self._wrap(f, f"{short}.{n}"))
        for ns in [package, *modules]:
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(ns, attr, hit[1])
        for mod, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(f"polycond.{mod}"), cls)
            self._set(owner, attr, self._wrap(owner.__dict__[attr], name))
        # np.linalg.norm(M, 2) reaches svd through the implementation
        # module's globals, so that binding is wrapped too
        linalg_impl = getattr(np.linalg, "_linalg", None) or getattr(np.linalg, "linalg")
        for fname in ("svd", "eigvals"):
            orig = getattr(np.linalg, fname)
            w = self.counted(orig, f"linalg.{fname}", matrices=(fname == "svd"))
            self._set(np.linalg, fname, w)
            if linalg_impl.__dict__.get(fname) is orig:
                self._set(linalg_impl, fname, w)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------

    def dump(self, path):
        """Write every span as [id, name, start_s, end_s, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
