"""Span recorder around the public functions of every groupquant module.

``Tracer.install()`` replaces each public function, and each public method
and ``__init__`` of each public class, of the modules in ``LAYERS`` with a
wrapper that records a span: name, start, end and the parent span. A
function is replaced under every name it is bound to in the package, since
``from .wigner import wigner_D_euler_grid`` binds a second name at import
time that patching only ``wigner`` would miss. ``uninstall()`` puts the
originals back. Nothing in ``src/`` changes.

Per layer (module) the tracer keeps the call count and the self time: span
time minus the time of the spans it encloses. Work counters read call
arguments and results (``COUNTERS``). Spans stay in memory and are written
out once, by ``write()``.
"""

import csv
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("_kernels", "wigner", "theta", "groups", "peterweyl", "heat",
          "symbols", "localcalc", "orbits", "bohr", "u1smoothing", "cli")


def metric_layer(layer):
    """Metric names start with a letter: ``_kernels`` reports as
    ``kernels``."""
    return layer.lstrip("_")


def _wigner_d(work, args, out, _):
    twoj, beta = args[0], args[1]
    work["wigner.d_entries"] += np.size(beta) * (twoj + 1) ** 2
    work["wigner.max_2j"] = max(work["wigner.max_2j"], twoj)


def _series_points(work, args, out, _):
    work["kernels.series_points"] += np.size(args[0])


def _quad_nodes(work, args, out, _):
    work["groups.quad_nodes"] += out.n_nodes


def _basis_mb(work, args, out, _):
    pw = args[0]
    work["peterweyl.basis_mb"] += (pw.E.nbytes + pw._EW.nbytes) / 1e6


def _op_matrix(work, args, out, _):
    work["peterweyl.op_matrices"] += 1


def _delta_uncached(args):
    return args[0]._delta is None


def _delta_build(work, args, out, uncached):
    work["orbits.delta_builds"] += uncached


# (layer, qualified name) -> (before, after): ``before(args)`` runs ahead of
# the call, ``after(work, args, result, what before returned)`` after it.
# Every call site in the package passes these arguments positionally.
COUNTERS = {
    ("_kernels", "wigner_d_grid"): (None, _wigner_d),
    ("_kernels", "itn_denominator"): (None, _series_points),
    ("_kernels", "su2_norm_series"): (None, _series_points),
    ("groups", "u1_quadrature"): (None, _quad_nodes),
    ("groups", "su2_quadrature"): (None, _quad_nodes),
    ("peterweyl", "PWSpace.__init__"): (None, _basis_mb),
    ("peterweyl", "PWSpace.left_translation"): (None, _op_matrix),
    ("peterweyl", "PWSpace.right_translation"): (None, _op_matrix),
    ("peterweyl", "PWSpace.multiplication_operator"): (None, _op_matrix),
    ("peterweyl", "PWSpace.right_derivative"): (None, _op_matrix),
    ("orbits", "OrbitSpec.delta_field"): (_delta_uncached, _delta_build),
}

WORK_METRICS = ("wigner.d_entries", "wigner.max_2j", "groups.quad_nodes",
                "peterweyl.basis_mb", "peterweyl.op_matrices",
                "kernels.series_points", "orbits.delta_builds")


class Tracer:
    def __init__(self):
        self.names = []                 # span name table
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases = []                # (phase label, first span id)
        self._stack = []
        self._inner = []                # enclosed span time, per open span
        self._patches = []              # (owner, attribute, original)
        self.calls = defaultdict(int)   # the wrappers hold these three
        self.self_s = defaultdict(float)
        self.work = defaultdict(float)

    def reset_totals(self):
        for totals in (self.calls, self.self_s, self.work):
            totals.clear()

    def phase(self, label):
        """Mark the spans recorded from now on as belonging to ``label``."""
        self.phases.append((label, len(self.span_start)))

    def totals(self):
        out = {}
        for layer in LAYERS:
            out[metric_layer(layer) + ".calls"] = self.calls[layer]
            out[metric_layer(layer) + ".self_s"] = self.self_s[layer]
        for name in WORK_METRICS:
            out[name] = self.work[name]
        return out

    def _wrap(self, layer, qualname, fn):
        ix = len(self.names)
        self.names.append("%s.%s" % (layer, qualname))
        before, after = COUNTERS.get((layer, qualname), (None, None))
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, inner = self._stack, self._inner
        calls, self_s, work = self.calls, self.self_s, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            inner.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                token = before(args) if before is not None else None
                out = fn(*args, **kwargs)
                if after is not None:
                    after(work, args, out, token)
                return out
            finally:
                t1 = clock()
                ends[sid] = t1
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - inner.pop()
                calls[layer] += 1
                if inner:
                    inner[-1] += dur

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _public_callables(self, module):
        """(owner, attribute, qualified name, raw attribute) to wrap."""
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, name, obj
            elif inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    if inspect.isfunction(raw) or isinstance(
                            raw, (staticmethod, classmethod)):
                        yield obj, attr, "%s.%s" % (name, attr), raw

    def install(self):
        modules = [importlib.import_module("groupquant." + layer)
                   for layer in LAYERS]
        replaced = {}          # id(original function) -> wrapper
        for layer, module in zip(LAYERS, modules):
            for owner, attr, qualname, raw in self._public_callables(module):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(layer, qualname,
                                                   raw.__func__))
                else:
                    wrapped = self._wrap(layer, qualname, raw)
                    replaced[id(raw)] = wrapped
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        # the other names the same functions are bound to
        for module in modules:
            for name, obj in list(vars(module).items()):
                w = replaced.get(id(obj))   # the originals are kept alive
                if w is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, w)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path):
        """Spans as CSV: id, parent, phase, name, start, end (seconds of
        ``time.perf_counter``)."""
        bounds = [start for _, start in self.phases[1:]] + [
            len(self.span_start)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "phase", "name", "start", "end"])
            for (label, first), last in zip(self.phases, bounds):
                for sid in range(first, last):
                    w.writerow([sid, self.span_parent[sid], label,
                                self.names[self.span_name[sid]],
                                repr(self.span_start[sid]),
                                repr(self.span_end[sid])])
