"""Span tracing of jsalearn from outside the package.

A traced run replaces public functions and methods of the jsalearn modules
with thin wrappers that record one span per call: name, start, end, the
enclosing span, the benchmark operation it belongs to, and two numbers taken
from the call's arguments (rows processed and a computed work count such as
flops or bytes). Spans live in flat arrays in memory and are written out when
the run ends. Nothing under src/jsalearn is edited; the wrappers are removed
again when the traced pass finishes.

A target that no longer exists (a later change renamed or folded it) is
reported as absent and skipped, so the traced run keeps working.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span store. Span i is open between open() and close(i);
    its parent is the span that was open when it started."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        # Benchmark operation the next spans belong to: an update (set by the
        # wrapper of jsa_minibatch_update), an eval block or an oracle battery
        # (set by the workload). -1 outside any measured operation.
        self.op_id = -1
        self._next_op = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def new_op(self) -> int:
        self.op_id = self._next_op
        self._next_op += 1
        return self.op_id

    def open(self, nid: int, rows: float = 0.0, work: float = 0.0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.rows.append(rows)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def hook(self, fn):
        """Wraps a benchmark callback in a span, so the time jsalearn spends
        calling back into the benchmark is not counted as its own."""
        nid = self.intern("bench.hook")

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    def spans(self) -> "Spans":
        return Spans(self)

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start=np.asarray(self.start), end=np.asarray(self.end),
            rows=np.asarray(self.rows), work=np.asarray(self.work))


class Spans:
    """Array view of a finished trace with the aggregations the layer metrics
    need. Self time is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap)."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.asarray(tracer.name, dtype=np.int64)
        self.parent = np.asarray(tracer.parent, dtype=np.int64)
        self.op = np.asarray(tracer.op, dtype=np.int64)
        self.dur = (np.asarray(tracer.end) - np.asarray(tracer.start))
        self.rows = np.asarray(tracer.rows)
        self.work = np.asarray(tracer.work)
        child = np.zeros(self.dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_dur = self.dur - child
        self._parent_name = np.full(self.name.size, -1, dtype=np.int64)
        self._parent_name[has_parent] = self.name[self.parent[has_parent]]

    def __len__(self):
        return self.dur.size

    def ids(self, *names) -> np.ndarray:
        return np.array([self.names.index(n) for n in names
                         if n in self.names], dtype=np.int64)

    def mask(self, *names, in_op=False, parent=None, outermost=False):
        """Spans named one of `names`. in_op keeps those inside a measured
        operation; parent keeps those whose direct parent is named one of
        `parent`; outermost drops those nested directly in another of
        `names` (so a group such as Sigmoid.forward -> clamped_sigmoid ->
        sigmoid counts each call once)."""
        ids = self.ids(*names)
        m = np.isin(self.name, ids)
        if in_op:
            m &= self.op >= 0
        if parent is not None:
            m &= np.isin(self._parent_name, self.ids(*parent))
        if outermost:
            m &= ~np.isin(self._parent_name, ids)
        return m

    def total(self, *names, **kw) -> float:
        return float(self.dur[self.mask(*names, **kw)].sum())

    def self_total(self, *names, **kw) -> float:
        return float(self.self_dur[self.mask(*names, **kw)].sum())

    def count(self, *names, **kw) -> int:
        return int(self.mask(*names, **kw).sum())

    def rows_sum(self, *names, **kw) -> float:
        return float(self.rows[self.mask(*names, **kw)].sum())

    def work_sum(self, *names, **kw) -> float:
        return float(self.work[self.mask(*names, **kw)].sum())

    def children_of(self, *names):
        """(child name, total duration) of the direct children of spans
        named one of `names`."""
        parents = np.isin(self._parent_name, self.ids(*names))
        out = {}
        for nid in np.unique(self.name[parents]):
            sel = parents & (self.name == nid)
            out[self.names[nid]] = float(self.dur[sel].sum())
        return out


# ---------------------------------------------------------------------------
# What gets wrapped. Each entry: span name -> (module, qualified attribute,
# measure). A measure maps the call's (args, kwargs) to (rows, work).


def _arg(args, kwargs, i, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[i] if len(args) > i else default


def _nrows(x):
    x = np.asarray(x)
    return x.shape[0] if x.ndim == 2 else 1


def _linear(k):
    """Rows and computed flops of a Linear call: forward is one matmul
    (2*rows*in*out), backward two (parameter and input gradients)."""
    def measure(args, kwargs):
        lay = args[0]
        r = _nrows(args[1])
        return r, k * 2.0 * r * lay.in_dim * lay.out_dim
    return measure


def _adam(args, kwargs):
    # Computed minimum traffic: read params, grads, m, v; write params, m, v.
    return 0, 7.0 * 8.0 * np.asarray(args[0]).size


def _x_at(i, name):
    def measure(args, kwargs):
        return _nrows(_arg(args, kwargs, i, name)), 0.0
    return measure


def _update(args, kwargs):
    # work = 1 marks a cache-stage update, whose rows are cache lookups.
    return (len(_arg(args, kwargs, 2, "batch")),
            float(bool(kwargs.get("use_cache", False))))


def _mis_chain(args, kwargs):
    return 0, float(_arg(args, kwargs, 2, "n_steps"))


def _ckpt_load(args, kwargs):
    return 0, float(os.path.getsize(_arg(args, kwargs, 0, "path")))


def _dataset_nll(args, kwargs):
    n = np.asarray(_arg(args, kwargs, 1, "items")).shape[0]
    limit = _arg(args, kwargs, 5, "limit")
    return (n if limit is None else min(n, limit)), 0.0


CHECK_NAMES = ("gradient_agreement", "preset_gradient_spot", "normalization",
               "fisher_identity", "score_identity", "detailed_balance",
               "mis_invariance", "mutation_detection", "snis_consistency",
               "estimator_consistency")

EXACT_NAMES = ("exact_log_likelihood", "exact_posterior",
               "exact_inference_table", "inclusive_kl_exact",
               "mis_transition_matrix")

TARGETS = {
    "ndnet.sigmoid": ("jsalearn.ndnet", "sigmoid", None),
    "ndnet.clamped_sigmoid": ("jsalearn.ndnet", "clamped_sigmoid", None),
    "ndnet.Sigmoid.forward": ("jsalearn.ndnet", "Sigmoid.forward", None),
    "ndnet.group_softmax": ("jsalearn.ndnet", "group_softmax", None),
    "ndnet.group_softmax_vjp": ("jsalearn.ndnet", "group_softmax_vjp", None),
    "ndnet.LeakyReLU.forward": ("jsalearn.ndnet", "LeakyReLU.forward", None),
    "ndnet.LeakyReLU.backward": ("jsalearn.ndnet", "LeakyReLU.backward",
                                 None),
    "ndnet.Linear.forward": ("jsalearn.ndnet", "Linear.forward", _linear(1)),
    "ndnet.Linear.backward": ("jsalearn.ndnet", "Linear.backward",
                              _linear(2)),
    "ndnet.LayeredNet.forward": ("jsalearn.ndnet", "LayeredNet.forward",
                                 _x_at(1, "x")),
    "ndnet.LayeredNet.backward": ("jsalearn.ndnet", "LayeredNet.backward",
                                  None),
    "ndnet.adam_step": ("jsalearn.ndnet", "adam_step", _adam),
    "models.sample_q": ("jsalearn.models", "InferenceModel.sample_q",
                        _x_at(1, "x")),
    "models.log_q": ("jsalearn.models", "InferenceModel.log_q",
                     _x_at(2, "x")),
    "models.grad_log_q": ("jsalearn.models", "InferenceModel.grad_log_q",
                          _x_at(2, "x")),
    "models.log_joint": ("jsalearn.models", "GenerativeModel.log_joint",
                         _x_at(1, "x")),
    "models.grad_log_joint": ("jsalearn.models",
                              "GenerativeModel.grad_log_joint",
                              _x_at(1, "x")),
    "models.check_domain": ("jsalearn.models",
                            "StochasticLayerSpec.check_domain", None),
    "models.log_mass": ("jsalearn.models", "StochasticLayerSpec.log_mass",
                        None),
    "models.sample": ("jsalearn.models", "StochasticLayerSpec.sample", None),
    "jsa.update": ("jsalearn.jsa", "jsa_minibatch_update", _update),
    "jsa.train": ("jsalearn.jsa", "train", None),
    "jsa.cache.get": ("jsalearn.jsa", "LatentCache.get", None),
    "jsa.cache.put": ("jsalearn.jsa", "LatentCache.put", None),
    "jsa.mis_chain": ("jsalearn.jsa", "run_mis_chain", _mis_chain),
    "jsa.ckpt.save": ("jsalearn.jsa", "save_checkpoint", None),
    "jsa.ckpt.load": ("jsalearn.jsa", "load_checkpoint", _ckpt_load),
    "evaluation.dataset_nll": ("jsalearn.evaluation", "dataset_nll",
                               _dataset_nll),
    "evaluation.enumerate": ("jsalearn.evaluation", "enumerate_support",
                             None),
    **{f"evaluation.{n}": ("jsalearn.evaluation", n, None)
       for n in EXACT_NAMES},
    **{f"checks.{n}": ("jsalearn.checks", f"check_{n}", None)
       for n in CHECK_NAMES},
    "data.surrogate": ("jsalearn.data", "surrogate_images", None),
}


def _safe(measure):
    def run(args, kwargs):
        try:
            return measure(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                OSError):
            return 0, 0.0
    return run


def _wrap(tracer: Tracer, span: str, fn, measure):
    nid = tracer.intern(span)
    measure = _safe(measure) if measure is not None else None
    starts_op = span == "jsa.update"  # each update is one operation

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if starts_op:
            tracer.new_op()
        rows, work = measure(args, kwargs) if measure else (0, 0.0)
        i = tracer.open(nid, rows, work)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


class Instrumented:
    """Context manager that installs the wrappers and removes them on exit.

    A module-level function is replaced in every jsalearn module namespace
    that holds it (models imports clamped_sigmoid from ndnet, jsa and checks
    import adam_step, ...), so calls through any of those names are seen.
    A method is replaced on its class, which every importer shares.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        for span, (modname, qual, measure) in TARGETS.items():
            try:
                owner = importlib.import_module(modname)
                *path, attr = qual.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if path else getattr(
                    owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(span)
                continue
            wrapped = _wrap(self.tracer, span, original, measure)
            if path:
                self._patch(owner, attr, wrapped)
            else:
                for mod in _package_modules(modname):
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapped)
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def _package_modules(modname):
    package = modname.split(".")[0]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package
                                  or name.startswith(package + "."))]
