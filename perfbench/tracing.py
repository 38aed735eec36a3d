"""Spans and counters recorded around the public functions of each layer.

The tracer wraps functions from outside the package: ``install`` replaces
each attribute in the namespace that looks it up at call time, and
``uninstall`` puts the originals back.  Every call of a wrapped function
records one span (name, start, end, parent span, timed operation); spans
stay in memory until the run ends and are then written out in one file.

Besides spans, the tracer counts, while installed:

- graph nodes per training step, and those with no parameter upstream,
  by walking the root's graph once before each ``backward``;
- garbage collections of generation 2 and the time spent in all
  collections, through ``gc.callbacks``;
- elements passed to each ``special`` function.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from collections import Counter

import numpy as np

from mvtrust import autodiff, data, losses, networks, pipeline, special

LOSS_FUNCTIONS = (
    "h1_loss",
    "h2_loss",
    "con_loss",
    "spe_loss",
    "adv_loss",
    "cml_loss",
    "cross_entropy",
    "ace_loss",
    "kl_loss",
)
MODEL_METHODS = (
    "encode_common",
    "encode_specific",
    "discriminate",
    "predict_common",
    "evidence_from_common",
    "evidence_from_specific",
    "save",
    "load",
)
SPECIAL_FUNCTIONS = ("digamma", "trigamma", "lgamma")

# (span name, namespace, attribute).  ``pipeline`` imports backward,
# attend_batch, fuse_evidence, evidence_to_opinion and conflict_degree by
# value, so those are wrapped in ``pipeline``; ``losses`` imports lgamma by
# value as ``_lgamma_value``.  The benchmark calls ``data`` and ``pipeline``
# functions through their modules, so wrapping the module attribute is
# enough there.
TARGETS = (
    ("autodiff.backward", pipeline, "backward"),
    ("autodiff.Adam.step", autodiff.Adam, "step"),
    *((f"special.{f}", special, f) for f in SPECIAL_FUNCTIONS),
    ("special.lgamma", losses, "_lgamma_value"),
    *((f"losses.{f}", losses, f) for f in LOSS_FUNCTIONS),
    *((f"networks.Model.{m}", networks.Model, m) for m in MODEL_METHODS),
    ("aggregation.attend_batch", pipeline, "attend_batch"),
    ("aggregation.fuse_evidence", pipeline, "fuse_evidence"),
    ("opinions.evidence_to_opinion", pipeline, "evidence_to_opinion"),
    ("opinions.conflict_degree", pipeline, "conflict_degree"),
    *((f"data.{f}", data, f) for f in ("synthesize", "split", "standardize", "inject_noise")),
    ("data.StandardStats.apply", data.StandardStats, "apply"),
    *(
        (f"pipeline.{f}", pipeline, f)
        for f in ("train", "forward_pass", "training_objective", "evaluate", "write_eval_report")
    ),
)

GRAPH_WALK = "trace.graph_walk"
NO_OPERATION = -1


def layer_names():
    """Span names of the wrapped functions, in a fixed order, without repeats."""
    return list(dict.fromkeys(name for name, _, _ in TARGETS))


def self_times(starts, ends, parents):
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals inside the parent's interval is subtracted.
    """
    children = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, kids in enumerate(children):
        lo, hi = starts[index], ends[index]
        covered = 0.0
        cursor = lo
        for kid in sorted(kids, key=starts.__getitem__):
            begin = max(starts[kid], cursor)
            end = min(ends[kid], hi)
            if end > begin:
                covered += end - begin
            cursor = max(cursor, end)
        out.append(hi - lo - covered)
    return out


class Tracer:
    """Wraps the layer functions while installed and keeps their spans."""

    def __init__(self):
        self.names = []               # span name per name id
        self._name_ids = {}
        self.name_of = array("i")     # per span: name id
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.operations = array("i")  # timed-operation number, NO_OPERATION in set-up
        self.operation = NO_OPERATION
        self._stack = []
        self._saved = []
        self._params = set()
        self._gc_start = 0.0
        self.elements = Counter()
        self.graph_steps = 0
        self.graph_nodes = 0
        self.graph_nodes_no_param = 0
        self.gc_gen2 = 0
        self.gc_s = 0.0
        self.origin = time.perf_counter()

    # -- installing ----------------------------------------------------------

    def install(self):
        if self._saved:
            return
        adam_init = autodiff.Adam.__init__

        @functools.wraps(adam_init)
        def init_and_note_params(optimizer, *args, **kwargs):
            adam_init(optimizer, *args, **kwargs)
            self._params = {id(p) for p in optimizer.params}

        self._replace(autodiff.Adam, "__init__", init_and_note_params)
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif name == "autodiff.backward":
                self._replace(owner, attr, self._counting_backward(raw))
            else:
                self._replace(owner, attr, self._wrap(name, raw, name.startswith("special.")))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        if not self._saved:
            return
        gc.callbacks.remove(self._on_gc)
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def _replace(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, count_elements=False):
        nid = self._name_id(name)
        name_of, starts, ends, parents, operations = (
            self.name_of, self.starts, self.ends, self.parents, self.operations
        )
        stack, elements, clock = self._stack, self.elements, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            operations.append(self.operation)
            ends.append(0.0)
            if count_elements:
                elements[name] += np.size(args[0])
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _counting_backward(self, backward):
        walk = self._wrap(GRAPH_WALK, self._count_graph)
        traced = self._wrap("autodiff.backward", backward)

        @functools.wraps(backward)
        def counted(root):
            walk(root)
            return traced(root)

        return counted

    # -- counters --------------------------------------------------------------

    def _count_graph(self, root):
        """Count the nodes of ``root``'s graph and those no parameter feeds."""
        order = []
        seen = set()
        pending = [(root, False)]
        while pending:
            node, finished = pending.pop()
            if finished:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            pending.append((node, True))
            pending.extend((parent, False) for parent in node._parents)
        fed = {}
        for node in order:  # parents come before their children
            fed[id(node)] = id(node) in self._params or any(fed[id(p)] for p in node._parents)
        self.graph_steps += 1
        self.graph_nodes += len(order)
        self.graph_nodes_no_param += sum(1 for value in fed.values() if not value)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_s += time.perf_counter() - self._gc_start
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- results ---------------------------------------------------------------

    def self_times(self):
        return self_times(self.starts, self.ends, self.parents)

    def metrics(self):
        """Per-layer calls, self time, graph, gc and element counts."""
        own = self.self_times()
        calls = Counter()
        busy = Counter()
        for nid, value in zip(self.name_of, own):
            calls[nid] += 1
            busy[nid] += value
        out = {}
        for name in layer_names():
            nid = self._name_ids.get(name)
            out[f"{name}.calls"] = (calls[nid] if nid is not None else 0, "count")
            out[f"{name}.self_s"] = (busy[nid] if nid is not None else 0.0, "s")
        for name in SPECIAL_FUNCTIONS:
            out[f"special.{name}.elements"] = (self.elements[f"special.{name}"], "count")
        steps = max(self.graph_steps, 1)
        out["autodiff.graph_nodes"] = (self.graph_nodes / steps, "count")
        out["autodiff.graph_nodes_no_param"] = (self.graph_nodes_no_param / steps, "count")
        out["autodiff.gc_gen2"] = (self.gc_gen2, "count")
        out["autodiff.gc_s"] = (self.gc_s, "s")
        return out

    def write_spans(self, path):
        """One TSV row per span, times in seconds since the tracer was made."""
        own = self.self_times()
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\toperation\tself_s\n")
            for index, nid in enumerate(self.name_of):
                fh.write(
                    f"{index}\t{self.names[nid]}\t{self.starts[index] - self.origin:.9f}\t"
                    f"{self.ends[index] - self.origin:.9f}\t{self.parents[index]}\t"
                    f"{self.operations[index]}\t{own[index]:.9f}\n"
                )
