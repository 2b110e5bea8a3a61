"""Outside-in tracing: wrap evograft's public functions and record spans in memory.

Nothing under `src/` knows about this module. `Tracer.installed()` replaces
each target function on every evograft module that holds it (a function
imported with `from .x import f` lives on several modules) and restores the
originals on exit. A wrapper records a span only while `Tracer.on` is set, so
the benchmark's own output checks, which call the same functions, leave no
spans.

A span is (id, name, start, end, parent, thread, attrs). The parent is the
innermost open span on the same thread; a span opened on a worker thread with
nothing open there takes the innermost span open on the thread that switched
recording on, i.e. the call that started the worker pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    thread: int
    attrs: dict | None


def _ckpt_bytes(directory, layer_ids) -> int:
    """Bytes of a checkpoint's manifest plus the blobs of the given layers."""
    directory = str(directory)
    return os.path.getsize(os.path.join(directory, "manifest.json")) + sum(
        os.path.getsize(os.path.join(directory, f"{lid}.bin")) for lid in layer_ids)


# (module, attribute, span name, pre(args, kwargs) -> dict, post(args, result) -> dict).
# A dotted attribute names a method on a class of that module.
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("evograft.cli", "cmd_init", "cli.init", None, None),
    ("evograft.cli", "cmd_run", "cli.run", None, None),
    ("evograft.cli", "cmd_eval", "cli.eval", None, None),
    ("evograft.cli", "cmd_gc", "cli.gc", None, None),
    ("evograft.nn.preprocess", "preprocess", "nn.preprocess",
     lambda a, k: {"train": k["train_mode"] if "train_mode" in k else a[2]}, None),
    ("evograft.nn.layers", "forward", "nn.layers.forward",
     lambda a, k: {"kind": a[0].kind.value, "batch": a[2].shape[0]}, None),
    ("evograft.nn.layers", "backward", "nn.layers.backward",
     lambda a, k: {"kind": a[0].kind.value,
                   "train": k["want_param_grads"] if "want_param_grads" in k else a[4]}, None),
    ("evograft.nn.network", "forward", "nn.network.forward", None, None),
    ("evograft.nn.network", "backward", "nn.network.backward", None, None),
    ("evograft.nn.optim", "sgd_step", "nn.optim.sgd_step", None, lambda a, r: {"ok": r[2]}),
    ("evograft.evolution", "run_task_iteration", "evolution.run_task_iteration", None, None),
    ("evograft.evolution", "sample_parent", "evolution.sample_parent", None, None),
    ("evograft.evolution", "train_child", "evolution.train_child", None,
     lambda a, r: {"diverged": r.diverged}),
    ("evograft.evolution", "finalize_child", "evolution.finalize_child", None, None),
    ("evograft.evolution", "score_path", "evolution.score_path", None, None),
    ("evograft.mutation", "sample_mutations", "mutation.sample_mutations", None,
     lambda a, r: {"cloned": len(r.cloned_positions), "inserted": len(r.inserted_layers)}),
    ("evograft.mutation", "apply_mutations", "mutation.apply_mutations", None, None),
    ("evograft.store", "LayerStore.insert", "store.insert",
     lambda a, k: {"dedup": a[1].id in a[0]}, None),
    ("evograft.store", "garbage_collect", "store.garbage_collect", None,
     lambda a, r: {"removed": r}),
    ("evograft.tasks", "build_task", "tasks.build_task", None, None),
    ("evograft.tasks", "model_allowed", "tasks.model_allowed", None, None),
    ("evograft.persistence", "save", "persistence.save", None,
     lambda a, r: {"bytes": _ckpt_bytes(a[1], r["layers"])}),
    ("evograft.persistence", "load", "persistence.load", None,
     lambda a, r: {"bytes": _ckpt_bytes(a[0], r.store.ids())}),
    ("evograft.accounting", "param_report", "accounting.param_report", None, None),
    ("evograft.accounting", "export_graph", "accounting.export_graph", None, None),
)


class Tracer:
    """In-memory span recorder over wrapped evograft functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.on = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._origin_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack = self._stack()
            origin = self._origin_stack
            parent = stack[-1] if stack else (origin[-1] if origin else None)
            sid = next(self._ids)
            attrs = pre(args, kwargs) if pre else None
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if post:
                attrs = {**(attrs or {}), **post(args, result)}
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), attrs))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper on all evograft modules; undo on exit."""
        undo = []
        try:
            for module, attr, name, pre, post in TARGETS:
                owner = sys.modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, pre, post)
                holders = [owner] + [m for key, m in list(sys.modules.items())
                                     if key.split(".")[0] == "evograft" and m is not owner
                                     and getattr(m, attr, None) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    @contextlib.contextmanager
    def recording(self, enabled: bool = True):
        """Record spans for the body when enabled; the caller's thread anchors worker spans."""
        if not enabled:
            yield
            return
        self._origin_stack = self._stack()
        self.on = True
        try:
            yield
        finally:
            self.on = False


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its child spans (ns).

    Children on worker threads can overlap each other, so covered time is the
    length of the union of the children's intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - union_ns((max(a, s.start), min(b, s.end))
                                                for a, b in children.get(s.sid, ()))
            for s in spans}


def union_ns(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, cursor = 0, None
    for start, end in sorted(intervals):
        if cursor is not None:
            start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total
