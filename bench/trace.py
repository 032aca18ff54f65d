"""Wall-clock layer attribution for the traced benchmark run.

One call stack, one clock.  Every boundary listed in :mod:`layers` is
replaced — at class or module level, before any emulation exists — by a
wrapper that *switches the current layer*: the time since the last
switch is added to the layer that was running, the new layer becomes
current, and on return the switch is undone.  A layer's ``self_s`` is
therefore its spans' duration minus everything nested boundaries (and
the garbage collector, via ``gc.callbacks``) took, and the per-layer
``self_s`` sum to the traced wall exactly — nothing is sampled and
nothing is counted twice.

Boundaries are crossed ~10^7 times in an L-DC mockup, so closed spans
fold straight into per-layer accumulators.  Full spans (name, start,
end, parent, request id, per-layer breakdown) are kept only at stage
and request granularity, through :meth:`Tracer.span`, in memory, and
written out by the caller when the run ends.

Verdicts and campaign evaluations run in ``os.fork`` children that
``_exit`` without returning.  A child inherits the wrappers; at the
call that does its work (``apply_delta`` / ``run_scenario``) it zeroes
the inherited accumulators and on return writes its own to a pipe the
tracer opened before forking.  The parent folds that in when
``drain()`` / ``eval_one()`` comes back, and takes the child's total out
of the layer that sat waiting for it — as if the child had been a
nested span.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional

HARNESS = "bench"        # time under no boundary: the harness itself
GC_LAYER = "gc"

_CALIBRATION_CALLS = 200_000


class TraceError(Exception):
    """A boundary in the table does not resolve, or cannot be wrapped."""


def _resolve(target: str):
    """``pkg.mod:Class.attr`` -> (owner object, attribute name, raw value)."""
    module_name, _, path = target.partition(":")
    if not path:
        raise TraceError(f"{target}: expected 'module:attribute'")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceError(f"{target}: cannot import {module_name} "
                         f"({exc})") from exc
    parts = path.split(".")
    for part in parts[:-1]:
        if not hasattr(owner, part):
            raise TraceError(f"{target}: {owner!r} has no attribute {part!r}")
        owner = getattr(owner, part)
    name = parts[-1]
    raw = vars(owner).get(name)
    if raw is None:
        raise TraceError(f"{target}: {owner!r} does not define {name!r}")
    return owner, name, raw


def _drained(produce: Callable) -> Callable:
    """A generator's body runs in its consumer's frame; drain it inside
    the boundary so the walk is charged to the layer that owns it.
    Consumers in this codebase exhaust these iterators at once."""
    def drained(*args, **kwargs):
        return iter(list(produce(*args, **kwargs)))
    return drained


class Tracer:
    """Layer accounting over the boundaries of one table.

    ``layers`` maps a layer name to its boundary targets; ``counted``
    maps a target to a counter name bumped on *every* call (``calls``
    counts crossings into a layer, not calls nested inside it);
    ``child_entry`` /
    ``child_reaper`` name the fork-child protocol endpoints described in
    the module docstring; ``generator_owners`` maps a module to the layer
    its ``sim.engine.Process`` generator bodies belong to.
    """

    def __init__(self, layers: Dict[str, List[str]],
                 counted: Optional[Dict[str, str]] = None,
                 child_entry: Optional[List[str]] = None,
                 child_reaper: Optional[List[str]] = None,
                 generator_owners: Optional[Dict[str, str]] = None,
                 process_step: Optional[str] = None):
        self.names: List[str] = [HARNESS] + [n for n in layers
                                             if n != GC_LAYER] + [GC_LAYER]
        self._layers = layers
        self._counted = dict(counted or {})
        self._child_entry = set(child_entry or ())
        self._child_reaper = set(child_reaper or ())
        self._generator_owners = dict(generator_owners or {})
        self._process_step = process_step
        self.self_s: List[float] = [0.0] * len(self.names)
        self.calls: List[int] = [0] * len(self.names)
        self.counters: Dict[str, List[int]] = {
            name: [0] for name in self._counted.values()}
        self.counters.update({"gc.gen2_collections": [0],
                              "trace.nested_calls": [0]})
        self.child_totals: List[float] = []
        self.spans: List[dict] = []
        self.crossing_s = self.nested_s = 0.0
        self._open: List[dict] = []
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary; raise :class:`TraceError` naming the
        first one that does not resolve."""
        if self._installed:
            raise TraceError("tracer already installed")
        names = self.names
        index = {name: i for i, name in enumerate(names)}
        self_s, calls = self.self_s, self.calls
        stack: List[int] = []
        push, pop, perf = stack.append, stack.pop, time.perf_counter
        cur = 0
        last = perf()
        owner_pid = os.getpid()
        pipe_r, pipe_w = os.pipe()
        os.set_blocking(pipe_r, False)
        child_totals = self.child_totals
        counters = self.counters
        nested = counters["trace.nested_calls"]

        def flush() -> float:
            nonlocal last
            now = perf()
            self_s[cur] += now - last
            last = now
            return now

        def wrap(fn: Callable, idx: int,
                 counter: Optional[List[int]] = None) -> Callable:
            if inspect.isgeneratorfunction(fn):
                fn = _drained(fn)

            def wrapper(*args, **kwargs):
                nonlocal cur, last
                if counter is not None:
                    counter[0] += 1
                if cur == idx:
                    nested[0] += 1
                    return fn(*args, **kwargs)
                now = perf()
                self_s[cur] += now - last
                push(cur)
                cur = idx
                last = now
                calls[idx] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    now = perf()
                    self_s[idx] += now - last
                    cur = pop()
                    last = now
            return wrapper

        def wrap_process_step(fn: Callable, default_idx: int) -> Callable:
            """``Process._step`` resumes a generator: charge the layer
            that owns the generator's code, not the engine."""
            by_file = {
                importlib.import_module(module_name).__file__: index[layer]
                for module_name, layer in self._generator_owners.items()}
            per_layer = {idx: wrap(fn, idx)
                         for idx in {default_idx, *by_file.values()}}

            def wrapper(process, value, throw):
                idx = by_file.get(process.generator.gi_code.co_filename,
                                  default_idx)
                return per_layer[idx](process, value, throw)
            return wrapper

        def as_child_entry(inner: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                nonlocal last
                if os.getpid() == owner_pid:
                    return inner(*args, **kwargs)
                # Forked child: account for this call alone.
                for i in range(len(self_s)):
                    self_s[i] = 0.0
                    calls[i] = 0
                for cell in counters.values():
                    cell[0] = 0
                start = last = perf()
                try:
                    return inner(*args, **kwargs)
                finally:
                    total = flush() - start
                    doc = {"self_s": self_s, "calls": calls, "total": total,
                           "counters": {k: v[0] for k, v in counters.items()}}
                    os.write(pipe_w, json.dumps(doc).encode() + b"\n")
            return wrapper

        def absorb_children(idx: int) -> None:
            try:
                blob = os.read(pipe_r, 1 << 20)
            except BlockingIOError:
                return
            for line in blob.splitlines():
                doc = json.loads(line)
                for i, value in enumerate(doc["self_s"]):
                    self_s[i] += value
                for i, value in enumerate(doc["calls"]):
                    calls[i] += value
                for name, value in doc["counters"].items():
                    counters[name][0] += value
                self_s[idx] -= doc["total"]
                child_totals.append(doc["total"])

        def as_child_reaper(inner: Callable, idx: int) -> Callable:
            def wrapper(*args, **kwargs):
                try:
                    return inner(*args, **kwargs)
                finally:
                    absorb_children(idx)
            return wrapper

        gc_idx = index[GC_LAYER]
        gen2 = counters["gc.gen2_collections"]

        def on_gc(phase: str, info: dict) -> None:
            nonlocal cur, last
            now = perf()
            if phase == "start":
                self_s[cur] += now - last
                push(cur)
                cur = gc_idx
                calls[gc_idx] += 1
                if info["generation"] == 2:
                    gen2[0] += 1
            else:
                self_s[gc_idx] += now - last
                cur = pop()
            last = now

        patches = []
        for layer, targets in self._layers.items():
            idx = index[layer]
            for target in targets:
                owner, name, raw = _resolve(target)
                counter = (counters[self._counted[target]]
                           if target in self._counted else None)

                def build(fn, target=target, idx=idx, counter=counter):
                    if not callable(fn):
                        raise TraceError(f"{target}: not callable")
                    if target == self._process_step:
                        wrapped = wrap_process_step(fn, idx)
                    else:
                        wrapped = wrap(fn, idx, counter)
                    if target in self._child_entry:
                        wrapped = as_child_entry(wrapped)
                    if target in self._child_reaper:
                        wrapped = as_child_reaper(wrapped, idx)
                    return functools.update_wrapper(wrapped, fn)

                if isinstance(raw, property):
                    new = property(build(raw.fget), raw.fset, raw.fdel,
                                   raw.__doc__)
                elif isinstance(raw, classmethod):
                    new = classmethod(build(raw.__func__))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(build(raw.__func__))
                else:
                    new = build(raw)
                patches.append((owner, name, raw, new))

        for owner, name, raw, new in patches:
            setattr(owner, name, new)
            if inspect.ismodule(owner):
                # ``from x import f`` copies made before patching, the
                # harness's own included.
                for module in list(sys.modules.values()):
                    for alias, value in list(getattr(
                            module, "__dict__", {}).items()):
                        if value is raw:
                            setattr(module, alias, new)

        # What one wrapper call adds, crossing into a layer and nested
        # inside it, for trace.overhead_ratio.
        def noop(a, b):
            return None

        def cost(fn: Callable) -> float:
            start = perf()
            for _ in range(_CALIBRATION_CALLS):
                fn(1, 2)
            return (perf() - start) / _CALIBRATION_CALLS
        plain = cost(noop)
        self.crossing_s = max(0.0, cost(wrap(noop, gc_idx)) - plain)
        self.nested_s = max(0.0, cost(wrap(noop, 0)) - plain)
        calls[gc_idx] = nested[0] = 0

        gc.callbacks.append(on_gc)
        self._flush = flush
        self._installed = True
        flush()
        for i in range(len(self_s)):
            self_s[i] = 0.0

    # -- spans -------------------------------------------------------------

    def _readings(self) -> tuple:
        return (list(self.self_s), list(self.calls),
                [cell[0] for cell in self.counters.values()])

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None
             ) -> Iterator[dict]:
        """A full span: kept in memory with its per-layer breakdown."""
        record = {"name": name, "request": request,
                  "parent": self._open[-1]["id"] if self._open else None,
                  "id": len(self.spans), "start": self._flush()}
        before = self._readings()
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = self._flush()
            self._open.pop()
            keys = (self.names, self.names, list(self.counters))
            for field, names, was, now in zip(
                    ("self_s", "calls", "counters"), keys, before,
                    self._readings()):
                record[field] = {name: b - a for name, a, b
                                 in zip(names, was, now) if a != b}

    def top_level_totals(self) -> Dict[str, Dict[str, float]]:
        """``self_s`` / ``calls`` per layer and ``counters``, summed over
        top-level spans — the timed stages — leaving out harness work
        between them."""
        totals = {"self_s": dict.fromkeys(self.names, 0.0),
                  "calls": dict.fromkeys(self.names, 0),
                  "counters": dict.fromkeys(self.counters, 0)}
        for record in self.spans:
            if record["parent"] is None:
                for key, total in totals.items():
                    for name, value in record[key].items():
                        total[name] += value
        return totals
