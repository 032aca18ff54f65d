"""``repro.serve`` — validation-as-a-service over warm snapshots.

The ROADMAP's standing item, built on :mod:`repro.snapshot`: hold one
warm snapshot of a converged production mockup, accept a queue of
hypothetical changes (link cuts, config commits, policy edits, chaos
faults), and return a verdict per change — did it converge, which FIB
entries moved (:func:`repro.verify.fibdiff.fibdiff_doc`, the shape
``netscope fibdiff`` renders), and which devices the churn blames.

The per-verdict engine is **copy-on-write process forking**: the server
materializes the snapshot into a live emulation once (one unpickle, the
expensive step), then answers each request in an ``os.fork`` child that
inherits the converged memory image for free, applies the delta, and
pipes the pickled verdict back before ``_exit``.  Each child starts
from the byte-identical materialized state, so verdicts are as
deterministic as re-forking the snapshot from scratch — at the cost of
the dirtied pages, not the whole network.  On platforms without
``os.fork`` the server transparently falls back to unpickling the
snapshot per request (same verdicts, slower).

Two execution modes behind one API:

* ``workers=0`` (default) — inline: each request runs sequentially in a
  COW child of this process.  Fully deterministic; the mode the
  fidelity gates pin.
* ``workers=N`` — a pool of N forked OS processes sharing the
  materialized image copy-on-write, draining the request queue
  concurrently.  Verdict *content* stays deterministic per request
  (each COW child is an independent replica); only completion order
  varies, and :meth:`WhatIfServer.drain` re-sorts by ticket.

Admission control is a hard cap on outstanding requests: ``submit``
raises :class:`AdmissionError` rather than queueing unboundedly — a
full validation queue should push back on the caller, not accumulate
hours of latency silently.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
import traceback
from typing import Dict, List, Optional

from .obs.schema import SCHEMA_VERSION
from .sim import gcpolicy
from .snapshot import (Delta, Snapshot, apply_delta, discard, fork,
                       network_fibs)

__all__ = ["AdmissionError", "ServeError", "WhatIfServer"]

# How long a pool worker may sit on one request before drain() declares
# the pool wedged (wall-clock; generous — an L-DC reconvergence is
# sub-second from a warm image).
_RESULT_TIMEOUT = 600.0

# drain() polls the result queue at this granularity so it can notice a
# dead worker between verdicts instead of blocking the full timeout.
_DEAD_POLL = 1.0

# A dead worker plus this much result silence means its request died
# with it: the queued backlog may still be draining through surviving
# workers, so one empty poll is not proof — sustained silence is.
_DEAD_GRACE = 15.0

# Copy-on-write forking needs POSIX fork(); everywhere else each verdict
# re-materializes the snapshot (deterministically identical, slower).
_HAS_COW = hasattr(os, "fork")


class ServeError(Exception):
    """Worker-pool failure (worker died, wedged queue, ...)."""


class AdmissionError(ServeError):
    """The request queue is full; retry after draining."""


class _FibCache:
    """FIB renders from the warm parent, shared into COW children.

    Rendering every device FIB costs seconds at L-DC, and a verdict
    needs two captures (before/after).  The parent renders once at
    materialization into a per-device render memo; each forked child
    inherits the memo and re-renders only the devices whose FIB object
    or ``Fib.version`` moved under the delta, returning the parent's
    (copy-on-write-shared) lists for the untouched rest — which is what
    lets :meth:`~repro.verify.fibdiff.FibComparator.diff` skip them by
    identity.  The result is byte-identical to calling
    :func:`repro.snapshot.network_fibs` without a memo.
    """

    def __init__(self, net):
        self.memo: Dict[str, dict] = {}
        network_fibs(net, self.memo)

    def __call__(self, net) -> Dict[str, list]:
        return network_fibs(net, self.memo)


def _snap_meta(snap: Snapshot) -> dict:
    return {"emulation_id": snap.emulation_id, "sim_time": snap.sim_time}


def _verdict(ticket: int, delta: Delta, snap: Snapshot,
             timeout: float) -> dict:
    """Materialize, apply, reconverge, report — the fallback path for
    platforms without ``os.fork``.

    The returned dict separates the deterministic core (``report``)
    from wall-clock measurements (``timing``): fidelity comparisons use
    the former and must ignore the latter.
    """
    started = time.perf_counter()
    net = fork(snap)
    forked = time.perf_counter()
    report = apply_delta(net, delta, timeout=timeout)
    done = time.perf_counter()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "whatif-verdict",
        "ticket": ticket,
        "snapshot": _snap_meta(snap),
        "report": report.to_dict(),
        "timing": {"fork_seconds": forked - started,
                   "verdict_seconds": done - started},
    }


def _cow_verdict(ticket: int, delta: Delta, net, cache: _FibCache,
                 meta: dict, timeout: float) -> dict:
    """One verdict in a copy-on-write child of the materialized net.

    The child inherits the converged image, applies the delta, and
    pickles ``("ok", report_dict)`` — or ``("error", traceback)`` —
    into a pipe before ``os._exit`` (never returning into the parent's
    stack).  The parent drains the pipe fully *before* reaping the
    child: verdicts routinely exceed the pipe buffer, so reading first
    is what lets the child finish writing.
    """
    started = time.perf_counter()
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:                                   # child
        os.close(rd)
        gcpolicy.cow_child()
        code = 0
        try:
            report = apply_delta(net, delta, timeout=timeout,
                                 fib_reader=cache)
            payload = ("ok", report.to_dict())
        except BaseException:
            payload = ("error", traceback.format_exc())
        try:
            with os.fdopen(wr, "wb") as fh:
                pickle.dump(payload, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            code = 1
        os._exit(code)
    os.close(wr)                                   # parent
    forked = time.perf_counter()
    with os.fdopen(rd, "rb") as fh:
        blob = fh.read()
    os.waitpid(pid, 0)
    if not blob:
        raise ServeError(
            f"what-if child for ticket {ticket} died before reporting")
    status, payload = pickle.loads(blob)
    if status != "ok":
        raise ServeError(f"ticket {ticket} failed in the what-if child:\n"
                         f"{payload}")
    done = time.perf_counter()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "whatif-verdict",
        "ticket": ticket,
        "snapshot": meta,
        "report": payload,
        "timing": {"fork_seconds": forked - started,
                   "verdict_seconds": done - started},
    }


def _pool_worker(snap: Snapshot, net, cache, requests, results) -> None:
    """Pool worker main: drain (ticket, delta) until the None sentinel.

    ``net``/``cache`` arrive through fork inheritance (the pool is
    always spawned with the ``fork`` start method), so every worker
    shares the parent's materialized image copy-on-write.
    """
    meta = _snap_meta(snap)
    while True:
        item = requests.get()
        if item is None:
            return
        ticket, delta, timeout = item
        try:
            if net is not None:
                verdict = _cow_verdict(ticket, delta, net, cache, meta,
                                       timeout)
            else:
                verdict = _verdict(ticket, delta, snap, timeout)
            results.put(("ok", ticket, verdict))
        except Exception:
            results.put(("error", ticket, traceback.format_exc()))


class WhatIfServer:
    """Admission-controlled what-if service over one warm snapshot."""

    def __init__(self, snap: Snapshot, workers: int = 0,
                 max_pending: int = 64, timeout: float = 1800.0):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.snap = snap
        self.workers = workers
        self.max_pending = max_pending
        self.timeout = timeout
        self._next_ticket = 0
        self._pending: List[tuple] = []       # inline mode backlog
        self._outstanding = 0
        self._closed = False
        self._net = None                      # materialized COW parent
        self._cache: Optional[_FibCache] = None
        self._procs: List[multiprocessing.Process] = []
        self._requests = None
        self._results = None
        if workers:
            # Materialize before spawning so every worker inherits the
            # live image copy-on-write instead of paying its own
            # unpickle; the queues only ever carry deltas and verdicts.
            if _HAS_COW:
                self.materialize()
            ctx = multiprocessing.get_context("fork")
            self._requests = ctx.Queue()
            self._results = ctx.Queue()
            for i in range(workers):
                proc = ctx.Process(
                    target=_pool_worker,
                    args=(snap, self._net, self._cache, self._requests,
                          self._results),
                    name=f"repro-whatif-{i}", daemon=True)
                proc.start()
                self._procs.append(proc)

    # -- API ---------------------------------------------------------------

    def materialize(self) -> None:
        """Fork the snapshot into this process (idempotent).

        The one expensive step — a large-network unpickle — paid once;
        every verdict afterwards is a cheap COW child of the image.
        ``drain`` calls this lazily, but a service wanting predictable
        first-request latency can pay it up front.
        """
        if self._net is None:
            # Frozen so that neither this process's drain loop nor any
            # COW child ever walks the image; ``close()`` releases it.
            with gcpolicy.frozen_image():
                net = fork(self.snap)
                cache = _FibCache(net)
            self._net, self._cache = net, cache

    def submit(self, delta: Delta) -> int:
        """Enqueue one what-if request; returns its ticket.

        Raises :class:`AdmissionError` when ``max_pending`` requests are
        already outstanding.
        """
        if self._closed:
            raise ServeError("server is closed")
        if self._outstanding >= self.max_pending:
            raise AdmissionError(
                f"what-if queue full ({self.max_pending} outstanding); "
                f"drain() before submitting more")
        ticket = self._next_ticket
        self._next_ticket += 1
        self._outstanding += 1
        if self.workers:
            self._requests.put((ticket, delta, self.timeout))
        else:
            self._pending.append((ticket, delta))
        return ticket

    @property
    def pending(self) -> int:
        return self._outstanding

    def drain(self) -> List[dict]:
        """Process/collect every outstanding request, in ticket order."""
        if self.workers:
            return self._drain_pool()
        verdicts = []
        pending, self._pending = self._pending, []
        for ticket, delta in pending:
            if _HAS_COW:
                self.materialize()
                verdicts.append(_cow_verdict(
                    ticket, delta, self._net, self._cache,
                    _snap_meta(self.snap), self.timeout))
            else:
                verdicts.append(_verdict(ticket, delta, self.snap,
                                         self.timeout))
            self._outstanding -= 1
        return verdicts

    def _drain_pool(self) -> List[dict]:
        collected: Dict[int, dict] = {}
        errors: List[str] = []
        deadline = time.monotonic() + _RESULT_TIMEOUT
        silent_since = time.monotonic()
        while self._outstanding:
            # Bounded poll: a worker SIGKILLed mid-request can never
            # report its ticket, so an unbounded results.get() would
            # block this loop forever.  Wake up regularly, check child
            # liveness, and fail the lost tickets with a clear error.
            try:
                status, ticket, payload = self._results.get(
                    timeout=_DEAD_POLL)
            except queue.Empty:
                now = time.monotonic()
                dead = [p for p in self._procs if not p.is_alive()]
                if dead and (len(dead) == len(self._procs)
                             or now - silent_since >= _DEAD_GRACE):
                    lost = self._outstanding
                    self._outstanding = 0
                    names = ", ".join(
                        f"{p.name} (exitcode {p.exitcode})" for p in dead)
                    raise ServeError(
                        f"what-if worker(s) died holding request(s): "
                        f"{names}; {lost} ticket(s) lost") from None
                if now >= deadline:
                    raise ServeError(
                        f"no verdict within {_RESULT_TIMEOUT}s; pool "
                        f"wedged ({self._outstanding} outstanding)") \
                        from None
                continue
            silent_since = time.monotonic()
            self._outstanding -= 1
            if status == "ok":
                collected[ticket] = payload
            else:
                errors.append(f"ticket {ticket}: {payload}")
        if errors:
            raise ServeError("what-if request(s) failed:\n"
                             + "\n".join(errors))
        return [collected[t] for t in sorted(collected)]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            self._requests.put(None)
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
        self._pending.clear()
        if self._net is not None:
            discard(self._net, site="whatif-close")
            self._net = None
            self._cache = None
            gcpolicy.release_image()

    def __enter__(self) -> "WhatIfServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
