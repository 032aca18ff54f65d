"""The process's one garbage-collection policy.

CPython's cycle collector re-walks the whole heap every time it has
grown by a quarter, so a phase that only *builds* state — a mockup, a
reconvergence, a pickle of the emulation, the unpickle of a snapshot —
pays about log1.25(heap) full (generation-2) passes, together some
five walks of the final heap, and reclaims nothing: no cyclic garbage
dies while the heap only grows (DESIGN.md, "GC policy").  This module
is the only code in ``src/`` that talks to :mod:`gc`:

* :func:`bulk_phase` — a re-entrant scope that defers full collections
  to the phase boundary.  Young collections keep running, so
  short-lived cycles are still reclaimed; the first allocation after
  the scope may pay the one deferred full pass.
* :func:`collector_stopped` — a re-entrant scope in which no
  collection of any generation starts, for a build whose survivors
  are frozen (or whose temporaries die with it) before it returns.
* :func:`frozen_image` / :func:`release_image` — build a long-lived
  image (the materialized snapshot COW children fork from) with the
  collector stopped and park it in the permanent generation, with the
  holders counted so one closing does not thaw what another still
  serves from.
* :func:`cow_child` — a forked child that will ``os._exit`` after one
  short task never collects at all.

The collector's thresholds and permanent generation belong to the
interpreter, so the state kept here (scope depth, holder count) is per
process by nature, and is inherited, never released, by fork children
that ``_exit``.  None of this changes what is simulated, which is why
there is no option or environment variable to switch it.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator, Optional, Tuple

__all__ = ["bulk_phase", "collector_stopped", "cow_child", "frozen_image",
           "release_image"]

# threshold2 counts generation-1 collections since the last full one;
# at ~7k allocations each, this many never happen.
_NEVER = 2 ** 31 - 1


class _BulkPhase:
    """Defers generation-2 collections while at least one scope is open.

    Only ``threshold2`` is touched: whether the collector is enabled,
    and how often the young generations run, stay the caller's.  The
    outermost exit puts back exactly what the outermost entry found —
    a ``gc.set_threshold`` made inside the scope does not survive it.
    """

    __slots__ = ("depth", "saved")

    def __init__(self) -> None:
        self.depth = 0
        self.saved: Optional[Tuple[int, int, int]] = None

    def __enter__(self) -> None:
        if self.depth == 0:
            self.saved = gc.get_threshold()
            gc.set_threshold(self.saved[0], self.saved[1], _NEVER)
        self.depth += 1

    def __exit__(self, *exc) -> None:
        self.depth -= 1
        if self.depth == 0:
            gc.set_threshold(*self.saved)


_scope = _BulkPhase()
_holders = 0


def bulk_phase() -> _BulkPhase:
    """Scope for a phase in which the heap only grows.

    No full collection starts between entry and exit, nested or not;
    the interpreter's thresholds are restored on the way out of the
    outermost scope, exception or not.
    """
    return _scope


@contextlib.contextmanager
def collector_stopped() -> Iterator[None]:
    """Scope in which no collection of any generation starts.

    A zero ``threshold0`` switches automatic collection off without
    touching ``gc.isenabled()`` (a COW child that disabled the collector
    stays disabled); the thresholds found on entry come back exactly on
    the way out, exception or not, and scopes nest with
    :func:`bulk_phase` either way round.  Unlike a bulk phase this one
    parks every survivor in generation 0, so it belongs only around a
    build that ends in :func:`gc.freeze` (which empties the young
    generations) or whose allocations die before it returns.
    """
    saved = gc.get_threshold()
    gc.set_threshold(0, saved[1], saved[2])
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@contextlib.contextmanager
def frozen_image() -> Iterator[None]:
    """Build a long-lived image in the body; freeze it on success.

    The body runs with the collector stopped, and the image goes to the
    permanent generation before collections resume, so no collection
    of any generation ever walks it — not this process's, and not a COW
    child's (a collection also writes GC headers, dirtying shared
    pages).  Nothing is collected first either: garbage that predates
    the build is frozen along with it and reclaimed by the last
    :func:`release_image`.  Each successful build is one hold; pair it
    with :func:`release_image`.  A build that raises freezes nothing.
    """
    global _holders
    with collector_stopped():
        yield
        # Inside the scope: with the young generations holding the whole
        # image, any allocation after the thresholds come back would
        # start a pass over it.
        gc.freeze()
    _holders += 1


def release_image() -> None:
    """Drop one hold; the last one thaws the heap and collects it.

    ``gc.freeze``/``gc.unfreeze`` are process-wide, so an image dropped
    while another holder is open stays frozen (its cycles uncollected)
    until that holder releases too.
    """
    global _holders
    if _holders == 0:
        raise RuntimeError("release_image() without a frozen_image() hold")
    _holders -= 1
    if _holders == 0:
        gc.unfreeze()
        gc.collect()


def cow_child() -> None:
    """Stop collecting in a fork child that serves one task and exits.

    The child inherits a multi-million-object heap and lives well under
    a second: one full pass would walk, and copy-on-write-dirty, all of
    it for nothing.  Refcounting still frees the task's acyclic garbage
    and ``os._exit`` reclaims the rest wholesale.
    """
    gc.disable()
