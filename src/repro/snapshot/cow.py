"""One task in a copy-on-write child of a materialized image.

:mod:`repro.serve` answers each what-if request, and
:mod:`repro.campaign.worker` evaluates each scenario, in an ``os.fork``
child that inherits the parent's frozen warm image, runs one task
against its private copy, and pipes the pickled outcome back before
``os._exit`` — never returning into the parent's stack.  The parent
drains the pipe fully *before* reaping the child (results routinely
exceed the pipe buffer, so reading first is what lets the child finish
writing), then reaps it with :func:`os.wait4`, which also reports what
the child cost.

Every way the child can fail to deliver ends in the caller's typed
error naming the lost work: ``os.fork`` itself failing (EAGAIN, ENOMEM
against a large image — both pipe ends are closed first), the child
dying part-way through its write (the bytes received and its exit
status or signal are named), and the task raising in the child (its
traceback is carried back).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from typing import Any, Callable, Dict, Tuple, Type

from ..sim import gcpolicy

__all__ = ["cow_call"]


def _exit_cause(status: int) -> str:
    if os.WIFSIGNALED(status):
        signum = os.WTERMSIG(status)
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        return f"was killed by {name}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def cow_call(task: Callable[[], Any], what: str,
             error: Type[Exception]) -> Tuple[Any, Dict[str, float]]:
    """``task()`` in a COW child; returns its result and the child's cost.

    The cost is ``fork_seconds``, the parent's wall clock until the
    child exists, and from the child's rusage ``child_cpu_seconds``
    (user + system) and ``child_minor_faults``, most of which are the
    copy-on-write copies of the pages it dirtied.  Raises
    ``error`` naming ``what`` when the child cannot be started, dies
    without delivering a complete result, or the task raised.
    """
    started = time.perf_counter()
    rd, wr = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(rd)
        os.close(wr)
        raise error(f"{what}: cannot fork the child: {exc}") from exc
    if pid == 0:                                   # child
        os.close(rd)
        gcpolicy.cow_child()
        code = 0
        try:
            payload = ("ok", task())
        except BaseException:
            payload = ("error", traceback.format_exc())
        try:
            with os.fdopen(wr, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        except BaseException:
            code = 1
        os._exit(code)
    os.close(wr)                                   # parent
    forked = time.perf_counter()
    with os.fdopen(rd, "rb") as fh:
        blob = fh.read()
    _pid, status, usage = os.wait4(pid, 0)
    cost = {"fork_seconds": forked - started,
            "child_cpu_seconds": usage.ru_utime + usage.ru_stime,
            "child_minor_faults": usage.ru_minflt}
    try:
        outcome, result = pickle.loads(blob)
    except Exception:
        outcome = None
    if outcome is None or not (os.WIFEXITED(status)
                               and os.WEXITSTATUS(status) == 0):
        raise error(f"{what}: the child {_exit_cause(status)} after "
                    f"sending {len(blob)} bytes of its result")
    if outcome != "ok":
        raise error(f"{what} failed in the child:\n{result}")
    return result, cost
