"""Shares of one command's work, each past the first in a forked process.

Loaded only by the commands that may fork: ``simulate`` for its trial
ranges, ``sweep`` for the rows of a large grid and ``verify`` for its
exact-solver checks.
"""

from __future__ import annotations

import os
import pickle

from .core import WorkerError


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def run_shares(work, shares: list, what: str) -> list:
    """``[work(share) for share in shares]``, each share past the first in a forked child.

    This process runs ``shares[0]`` and forks a child per other share,
    which pipes back its pickled result or exception; without ``os.fork``
    every share runs here.  Results come back in share order, and so does
    the first failing share's exception, with its type.  A child that ends
    without a result raises :class:`WorkerError`, which calls it
    ``what`` worker k, k its share's index; no child outlives the call.
    The caller runs no other thread: a child gets a copy of this one alone.
    """
    if not hasattr(os, "fork"):
        return [work(share) for share in shares]
    children = []  # (pid, the read end of its pipe), until reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child runs `work`, one pickle and os._exit only: it
                # flushes no stdio buffer it inherited and runs no atexit
                # handler.  `work` must need no thread the fork did not copy
                # (BLAS's, for one).  The child never returns from this block.
                code = 1
                try:
                    os.close(read_end)
                    try:
                        outcome = (True, work(share))
                    except BaseException as exc:
                        outcome = (False, exc)
                    with open(write_end, "wb") as pipe:
                        pipe.write(pickle.dumps(outcome))
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, open(read_end, "rb")))
            os.close(write_end)
        results = [work(shares[0])]
        for worker in range(1, len(shares)):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code or not data:  # a child exits 0 only once its whole result is sent
                raise WorkerError(
                    f"{what} worker {worker} ended without a result (exit status {code})"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
    finally:  # children are left here only if something failed
        if children:
            from signal import SIGKILL  # a millisecond to import, so only here
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return results
