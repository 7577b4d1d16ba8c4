"""Per-item work of one call spread over fork-started worker processes.

Writing trial files (`synthdata.save_dataset`) is CPU-bound text conversion
that holds the interpreter lock, so threads do not overlap it; processes do.
Workers are forked so that they inherit the caller's data: only task bounds
go out and only results come back.  Each worker runs Python and numpy
element-wise code alone, never BLAS, so the native threads the parent may
hold are not needed in the child.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import warnings
from multiprocessing.connection import wait


class WorkerLostError(RuntimeError):
    """A worker process ended without replying, for example when it was
    killed; `items` are the items of the task it was on."""

    def __init__(self, items: range):
        super().__init__(f"a worker process ended while on items {items.start}-{items.stop - 1}")
        self.items = items


def map_in_workers(fn, n_items: int, task_size: int) -> list:
    """[fn(0), ..., fn(n_items - 1)], computed by one forked worker process per
    CPU this process may use, a task of `task_size` consecutive items at a time.

    Results are received and unpickled in the calling thread, so their memory
    is allocated as if this thread had computed them.  When an item raises,
    no further task starts; once the tasks in flight end, the exception of the
    first failing item in item order is raised, with its chain of __cause__
    as the item raised it, or WorkerLostError for a task
    whose worker ended without replying.  No worker outlives the call,
    whether it returns, raises or is interrupted.
    """
    tasks = [(start, min(start + task_size, n_items)) for start in range(0, n_items, task_size)]
    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    context = multiprocessing.get_context("fork")
    workers = []
    pipes = []
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a process with other threads
            # (numpy's BLAS pool, say) may deadlock the child, should one of
            # those threads hold a lock.  The child only runs `fn`, which
            # takes none of their locks.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded, use of fork",
                                    DeprecationWarning)
            for _ in range(min(len(os.sched_getaffinity(0)), len(tasks))):
                ours, theirs = context.Pipe()
                pipes += (ours, theirs)
                # the worker closes its copy of `ours` first, so it sees end of
                # file once ours is closed here, even if start() raises after fork
                process = context.Process(target=_serve, args=(fn, theirs, ours), daemon=True)
                process.start()
                workers.append((process, ours))
                theirs.close()  # so a worker that dies is seen as end of file
        idle = [conn for _, conn in workers]
        busy: dict = {}   # connection -> index of the task it runs
        next_task = 0
        while True:
            while idle and next_task < len(tasks) and not errors:
                conn = idle.pop()
                conn.send(tasks[next_task])
                busy[conn] = next_task
                next_task += 1
            if not busy:
                break
            for conn in wait(list(busy)):
                task = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    ok, value = False, [WorkerLostError(range(*tasks[task]))]
                if ok:
                    results[task] = value
                else:
                    errors[task] = _relinked(value)
                idle.append(conn)
        if errors:
            raise errors[min(errors)]
        return [item for chunk in results for item in chunk]
    finally:
        for process, _ in workers:
            process.terminate()  # idle in recv unless the call was interrupted
        for conn in pipes:
            conn.close()
        for process, _ in workers:
            process.join()


def _serve(fn, conn, callers_end) -> None:
    """Run each task (start, stop) received on `conn` and send back
    (True, results) or (False, the `_cause_chain` of its first failing item's
    exception)."""
    callers_end.close()
    # an interrupt is the caller's to handle; terminate() ends the worker
    # through SystemExit, so a file write in progress removes its temporary
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_terminate)
    while True:
        try:
            start, stop = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, [fn(i) for i in range(start, stop)])
        except Exception as exc:
            reply = (False, _cause_chain(exc))
        conn.send(reply)


def _cause_chain(exc: BaseException) -> list[BaseException]:
    """[exc, its __cause__, that one's __cause__, ...]: pickling an
    exception drops its __cause__, so the chain is sent as a list."""
    chain = [exc]
    while (cause := chain[-1].__cause__) is not None and all(cause is not e for e in chain):
        chain.append(cause)
    return chain


def _relinked(chain: list[BaseException]) -> BaseException:
    """The first exception of a received `_cause_chain`, each one's __cause__ set again."""
    for exc, cause in zip(chain, chain[1:]):
        exc.__cause__ = cause
    return chain[0]


def _exit_on_terminate(signum, frame) -> None:
    raise SystemExit(1)
