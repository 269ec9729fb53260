"""Run one function over a list of items on every CPU of the affinity set.

:func:`fork_map` is the package's only use of ``os.fork``: ``cli`` writes the
spectra of each batch of waiting times through it, and ``validate`` spreads
the cases of its three loop-oracle checks with it.
"""

from __future__ import annotations

import os
import pickle
import warnings


def cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(fn, items: list, share: int, k: int, results: dict):
    """Set ``results[i] = fn(items[i])`` for i = share, share + k, ...

    Stops at the first item that raises and returns (its index, the
    exception); returns None when every item succeeded."""
    for i in range(share, len(items), k):
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            return i, exc
    return None


def _fork_share(fn, items: list, share: int, k: int) -> tuple[int, int]:
    """Fork a child that runs one share of the items and exits.

    Returns the child's pid and the read end of a pipe that carries its
    pickled (results, failure)."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork in a process with live threads,
            # such as OpenBLAS's pool.  OpenBLAS stops its pool in its own
            # fork handler, so BLAS in the child starts a fresh one.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:       # whatever is raised, the child ends in os._exit
            os.close(read_fd)
            results: dict = {}
            failure = _run_share(fn, items, share, k, results)
            with open(write_fd, "wb") as pipe:
                pickle.dump((results, failure), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> tuple[bytes, int]:
    """Wait for a child; what it sent and its exit code."""
    with open(read_fd, "rb") as pipe:
        blob = pipe.read()
    return blob, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, run on up to :func:`cpu_count` processes.

    Item i runs in process i mod k, k being :func:`cpu_count` capped at the
    number of items.  Process 0 is this one; each other one is forked, so
    ``fn`` and the items are not pickled, and sends its results back over a
    pipe.  Every child is reaped before this returns or raises.  When items
    raise, the exception of the first of them in item order is raised here,
    as a loop would raise it; a child that ends without reporting, e.g. by a
    signal, raises ``OSError``.
    """
    items = list(items)
    k = max(1, min(cpu_count(), len(items)))
    results: dict = {}
    failures = []
    children = []
    try:
        for share in range(1, k):
            children.append((share, *_fork_share(fn, items, share, k)))
        failures.append(_run_share(fn, items, 0, k, results))
    finally:
        reports = [(share, pid, *_reap(pid, read_fd)) for share, pid, read_fd in children]
    for share, pid, blob, code in reports:
        if code != 0:
            failures.append((share, OSError(f"process {pid} ended with status {code}")))
            continue
        child_results, failure = pickle.loads(blob)   # bytes a child of this process wrote
        results.update(child_results)
        failures.append(failure)
    failures = [failure for failure in failures if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i] for i in range(len(items))]
