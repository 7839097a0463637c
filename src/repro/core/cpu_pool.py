"""One thread pool per process, sized to the CPUs the process may use.

The link product (:mod:`repro.core.links`) and the labelling kernel
(:mod:`repro.core.labeling`) split their largest calls into row blocks
whose native work (SciPy sparse products) releases the GIL, and run the
blocks on this pool.  Each caller decides from its own work whether the
blocks pay; :func:`cpu_pool` decides whether this call may use the pool
at all:

* only on the main thread: a shard task runs on a worker thread of the
  thread executor, whose threads already keep the CPUs busy;
* not in a multiprocessing child: the same for the process executor;
* only with at least two usable CPUs (the affinity mask where there is
  one).

The pool is made on first use.  Its threads do not survive ``fork``: a
forked child drops the inherited pool and makes its own on first use.
:func:`shutdown_cpu_pool` joins them before a deliberate fork (the shard
executor's workers), so the parent forks with none alive.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Executor, ThreadPoolExecutor

#: The pool and its thread count, made on first use (see :func:`cpu_pool`);
#: a forked child starts without one.
_pool: tuple[ThreadPoolExecutor, int] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool a forked child inherited: its threads did not survive."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_pool() -> tuple[Executor, int] | None:
    """The shared pool and its thread count when this call may use it,
    else ``None`` (see the module docstring for the rules)."""
    global _pool
    if (
        threading.current_thread() is not threading.main_thread()
        or multiprocessing.parent_process() is not None
    ):
        return None
    workers = _usable_cpus()
    if workers < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = (
                ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-cpu"),
                workers,
            )
        return _pool


def shutdown_cpu_pool() -> None:
    """Join the pool's threads and drop the pool; the next use makes a new one.

    Acts on the main thread only, the pool's one user, where no pooled
    work can be in flight; called from another thread it does nothing.
    """
    global _pool
    if threading.current_thread() is not threading.main_thread():
        return
    with _pool_lock:
        made, _pool = _pool, None
    if made is not None:
        made[0].shutdown(wait=True)
