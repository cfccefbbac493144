"""Monte-Carlo sweeps split over the CPUs this process may use.

A sweep's trials are independent: each draws its own Philox stream
(``rng.trial_stream``), and ``surface.decode_grid`` decodes each instance on
its own.  ``forked_sweep`` splits the trials into contiguous blocks, one per
worker.  This process samples and decodes the first block; each other block
runs in a child made by ``os.fork``, which samples its own trials, decodes
them at every lambda and sends back, through a pipe, the per-(lambda, trial)
values that ``surface.sweep_rows`` averages.  The rows are built from those
values merged in trial order, so they equal ``lambda_sweep``'s rows over all
trials, float for float, whatever the worker count.

A block delivers its values or fails, and a failed block sends nothing.
When a worker cannot be started, a child ends with a nonzero wait status (it
raised or it died) or this process's own block raises an ``Exception``,
``forked_sweep`` returns the reason in place of rows, and the caller sweeps
serially.  Only the serial sweep raises a sweep's errors, so their message,
order and exit code are the serial run's.  An error costs the parallel
attempt plus a serial run up to the error; a bad p, lambda or beta fails at
the first sample or decode of every block, so it costs little more than the
forks.

Workers are forked, not spawned: a spawned worker would start a fresh
interpreter and import numpy and wplzx again, about 0.3 s, several times
what a whole sweep of 1,000 decodes takes at d = 5.  Nor do they come from a
process pool: on a 2-CPU Xeon VM, starting two workers, mapping a trivial
function and stopping them took 14.7-17.2 ms with a fork-context
``multiprocessing.Pool`` or ``ProcessPoolExecutor``, against 4.6-5.3 ms for
``_fork_map`` (medians of 40 calls, two runs), and a sweep pays that once
per call: at d = 7 the extra 10 ms would cancel the gain.
A forked child takes no lock another thread could hold at the fork: it
imports nothing, logs nothing and makes no BLAS call.  It ends only through
``os._exit``: it runs no exit handler, flushes no buffer it inherited (stdio
is flushed before forking) and writes no output file.  Every child is
reaped before ``forked_sweep`` returns or raises.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
from functools import partial

from . import surface

# Fewest trials per worker.  A worker costs about 5 ms on a 2-CPU Xeon VM
# with numpy and wplzx loaded: the fork, copy-on-write faults in both
# processes and the child's exit.  Over a 4-point lambda grid, in one
# process, a trial costs about 0.37 ms at d = 7, p = 0.15, 0.07 ms at d = 5,
# p = 0.05 and 0.036 ms at d = 3, p = 0.05, and two busy processes on that
# VM run little faster than one.  Two workers ran slower than one at 40
# trials of d = 7 (relative throughput 60.2 against 64.5 on the benchmark's
# sweep-d7) and at 100 trials of d = 3 (11.6 against 6.1 ms a call), and
# faster at 250 trials of d = 5 (1.24x on sweep-d5).  So calls of 40 and
# 100 trials run in one process, and a call of 250 forks.
MIN_BLOCK = 100


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or the machine's CPU count
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(trials: int) -> int:
    """Workers for a sweep of ``trials``: one per usable CPU, but no block
    smaller than ``MIN_BLOCK`` trials, and at least one; one where the
    platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(usable_cpus(), trials // MIN_BLOCK))


def forked_sweep(
    code: surface.RotatedSurfaceCode,
    p_phys: float,
    seed: int,
    winding: surface.WindingModel,
    trials: int,
    lambdas: list[float],
    mode: str,
    beta: float,
    workers: int,
) -> list[dict] | str:
    """``lambda_sweep`` rows over trials 0..trials-1 sampled by
    ``sample_surface_code``, computed by ``workers`` processes; or, when a
    block failed, the reason there are no rows."""
    bounds = [trials * w // workers for w in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    block = partial(_sweep_block, code, p_phys, seed, winding, lambdas, mode, beta)
    results = _fork_map(block, blocks)
    if isinstance(results, str):
        return results
    merged = [[] for _ in lambdas]
    for values in results:
        for row, part in zip(merged, values):
            row.extend(part)
    return surface.sweep_rows(lambdas, p_phys, code.distance, mode, merged)


def _sweep_block(code, p_phys, seed, winding, lambdas, mode, beta, block: range):
    """The ``decode_grid`` values of the block's trials: one list per
    lambda, in trial order."""
    instances = [
        surface.sample_surface_code(
            code.distance, p_phys, seed, trial=t, winding=winding, code=code
        )
        for t in block
    ]
    return surface.decode_grid(instances, lambdas, mode, beta, code)


def _fork_map(fn, items: list) -> list | str:
    """[fn(item) for item in items]: items[1:] each in a forked child,
    items[0] here; or, when one of them failed, the reason.  Every child is
    reaped before this returns or raises."""
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int]] = []  # (pid, read end) not yet reaped
    try:
        try:
            for item in items[1:]:
                children.append(_spawn(fn, item))
        except OSError as exc:
            return f"cannot start sweep workers ({exc})"
        try:
            results = [fn(items[0])]
        except Exception as exc:
            return f"the parent's sweep block raised {type(exc).__name__}: {exc}"
        while children:
            pid, fd = children.pop(0)
            try:
                with open(fd, "rb") as pipe:
                    payload = pipe.read()
            finally:
                _, status = os.waitpid(pid, 0)
            if status != 0:
                return f"sweep worker {pid} ended with wait status {status}"
            results.append(pickle.loads(payload))
        return results
    finally:
        # Reached with children left only when this process or a child
        # failed: their results will not be read.
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _spawn(fn, item) -> tuple[int, int]:
    """Fork a child that writes pickle(fn(item)) to a pipe and exits 0, or
    exits 1 having written nothing when fn raises; returns its pid and the
    pipe's read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            # The inherited heap is never collected here, so collections
            # do not touch (and copy) its pages.
            gc.freeze()
            payload = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end
