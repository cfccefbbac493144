"""Monte-Carlo sweeps split over the CPUs this process may use.

A sweep's trials are independent: each draws its own Philox stream
(``rng.trial_stream``), and ``surface.decode_grid`` decodes each instance on
its own.  ``forked_sweep`` splits the trials into contiguous blocks, one per
worker.  This process samples and decodes the first block; each other block
runs in a child made by ``os.fork``, which samples its own trials, decodes
them at every lambda and sends back, through a pipe, the per-(lambda, trial)
values that ``surface.sweep_row`` averages.  The rows are built from those
values merged in trial order, so they equal ``lambda_sweep``'s rows over all
trials, float for float, whatever the worker count.

Errors keep the serial order.  A block stops at its first error, at
(-1, trial) while sampling or (lambda index, trial) while decoding, and the
earliest of all blocks' errors is raised: the one a serial sweep, which
samples every trial and then decodes lambda by lambda, raises first.

Workers are forked, not spawned: a spawned worker would start a fresh
interpreter and import numpy and wplzx again, about 0.3 s, several times what
a whole sweep of 1,000 decodes takes at d = 5.  A forked child takes no lock another thread could hold at the
fork: it imports nothing, logs nothing and makes no BLAS call.  It ends only
through ``os._exit``: it runs no exit handler, flushes no buffer it
inherited (stdio is flushed before forking) and writes no output file.
Every child is reaped before ``forked_sweep`` returns or raises.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
import traceback
from functools import partial

from . import surface

# Fewest trials per worker.  A worker costs about 5 ms on a 2-CPU Xeon VM
# with numpy and wplzx loaded: the fork, copy-on-write faults in both
# processes and the child's exit.  At d = 7, p = 0.15 over a 4-point lambda
# grid, about 0.7 ms a trial, two workers break even near 40 trials; cheaper
# trials need larger blocks (about 70 trials at d = 5, p = 0.05, and more
# than 250 at d = 3, p = 0.05).
MIN_BLOCK = 20


class ForkUnavailable(Exception):
    """No worker process could be started; the caller sweeps serially."""


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, or the machine's CPU count
    where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(trials: int) -> int:
    """Workers for a sweep of ``trials``: one per usable CPU, but no block
    smaller than ``MIN_BLOCK`` trials, and at least one."""
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
) -> list[dict]:
    """``lambda_sweep`` rows over trials 0..trials-1 sampled by
    ``sample_surface_code``, computed by ``workers`` processes.

    Raises ``ForkUnavailable``, with no child left, when a worker cannot be
    started."""
    bounds = [trials * w // workers for w in range(workers + 1)]
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    block = partial(_sweep_block, code, p_phys, seed, winding, lambdas, mode, beta)
    results = _fork_map(block, blocks)
    errors = [error for _, error in results if error is not None]
    if errors:
        _, exc, trace = min(errors, key=lambda error: error[0])
        if exc.__traceback__ is None:  # raised in a worker; pickling dropped it
            exc.add_note(f"raised in a sweep worker:\n{trace}")
        raise exc
    merged = [[] for _ in lambdas]
    for values, _ in results:
        for row, part in zip(merged, values):
            row.extend(part)
    return [
        surface.sweep_row(lam, p_phys, code.distance, mode, row)
        for lam, row in zip(lambdas, merged)
    ]


def _sweep_block(code, p_phys, seed, winding, lambdas, mode, beta, block: range):
    """(values, None), where values[j] lists the ``decode_grid`` values of
    the block's trials at lambdas[j] in trial order; or (None, (where,
    exception, its formatted traceback)) for the block's first error."""
    values = [[] for _ in lambdas]
    where = None
    try:
        instances = []
        for t in block:
            where = (-1, t)
            instances.append(
                surface.sample_surface_code(
                    code.distance, p_phys, seed, trial=t, winding=winding, code=code
                )
            )
        outcomes = surface.decode_grid(instances, lambdas, mode, beta, code)
        for j, row in enumerate(values):
            for t in block:
                where = (j, t)
                row.append(next(outcomes))
    except Exception as exc:
        return None, (where, exc, traceback.format_exc())
    return values, None


def _fork_map(fn, items: list) -> list:
    """[fn(item) for item in items]: items[1:] each in a forked child,
    items[0] here.  Every child is reaped before this returns or raises."""
    if not hasattr(os, "fork"):
        raise ForkUnavailable("os.fork is not available on this platform")
    sys.stdout.flush()
    sys.stderr.flush()
    children: list[tuple[int, int]] = []  # (pid, read end) not yet reaped
    try:
        try:
            for item in items[1:]:
                children.append(_spawn(fn, item))
        except OSError as exc:
            raise ForkUnavailable(str(exc)) from exc
        results = [fn(items[0])]
        while children:
            results.append(_receive(*children.pop(0)))
        return results
    finally:
        # Reached with children left only when this process failed: their
        # results will not be read.
        for pid, fd in children:
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _spawn(fn, item) -> tuple[int, int]:
    """Fork a child that writes pickle(fn(item)) to a pipe and exits;
    returns its pid and the pipe's read end."""
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


def _receive(pid: int, fd: int):
    """The result a child wrote to its pipe, once the child is reaped."""
    try:
        with open(fd, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise ChildProcessError(
            f"sweep worker {pid} ended with wait status {status} before sending its trials"
        )
    return pickle.loads(payload)
