"""``wplzx sweep`` on forked workers: the same CSV bytes, error text and exit
code as a serial sweep whatever the worker count, and no child process
(``conftest.no_child_left``) and no file descriptor (``no_fd_left``) left
behind after every test.

The worker count is forced by patching ``parallel.usable_cpus``, the one
place the sweep reads the CPU count from.
"""

from __future__ import annotations

import errno
import os
import re
import signal

import pytest

from wplzx import cli
from wplzx.errors import ConfigInvalid, MatchingOverflow, ZeroDistance
from wplzx.masd import parallel, surface
from wplzx.masd.parallel import MIN_BLOCK

LAMBDAS = (0.0, 0.1, 0.3)
FLAGS = ["--distance", "5", "--p", "0.1", "--winding", "uniform", "--mode", "raw", "--seed", "11"]


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test that leaves open more file descriptors than it found,
    such as a pipe end of a failed sweep; no check where the platform has
    no ``/proc/self/fd``."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    after = len(os.listdir("/proc/self/fd"))
    assert after <= before, f"the test left {after - before} file descriptor(s) open"


@pytest.fixture
def cpus(monkeypatch):
    def force(n: int) -> None:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return force


def sweep(tmp_path, trials: int, *flags: str):
    """Run ``wplzx sweep``; returns its exit code and CSV bytes (None when no
    CSV was written)."""
    out = tmp_path / f"sweep-{trials}.csv"
    out.unlink(missing_ok=True)
    argv = ["sweep", "--lambdas", ",".join(map(str, LAMBDAS)), *FLAGS, *flags,
            "--trials", str(trials), "--out", str(out)]
    code = cli.main(argv)
    return code, out.read_bytes() if out.exists() else None


def serial_csv(trials: int) -> bytes:
    """The CSV of ``lambda_sweep`` over the sweep's instances, in-process."""
    code = surface.build_code(5)
    model = surface.WindingModel(kind="uniform")
    instances = [
        surface.sample_surface_code(5, 0.1, 11, trial=t, winding=model, code=code)
        for t in range(trials)
    ]
    rows = surface.lambda_sweep(instances, LAMBDAS, mode="raw", code=code)
    return cli._csv(rows, cli.SWEEP_COLUMNS).encode()


# The block size the worker-count cases run at.  The split does not depend
# on the size, and a small one keeps each case to a few dozen trials.
BLOCK = 20


@pytest.mark.parametrize(
    "n_cpus, trials, workers",
    [
        (1, 3 * BLOCK, 1),
        (2, 2 * BLOCK - 1, 1),  # just below the threshold: serial
        (2, 2 * BLOCK, 2),
        (2, 2 * BLOCK + 1, 2),  # blocks of unequal size
        (3, 3 * BLOCK - 1, 2),
        (3, 3 * BLOCK, 3),
        (3, 3 * BLOCK + 2, 3),
        (64, 3 * BLOCK + 1, 3),  # capped by the trial count
    ],
)
def test_csv_bytes_do_not_depend_on_the_worker_count(
    tmp_path, capsys, cpus, monkeypatch, n_cpus, trials, workers
):
    monkeypatch.setattr(parallel, "MIN_BLOCK", BLOCK)
    cpus(n_cpus)
    assert sweep(tmp_path, trials) == (0, serial_csv(trials))
    plural = "s" if workers > 1 else ""
    assert capsys.readouterr().err == (
        f"swept {len(LAMBDAS)} lambda values over {trials} trials on {workers} worker{plural}\n"
    )


def test_small_sweeps_stay_in_process(cpus):
    cpus(64)
    assert parallel.worker_count(6) == 1
    assert parallel.worker_count(2 * MIN_BLOCK - 1) == 1
    assert parallel.worker_count(64 * MIN_BLOCK + 5) == 64


def test_stdout_csv_is_written_once(capfd, cpus):
    cpus(2)
    argv = ["sweep", "--lambdas", ",".join(map(str, LAMBDAS)), *FLAGS, "--trials", "40"]
    assert cli.main(argv) == 0
    assert capfd.readouterr().out.encode() == serial_csv(40)


@pytest.fixture
def fail_at(monkeypatch):
    """Make the decode at chosen (lambda, trial) points raise ``error``; the
    patch is inherited by forked workers."""
    sample, decode = surface.sample_surface_code, surface.masd_decode

    def arm(points, error=ZeroDistance):
        trial_of = {}

        def tagged(*args, **kwargs):
            drawn, graph = sample(*args, **kwargs)
            trial_of[id(graph)] = drawn.trial
            return drawn, graph

        def failing(graph, lam, **kwargs):
            trial = trial_of[id(graph)]
            if (lam, trial) in points:
                raise error(f"decode failed at lambda {lam}, trial {trial}")
            return decode(graph, lam, **kwargs)

        monkeypatch.setattr(surface, "sample_surface_code", tagged)
        monkeypatch.setattr(cli, "sample_surface_code", tagged)
        monkeypatch.setattr(surface, "masd_decode", failing)

    return arm


@pytest.mark.parametrize(
    "error, code, prefix",
    [(ZeroDistance, 1, "error"), (MatchingOverflow, 3, "resource cap"), (RuntimeError, None, None)],
)
def test_worker_errors_match_the_serial_run(tmp_path, capsys, cpus, fail_at, error, code, prefix):
    # Serial order is lambda-major: (0.1, 40) comes before (0.3, 3), although
    # the first block reaches trial 3 long before the last block reaches 40.
    fail_at({(0.1, 40), (0.3, 3), (0.3, 45)}, error)
    message = "decode failed at lambda 0.1, trial 40"
    for n_cpus in (1, 2, 3):
        cpus(n_cpus)
        if code is None:  # not caught by cli.main: raised as the serial run raises it
            with pytest.raises(error) as info:
                sweep(tmp_path, 3 * MIN_BLOCK)
            assert str(info.value) == message
            assert not hasattr(info.value, "__notes__")
            assert info.value.__context__ is None
            assert capsys.readouterr().err == ""
        else:
            assert sweep(tmp_path, 3 * MIN_BLOCK) == (code, None)
            assert capsys.readouterr().err == f"{prefix}: {message}\n"


def test_sampling_errors_come_before_decode_errors(tmp_path, capsys, cpus, fail_at, monkeypatch):
    fail_at({(0.0, 0)})
    sample = surface.sample_surface_code

    def bad_last_trial(*args, trial, **kwargs):
        if trial == 3 * MIN_BLOCK - 1:
            raise ConfigInvalid(f"cannot sample trial {trial}")
        return sample(*args, trial=trial, **kwargs)

    monkeypatch.setattr(surface, "sample_surface_code", bad_last_trial)
    monkeypatch.setattr(cli, "sample_surface_code", bad_last_trial)
    for n_cpus in (1, 3):
        cpus(n_cpus)
        assert sweep(tmp_path, 3 * MIN_BLOCK) == (1, None)
        assert capsys.readouterr().err == f"error: cannot sample trial {3 * MIN_BLOCK - 1}\n"


class Interrupted(BaseException):
    pass


def test_workers_are_reaped_when_the_parent_block_raises(tmp_path, cpus, monkeypatch):
    parent, decode = os.getpid(), surface.masd_decode

    def interrupted_here(graph, lam, **kwargs):
        if os.getpid() == parent:
            raise Interrupted
        return decode(graph, lam, **kwargs)

    monkeypatch.setattr(surface, "masd_decode", interrupted_here)
    cpus(3)
    with pytest.raises(Interrupted):
        sweep(tmp_path, 3 * MIN_BLOCK)


def in_workers_only(monkeypatch, act):
    """Make every decode in a forked worker call ``act()`` first."""
    parent, decode = os.getpid(), surface.masd_decode

    def decode_in_worker(graph, lam, **kwargs):
        if os.getpid() != parent:
            act()
        return decode(graph, lam, **kwargs)

    monkeypatch.setattr(surface, "masd_decode", decode_in_worker)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def raise_zero_distance():
    raise ZeroDistance("raised in a worker only")


@pytest.mark.parametrize(
    "act, status", [(kill_self, 9), (raise_zero_distance, 256)], ids=["killed", "raised"]
)
def test_a_failed_worker_sweeps_serially(tmp_path, capsys, cpus, monkeypatch, act, status):
    in_workers_only(monkeypatch, act)
    cpus(2)
    assert sweep(tmp_path, 2 * MIN_BLOCK) == (0, serial_csv(2 * MIN_BLOCK))
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"sweep worker \d+ ended with wait status {status}; swept serially\n"
        rf"swept {len(LAMBDAS)} lambda values over {2 * MIN_BLOCK} trials on 1 worker\n",
        err,
    ), err


def test_a_failed_parent_block_sweeps_serially(tmp_path, capsys, cpus, monkeypatch):
    # The parent's first decode fails once; the serial rerun succeeds.
    decode, calls = surface.masd_decode, []

    def fails_once(graph, lam, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ZeroDistance("a one-off failure")
        return decode(graph, lam, **kwargs)

    monkeypatch.setattr(surface, "masd_decode", fails_once)
    cpus(3)
    assert sweep(tmp_path, 3 * MIN_BLOCK) == (0, serial_csv(3 * MIN_BLOCK))
    assert capsys.readouterr().err == (
        "the parent's sweep block raised ZeroDistance: a one-off failure; swept serially\n"
        f"swept {len(LAMBDAS)} lambda values over {3 * MIN_BLOCK} trials on 1 worker\n"
    )


@pytest.mark.parametrize("failing_fork", [1, 2], ids=["first-fork", "second-fork"])
def test_a_failed_fork_sweeps_serially(tmp_path, capsys, cpus, monkeypatch, failing_fork):
    fork, calls = os.fork, []

    def flaky_fork():
        calls.append(None)
        if len(calls) == failing_fork:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", flaky_fork)
    cpus(3)
    assert sweep(tmp_path, 3 * MIN_BLOCK) == (0, serial_csv(3 * MIN_BLOCK))
    assert capsys.readouterr().err == (
        "cannot start sweep workers ([Errno 11] Resource temporarily unavailable); "
        "swept serially\n"
        f"swept {len(LAMBDAS)} lambda values over {3 * MIN_BLOCK} trials on 1 worker\n"
    )


def test_without_fork_the_sweep_runs_serially(tmp_path, capsys, cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    cpus(2)
    assert parallel.worker_count(2 * MIN_BLOCK) == 1
    assert sweep(tmp_path, 2 * MIN_BLOCK) == (0, serial_csv(2 * MIN_BLOCK))
    assert capsys.readouterr().err == (
        f"swept {len(LAMBDAS)} lambda values over {2 * MIN_BLOCK} trials on 1 worker\n"
    )
