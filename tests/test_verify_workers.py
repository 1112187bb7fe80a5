"""``verify`` split over worker processes: the same bytes as one worker,
and no process left behind on any exit path."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from polycauchy import second_kind as sk
from polycauchy import verify, workers
from polycauchy.cli import main
from polycauchy.series import InsufficientOrderError
from polycauchy.verify import GridConfig, GridConfigError, run_suite

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def use_cpus(monkeypatch, count):
    """Make ``verify`` see ``count`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def report(capsys, monkeypatch, workers, *argv):
    """Exit code and output of ``verify`` with ``workers`` CPUs; a JSON
    report is cut before its ``meta`` block, which holds the time."""
    use_cpus(monkeypatch, workers)
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    return code, out.split(',\n  "meta"')[0]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


GRIDS = {
    "default": (),
    "one-k": ("--n-max", "4", "--k-min", "2", "--k-max", "2"),
    "two-k": ("--n-max", "4", "--k-min", "-1", "--k-max", "0"),
    "lambdas-out-of-order": ("--n-max", "3", "--identity", "thm6.frobenius-basis",
                             "--identity", "eq34.addition", "--identity", "stirling.eq7",
                             "--lambda", "2", "--lambda", "-1/3", "--lambda", "-1"),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("grid", list(GRIDS))
def test_report_bytes_do_not_depend_on_the_worker_count(capsys, monkeypatch, grid, fmt):
    argv = (*GRIDS[grid], "--format", fmt)
    one = report(capsys, monkeypatch, 1, *argv)
    assert one[0] == 0 and one[1]
    for workers in (2, 3) if grid != "default" else (2,):
        assert report(capsys, monkeypatch, workers, *argv) == one
        assert_no_child()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failures_made_in_a_worker_reach_the_report(capsys, monkeypatch, fmt):
    true_number = sk.number_closed
    monkeypatch.setattr(sk, "number_closed", lambda n, k: true_number(n, k) + (n == 1))
    argv = ("--n-max", "3", "--identity", "thm7.falling-basis", "--format", fmt)
    one = report(capsys, monkeypatch, 1, *argv)
    assert one[0] == 1
    assert report(capsys, monkeypatch, 2, *argv) == one
    if fmt == "json":
        # With two workers, k in [0, 3] is the child's slice.
        failed = [row for row in json.loads(one[1] + "\n}")["rows"] if row["status"] == "fail"]
        assert any(row["params"]["k"] >= 0 and row["lhs"] and row["rhs"] for row in failed)


def test_run_suite_with_workers_gives_the_one_worker_checks(monkeypatch):
    cfg = GridConfig(n_max=4)
    use_cpus(monkeypatch, 1)
    one = run_suite(cfg)
    use_cpus(monkeypatch, 7)
    assert run_suite(cfg) == one
    assert_no_child()


@pytest.mark.parametrize("argv", [
    ("--n-max", "4", "--k-min", "1", "--k-max", "1"),
    ("--n-max", "4", "--identity", "thm5.weights-3way", "--identity", "narumi.eq52"),
], ids=["one-k", "no-k-identity"])
def test_a_grid_with_nothing_to_split_forks_nothing(capsys, monkeypatch, argv):
    use_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", *argv]) == 0


def test_a_live_thread_keeps_verify_in_one_process(capsys, monkeypatch):
    argv = ("--n-max", "3", "--format", "csv")
    one = report(capsys, monkeypatch, 1, *argv)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert report(capsys, monkeypatch, 2, *argv) == one
    finally:
        release.set()
        thread.join()
    assert forks == []


def test_a_slice_that_cannot_fork_is_made_in_the_parent(capsys, monkeypatch):
    argv = ("--n-max", "3", "--format", "csv")
    one = report(capsys, monkeypatch, 1, *argv)
    real_fork = os.fork
    forks = []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert report(capsys, monkeypatch, 3, *argv) == one
    assert len(forks) == 2
    assert_no_child()


def fresh_interpreter(code):
    """Stdout of ``code`` run by a fresh interpreter that imports this
    package; the run must succeed."""
    package_root = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_only_a_forked_run_loads_pickle():
    # Importing verify, or running it on one CPU, does not load pickle, so it
    # costs neither start-up time nor memory there.
    out = fresh_interpreter(
        "import os, sys\n"
        "from polycauchy import cli, verify\n"
        "print('pickle' in sys.modules)\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "cli.main(['verify', '--n-max', '2', '--output', os.devnull])\n"
        "print('pickle' in sys.modules)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.main(['verify', '--n-max', '2', '--output', os.devnull])\n"
        "print('pickle' in sys.modules)\n"
    )
    assert out.splitlines() == ["False", "False", "True"]


def test_verify_with_sigchld_ignored_runs_in_one_process(capsys, monkeypatch):
    # With SIGCHLD ignored the kernel reaps a child on its own, so verify
    # forks none and writes the whole report with its exit code.
    one = report(capsys, monkeypatch, 1, "--n-max", "3", "--format", "csv")
    out = fresh_interpreter(
        "import os, signal, sys\n"
        "from polycauchy import cli\n"
        "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def no_fork():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = no_fork\n"
        "code = cli.main(['verify', '--n-max', '3', '--format', 'csv'])\n"
        "print(code)\n"
    )
    assert out == one[1] + "0\n"


def test_close_copes_with_a_child_the_kernel_reaped():
    out = fresh_interpreter(
        "import signal\n"
        "from polycauchy.workers import Forked\n"
        "signal.signal(signal.SIGCHLD, signal.SIG_IGN)\n"
        "with Forked([3, 4], lambda part: [range(part)], 2) as children:\n"
        "    print([list(items) for items in children.next_section()])\n"
    )
    assert out == "[[0, 1, 2], [0, 1, 2, 3]]\n"


# ---------------------------------------------------------------------------
# Every exit path reaps its workers

def short_difference(monkeypatch, in_child):
    """Make ``difference`` raise InsufficientOrderError at its fourth point
    of the child's slice (k >= 0 with two workers) or of the parent's."""
    info, evaluate = verify._IDENTITIES["difference"]

    def runs_short(cfg):
        for index, point in enumerate(evaluate(cfg)):
            if index == 3 and (cfg.k_range[0] >= 0) == in_child:
                raise InsufficientOrderError(9, 8)
            yield point

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, runs_short))


@pytest.mark.parametrize("path", ["ok", "failure", "order-error-in-child",
                                  "order-error-in-parent", "full-disk"])
def test_no_worker_outlives_verify(capsys, monkeypatch, path):
    use_cpus(monkeypatch, 2)
    argv = ["verify", "--n-max", "4", "--format", "json", "--output", os.devnull]
    expected = 0
    if path == "failure":
        true_number = sk.number_closed
        monkeypatch.setattr(sk, "number_closed", lambda n, k: true_number(n, k) + (n == 1))
        expected = 1
    elif path.startswith("order-error"):
        short_difference(monkeypatch, path.endswith("child"))
        expected = 2
    elif path == "full-disk":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        argv[-1] = "/dev/full"
        expected = 2
    assert main(argv) == expected
    assert_no_child()
    err = capsys.readouterr().err
    if path.startswith("order-error"):
        assert err.splitlines() == ["error: identity difference needs truncation order >= 9, got 8"]
    elif path == "full-disk":
        assert err.startswith("error: ") and err.count("\n") == 1


def test_a_stop_part_way_does_not_wait_for_a_busy_worker(monkeypatch):
    info, _ = verify._IDENTITIES["difference"]

    def child_sleeps_parent_fails(cfg):
        if cfg.k_range[0] >= 0:
            time.sleep(60)
        raise InsufficientOrderError(9, 8)
        yield

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, child_sleeps_parent_fails))
    use_cpus(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(GridConfigError):
        run_suite(GridConfig(n_max=2, identities=("difference",)))
    assert time.monotonic() - started < 30
    assert_no_child()


def test_an_exception_that_would_not_unpickle_is_sent_as_its_message(monkeypatch):
    class Unpicklable(Exception):
        pass

    info, evaluate = verify._IDENTITIES["difference"]

    def breaks_in_the_child(cfg):
        if cfg.k_range[0] >= 0:
            raise Unpicklable("no way back")
        yield from evaluate(cfg)

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, breaks_in_the_child))
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^Unpicklable: no way back$"):
        run_suite(GridConfig(n_max=2, identities=("difference",)))
    assert_no_child()


def test_a_worker_that_ends_without_its_report_is_a_usage_error(capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(workers, "_send", lambda sections, run, fd: None)
    assert main(["verify", "--n-max", "2", "--output", os.devnull]) == 2
    assert capsys.readouterr().err == "error: a worker process ended before its report\n"
    assert_no_child()
