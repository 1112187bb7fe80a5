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

from polycauchy import verify, workers
from polycauchy.cli import main
from polycauchy.series import InsufficientOrderError
from polycauchy.verify import GridConfig, GridConfigError, run_suite

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def use_cpus(monkeypatch, count):
    """Make ``verify`` see ``count`` usable CPUs, whatever CPU quota the
    host sets."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(workers, "_OWN_CGROUP", os.devnull)


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


@pytest.mark.usefixtures("first_number_off_by_one")
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failures_made_in_a_worker_reach_the_report(capsys, monkeypatch, fmt):
    argv = ("--n-max", "3", "--identity", "thm7.falling-basis", "--format", fmt)
    one = report(capsys, monkeypatch, 1, *argv)
    assert one[0] == 1
    assert report(capsys, monkeypatch, 2, *argv) == one
    if fmt == "json":
        # With two workers every check is made in a child.
        failed = [row for row in json.loads(one[1] + "\n}")["rows"] if row["status"] == "fail"]
        assert any(row["params"]["k"] >= 0 and row["lhs"] and row["rhs"] for row in failed)


def test_run_suite_with_workers_gives_the_one_worker_checks(monkeypatch):
    cfg = GridConfig(n_max=4)
    use_cpus(monkeypatch, 1)
    one = run_suite(cfg)
    use_cpus(monkeypatch, 7)
    assert run_suite(cfg) == one
    assert_no_child()


def fake_cgroup(tmp_path, monkeypatch, cpu_max):
    """Make ``workers`` read ``cpu_max`` as its own cgroup's ``cpu.max``,
    or find no such file when it is None."""
    (tmp_path / "cgroup").write_text("1:cpu:/\n0::/box/job\n")
    (tmp_path / "box" / "job").mkdir(parents=True)
    if cpu_max is not None:
        (tmp_path / "box" / "job" / "cpu.max").write_text(cpu_max)
    monkeypatch.setattr(workers, "_OWN_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(workers, "_CGROUP_ROOT", str(tmp_path))


@pytest.mark.parametrize("cpu_max, count", [
    ("max 100000\n", 7), (None, 7), ("garbled\n", 7), ("100000 100000\n", 1),
    ("1000 100000\n", 1), ("150000 100000\n", 2), ("400000 100000\n", 4),
    ("900000 100000\n", 7),
], ids=["max", "no-file", "garbled", "one", "a-hundredth", "one-and-a-half", "four",
        "nine"])
def test_a_cpu_quota_caps_the_worker_count(tmp_path, monkeypatch, cpu_max, count):
    use_cpus(monkeypatch, 7)
    fake_cgroup(tmp_path, monkeypatch, cpu_max)
    assert workers.usable() == count


def test_no_cgroup_v2_entry_is_no_cap(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 7)
    fake_cgroup(tmp_path, monkeypatch, "100000 100000\n")
    (tmp_path / "cgroup").write_text("1:cpu:/\n")
    assert workers.usable() == 7


@pytest.mark.parametrize("limit", ["affinity", "quota"])
def test_one_usable_cpu_forks_nothing(tmp_path, capsys, monkeypatch, limit):
    if limit == "affinity":
        use_cpus(monkeypatch, 1)
    else:
        use_cpus(monkeypatch, 7)
        fake_cgroup(tmp_path, monkeypatch, "100000 100000\n")

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", "--n-max", "4", "--output", os.devnull]) == 0


@pytest.mark.parametrize("argv", [
    ("--n-max", "4", "--k-min", "1", "--k-max", "1"),
    ("--n-max", "4", "--identity", "thm5.weights-3way", "--identity", "narumi.eq52"),
], ids=["one-k", "no-k-identity"])
def test_a_grid_with_one_k_or_none_splits_on_two_cpus(capsys, monkeypatch, argv):
    one = report(capsys, monkeypatch, 1, *argv, "--format", "csv")
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    assert report(capsys, monkeypatch, 2, *argv, "--format", "csv") == one
    assert len(forks) == 2
    assert_no_child()


def test_with_two_cpus_the_parent_evaluates_no_point(capsys, monkeypatch):
    argv = ("--n-max", "3", "--format", "csv")
    one = report(capsys, monkeypatch, 1, *argv)
    made = []  # what a child appends stays in the child
    for identity, (info, evaluate) in list(verify._IDENTITIES.items()):
        def recorded(*args, evaluate=evaluate):
            for point in evaluate(*args):
                made.append(point)
                yield point

        monkeypatch.setitem(verify._IDENTITIES, identity, (info, recorded))
    assert report(capsys, monkeypatch, 2, *argv) == one
    assert made == []
    assert_no_child()


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("k_range", [(-3, 3), (2, 2)], ids=["seven-k", "one-k"])
def test_each_identitys_shares_differ_by_at_most_one_check(count, k_range):
    cfg = GridConfig(n_max=4, k_range=k_range)
    for identity in verify.catalog_ids():
        whole = list(verify._evaluated(identity, cfg, (0, 1)))
        shares = [list(verify._evaluated(identity, cfg, (index, count)))
                  for index in range(count)]
        sizes = [len(share) for share in shares]
        assert max(sizes) - min(sizes) <= 1, (identity, sizes)
        assert sorted(sum(shares, []), key=verify._grid_point) == whole


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
    assert len(forks) == 3
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
        "from polycauchy import workers\n"
        "workers._OWN_CGROUP = os.devnull  # whatever CPU quota the host sets\n"
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
    of share 1, a child's with two workers, or of share 0, made in the
    parent because its fork is made to fail."""
    info, evaluate = verify._IDENTITIES["difference"]

    def runs_short(cfg, share):
        for index, point in enumerate(evaluate(cfg, share)):
            if index == 3 and (share[0] == 1) == in_child:
                raise InsufficientOrderError(9, 8)
            yield point

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, runs_short))
    if not in_child:
        real_fork = os.fork
        forks = []

        def first_fork_fails():
            forks.append(1)
            if len(forks) == 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", first_fork_fails)


@pytest.mark.parametrize("path", ["ok", "failure", "order-error-in-child",
                                  "order-error-in-parent", "full-disk"])
def test_no_worker_outlives_verify(capsys, monkeypatch, request, path):
    use_cpus(monkeypatch, 2)
    argv = ["verify", "--n-max", "4", "--format", "json", "--output", os.devnull]
    expected = 0
    if path == "failure":
        request.getfixturevalue("first_number_off_by_one")
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

    def second_sleeps_first_fails(cfg, share):
        if share[0] == 1:
            time.sleep(60)
        raise InsufficientOrderError(9, 8)
        yield

    monkeypatch.setitem(verify._IDENTITIES, "difference", (info, second_sleeps_first_fails))
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

    def breaks_in_the_child(cfg, share):
        if share[0] == 1:
            raise Unpicklable("no way back")
        yield from evaluate(cfg, share)

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
