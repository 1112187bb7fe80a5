"""Forked worker processes that stream back what they make.

``Forked(parts, produce, run)`` forks one child per part, or none when
there is only one part.  A child iterates ``produce(part)``, a sequence of
sections, each an iterable of picklable items, and writes it to its pipe:
each section as pickled runs of ``run`` items, each run flushed as it is
made, then ``None``.  A full pipe makes the child wait, so it runs at most a
pipe ahead of its reader.  An exception is sent in place of the rest and
ends the child; one that would not unpickle is sent as a ``RuntimeError``
with its message.  A child leaves through ``os._exit`` and never returns
into its caller's code.

Only ``verify`` uses this module.  ``pickle`` is loaded only once a child
is forked, so a run on one CPU and every other command never load it.
"""

from __future__ import annotations

import os
import signal
import threading
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence


# Where this process's cgroup is named, and where cgroup v2 is mounted.
_OWN_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def usable() -> int:
    """How many processes may work at once: the CPUs this process may run
    on, capped by the CPUs' worth of time, rounded up, that the ``cpu.max``
    quota of its own cgroup v2 grants, or 1 without ``os.fork``, with
    another live thread, since a forked child would inherit only the calling
    thread, or with ``SIGCHLD`` ignored, since the kernel would then reap a
    child before ``close`` could, and its pid might name another process."""
    if (not hasattr(os, "fork") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        with open(_OWN_CGROUP) as entries:
            path = next(line[3:].strip() for line in entries if line.startswith("0::"))
        with open(os.path.join(_CGROUP_ROOT, path.lstrip("/"), "cpu.max")) as limit:
            quota, period = limit.read().split()
        return max(1, min(cpus, -(-int(quota) // int(period))))
    except (OSError, StopIteration, ValueError, ZeroDivisionError):
        return cpus  # no cgroup v2 entry, no readable file, or "max", which int() refuses


class Forked:
    """The children making ``produce(part)`` for each of ``parts``.

    ``unforked`` holds, in order, the one part when there is only one, and
    the parts no process could be forked for; the caller makes those
    itself.  ``close`` (or leaving a ``with`` block) kills any child still
    running and reaps every one."""

    def __init__(self, parts: Sequence, produce: Callable[[object], Iterable[Iterable]],
                 run: int):
        self.unforked: list = []
        self._pids: list[int] = []
        self._readers: list = []
        if len(parts) == 1:
            self.unforked.extend(parts)
            return
        try:
            for part in parts:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    self.unforked.append(part)
                    continue
                if pid == 0:  # the child never leaves this block
                    try:
                        os.close(read_fd)
                        for reader in self._readers:
                            reader.close()
                        _send(produce(part), run, write_fd)
                    finally:
                        os._exit(0)
                self._pids.append(pid)
                os.close(write_fd)
                self._readers.append(os.fdopen(read_fd, "rb"))
        except BaseException:
            self.close()
            raise

    def next_section(self) -> list[Iterator]:
        """One iterator per child over the items of its next section."""
        return [_received(reader) for reader in self._readers]

    def close(self) -> None:
        for reader in self._readers:
            reader.close()
        while self._pids:
            pid = self._pids.pop()
            try:
                # An unreaped child keeps its pid, so the kill cannot reach
                # another process.
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as with SIGCHLD ignored
                pass

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _send(sections: Iterable[Iterable], run: int, fd: int) -> None:
    import pickle

    with os.fdopen(fd, "wb") as out:
        for section in sections:
            items = iter(section)
            try:
                while batch := tuple(islice(items, run)):
                    pickle.dump(batch, out)
                    out.flush()
            except Exception as exc:
                try:
                    record = pickle.dumps(exc)
                    pickle.loads(record)
                except Exception:
                    record = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                out.write(record)
                return
            pickle.dump(None, out)
            out.flush()


def _received(reader) -> Iterator:
    import pickle

    try:
        while (record := pickle.load(reader)) is not None:
            if isinstance(record, BaseException):
                raise record
            yield from record
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("a worker process ended before its report") from None
