"""One fresh interpreter of the benchmark.

Usage: ``python perfbench/worker.py '<job as JSON>' [trace]`` from the
checkout root with ``src`` on ``PYTHONPATH``.  The import of
``polycauchy.cli`` is timed first, before anything else is loaded, so every
job reports the set-up time of a cold interpreter.  The job then runs and
one JSON object is printed on the last line of standard output.

Times are read on ``speedclock.SpeedClock``, in seconds at a fixed
reference speed of the host, and each is reported raw as well under
``raw_<name>``.  The clock starts right after the import, which it reads at
its first readings' speed.  A traced job (``trace`` after the job) reads
times on the plain clock.
"""

import sys
import time

_started = time.perf_counter()
import polycauchy.cli  # noqa: E402

_SETUP = (_started, time.perf_counter())

from speedclock import PlainClock, SpeedClock  # noqa: E402

CLOCK = PlainClock() if sys.argv[2:] == ["trace"] else SpeedClock()
CLOCK.start()

import json  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# Layer functions are looked up on their modules at call time, so the
# wrappers a tracer installs later are the ones called.
import polycauchy.exact as exact  # noqa: E402
import polycauchy.second_kind as sk  # noqa: E402
import polycauchy.verify as verify  # noqa: E402
from polycauchy.poly import Polynomial  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image; ru_maxrss would also count the
    # parent's resident set, which Linux carries across fork and exec.
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _traced(job: dict) -> Tracer | None:
    if not job.get("trace"):
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer: Tracer | None, job: dict, result: dict) -> None:
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(job["trace_path"])


def verify_job(job: dict) -> dict:
    tracer = _traced(job)
    if tracer:
        tracer.begin()
    started = time.perf_counter()
    code = polycauchy.cli.main(["verify", "--format", "json", "--output", job["out"]])
    ended = time.perf_counter()
    if tracer:
        tracer.finish()
    result = {"exit_code": code, "spans": {"wall_s": (started, ended)}}
    _finish_trace(tracer, job, result)
    return result


def tables_job(job: dict) -> dict:
    """The seven ``gen`` calls, then every polycauchy2-poly row parsed back
    and held against the generating-function oracle; all of it is timed."""
    tracer = _traced(job)
    if tracer:
        tracer.begin()
    started = time.perf_counter()
    codes = []
    for index, args in enumerate(job["jobs"]):
        argv = ["gen", *args, "--n-max", str(job["n_max"]), "--format", "json",
                "--output", job["outs"][index]]
        codes.append(polycauchy.cli.main(argv))
    rows = mismatches = 0
    for index, args in enumerate(job["jobs"]):
        if args[0] != "polycauchy2-poly":
            continue
        with open(job["outs"][index], encoding="utf-8") as handle:
            payload = json.load(handle)
        k = payload["params"]["k"]
        for row in payload["rows"]:
            closed = Polynomial(exact.parse_rational(c) for c in row["coefficients"])
            rows += 1
            if closed != sk.poly_oracle(row["n"], k):
                mismatches += 1
    ended = time.perf_counter()
    if tracer:
        tracer.finish()
    result = {"exit_codes": codes, "spans": {"wall_s": (started, ended)}, "oracle_rows": rows,
              "oracle_mismatches": mismatches}
    _finish_trace(tracer, job, result)
    return result


def serve(request: tuple):
    """Answer one query-stream request in the ``num/den`` wire format.

    Returns the response and whether its reconstruction check passed.
    """
    kind, n, k = request[:3]
    fmt = exact.format_rational
    if kind == "eval":
        return fmt(sk.poly_closed(n, k)(exact.parse_rational(request[3]))), True
    if kind == "numbers":
        return [fmt(sk.number_closed(i, k)) for i in range(n + 1)], True
    if kind == "falling":
        row = sk.connection_to_falling(n, k)
    elif kind == "bernoulli":
        row = sk.connection_to_bernoulli(n, k, request[3])
    else:
        row = sk.connection_to_frobenius(n, k, request[3], exact.parse_rational(request[4]))
    response = [fmt(c) for c in row.entries]
    return response, row.reconstruct() == sk.poly_closed(n, k)


def _wire(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def oracle_answer(request: tuple):
    """The answer to an ``eval`` or ``numbers`` request read off the
    generating functions (``poly_oracle``, ``number_oracle``), evaluated and
    formatted with plain ``Fraction`` arithmetic rather than ``Polynomial``
    or ``format_rational``.  None for a connection row, which its
    reconstruction check covers."""
    kind, n, k = request[:3]
    if kind == "eval":
        x = Fraction(request[3])
        return _wire(sum(c * x**i for i, c in enumerate(sk.poly_oracle(n, k).coeffs)))
    if kind == "numbers":
        return [_wire(Fraction(sk.number_oracle(i, k))) for i in range(n + 1)]
    return None


class _Client:
    """Sends the stream one request at a time and counts failed answers:
    an exception, a failed reconstruction check, in the first pass an
    answer that differs from ``oracle_answer``, and in later passes an
    answer that differs from the first pass."""

    def __init__(self, stream: list[tuple]):
        self.stream = stream
        self.expected: list = []
        self.attempted = 0
        self.failed = 0

    def answer(self, index: int) -> tuple[float, float]:
        """Send request ``index``; return the clock readings before and
        after it."""
        self.attempted += 1
        began = time.perf_counter()
        try:
            response, ok = serve(self.stream[index])
        except Exception:  # counted as failed; the loop keeps going
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            response, ok = None, False
        ended = time.perf_counter()
        if index < len(self.expected):
            ok = ok and response == self.expected[index]
        else:
            reference = oracle_answer(self.stream[index])
            ok = ok and (reference is None or response == reference)
            self.expected.append(response)
        self.failed += not ok
        return began, ended


def stream_job(job: dict) -> dict:
    """Closed loop, one client: an untimed pass fills the memos, then timed
    passes over the same stream, at least one and at most ``max_passes``,
    while the next pass should end within ``seconds`` of the job's start.
    A traced job then makes one traced pass."""
    clock = time.perf_counter
    job_started = clock()
    client = _Client([tuple(r) for r in inputs.query_stream(job["seed"])])
    count = len(client.stream)
    fill_started = clock()
    for index in range(count):
        client.answer(index)
    fill = (fill_started, clock())

    requests: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    while not passes or (2 * passes[-1][1] - passes[-1][0] - job_started <= job["seconds"]
                         and len(passes) < job["max_passes"]):
        pass_started = clock()
        for index in range(count):
            requests.append(client.answer(index))
        passes.append((pass_started, clock()))
    result = {"spans": {"fill_s": fill}, "pass_spans": passes, "request_spans": requests,
              "distinct": len(set(client.stream)) / count}

    tracer = _traced(job)
    if tracer:
        tracer.begin()
        for index in range(count):
            tracer.run_id = index
            client.answer(index)
        tracer.finish()
    result["attempted"] = client.attempted
    result["failed"] = client.failed
    _finish_trace(tracer, job, result)
    return result


def identity_job(job: dict) -> dict:
    started = time.perf_counter()
    report = verify.run_suite(verify.GridConfig(identities=(job["identity"],)))
    return {"spans": {"wall_s": (started, time.perf_counter())}, "checks": report.total,
            "failures": report.failure_count}


JOBS = {
    "setup": lambda job: {},
    "verify": verify_job,
    "tables": tables_job,
    "stream": stream_job,
    "identity": identity_job,
}


def main() -> int:
    job = json.loads(sys.argv[1])
    result = JOBS[job["kind"]](job)
    CLOCK.stop()
    spans = {"setup_s": _SETUP, **result.pop("spans", {})}
    for name, (a, b) in spans.items():
        result[name] = CLOCK.elapsed(a, b)
        result[f"raw_{name}"] = b - a
    if "pass_spans" in result:
        result["pass_walls"] = [CLOCK.elapsed(a, b) for a, b in result.pop("pass_spans")]
        result["latencies"] = [CLOCK.elapsed(a, b) for a, b in result.pop("request_spans")]
    result["slowness"] = CLOCK.mean_slowness()
    result["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
