"""The polycauchy benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Every sample runs in a fresh interpreter (``perfbench/worker.py``) started
one at a time, so cold memos stay cold whatever caching the library uses.
With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1`` a
separate run installs span wrappers around the library's layers and reports
per-layer metrics (see ``perfbench/tracer.py``).  End-to-end times are
seconds at a fixed reference speed of the host, read on the calibrated
clock of ``perfbench/speedclock.py`` because the shared host's own speed
drifts by half from minute to minute; the raw medians and the host's mean
slowness are printed with them.  Each workload checks its
own outputs; a failed check makes ``correct`` false and the exit code 1.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workload choices, default seeds
and the layer metrics each workload should move are in
``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from golden import file_digest, gen_key, rows_digest  # noqa: E402

WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_traces"
CHILD_TIMEOUT_S = 170
MIN_SAMPLES = 3
SETUP_SAMPLES = 9
UNTRACED_SAMPLES = 3  # per traced run, for the tracing overhead
VERIFY_CHECKS = 5003
IDENTITIES = tuple(GOLDEN["identity_checks"])


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed correctness check)."""


class Runner:
    """Starts workers one at a time in the checkout and collects results."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root / WORK_DIR
        self.traces = root / TRACE_DIR
        self.env = dict(os.environ)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.env["PYTHONHASHSEED"] = "0"
        self.setup: list[float] = []

    def job(self, job: dict) -> dict:
        command = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        if job.get("trace"):
            command.append("trace")
        try:
            done = subprocess.run(command, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker timed out after {CHILD_TIMEOUT_S} s: {job['kind']}") from None
        if done.returncode != 0:
            raise BenchError(f"worker {job['kind']} exited {done.returncode}:\n{done.stderr[-4000:]}")
        if done.stderr:
            sys.stderr.write(done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.setup.append(result["setup_s"])
        return result

    def path(self, name: str) -> str:
        return str(self.work / name)

    def trace_path(self, workload: str, seed: int) -> str:
        self.traces.mkdir(exist_ok=True)
        return str(self.traces / f"{workload}-seed{seed}.spans.gz")


class Tally:
    """Operations attempted and failed, with the first few failures named,
    and facts about the run (sample counts, check counts) for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.facts: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 10:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)


def tail_latency(latencies: list[float]) -> float:
    """The 99th percentile when at least ten requests lie beyond it.  With
    fewer than 1000 requests (the cold workloads, where a request is a whole
    cold sample) no percentile above the median has ten requests beyond it,
    and the median is reported."""
    if len(latencies) >= 1000:
        return statistics.quantiles(latencies, n=100, method="inclusive")[98]
    return statistics.median(latencies)


def end_to_end(runner: Runner, walls: list[float], latencies: list[float],
               per_wall: int, rss: list[float]) -> dict[str, float]:
    """The end-to-end metrics.  ``walls`` are the timed units (cold samples,
    or passes over the query stream) and ``per_wall`` the requests in one."""
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(runner.setup),
        "wall_s": wall,
        "req_per_s": per_wall / wall,
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_tail_ms": tail_latency(latencies) * 1e3,
        "peak_rss_mb": statistics.median(rss),
    }


# ---------------------------------------------------------------------------
# verify-default

def verify_sample(runner: Runner, tally: Tally, trace: dict | None = None) -> dict:
    out = runner.path("verify.json")
    job = {"kind": "verify", "out": out, **(trace or {})}
    result = runner.job(job)
    payload = json.loads(Path(out).read_text(encoding="utf-8"))
    rows = payload["rows"]
    result["checks"] = len(rows)
    result["failures"] = sum(1 for row in rows if row["status"] != "pass")
    result["output_bytes"] = Path(out).stat().st_size
    ok = (result["exit_code"] == 0 and result["checks"] == VERIFY_CHECKS
          and result["failures"] == 0 and rows_digest(payload) == GOLDEN["verify_rows"])
    tally.check(ok, f"verify: exit {result['exit_code']}, {result['checks']} checks, "
                    f"{result['failures']} failures, digest mismatch or wrong count")
    return result


def raw_note(samples: list[dict], key: str = "wall_s") -> str:
    return (f"raw {key} median {statistics.median(s['raw_' + key] for s in samples):.4g}, "
            f"host slowness {statistics.median(s['slowness'] for s in samples):.3f}")


def cold_samples(take, seconds: float) -> list[dict]:
    """At least MIN_SAMPLES, then more while the next one should still end
    within ``seconds`` of the first start."""
    samples = []
    started = time.perf_counter()
    while True:
        samples.append(take())
        elapsed = time.perf_counter() - started
        if len(samples) >= MIN_SAMPLES and elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def verify_default(runner: Runner, seed: int, seconds: float, tally: Tally) -> dict:
    # The default grid is fixed; the seed selects nothing here.
    samples = cold_samples(lambda: verify_sample(runner, tally), seconds)
    walls = [s["wall_s"] for s in samples]
    tally.facts.append(f"{len(samples)} cold samples; per sample verify.checks "
                       f"{sorted({s['checks'] for s in samples})}, verify.failures "
                       f"{sorted({s['failures'] for s in samples})}; {raw_note(samples)}")
    return end_to_end(runner, walls, walls, 1, [s["peak_rss_mb"] for s in samples])


def verify_default_trace(runner: Runner, seed: int, tally: Tally) -> dict:
    plain = [verify_sample(runner, tally) for _ in range(UNTRACED_SAMPLES)]
    traced = verify_sample(runner, tally, {"trace": True,
                                           "trace_path": runner.trace_path("verify-default", seed)})
    layers = traced["layers"]
    layers["trace.untraced_wall_s"] = statistics.median(s["raw_wall_s"] for s in plain)
    layers["verify.checks"] = traced["checks"]
    layers["verify.failures"] = traced["failures"]
    layers["cli.output_bytes"] = traced["output_bytes"]
    # Each identity alone, cold, in its own interpreter and untraced.
    for identity in IDENTITIES:
        result = runner.job({"kind": "identity", "identity": identity})
        tally.check(result["failures"] == 0
                    and result["checks"] == GOLDEN["identity_checks"][identity],
                    f"identity {identity}: {result['checks']} checks, {result['failures']} failures")
        layers[f"verify.identity.{identity}.s"] = result["wall_s"]
    return layers


# ---------------------------------------------------------------------------
# tables-large-n

def tables_sample(runner: Runner, seed: int, tally: Tally, trace: dict | None = None) -> dict:
    jobs = inputs.table_jobs(seed)
    outs = [runner.path(f"gen{index}.json") for index in range(len(jobs))]
    result = runner.job({"kind": "tables", "jobs": jobs, "outs": outs,
                         "n_max": inputs.TABLES_N_MAX, **(trace or {})})
    result["output_bytes"] = 0
    for args, out, code in zip(jobs, outs, result["exit_codes"]):
        path = Path(out)
        result["output_bytes"] += path.stat().st_size
        tally.check(code == 0 and file_digest(path) == GOLDEN["gen"][gen_key(args)],
                    f"gen {gen_key(args)}: exit {code} or output differs")
    tally.record(result["oracle_rows"], result["oracle_mismatches"],
                 f"{result['oracle_mismatches']} polycauchy2-poly rows differ from the oracle")
    return result


def tables_large_n(runner: Runner, seed: int, seconds: float, tally: Tally) -> dict:
    samples = cold_samples(lambda: tables_sample(runner, seed, tally), seconds)
    walls = [s["wall_s"] for s in samples]
    tally.facts.append(f"{len(samples)} cold samples of {len(inputs.table_jobs(seed))} gen calls "
                       f"and {samples[0]['oracle_rows']} oracle rows each; {raw_note(samples)}")
    return end_to_end(runner, walls, walls, 1, [s["peak_rss_mb"] for s in samples])


def tables_large_n_trace(runner: Runner, seed: int, tally: Tally) -> dict:
    plain = [tables_sample(runner, seed, tally) for _ in range(UNTRACED_SAMPLES)]
    traced = tables_sample(runner, seed, tally, {
        "trace": True, "trace_path": runner.trace_path("tables-large-n", seed)})
    layers = traced["layers"]
    layers["trace.untraced_wall_s"] = statistics.median(s["raw_wall_s"] for s in plain)
    layers["cli.output_bytes"] = traced["output_bytes"]
    return layers


# ---------------------------------------------------------------------------
# query-stream

def stream_run(runner: Runner, seed: int, seconds: float, tally: Tally,
               trace: dict | None = None) -> dict:
    result = runner.job({"kind": "stream", "seed": seed, "seconds": seconds,
                         "max_passes": UNTRACED_SAMPLES if trace else 1000, **(trace or {})})
    tally.record(result["attempted"], result["failed"],
                 f"query-stream: {result['failed']} failed answers")
    tally.facts.append(f"{len(result['pass_walls'])} timed passes, {len(result['latencies'])} "
                       f"timed requests, {result['distinct']:.1%} of the stream distinct, "
                       f"untimed fill pass {result['fill_s']:.2f} s; raw fill_s {result['raw_fill_s']:.2f}, "
                       f"host slowness {result['slowness']:.3f}")
    return result


def query_stream(runner: Runner, seed: int, seconds: float, tally: Tally) -> dict:
    result = stream_run(runner, seed, seconds, tally)
    return end_to_end(runner, result["pass_walls"], result["latencies"],
                      inputs.STREAM_LENGTH, [result["peak_rss_mb"]])


def query_stream_trace(runner: Runner, seed: int, tally: Tally) -> dict:
    # The pass count, not the clock, ends the untraced passes here.
    result = stream_run(runner, seed, CHILD_TIMEOUT_S, tally, {
        "trace": True, "trace_path": runner.trace_path("query-stream", seed)})
    layers = result["layers"]
    layers["trace.untraced_wall_s"] = statistics.median(result["pass_walls"])
    return layers


RUNS = {
    "verify-default": (verify_default, verify_default_trace),
    "tables-large-n": (tables_large_n, tables_large_n_trace),
    "query-stream": (query_stream, query_stream_trace),
}


def run_workload(runner: Runner, units: dict[str, str], name: str, seed: int,
                 seconds: float, trace: bool):
    tally = Tally()
    measure, measure_traced = RUNS[name]
    if trace:
        # A layer the workload never calls reports zero.
        metrics = dict.fromkeys(units, 0)
        metrics.update(measure_traced(runner, seed, tally))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        for _ in range(SETUP_SAMPLES):
            runner.job({"kind": "setup"})
        metrics = measure(runner, seed, seconds, tally)
    unknown = set(metrics) - set(units)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return tally, {key: {"value": metrics[key], "unit": units[key]} for key in units}


def report(name: str, tally: Tally, metrics: dict) -> None:
    print(f"== {name}")
    for key, entry in metrics.items():
        print(f"  {key:<44} {entry['value']:>16.6g} {entry['unit']}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'error_rate':<44} {rate:>16.6g} ({tally.failed} of {tally.attempted} operations)")
    for fact in tally.facts:
        print(f"  ({fact})")
    for note in tally.notes:
        print(f"  FAILED: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*RUNS, "all"), default="all")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polycauchy" / "cli.py").is_file():
        print("error: run from the root of a polycauchy checkout (src/polycauchy is missing)",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    names = list(RUNS) if args.workload == "all" else [args.workload]
    runner = Runner(root)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir()
    results = {}
    try:
        runner.job({"kind": "setup"})  # compiles the bytecode; not measured
        for name in names:
            runner.setup = []
            seed = args.seed if args.seed is not None else WORKLOADS[name]["default_seed"]
            results[name] = run_workload(runner, units, name, seed, args.seconds, bool(args.trace))
            report(name, *results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted = sum(tally.attempted for tally, _ in results.values())
    failed = sum(tally.failed for tally, _ in results.values())
    if len(names) == 1:
        metrics = results[names[0]][1]
    else:
        metrics = {f"{name}/{key}": entry for name, (_, m) in results.items() for key, entry in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
