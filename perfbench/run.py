"""Closed-loop, oracle-checked benchmark of the nodalic command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid-points --seed 1 --seconds 50 --trace 0

One client on one thread calls ``nodalic.cli.run(argv)`` in process and
sends each request after the previous one returned.  Every request reads
an input document generated from ``--seed`` and prints its ``--json``
report, which is checked against an oracle that does not use nodalic.

``--trace 0`` measures the end-to-end metrics: reports per second,
median and tail latency, set-up time of a fresh interpreter and peak
resident memory.  ``--trace 1`` calls each request of a fixed list
twice, untraced and with spans around the calls into each layer; it
checks that both calls print byte-identical reports and prints the
per-layer metrics.  The spans go to a JSON-lines side file.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}; the line before it carries the run's metadata.
The exit code is 0 when every report was correct, 1 when one was not,
and 2 when the program could not be found or set up.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from workloads import TAIL_BEYOND, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
MAX_REPORTED_FAILURES = 5


class SetupError(Exception):
    """The program under test could not be imported or started."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_program():
    init = SRC / "nodalic" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no nodalic package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import nodalic

    if Path(nodalic.__file__).resolve() != init.resolve():
        raise SetupError(f"imported nodalic from {nodalic.__file__}, not {init}")
    return nodalic


def call(cli, request):
    """Run one request; returns (latency, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(request.argv))
    except Exception:  # a crashing request is counted as failed, not fatal
        code = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def mismatch(request, code, stdout, stderr):
    """Why a request's outcome is wrong, or None when the oracle agrees."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-500:]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[-500:]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    return request.check(report)


class Failures:
    def __init__(self):
        self.count = 0

    def record(self, request, reason):
        self.count += 1
        if self.count <= MAX_REPORTED_FAILURES:
            print(f"FAILED {' '.join(request.argv)}: {reason}", file=sys.stderr)


def run_checked(cli, requests, failures):
    for request in requests:
        _, code, out, err = call(cli, request)
        reason = mismatch(request, code, out, err)
        if reason:
            failures.record(request, reason)


def tail(latencies, percentile):
    """Latency at ``percentile``, which must leave TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = math.ceil(percentile * n / 100) - 1
    if n - 1 - index < TAIL_BEYOND:
        raise ValueError(f"{n} samples leave too few above the {percentile}th percentile")
    return ordered[index]


def setup_command(inputs, warmup):
    """Command that starts a fresh interpreter, imports nodalic and warms up."""
    spec = Path(inputs) / "setup.json"
    spec.write_text(
        json.dumps({"src": str(SRC), "argvs": [list(r.argv) for r in warmup]}),
        encoding="utf-8",
    )
    return [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(spec)]


def time_setup(command):
    """Seconds from starting ``command`` to its "ready" line.

    The probe stamps the line with ``time.monotonic()``, one clock for all
    processes on Linux, so the parent can wait for exit with a timeout.
    """
    start = time.monotonic()
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SetupError("set-up probe did not exit") from None
    word, _, stamp = out.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise SetupError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return float(stamp) - start


def measure_end_to_end(cli, workload, rng, inputs, seconds, failures, setup):
    """Whole rounds, as many as bring the run's time closest to ``seconds``.

    The run's time is its wall time without the set-up probes: requests,
    writing their inputs and checking their reports.  Every run makes at
    least ``workload.min_requests`` requests, so that the tail percentile
    has enough samples above it.  Set-up is timed SETUP_REPEATS times
    between requests, spread over the run so that the median does not
    rest on one moment of a shared machine.
    """
    latencies = []
    busy = 0.0
    rounds = 0
    wrong = 0
    setup_samples = []
    start = time.perf_counter()
    probing = 0.0

    def elapsed():
        return time.perf_counter() - start - probing

    while True:
        directory = os.path.join(inputs, f"round{rounds:04d}")
        os.mkdir(directory)
        for request in workload.make_round(rng, directory, rounds):
            latency, code, out, err = call(cli, request)
            busy += latency
            latencies.append(latency)
            reason = mismatch(request, code, out, err)
            if reason:
                wrong += 1
                failures.record(request, reason)
            due = len(setup_samples) * seconds / SETUP_REPEATS
            if len(setup_samples) < SETUP_REPEATS and elapsed() >= due:
                probe_start = time.perf_counter()
                setup_samples.append(time_setup(setup))
                probing += time.perf_counter() - probe_start
        shutil.rmtree(directory)
        rounds += 1
        # stop when one more round would overshoot by more than this one falls short
        spent = elapsed()
        if len(latencies) >= workload.min_requests and spent + spent / rounds / 2 >= seconds:
            break
    while len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(time_setup(setup))
    metrics = {
        "reports_per_s": ((len(latencies) - wrong) / busy, "1/s"),
        "report_p50_s": (statistics.median(latencies), "s"),
        "report_tail_s": (tail(latencies, workload.tail_percentile), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    detail = {
        "requests": len(latencies),
        "rounds": rounds,
        "busy_s": busy,
        "loop_s": spent,
        "tail_percentile": workload.tail_percentile,
        "setup_samples_s": setup_samples,
    }
    return metrics, len(latencies), detail


def measure_traced(nodalic, workload, rng, inputs, seconds, failures, trace_path):
    """Each request of one fixed list, once untraced and once traced.

    The list has a fixed number of rounds for a given ``seconds``, so
    counts repeat exactly for a given seed.  The two calls of a request
    follow each other, in alternating order, so that a shared machine
    changing speed during the run moves both sides of the overhead ratio.
    """
    rounds = max(1, math.ceil(seconds / (2 * workload.round_seconds)))
    requests = []
    for index in range(rounds):
        requests += workload.make_round(rng, inputs, index)
    cli = nodalic.cli

    tracer = tracing.Tracer()
    untraced, traced = [], []
    for index, request in enumerate(requests):
        for spanned in (False, True) if index % 2 == 0 else (True, False):
            if spanned:
                with tracing.instrumented(tracer, nodalic) as absent:
                    tracer.request = index
                    traced.append(call(cli, request))
            else:
                untraced.append(call(cli, request))
    tracer.write_jsonl(trace_path)
    untraced_wall = sum(outcome[0] for outcome in untraced)
    traced_wall = sum(outcome[0] for outcome in traced)

    for request, plain, spanned in zip(requests, untraced, traced):
        reasons = [mismatch(request, *plain[1:]), mismatch(request, *spanned[1:])]
        if not any(reasons) and spanned[2] != plain[2]:
            reasons[1] = "traced stdout differs from untraced stdout"
        for reason in filter(None, reasons):
            failures.record(request, reason)

    stalk_reports = sum(request.kind == "ic-stalk" for request in requests)
    metrics = tracing.layer_metrics(tracer, len(requests), stalk_reports)
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    detail = {
        "requests": len(requests),
        "rounds": rounds,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "absent_spans": absent,
        "trace_file": trace_path.name,
    }
    return metrics, 2 * len(requests), detail


def bigint_probe():
    """Median seconds of a fixed big-integer computation: machine speed now."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        x = 3 ** 20000
        y = 7 ** 15000
        for _ in range(10):
            x = (x * y) // (y - 1) + 1
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "nodalic").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    try:
        nodalic = import_program()
    except (SetupError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=WORK)
    failures = Failures()
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": getattr(nodalic.linalg, "kernel_backend", lambda: "absent")(),
        "bigint_probe_s": bigint_probe(),
    }
    try:
        warmup = workload.make_warmup(random.Random(f"{workload.name}/{args.seed}/warmup"), inputs)
        rng = random.Random(f"{workload.name}/{args.seed}")
        if args.trace:
            run_checked(nodalic.cli, warmup, failures)
            trace_path = WORK / f"trace-{workload.name}-seed{args.seed}.jsonl"
            metrics, attempted, detail = measure_traced(
                nodalic, workload, rng, inputs, args.seconds, failures, trace_path
            )
        else:
            setup = setup_command(inputs, warmup)
            time_setup(setup)  # the first start compiles bytecode: untimed
            run_checked(nodalic.cli, warmup, failures)
            metrics, attempted, detail = measure_end_to_end(
                nodalic.cli, workload, rng, inputs, args.seconds, failures, setup
            )
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            )
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    attempted += len(warmup)
    meta.update(detail)
    meta["failed_ratio"] = failures.count / attempted
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    record = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n", encoding="utf-8")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
