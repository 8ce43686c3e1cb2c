"""boolsynth benchmark: time to a verified verdict, per workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --smoke

NAME is one of eps_coarse and random_dag, the workloads BENCHMARK.json
lists, or wide_forest, which runs only by name or with ``all``.  With
``--trace 0`` a run sets up the workload's inputs several times (the median
is ``setup_s``), times instances in this process for S seconds, checks
every verdict, re-verifies written controller documents, and climbs the
EPS k-ladder in child processes.  With ``--trace 1`` it runs each
instance twice back to back, untraced and then with layer spans, and
reports per-layer self times, counts and the tracing overhead.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only when
every instance was correct.  ``--workload all`` runs every workload in a
child process and prints every metric by name with its unit.  ``--smoke``
is a seconds-long run for the benchmark's own tests.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import ladder  # noqa: E402  (stdlib only, like tracing: safe before sys.path is set)
import tracing  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RUN_PY = os.path.abspath(__file__)

WORKLOAD_NAMES = ("eps_coarse", "random_dag")  # as listed in BENCHMARK.json
# Runs by name and with --workload all, but is not in BENCHMARK.json: its
# run-to-run spread on a shared host exceeds the bounds (spec.json).
EXTRA_WORKLOAD_NAMES = ("wide_forest",)
SETUP_REPEATS = 3            # setup_s is the median of this many set-ups
TAIL_BEYOND = 10             # samples a tail percentile needs beyond it
INSTANCE_TIMEOUT_S = 30

E2E_UNITS = {
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "eps_max_k": "k",
}


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc moves its mmap threshold as large blocks are freed, so
    the multi-megabyte truth-table temporaries flip between fresh mmaps
    (page faults on every allocation) and reused heap memory.  The flips
    made instance times drift by 20-40% within one process.  Fixed
    thresholds keep such temporaries on the heap.  Returns False where
    there is no glibc to configure.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)) and bool(libc.mallopt(m_trim_threshold, 256 << 20))


class InstanceTimeout(BaseException):
    """Raised by the alarm; a BaseException so program handlers let it pass."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def samples_for_tail(p: float) -> int:
    """Fewest samples that leave TAIL_BEYOND of them beyond percentile p."""
    n = TAIL_BEYOND
    while tail_value(p, [0.0] * n) is None:
        n += 1
    return n


def tail_value(p: float, values: list[float]) -> tuple[float, int] | None:
    """Nearest-rank percentile p and the number of samples beyond it, or
    None when fewer than TAIL_BEYOND samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    beyond = len(ordered) - rank
    return (ordered[rank - 1], beyond) if beyond >= TAIL_BEYOND else None


def _timed(fn, *args):
    """(result, wall seconds) of one call, stopped at INSTANCE_TIMEOUT_S."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, time.perf_counter() - start


def timed_phase(wl, pool, seconds: float, min_samples: int, tracer=None) -> dict:
    """Run instances from `pool` in order, cycling, for `seconds` (and at
    least `min_samples` instances); check each verdict outside its timing.

    With a tracer, each instance runs twice back to back, untraced and then
    traced, so that drift in machine speed cancels out of the overhead.
    """
    times, overheads, failures, successes = [], [], [], {}
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_samples or time.perf_counter() < deadline:
        inst = pool[i % len(pool)]
        try:
            result, seconds_taken = _timed(wl.run, inst)
            times.append(seconds_taken)
            failure = wl.check(inst, result)
            if tracer is not None and failure is None:
                tracer.install()
                try:
                    result, traced_seconds = _timed(tracer.run_instance, i, wl.run, inst)
                finally:
                    tracer.uninstall()
                overheads.append(traced_seconds - seconds_taken)
                failure = wl.check(inst, result)
            if failure is None and wl.succeeded(result):
                successes[i] = wl.subsystems(inst, result)
        except InstanceTimeout:
            failure = f"timeout after {INSTANCE_TIMEOUT_S} s"
        except Exception as exc:  # a crash is a recorded failure, not the end of the run
            traceback.print_exc(file=sys.stderr)
            failure = f"crash: {type(exc).__name__}: {exc}"[:300]
        if failure is not None:
            failures.append({"instance": i, "pool_index": i % len(pool), "reason": failure})
        i += 1
    return {"attempted": i, "times": times, "overheads": overheads, "failures": failures,
            "successes": successes, "wall_s": time.perf_counter() - start}


def measure_setup(args, first: float) -> list[float]:
    """Set-up seconds of this process plus fresh processes that each import,
    generate and write the same inputs."""
    samples = [first]
    for _ in range(args.setup_repeats - 1):
        out = subprocess.run(
            [sys.executable, RUN_PY, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        samples.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(args, wl, pool, setup_samples, workdir) -> tuple[dict, dict, int, int]:
    min_samples = args.min_samples or samples_for_tail(wl.tail_percentile)
    phase = timed_phase(wl, pool, args.seconds, min_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = wl.post_check(pool)
    max_k, rungs = ladder.run_ladder(RUN_PY, workdir, k_max=args.ladder_k_max or ladder.K_MAX)
    times = phase["times"]
    metrics = {
        "instance_s.p50": statistics.median(times) if times else None,
        "instances_per_s": len(times) / phase["wall_s"],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
        "eps_max_k": max_k,
    }
    tail = tail_value(wl.tail_percentile, times)
    if tail is not None:
        metrics["instance_s.tail"] = tail[0]
    attempted = phase["attempted"]
    failed = len(phase["failures"]) + len(problems)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(times),
        "tail": {"percentile": wl.tail_percentile, "samples_beyond": None if tail is None else tail[1]},
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "verdicts": {"success": len(phase["successes"]), "other": attempted - len(phase["successes"])},
        "failures": phase["failures"][:10],
        "post_check_problems": problems,
        "timed_wall_s": phase["wall_s"],
        "setup_samples_s": setup_samples,
        "allocator_pinned": args.allocator_pinned,
        "ladder": {"max_k": max_k, "budget_s": ladder.RUNG_BUDGET_S,
                   "memory_mb": ladder.RUNG_MEMORY_MB, "rungs": rungs},
    }
    return metrics, detail, attempted, failed


def traced(args, wl, pool, setup_samples) -> tuple[dict, dict, int, int]:
    tracer = tracing.Tracer()
    phase = timed_phase(wl, pool, args.seconds, args.min_samples or TAIL_BEYOND, tracer)
    metrics, accounting = tracing.layer_metrics(tracer.spans, phase["successes"])
    overheads = phase["overheads"]
    metrics["trace.overhead_s"] = statistics.fmean(overheads) if overheads else None
    spans_path = os.path.join(WORK, f"spans-{args.workload}.jsonl")
    tracer.write_spans(spans_path)
    attempted = phase["attempted"]
    failures = phase["failures"]
    # Self times of an instance plus its untraced time must add up to its
    # traced duration, and no span may have negative self time.
    if accounting["max_gap_s"] > 1e-6 or accounting["min_self_s"] < -1e-6:
        failures.append({"reason": f"span accounting broken: {accounting}"})
    failed = len(failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "accounting": accounting,
        "samples": {"untraced": len(phase["times"]), "traced": len(overheads)},
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "failures": failures[:10],
        "setup_samples_s": setup_samples,
        "allocator_pinned": args.allocator_pinned,
    }
    return metrics, detail, attempted, failed


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        pool = wl.setup(args.seed, workdir)
        first = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": first}))
            return 0
        setup_samples = measure_setup(args, first)
        if args.trace:
            values, detail, attempted, failed = traced(args, wl, pool, setup_samples)
            units = tracing.PER_LAYER_UNITS
        else:
            values, detail, attempted, failed = end_to_end(args, wl, pool, setup_samples, workdir)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for name, unit in units.items():
        if values.get(name) is None:
            print(f"{args.workload} {name}: not reported", file=sys.stderr)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload:12s} {name:34s} {values[name]:14.6g} {unit}")
    print("detail " + json.dumps(detail))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES:
        cmd = [sys.executable, RUN_PY, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr)
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        frac = detail.get("failed_frac", {})
        rows.append((name, "failed_frac", frac.get("value", float("nan")),
                     f"of {frac.get('attempted')} attempted ({'correct' if result['correct'] else 'WRONG'})"))
        if detail.get("tail"):
            rows.append((name, "instance_s.tail percentile", detail["tail"]["percentile"],
                         f"p, {detail['samples']} samples, {detail['tail']['samples_beyond']} beyond"))
        if "ladder" in detail:
            rungs = ", ".join(f"k={r['k']} {r['outcome']} {r['seconds']:.2f}s" for r in detail["ladder"]["rungs"])
            rows.append((name, "ladder", detail["ladder"]["max_k"], rungs))
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:34s} {value:14.6g} {unit}")
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + EXTRA_WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="seconds-long run for self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and args.rung is None:
        p.error("--workload is required")
    args.setup_repeats, args.min_samples, args.ladder_k_max = SETUP_REPEATS, None, None
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        args.setup_repeats, args.min_samples, args.ladder_k_max = 2, 2, 2
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    args.allocator_pinned = pin_allocator()
    if not os.path.isfile(os.path.join(SRC, "boolsynth", "__init__.py")):
        print(f"error: boolsynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.rung is not None:
        return ladder.rung_main(args.rung, args.workdir)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
