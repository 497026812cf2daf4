"""Repository benchmark: one workload, a fixed number of timed runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload arena-cold --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see ``workloads.py``): ``arena-cold``, ``arena-warm``,
``service-overlap`` and ``table1``.  The workload seed ``s`` generates
every input; ``s = 0`` reproduces the acceptance grids.

``--seconds`` buys a fixed number of timed runs: the seconds divided by
the workload's nominal run time (its ``nominal_run_s``, measured on a
2-CPU box), at least one.  A faster or slower program therefore times the
same runs of the same inputs.

With ``--trace 0`` the run reports the end-to-end metrics — medians over
the timed runs, with tracing off.  With ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics from the traced
ones (see ``layers.py``), plus the tracing overhead.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``failed / attempted`` is the share of operations (cell × defense
verdicts, service jobs, Table 1 method columns) that errored or failed a
correctness check.  The line before it stamps the environment; the full
record, with every sample, goes to ``.perfbench_work/results/`` (ignored
by git).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3
#: Timed runs at least: one, or one untraced and one traced when tracing.
MIN_RUNS = {0: 1, 1: 2}


def planned_runs(workload, seconds, trace):
    """How many timed runs ``seconds`` buy for this workload."""
    return max(MIN_RUNS[trace], int(seconds / workload.nominal_run_s))


END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_latency_p50_s": "s",
    "job_latency_max_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="smaller grids and one timed run (used by --self-test)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run every workload reduced, at two seeds, and check the output",
    )
    return parser.parse_args(argv)


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(workload, args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reduced": args.reduced,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "blas": blas_version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "config_deltas": workload.describe(),
    }


def cpu_seconds():
    """CPU time of this process plus its reaped children (fork workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def reset_peak_rss():
    """Restart this process's peak-RSS count (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_mb():
    """This process's peak RSS since :func:`reset_peak_rss`, in MB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb():
    """Peak RSS of the largest reaped child process (fork workers), in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def timed_setup(workload, import_seconds):
    """Repeat set-up; returns (state, setup seconds, per-repeat seconds)."""
    from repro.graph.utils import reset_graph_cache

    repeats = []
    state = None
    for _ in range(SETUP_REPEATS):
        reset_graph_cache()
        started = time.perf_counter()
        state = workload.setup()
        repeats.append(time.perf_counter() - started)
    started = time.perf_counter()
    state = workload.finish_setup(state)
    once = time.perf_counter() - started
    return state, import_seconds + statistics.median(repeats) + once, repeats


def measure(workload, state, runs, tracer=None):
    """Time ``runs`` runs of the workload; returns one sample per run.

    With a ``tracer``, runs alternate untraced / traced and traced runs
    also record their per-layer counter delta.
    """
    from repro.obs import metrics

    samples = []
    while len(samples) < runs:
        traced = tracer is not None and len(samples) % 2 == 1
        context = workload.begin(state)
        if traced:
            tracer.install()
        before = metrics.snapshot()
        reset_peak_rss()
        cpu_before = cpu_seconds()
        wall_before = time.perf_counter()
        try:
            raw = workload.execute(state, context)
        finally:
            wall = time.perf_counter() - wall_before
            cpu = cpu_seconds() - cpu_before
            rss = peak_rss_mb()
            if traced:
                tracer.uninstall()
        delta = metrics.delta_since(before)
        outcome = workload.check(state, context, raw)
        samples.append(
            {
                "traced": traced,
                "wall_s": wall,
                "cpu_s": cpu,
                "rss_mb": rss,
                "verdicts": outcome.verdicts,
                "latencies": outcome.latencies or [wall],
                "extra": outcome.extra,
                "counters": delta,
            }
        )
    return samples


def end_to_end(samples, setup_seconds):
    latencies = sorted(
        latency for sample in samples for latency in sample["latencies"]
    )
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": setup_seconds,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples)
        + children_peak_rss_mb(),
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_max_s": latencies[-1],
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    }


def per_layer(samples, setup_delta):
    from layers import SETUP_METRICS, layer_metrics

    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    rows = [layer_metrics(s["counters"]) for s in traced]
    values = {
        name: (statistics.median(row[name][0] for row in rows), unit)
        for name, (_, unit) in rows[0].items()
    }
    for name, unit, counter in SETUP_METRICS:
        values[name] = (setup_delta.get(counter, 0) / SETUP_REPEATS, unit)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    values["obs.traced_wall_s"] = (traced_wall, "s")
    values["obs.trace_overhead_ratio"] = (
        traced_wall / statistics.median(s["wall_s"] for s in untraced),
        "ratio",
    )
    extras = {}
    for sample in traced:
        for name, value in sample["extra"].items():
            extras.setdefault(name, []).append(value)
    for name in ("service.first_event_s", "service.manifest_write_excess"):
        unit = "s" if name.endswith("_s") else "count"
        values[name] = (
            statistics.median(extras[name]) if name in extras else 0, unit
        )
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(values.items())
    }


def spread(values):
    """``(max - min) / median`` of one measurement's samples."""
    values = list(values)
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def run_workload(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import LayerTracer
    from workloads import WORKLOADS

    from repro.obs import metrics

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}"
        )
    import_seconds = time.perf_counter() - STARTED

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.reduced:
        workload.reduce()
    workload.generate()
    tracer = LayerTracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        setup_before = metrics.snapshot()
        try:
            state, setup_seconds, setup_repeats = timed_setup(
                workload, import_seconds
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_delta = metrics.delta_since(setup_before)
        seconds = 0.0 if args.reduced else args.seconds
        samples = measure(
            workload, state, planned_runs(workload, seconds, args.trace), tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = [ok for sample in samples for ok in sample["verdicts"]]
    failed = sum(1 for ok in verdicts if not ok)
    if args.trace:
        reported = per_layer(samples, setup_delta)
    else:
        reported = end_to_end(samples, setup_seconds)
    stamp = environment_stamp(workload, args)
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": reported,
    }
    record = {
        "env": stamp,
        "result": result,
        "failed_ratio": failed / len(verdicts),
        "runs": len(samples),
        "spread": {
            "wall_s": spread(s["wall_s"] for s in samples),
            "cpu_s": spread(s["cpu_s"] for s in samples),
            "setup_s": spread(setup_repeats),
        },
        "setup_repeats_s": setup_repeats,
        "samples": [
            {key: value for key, value in sample.items() if key != "verdicts"}
            for sample in samples
        ],
    }
    results_dir = os.path.join(WORK_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    with open(os.path.join(results_dir, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=repr)
    print(json.dumps({"env": stamp}, sort_keys=True, default=repr))
    print(json.dumps(result))
    return 0


def main(argv=None):
    # One BLAS thread per process, set before numpy loads: the fork pool and
    # the service workers are the benchmark's parallelism, and together they
    # already fill nproc = 2.
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"error: no program to benchmark: {os.path.join(ROOT, 'src', 'repro')}"
            " is missing (run from a full checkout)",
            file=sys.stderr,
        )
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(ROOT)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
