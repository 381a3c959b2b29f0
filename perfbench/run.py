"""Benchmark for meaf: three workloads, end-to-end metrics or a per-layer trace.

    python3 perfbench/run.py --workload population|cap-sweep|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
nowhere else.  One process, one thread.  After set-up (repeated
SETUP_REPEATS times, median reported), the workload runs whole rounds of
its operations until the timed operations add up to --seconds; every
output is checked by perfbench/checks.py.  The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it ("detail") holds the environment, the per-round
samples and the workload's metrics under their task names.  Results and
traces are written to .perfbench_out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
    ("primary_count", "count"),
    ("secondary_count", "count"),
]


def import_meaf():
    """Import meaf from ./src of this checkout, never from site-packages."""
    src = ROOT / "src"
    if not (src / "meaf" / "__init__.py").is_file():
        raise SystemExit("perfbench: no meaf package under %s" % src)
    sys.path.insert(0, str(src))
    import meaf
    from meaf import _kernels, bench, heuristics, model, solvers, synth

    if Path(meaf.__file__).resolve().parent != (src / "meaf").resolve():
        raise SystemExit("perfbench: meaf was imported from %s, not %s" % (meaf.__file__, src))
    return meaf, (_kernels, bench, heuristics, model, solvers, synth)


def environment(meaf) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {"meaf_backend": meaf.BACKEND, "numba": has_numba,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="meaf benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    meaf, modules = import_meaf()
    import checks
    import tracing
    from workloads import SETUP_REPEATS, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("--workload must be one of %s" % ", ".join(WORKLOADS))
    import_s = time.perf_counter() - _T0

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    tag = "%s-seed%d" % (args.workload, args.seed)
    workdir = OUT / ("work-%s-pid%d" % (tag, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    tracer.install(modules)
    try:
        t = time.perf_counter()
        modules[0].warmup()
        warmup_s = time.perf_counter() - t

        wl = WORKLOADS[args.workload](modules, args.seed, workdir)
        setup_times = []
        for k in range(SETUP_REPEATS):
            tracer.phase = ("setup", k)
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)

        round_totals = defaultdict(list)  # label -> total per round
        op_times = defaultdict(list)  # label -> every call
        attempted = failed = rounds = 0
        measured = 0.0
        problems = []
        while rounds == 0 or measured < args.seconds:
            tracer.phase = ("round", rounds)
            outputs = []
            totals = defaultdict(float)
            for label, fn in wl.ops():
                attempted += 1
                t = time.perf_counter()
                try:
                    out = fn()
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                dt = time.perf_counter() - t
                measured += dt
                totals[label] += dt
                op_times[label].append(dt)
                outputs.append((label, out))
            tracer.phase = ("check", rounds)
            for label, out in outputs:
                try:
                    wl.check(label, out)
                except checks.CheckFailed as exc:
                    problems.append("%s: %s" % (label, exc))
            outputs = out = None
            for label, value in totals.items():
                round_totals[label].append(value)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print("perfbench: WRONG OUTPUT: %s" % p, file=sys.stderr)
    e2e = {
        "setup_s": import_s + warmup_s + statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "primary_s": statistics.median(round_totals[wl.primary]),
        "secondary_s": statistics.median(round_totals[wl.secondary]),
        # a count is missing only when a wrong output stopped its check
        "primary_count": wl.counts.get("primary_count", 0),
        "secondary_count": wl.counts.get("secondary_count", 0),
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    phases = [("setup", k) for k in range(SETUP_REPEATS)] + [("round", r) for r in range(rounds)]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(meaf), "rounds": rounds,
        "import_s": import_s, "warmup_s": warmup_s, "setup_samples_s": setup_times,
        "round_samples_s": dict(round_totals),
        "end_to_end": e2e, "tasks": wl.detail(e2e, op_times),
    }
    if args.trace:
        metrics = tracer.layer_metrics(phases)
        tracer.write(OUT / ("trace-%s.json" % tag))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / ("result-%s-trace%d.json" % (tag, args.trace)), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
