"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload certify-powerlaw --seed 1 --seconds 35 --trace 0

Run it from the repository root: it imports the program from ./src.  The
operations of the workload run one after another, in whole rounds, in this
single-threaded process; another round starts only when it is expected to
end within --seconds.  After the timed phase the outputs are checked
against computations made apart from the program.

--trace 0 prints the end-to-end metrics.  Their times are in reference
seconds (perfbench/speed.py): a timer signal samples the machine's speed
with a fixed kernel from the start of this process to the end of the
timed phase, and each time is scaled by that speed, so that runs made
while the machine runs slow read the same as runs made while it runs
fast.  The raw times go to standard error.  --trace 1 makes one untraced
round that warms lazy imports and caches, then alternates traced and
untraced rounds, at least one of each, and prints the per-layer metrics as
means per traced round, with trace.overhead_s (the median traced round's
wall time minus the median untraced round's, the warm-up left out); the
spans of the last traced round go to
.perfbench-out/spans-<workload>-<seed>.json.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# sample the machine's speed from here on, so that set-up is covered too
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.speed import SpeedSampler  # noqa: E402

SPEED = SpeedSampler()
SPEED.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def seconds_since_process_start() -> float:
    """Time since this process started, from the kernel's start stamp."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def run_round(ops, tracer=None) -> tuple[list[tuple[float, float]], int]:
    """Run every operation once; return each one's (start, end) and the
    number that failed."""
    spans, failed = [], 0
    for op in ops:
        start = time.perf_counter()
        try:
            ok = op.run() if tracer is None else tracer.run_in_span("op", op.run)
        except Exception:
            print(f"{op.label}: raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            ok = False
        spans.append((start, time.perf_counter()))
        if not ok:
            print(f"{op.label}: failed", file=sys.stderr)
            failed += 1
        op.collect(ok)
    return spans, failed


def round_seconds(spans) -> float:
    return sum(end - start for start, end in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.trace:
        SPEED.stop()

    src = ROOT / "src"
    if not (src / "ecsforge" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'ecsforge'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import numpy as np
    import ecsforge
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if Path(ecsforge.__file__).resolve().parent != src / "ecsforge":
        print(f"imported ecsforge from {ecsforge.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    rng = np.random.default_rng(args.seed)
    workload = WORKLOADS[args.workload](OUT / args.workload, rng)
    ops = workload.ops
    setup_s = seconds_since_process_start()
    setup_end = time.perf_counter()

    rounds = []  # (op spans, failures) per round
    untraced = []  # wall time per untraced round after the first
    traced = []  # (wall time, tracer, counts read from outputs) per traced round
    loop_start = time.perf_counter()
    while True:
        if args.trace and len(rounds) % 2:
            with Tracer() as tracer:
                spans, failed = run_round(ops, tracer)
            traced.append((round_seconds(spans), tracer, workload.round_counts()))
        else:
            spans, failed = run_round(ops)
            if rounds:
                untraced.append(round_seconds(spans))
        rounds.append((spans, failed))
        elapsed = time.perf_counter() - loop_start
        enough = not args.trace or (traced and untraced)
        if enough and elapsed + round_seconds(spans) > args.seconds:
            break
    if not args.trace:
        SPEED.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check(rng)
    for failure in failures:
        print(f"INCORRECT {failure}", file=sys.stderr)

    if args.trace:
        metrics = traced_metrics(untraced, traced)
        traced[-1][1].dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = untraced_metrics(setup_s, setup_end, [spans for spans, _ in rounds])
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    result = {
        "correct": not failures,
        "attempted": len(rounds) * len(ops),
        "failed": sum(f for _, f in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def untraced_metrics(setup_s, setup_end, rounds) -> dict:
    """The end-to-end times in reference seconds; the raw ones go to
    standard error."""
    figures = {}
    for kind in (0, 1):  # raw, reference
        setup = SPEED.reference_seconds(setup_end - setup_s, setup_end)[kind]
        per_op = zip(*([SPEED.reference_seconds(*span)[kind] for span in spans] for spans in rounds))
        op_medians = [statistics.median(op_times) for op_times in per_op]
        figures[kind] = {
            "setup_s": (setup, "s"),
            "wall_s": (sum(op_medians), "s"),
            "slowest_op_s": (max(op_medians), "s"),
        }
    kernel_ms = statistics.median(e - s for s, e in zip(SPEED.starts, SPEED.ends)) * 1e3
    shown = ", ".join(f"{name}={value:.4f}" for name, (value, _) in figures[0].items())
    print(f"raw seconds: {shown}; speed kernel median {kernel_ms:.3f} ms "
          f"over {len(SPEED.starts)} samples", file=sys.stderr)
    return figures[1]


def traced_metrics(untraced, traced) -> dict:
    """Per-layer metrics as the mean over traced rounds."""
    from perfbench.trace import COUNT_METRICS, SPAN_METRICS

    count = len(traced)
    self_times = [t.self_times() for _, t, _ in traced]
    counts = [t.count_metrics() for _, t, _ in traced]
    metrics = {}
    for name in SPAN_METRICS:
        metrics[name] = (sum(s[name] for s in self_times) / count, "s")
    for name in COUNT_METRICS:
        metrics[name] = (sum(c[name] for c in counts) / count, "count")
    for name in ("quotient.canon_pairs", "quotient.canon_attempts"):
        metrics[name] = (sum(c.get(name, 0) for _, _, c in traced) / count, "count")
    traced_wall = statistics.median(wall for wall, _, _ in traced)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
