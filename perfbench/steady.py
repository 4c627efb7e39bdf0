"""Check that the benchmark is steady: run one workload in two sets of
fresh processes and compare the sets against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workload exact-sweep

Set 1 uses seeds 1..10 and set 2 seeds 11..20; the runs of a set are made
one after another, set 1 before set 2.  For every end-to-end metric it
prints each set's median, quartiles and spread (the distance between the
quartiles as a share of the median).  The sets agree when every spread
but setup_s's is within the metric's bound, the two medians differ by no
more than the bound (as a share of set 1's median, either way), every run
is correct, and failed/attempted is the same in both sets.  setup_s's
spread is printed but not held to its bound: it times one cold start per
process, which the machine's noise moves by more than its bound.  Exit
status 0 when the sets agree, 1 when not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    sets = []
    for index in range(2):
        results = []
        for offset in range(RUNS_PER_SET):
            seed = 1 + index * RUNS_PER_SET + offset
            result = run_once(args.workload, seed, spec["run_seconds"])
            results.append(result)
            shown = ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}" for m in metrics
            )
            print(f"set {index + 1} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        sets.append(results)

    agree = True
    shares = []
    for index, results in enumerate(sets):
        if not all(r["correct"] for r in results):
            print(f"set {index + 1}: some run is incorrect")
            agree = False
        share = {r["failed"] / r["attempted"] for r in results}
        if len(share) != 1:
            print(f"set {index + 1}: failed shares differ between runs: {sorted(share)}")
            agree = False
        shares.append(share)
    if shares[0] != shares[1]:
        print(f"failed shares differ between sets: {shares[0]} vs {shares[1]}")
        agree = False

    print(f"\n{'metric':<14} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        summaries = []
        for index, results in enumerate(sets):
            median, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in results])
            summaries.append(median)
            note = ""
            if name != "setup_s" and spread > bound:
                note, agree = "  spread above bound", False
            elif spread > bound / 3:
                note = "  spread above a third of the bound"
            print(f"{name:<14} {index + 1:>3} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>8.2%} {bound:>6.0%}{note}")
        first, second = summaries
        shift = abs(second - first) / first
        if shift > bound:
            print(f"{name:<14} set 2 median differs from set 1's by {shift:.2%} > {bound:.0%}")
            agree = False
    print(f"\nsets {'agree' if agree else 'do not agree'} within the bounds of BENCHMARK.json")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
