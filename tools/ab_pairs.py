#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

Runs `python3 benchmark/run.py --workload W --seed S --seconds T --trace 0`
in two source trees, PARENT and CHANGE, N times each, with T the run length
that CHANGE's BENCHMARK.json sets (`run_seconds`). Pair i runs the parent
first when i is even and the change first when i is odd, so neither side
always inherits the other's cache and clock state. Each run is recorded with
its end-to-end metrics, its `failed` count, the host's steal share while it
ran (from /proc/stat: the CPUs of --cpus, else all of them) and the CPU
seconds its process tree used per wall second (`cpu_per_wall`, from the
rusage of the waited-for children: user plus system time over elapsed time,
build check and setup included).

The metric names, directions and bounds come from the same file.
Per metric the report gives each side's median and quartiles, how many pairs
the change won, whether the medians differ by more than the parent's
interquartile range, and whether the change's median is worse than the
parent's by more than the metric's bound (a fraction of the parent median).

Usage:
  tools/ab_pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]
                    [--cpus C] [--json OUT] [--smoke]

--cpus pins every run with `taskset -c C`. --smoke passes run.py's --smoke
(1/10 scale, one day) instead of --seconds T: a self-test of this script,
whose timings mean nothing. The exit status is 1 when any run fails, reports
`correct: false` or counts a failed order, and 0 otherwise; the verdicts are
printed, not enforced.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_cpus(spec):
    """The CPU numbers of a taskset list such as "2", "0,2" or "1-3"."""
    cpus = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        cpus.extend(range(int(first), int(last or first) + 1))
    return cpus


def cpu_times(cpus):
    """(steal, total) jiffies summed over `cpus`, or over all CPUs."""
    steal = total = 0
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            name, *fields = line.split()
            if not name.startswith("cpu"):
                break
            if (name != "cpu") if cpus is None else (name[3:] not in cpus):
                continue
            # user nice system idle iowait irq softirq steal; guest time is
            # already inside user and nice.
            values = [int(v) for v in fields[:8]]
            steal += values[7]
            total += sum(values)
    return steal, total


def child_cpu_seconds():
    """User plus system seconds of all waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(tree, args, seconds, cpus):
    """One run.py process in `tree`: its result object, steal share and CPU
    seconds per wall second."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    cmd += ["--smoke"] if args.smoke else ["--seconds", str(seconds)]
    if args.cpus:
        cmd = ["taskset", "-c", args.cpus] + cmd
    before = cpu_times(cpus)
    cpu_before, wall_before = child_cpu_seconds(), time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    cpu_per_wall = ((child_cpu_seconds() - cpu_before)
                    / max(time.monotonic() - wall_before, 1e-9))
    after = cpu_times(cpus)
    elapsed = after[1] - before[1]
    steal = (after[0] - before[0]) / elapsed if elapsed > 0 else 0.0
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-2000:])
        return {"error": f"run.py exited {proc.returncode}", "steal": steal,
                "cpu_per_wall": cpu_per_wall}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "steal": steal,
        "cpu_per_wall": cpu_per_wall,
    }


def quartiles(values):
    """(Q1, median, Q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metrics, runs):
    """Prints one line per metric over the completed pairs."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if "error" not in p and "error" not in c]
    if not pairs:
        return
    print(f"{len(pairs)} pairs; steal share median: parent "
          f"{statistics.median(p['steal'] for p, _ in pairs):.1%}, change "
          f"{statistics.median(c['steal'] for _, c in pairs):.1%}; "
          f"CPU s per wall s median: parent "
          f"{statistics.median(p['cpu_per_wall'] for p, _ in pairs):.2f}, "
          f"change "
          f"{statistics.median(c['cpu_per_wall'] for _, c in pairs):.2f}")
    print(f"{'metric':16s} {'parent median [Q1, Q3]':>31s} "
          f"{'change median [Q1, Q3]':>31s} {'delta':>7s} {'wins':>6s} "
          f"{'>IQR':>5s} {'bound':>6s}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        worse = (cm - pm) if lower else (pm - cm)
        delta = (cm - pm) / abs(pm) if pm else 0.0
        beyond_iqr = abs(cm - pm) > p3 - p1
        beyond_bound = worse > metric["bound"] * abs(pm)
        print(f"{name:16s} {f'{pm:.5g} [{p1:.5g}, {p3:.5g}]':>31s} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':>31s} {delta:+7.1%} "
              f"{f'{wins}/{len(pairs)}':>6s} "
              f"{'yes' if beyond_iqr else 'no':>5s} "
              f"{'WORSE' if beyond_bound else 'ok':>6s}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the baseline source tree")
    parser.add_argument("change", type=Path, help="the changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240301)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpus", help="taskset -c list for every run")
    parser.add_argument("--json", type=Path, help="write every run here")
    parser.add_argument("--smoke", action="store_true",
                        help="run.py --smoke runs: a self-test")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "benchmark" / "run.py").is_file():
            parser.error(f"{tree} holds no benchmark/run.py")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    cpus = {str(c) for c in parse_cpus(args.cpus)} if args.cpus else None

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(trees[side], args, spec["run_seconds"], cpus)
            runs[side].append(run)
            if "error" in run:
                ok = False
                log(f"pair {i + 1} {side}: {run['error']}")
                continue
            ok = ok and run["correct"] and run["failed"] == 0
            log(f"pair {i + 1} {side}: us_per_order "
                f"{run['metrics']['us_per_order']:.1f}, failed "
                f"{run['failed']}, steal {run['steal']:.1%}, CPU/wall "
                f"{run['cpu_per_wall']:.2f}"
                f"{'' if run['correct'] else ', CHECK FAILED'}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"cpus {args.cpus or 'all'}")
    report(spec["end_to_end"], runs)
    if args.json:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "cpus": args.cpus,
             "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
