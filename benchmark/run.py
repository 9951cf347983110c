#!/usr/bin/env python3
"""Repeatable WATTER benchmark: build, measure, check, report.

Two ways to run it, both from the root of a source tree:

  python3 benchmark/run.py [--seed S] [--repeat R] [--smoke]
      Builds Release into build-bench/, then for every workload runs R
      untraced simulated days in one process and one traced pass in another.
      Prints every metric with its unit, writes build-bench/results.json and
      exits nonzero if any check fails. --smoke runs each workload at 1/10
      scale with R=1: the benchmark's self-test.

  python3 benchmark/run.py --workload NAME --seed S --seconds T --trace 0|1
      Measures one workload in one process for T seconds and at least R
      days, and prints, as its last line, one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics with
      --trace 0, the per-layer metrics with --trace 1.

The metric and workload definitions, and why each workload exists, are in
benchmark/README.md; BENCHMARK.json at the repository root lists the same
names, and this script refuses to run if the two disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "watter_bench"
BUILD_TYPE = "Release"
DEFAULT_SEED = 20240301
SMOKE_SCALE = 0.1
PROCESS_TIMEOUT_S = 170

WORKLOADS = [
    "nyc-online-matrix",
    "nyc-online-ch",
    "cdc-timeout-dense",
    "cdc-expect-contended",
]

# (name, unit) in report order.
END_TO_END = [
    ("us_per_order", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("service_rate", "ratio"),
    ("metrs_objective", "s"),
    ("unified_cost", "s"),
]

PER_LAYER = [
    ("setup.scenario_s", "s"),
    ("setup.train_s", "s"),
    ("geo.calls", "count"),
    ("geo.points", "count"),
    ("geo.batch_width", "count"),
    ("geo.busy_s", "s"),
    ("geo.ns_per_point", "ns"),
    ("geo.busy_share", "ratio"),
    ("geo.build_s", "s"),
    ("pool.insert_s", "s"),
    ("pool.insert_span_s", "s"),
    ("pool.refresh_s", "s"),
    ("pool.maintenance_s", "s"),
    ("pool.planner_plans", "count"),
    ("pool.pair_tests", "count"),
    ("pool.groups_evaluated", "count"),
    ("pool.plan_cache_hit_ratio", "ratio"),
    ("pool.peak_size", "count"),
    ("threshold.calls", "count"),
    ("threshold.busy_s", "s"),
    ("threshold.us_per_call", "us"),
    ("dispatch.propose_s", "s"),
    ("dispatch.resolve_s", "s"),
    ("dispatch.commit_s", "s"),
    ("dispatch.sweep_s", "s"),
    ("dispatch.offers", "count"),
    ("dispatch.commit_ratio", "ratio"),
    ("dispatch.worker_conflicts", "count"),
    ("dispatch.order_conflicts", "count"),
    ("sim.rounds", "count"),
    ("sim.round_p50_ms", "ms"),
    ("sim.round_p99_ms", "ms"),
    ("threadpool.jobs", "count"),
    ("threadpool.busy_s", "s"),
    ("trace.overhead", "ratio"),
]

# Fields every run of one day's input must reproduce bit for bit: the
# quality metrics plus two pool work counters. Replays, the wrappers and
# tracing must not move them.
DETERMINISTIC = ("service_rate", "metrs_objective", "unified_cost",
                 "planner_plans", "pair_tests")

# Per-layer metrics read from the binary's traced day records as they are.
_DERIVED_LAYERS = ("setup.scenario_s", "setup.train_s", "trace.overhead")
DAY_LAYERS = [name for name, _ in PER_LAYER if name not in _DERIVED_LAYERS]


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def check_definitions():
    """BENCHMARK.json, when present, must list exactly these names."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    pairs = {
        "workloads": ([w["name"] for w in spec["workloads"]], WORKLOADS),
        "end_to_end": ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                       END_TO_END),
        "per_layer": ([(m["name"], m["unit"]) for m in spec["per_layer"]],
                      PER_LAYER),
    }
    for key, (listed, ours) in pairs.items():
        if listed != ours:
            raise BenchError(f"BENCHMARK.json {key} differ from run.py's")


def build():
    """Configures once, then (re)builds the Release binary in build-bench/."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no WATTER source tree at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = min(4, len(os.sched_getaffinity(0)))
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "watter_bench",
                   "-j", str(jobs)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def measure(workload, seed, repeats, seconds, trace, scale):
    """Runs one watter_bench process; returns its JSON records."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--repeats", str(repeats), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", str(scale),
           "--out-dir", str(BUILD)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: timed out after {PROCESS_TIMEOUT_S}s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: watter_bench exited "
                         f"{proc.returncode}")
    records = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith("{")]
    kinds = [r["kind"] for r in records]
    if kinds.count("setup") != 1 or kinds.count("end") != 1 or \
            "day" not in kinds:
        raise BenchError(f"{workload}: incomplete output from watter_bench")
    if not records[-1]["ndebug"]:
        raise BenchError(f"{BUILD} holds a debug build; delete it to rebuild "
                         f"as {BUILD_TYPE}")
    return records


def summarize(workload, records, repeat):
    """Medians, checks and counts over the records of one workload.

    Untraced days that are not replays each simulate new demand; they give
    us_per_order. The first `repeat` of them give the quality metrics, so
    those depend on the seed alone and not on how many days fit in the run.
    Every record of one day must agree on the DETERMINISTIC fields.
    """
    train_s = statistics.median(r["train_s"] for r in records
                                if r["kind"] == "setup")
    end = [r for r in records if r["kind"] == "end"]
    days = [r for r in records if r["kind"] == "day"]
    measured = [d for d in days if not d["traced"] and not d["replay"]]
    quality = [d for d in measured if d["day"] < repeat]
    traced = [d for d in days if d["traced"]]
    by_day = {}
    for d in days:
        by_day.setdefault(d["day"], []).append(d)

    if len(quality) < repeat or \
            not any(len(group) > 1 for group in by_day.values()):
        raise BenchError(f"{workload}: watter_bench ran too few days")

    problems = []
    for d in days:
        tag = f"{workload} day {d['day']}"
        accounted = d["served"] + d["rejected"] + d["failed_services"]
        if accounted != d["orders"]:
            problems.append(f"{tag}: served+rejected+failed_services = "
                            f"{accounted} != {d['orders']} orders")
        if d["final_pool"] != 0:
            problems.append(f"{tag}: {d['final_pool']} orders left pooled")
        if d["traced"]:
            if d["dropped_spans"] != 0:
                problems.append(f"{tag}: {d['dropped_spans']} spans dropped")
            # graph.insert runs inside arrival insertion, which is the only
            # algorithm time outside the check rounds.
            if d["pool.insert_span_s"] > d["pool.insert_s"] * 1.01 + 1e-3:
                problems.append(
                    f"{tag}: graph.insert spans ({d['pool.insert_span_s']:.4f}"
                    f"s) exceed the time outside rounds "
                    f"({d['pool.insert_s']:.4f}s)")
    for day, group in sorted(by_day.items()):
        for field in DETERMINISTIC:
            values = {d[field] for d in group}
            if len(values) != 1:
                problems.append(f"{workload} day {day}: {field} differs "
                                f"between runs of the same input: "
                                f"{sorted(values)}")

    scenario_s = statistics.median(d["scenario_s"] for d in days)
    orders = sum(d["orders"] for d in quality)
    e2e = {
        "us_per_order": statistics.median(d["us_per_order"]
                                          for d in measured),
        "setup_s": scenario_s + train_s,
        # Setup plus the first day in a fresh process. Later days only add
        # what the allocator keeps cached between days.
        "peak_rss_mb": quality[0]["peak_rss_mb"],
        "service_rate": sum(d["served"] for d in quality) / orders,
        "metrs_objective": statistics.mean(d["metrs_objective"]
                                           for d in quality),
        "unified_cost": statistics.mean(d["unified_cost"] for d in quality),
    }
    layers = {}
    if traced:
        layers = {name: statistics.median(d[name] for d in traced)
                  for name in DAY_LAYERS}
        layers["setup.scenario_s"] = scenario_s
        layers["setup.train_s"] = train_s
        # Each traced day against the untraced run(s) of the same input.
        layers["trace.overhead"] = statistics.median(
            d["us_per_order"] / statistics.median(
                u["us_per_order"] for u in by_day[d["day"]]
                if not u["traced"]) - 1.0
            for d in traced)
    return {
        "end_to_end": e2e,
        "per_layer": layers,
        "problems": problems,
        "attempted": sum(d["orders"] for d in days),
        # Rejections are a quality outcome (service_rate), not a failed
        # operation; an order fails when it ends neither served nor rejected.
        "failed": sum(d["orders"] - d["served"] - d["rejected"]
                      for d in days),
        "days": len(measured),
        "traced_days": len(traced),
        "compiler": end[-1]["compiler"],
        "threads": end[-1]["threads"],
    }


def print_metrics(workload, summary, trace):
    names = PER_LAYER if trace else END_TO_END
    values = summary["per_layer"] if trace else summary["end_to_end"]
    days = (f"{summary['traced_days']} traced days" if trace
            else f"{summary['days']} days")
    print(f"-- {workload}: {'per-layer' if trace else 'end-to-end'} "
          f"metrics over {days} --")
    for name, unit in names:
        print(f"  {name:28s} {values[name]:>18.6g} {unit}")


def metric_object(names, values):
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names}


def run_one(args):
    """The per-workload mode: one process, one JSON result line."""
    records = measure(args.workload, args.seed, args.repeat, args.seconds,
                      args.trace == 1, args.scale)
    summary = summarize(args.workload, records, args.repeat)
    trace = args.trace == 1
    print_metrics(args.workload, summary, trace)
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")
    names = PER_LAYER if trace else END_TO_END
    values = summary["per_layer"] if trace else summary["end_to_end"]
    result = {
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metric_object(names, values),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args):
    """The full mode: every workload, R untraced days plus a traced pass."""
    results = {}
    failed = False
    for workload in WORKLOADS:
        log(f"[run.py] {workload}: {args.repeat} untraced days, then a "
            f"traced pass")
        records = measure(workload, args.seed, args.repeat, 0, False,
                          args.scale)
        # The traced pass re-runs day 0 untraced and traced; its untraced
        # day is a replay of the first process's day 0.
        for record in measure(workload, args.seed, 1, 0, True, args.scale):
            if record["kind"] == "day":
                record["replay"] = True
            records.append(record)
        summary = summarize(workload, records, args.repeat)
        compiler, threads = summary.pop("compiler"), summary.pop("threads")
        print_metrics(workload, summary, False)
        print_metrics(workload, summary, True)
        for problem in summary["problems"]:
            print(f"CHECK FAILED: {problem}")
        failed = failed or bool(summary["problems"])
        summary["end_to_end"] = metric_object(END_TO_END,
                                              summary["end_to_end"])
        summary["per_layer"] = metric_object(PER_LAYER, summary["per_layer"])
        results[workload] = summary
    record = {
        "stamp": {
            "nproc": len(os.sched_getaffinity(0)),
            "threads": threads,
            "compiler": compiler,
            "build_type": BUILD_TYPE,
            "git_commit": git_commit(),
            "seed": args.seed,
            "repeat": args.repeat,
            "scale": args.scale,
        },
        "workloads": results,
    }
    (BUILD / "results.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BUILD / 'results.json'}; "
          f"{'CHECKS FAILED' if failed else 'all checks passed'}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring time per workload (with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="minimum untraced (and traced) days per process")
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 scale, one day each: the self-test")
    args = parser.parse_args()
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.repeat = 1
    if args.repeat < 1 or args.seed < 0:
        parser.error("--repeat must be >= 1 and --seed >= 0")
    try:
        check_definitions()
        build()
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        log(f"run.py: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
