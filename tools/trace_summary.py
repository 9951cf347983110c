#!/usr/bin/env python3
"""Summarize (and validate) WATTER observability outputs.

Reads a Chrome trace-event JSON file produced by `--trace` (watter_cli, the
fig benches) and prints a per-span rollup: event count, total and mean
duration, and the share of the trace's wall span. With `--timeline` it also
rolls up a per-round timeline JSON (`--timeline` output of the same tools):
round count, peak pool size, the per-phase time breakdown with the top phase
called out, the p50 and p99 of each phase and of the whole round over the
rounds, and a robustness line whenever a fault or the work budget fired.
The timeline's counter columns carry the report's JSON names
(src/core/metrics.h), one per-round delta column per report counter.

`--check` turns the script into a validator for CI: it exits nonzero unless
the trace is structurally a loadable Chrome trace (traceEvents array, "M"
thread-name metadata, well-formed "X" complete events with non-negative
timestamps/durations) containing at least one platform round span, and —
when `--timeline` is given — the timeline has a non-empty `rounds` array
whose every round carries the seven phase-time columns as non-negative
numbers, with consistent totals. See docs/OBSERVABILITY.md.

Usage:
  tools/trace_summary.py TRACE.json [--timeline TL.json] [--top N] [--check]
"""

import argparse
import json
import sys

# Durations below the hot-span floor are dropped at record time
# (src/obs/trace.h), so a dropped_events count is expected, not an error.
REQUIRED_EVENT_KEYS = ("ph", "pid", "tid", "name")


def fail(message):
    print(f"trace_summary: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {what} {path}: {error}")


def validate_trace(trace):
    """Structural checks; returns the list of 'X' complete events."""
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail("top level is not an object with a traceEvents array")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")
    spans, thread_names = [], {}
    for event in events:
        if not isinstance(event, dict):
            fail(f"non-object event: {event!r}")
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                fail(f"event missing {key!r}: {event!r}")
        if event["ph"] == "M":
            if event["name"] == "thread_name":
                thread_names[event["tid"]] = event["args"]["name"]
        elif event["ph"] == "X":
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                fail(f"X event with bad ts: {event!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                fail(f"X event with bad dur: {event!r}")
            spans.append(event)
    if not spans:
        fail("no complete ('X') span events")
    if not thread_names:
        fail("no thread_name metadata events")
    if not any(s["name"] == "round" for s in spans):
        fail("no 'round' span — was the platform actually traced?")
    dropped = trace.get("otherData", {}).get("dropped_events")
    if not isinstance(dropped, int) or dropped < 0:
        fail("otherData.dropped_events missing or negative")
    return spans, thread_names, dropped


def summarize_trace(spans, thread_names, dropped, top):
    by_name = {}
    for span in spans:
        entry = by_name.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] = max(entry[2], span["dur"])
    wall_us = max(s["ts"] + s["dur"] for s in spans) - min(
        s["ts"] for s in spans
    )
    print(f"trace: {len(spans)} spans on {len(thread_names)} threads, "
          f"{wall_us / 1e6:.3f}s wall, {dropped} sub-threshold drops")
    print(f"{'span':<24} {'count':>8} {'total ms':>10} {'mean us':>9} "
          f"{'max us':>9} {'% wall':>7}")
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])
    for name, (count, total_us, max_us) in ranked[:top]:
        share = 100.0 * total_us / wall_us if wall_us > 0 else 0.0
        print(f"{name:<24} {count:>8} {total_us / 1e3:>10.2f} "
              f"{total_us / count:>9.1f} {max_us:>9.1f} {share:>6.1f}%")
    if len(ranked) > top:
        print(f"... {len(ranked) - top} more span names (--top to widen)")
    # Per-thread busy time. Spans nest, so a thread's sum can exceed its
    # wall share; the top-level "round"/job spans dominate regardless.
    busy = {}
    for span in spans:
        busy[span["tid"]] = busy.get(span["tid"], 0.0) + span["dur"]
    for tid, us in sorted(busy.items(), key=lambda kv: -kv[1]):
        name = thread_names.get(tid, f"tid {tid}")
        print(f"  thread {name:<18} {us / 1e3:>10.2f} ms recorded")


PHASES = ("maintenance_s", "refresh_s", "propose_s", "resolve_s",
          "commit_s", "sweep_s")
# Every round's wall-clock columns: the six phases and the whole round.
TIMED_COLUMNS = PHASES + ("total_s",)

# Robustness columns (docs/ROBUSTNESS.md): per-round deltas of the fault,
# recovery and overload-shedding counters, under the report's names. Each
# must be present as a count whose per-round sum equals its total. The
# summary counts dropouts, late dropouts and returns as fault events.
EVENT_COLUMNS = ("fault_dropouts", "fault_late_dropouts", "fault_returns")
FAULT_COLUMNS = EVENT_COLUMNS + (
    "fault_brownout_rounds", "fault_recovered_orders", "failed_services",
    "shed_orders", "degraded_rounds", "work_units")


def validate_timeline(timeline):
    if not isinstance(timeline, dict) or "rounds" not in timeline:
        fail("timeline is not an object with a rounds array")
    rounds = timeline["rounds"]
    if not isinstance(rounds, list) or not rounds:
        fail("timeline has no rounds")
    for sample in rounds:
        for key in ("round", "pool_size") + TIMED_COLUMNS + FAULT_COLUMNS:
            if key not in sample:
                fail(f"round sample missing {key!r}")
        for key in TIMED_COLUMNS:
            value = sample[key]
            if (isinstance(value, bool) or
                    not isinstance(value, (int, float)) or not value >= 0):
                fail(f"round sample has a bad time {key!r}: {value!r}")
        for key in FAULT_COLUMNS:
            if not isinstance(sample[key], int) or sample[key] < 0:
                fail(f"round sample has non-count {key!r}: {sample[key]!r}")
    totals = timeline.get("totals")
    if not isinstance(totals, dict):
        fail("timeline missing totals")
    if totals.get("round") != len(rounds):
        fail(f"totals.round = {totals.get('round')} but "
             f"{len(rounds)} round samples")
    for key in FAULT_COLUMNS:
        summed = sum(r[key] for r in rounds)
        if totals.get(key) != summed:
            fail(f"totals.{key} = {totals.get(key)} but round samples "
                 f"sum to {summed}")
    return rounds, totals


def quantile(values, q):
    """The q-quantile of `values`, interpolating between closest ranks."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (
        position - lower)


def summarize_timeline(rounds, totals):
    peak_pool = max(r["pool_size"] for r in rounds)
    print(f"timeline: {len(rounds)} rounds, peak pool {peak_pool}, "
          f"final pool {rounds[-1]['pool_size']}, "
          f"{totals.get('total_s', 0.0):.3f}s in rounds")
    phase_totals = [(p, totals.get(p, 0.0)) for p in PHASES]
    round_total = totals.get("total_s", 0.0)
    # Per-round distributions in milliseconds, from the rounds themselves.
    print(f"  {'phase':<16} {'total':>10} {'share':>7} "
          f"{'p50 ms':>9} {'p99 ms':>9}")
    rows = sorted(phase_totals, key=lambda kv: -kv[1])
    for column, seconds in rows + [("total_s", round_total)]:
        share = 100.0 * seconds / round_total if round_total > 0 else 0.0
        per_round = [r[column] for r in rounds]
        print(f"  {column:<16} {seconds:>9.3f}s {share:>6.1f}% "
              f"{1e3 * quantile(per_round, 0.5):>9.3f} "
              f"{1e3 * quantile(per_round, 0.99):>9.3f}")
    top_phase, top_seconds = max(phase_totals, key=lambda kv: kv[1])
    print(f"top phase: {top_phase} ({top_seconds:.3f}s)")
    # Robustness rollup: silent on a faultless, unbudgeted run.
    if any(totals.get(key, 0) for key in FAULT_COLUMNS):
        events = sum(totals.get(key, 0) for key in EVENT_COLUMNS)
        print(f"faults: {events} events, "
              f"{totals.get('fault_brownout_rounds', 0)} brownout rounds, "
              f"{totals.get('fault_recovered_orders', 0)} orders recovered, "
              f"{totals.get('failed_services', 0)} failed services; "
              f"shedding: {totals.get('shed_orders', 0)} orders over "
              f"{totals.get('degraded_rounds', 0)} degraded rounds, "
              f"{totals.get('work_units', 0)} work units")


def main():
    parser = argparse.ArgumentParser(
        description="Summarize/validate WATTER trace + timeline files.")
    parser.add_argument("trace", help="Chrome trace-event JSON (--trace)")
    parser.add_argument("--timeline", help="per-round timeline JSON")
    parser.add_argument("--top", type=int, default=20,
                        help="span names to list (default 20)")
    parser.add_argument("--check", action="store_true",
                        help="validate only; exit nonzero on any problem")
    args = parser.parse_args()

    spans, thread_names, dropped = validate_trace(
        load_json(args.trace, "trace"))
    rounds = totals = None
    if args.timeline:
        rounds, totals = validate_timeline(
            load_json(args.timeline, "timeline"))
    if args.check:
        checked = f"{args.trace} ({len(spans)} spans)"
        if rounds is not None:
            checked += f" + {args.timeline} ({len(rounds)} rounds)"
        print(f"trace_summary: OK: {checked}")
        return
    summarize_trace(spans, thread_names, dropped, args.top)
    if rounds is not None:
        print()
        summarize_timeline(rounds, totals)


if __name__ == "__main__":
    main()
