#!/usr/bin/env python3
"""Validate the observability artifacts written by --trace / --metrics.

Checks performed:

  trace file (Chrome trace_event JSON, chrome://tracing / Perfetto —
  single-process artifacts and `tacos_cli trace-merge` timelines alike):
    * the document parses as JSON and has the expected top-level shape
      (displayTimeUnit, otherData.droppedEvents, traceEvents list);
    * every event is a complete event ("ph":"X") carrying name, cat, ts,
      dur, pid, tid and an args object — or a process_name metadata
      record ("ph":"M"), the lane labels trace-merge emits;
    * no two process_name records claim the same pid with different
      labels (a duplicate pid would interleave two processes' spans
      into one lane and wreck the nesting check);
    * per (pid, tid) lane, events nest strictly: sorted by start time,
      each event either lies inside the currently open interval or
      begins at / after its end — partial overlaps mean the span stack
      was corrupted;
    * timestamps are non-negative and the stream is globally ts-sorted
      (what the exporters guarantee for viewers).

  metrics file (the registry's to_json()):
    * the document parses as JSON: {"metrics": [...]};
    * every entry has a name and a known type; histograms satisfy
      len(counts) == len(edges) + 1 (overflow cell last), strictly
      increasing edges, and sum(counts) == count;
    * with --strict-phases (meaningful for single-threaded runs, e.g.
      TACOS_THREADS=1 in CI): the self-times of all spans sum to ~100%
      of span.run.main.total_s — the "where did the time go" accounting
      docs/OBSERVABILITY.md describes telescopes with no gap.

Exit status 0 when everything holds, 1 with a message per violation.

  span presence (--require-span NAME, repeatable):
    * the trace contains at least one event with that exact name — how CI
      asserts that a code path (e.g. the multigrid preconditioner's
      thermal.mg.build / thermal.mg.cycle spans) actually ran.  In a
      merged timeline this looks across every process's shard.

  cross-process trace propagation (--require-shared-trace NAME NAME ...):
    * every named span is present, and at least one distributed trace id
      (the "trace" arg spans stamp when tracing is on) is shared by all
      of them — how CI asserts that e.g. the supervisor's run.main and
      the fabric workers' fabric.task spans landed on one trace.

Usage:
  tools/check_trace.py --trace trace.json --metrics metrics.json \
      [--strict-phases] [--phase-tolerance 0.05] \
      [--require-span NAME ...] \
      [--require-shared-trace NAME NAME ...]
"""

import argparse
import json
import sys

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def fail(errors, msg):
    errors.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def check_trace(path, errors, require_spans=(), require_shared_trace=()):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(errors, f"{path}: does not parse as JSON: {e}")
        return

    if doc.get("displayTimeUnit") != "ms":
        fail(errors, f"{path}: missing displayTimeUnit")
    dropped = doc.get("otherData", {}).get("droppedEvents")
    if not isinstance(dropped, int):
        fail(errors, f"{path}: otherData.droppedEvents missing")
    elif dropped > 0:
        print(f"note: {path}: {dropped} events were dropped (buffer cap)")

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, f"{path}: traceEvents is not a list")
        return
    if not events:
        fail(errors, f"{path}: no trace events")
        return

    last_ts = -1
    by_lane = {}       # (pid, tid) -> [(ts, end, name)]
    process_names = {} # pid -> label (from "M" metadata records)
    spans = []         # complete events only
    for i, ev in enumerate(events):
        if ev.get("ph") == "M":
            # Metadata record (trace-merge's process_name lane labels).
            if ev.get("name") != "process_name":
                fail(errors, f"{path}: event {i} unknown metadata: {ev}")
                continue
            pid = ev.get("pid")
            label = ev.get("args", {}).get("name")
            if pid is None or not label:
                fail(errors, f"{path}: event {i} malformed process_name: "
                             f"{ev}")
                continue
            if pid in process_names and process_names[pid] != label:
                fail(errors, f"{path}: duplicate pid {pid}: claimed by "
                             f"'{process_names[pid]}' and '{label}'")
            process_names[pid] = label
            continue
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in ev]
        if missing:
            fail(errors, f"{path}: event {i} missing keys {missing}: {ev}")
            continue
        if ev["ph"] != "X":
            fail(errors, f"{path}: event {i} is not a complete event: {ev}")
            continue
        if not isinstance(ev["args"], dict):
            fail(errors, f"{path}: event {i} args is not an object")
        ts, dur = ev["ts"], ev["dur"]
        if ts < 0 or dur < 0:
            fail(errors, f"{path}: event {i} has negative ts/dur: {ev}")
        if ts < last_ts:
            fail(errors, f"{path}: events not sorted by ts at index {i}")
        last_ts = max(last_ts, ts)
        spans.append(ev)
        by_lane.setdefault((ev["pid"], ev["tid"]), []).append(
            (ts, ts + dur, ev["name"]))

    # Strict nesting per (pid, tid) lane: walk start-sorted events with a
    # stack of open interval ends.  A partial overlap (starts inside the
    # top interval but ends outside it) is a span-stack corruption.  Keying
    # by pid too keeps a merged multi-process timeline honest: two
    # processes' threads may share a tid, and their spans legitimately
    # interleave in time.
    for (pid, tid), evs in sorted(by_lane.items()):
        # Equal start times: the enclosing (longer) interval must be
        # visited first, so ties sort by descending end.
        evs.sort(key=lambda e: (e[0], -e[1]))
        stack = []
        for ts, end, name in evs:
            while stack and ts >= stack[-1][0]:
                stack.pop()
            if stack and end > stack[-1][0]:
                fail(
                    errors,
                    f"{path}: pid {pid} tid {tid}: '{name}' [{ts},{end}] "
                    f"partially overlaps enclosing '{stack[-1][1]}' (ends "
                    f"{stack[-1][0]})",
                )
            stack.append((end, name))

    n_pids = len({pid for pid, _ in by_lane})
    print(f"ok: {path}: {len(spans)} events on {len(by_lane)} lane(s) "
          f"across {n_pids} process(es), strictly nested per lane")

    seen = {ev.get("name") for ev in spans}
    for name in require_spans:
        if name in seen:
            print(f"ok: {path}: required span '{name}' present")
        else:
            fail(errors, f"{path}: required span '{name}' never emitted")

    if require_shared_trace:
        # Every named span must exist, and one distributed trace id must
        # run through all of them.
        ids_by_name = {name: set() for name in require_shared_trace}
        for ev in spans:
            name = ev.get("name")
            if name in ids_by_name and "trace" in ev.get("args", {}):
                ids_by_name[name].add(ev["args"]["trace"])
        ok = True
        for name, ids in ids_by_name.items():
            if not ids:
                fail(errors, f"{path}: no traced '{name}' span (is --trace "
                             f"on in every process?)")
                ok = False
        if ok:
            shared = set.intersection(*ids_by_name.values())
            if shared:
                print(f"ok: {path}: spans {sorted(ids_by_name)} share "
                      f"trace id(s) {sorted(shared)}")
            else:
                fail(errors, f"{path}: no single trace id runs through "
                             f"{sorted(ids_by_name)}: "
                             f"{ {n: sorted(s) for n, s in ids_by_name.items()} }")


def check_metrics(path, strict_phases, tolerance, errors):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(errors, f"{path}: does not parse as JSON: {e}")
        return

    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        fail(errors, f"{path}: 'metrics' is not a list")
        return

    values = {}
    for i, m in enumerate(metrics):
        name, mtype = m.get("name"), m.get("type")
        if not name or mtype not in ("counter", "gauge", "histogram"):
            fail(errors, f"{path}: entry {i} malformed: {m}")
            continue
        if mtype == "histogram":
            edges, counts = m.get("edges", []), m.get("counts", [])
            if len(counts) != len(edges) + 1:
                fail(errors, f"{path}: '{name}': {len(counts)} counts for "
                             f"{len(edges)} edges (want edges+1)")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                fail(errors, f"{path}: '{name}': edges not increasing")
            if sum(counts) != m.get("count"):
                fail(errors, f"{path}: '{name}': sum(counts)={sum(counts)} "
                             f"!= count={m.get('count')}")
        else:
            values[name] = m.get("value")

    root = values.get("span.run.main.total_s")
    self_sum = sum(v for n, v in values.items()
                   if n.startswith("span.") and n.endswith(".self_s"))
    if root:
        share = self_sum / root
        print(f"ok: {path}: {len(metrics)} metrics; span self-times cover "
              f"{share:.1%} of span.run.main.total_s ({root:.3f}s)")
        if strict_phases and abs(share - 1.0) > tolerance:
            fail(errors, f"{path}: per-phase self-times sum to {share:.1%} "
                         f"of the root span (want 100% +/- "
                         f"{tolerance:.0%}; single-threaded runs only)")
    else:
        print(f"ok: {path}: {len(metrics)} metrics (no root span recorded)")
        if strict_phases:
            fail(errors, f"{path}: --strict-phases set but "
                         f"span.run.main.total_s is absent")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", help="Chrome trace_event JSON to validate")
    ap.add_argument("--metrics", help="metrics JSON to validate")
    ap.add_argument("--strict-phases", action="store_true",
                    help="require span self-times to sum to ~100%% of the "
                         "root span (use on single-threaded runs)")
    ap.add_argument("--phase-tolerance", type=float, default=0.05,
                    help="allowed deviation for --strict-phases "
                         "(default 0.05)")
    ap.add_argument("--require-span", action="append", default=[],
                    metavar="NAME",
                    help="fail unless the trace contains an event with "
                         "this exact name (repeatable)")
    ap.add_argument("--require-shared-trace", nargs="+", default=[],
                    metavar="NAME",
                    help="fail unless every named span exists and at "
                         "least one distributed trace id is shared by "
                         "all of them")
    args = ap.parse_args()
    if not args.trace and not args.metrics:
        ap.error("give --trace and/or --metrics")
    if (args.require_span or args.require_shared_trace) and not args.trace:
        ap.error("--require-span/--require-shared-trace need --trace")

    errors = []
    if args.trace:
        check_trace(args.trace, errors, args.require_span,
                    args.require_shared_trace)
    if args.metrics:
        check_metrics(args.metrics, args.strict_phases,
                      args.phase_tolerance, errors)
    if errors:
        print(f"{len(errors)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
