#!/usr/bin/env python3
"""Convert a qsimec run journal (--journal FILE, JSONL) to folded-stack format.

Folded stacks are the input of Brendan Gregg's flamegraph.pl and of the
"sandwich" view in speedscope (https://www.speedscope.app): one line per
stack, frames separated by ';', followed by a count. We use integer
microseconds as the count, so frame widths are proportional to wall time.

Frames emitted:

    flow;<stage>                    stage self-time (interval between two
                                    flow.stage markers, minus children)
    flow;<stage>;dd.gc              DD garbage-collection pauses inside the
                                    stage (the journal's dd.gc events carry
                                    the measured pause_seconds)
    flow;simulation;sim.stimulus    stimulus-run time: deltas between
                                    consecutive sim.stimulus completions,
                                    minus the GC pauses inside them
    attr;<checker>;<side>:g<N>      per-gate cost attribution (attr.hotspot
                                    events), weighted by the measured
                                    per-gate wall nanos
    attr;<checker>;other            the checker's attributed wall time not
                                    covered by its top-K hotspot gates

The attr;* frames form a second root: they re-slice the same wall time as
the flow;* stages by gate instead of by stage, so the two trees overlap and
their grand totals do not add up — read them as two views, not as siblings.

Child time is worked out per worker lane: dd.gc, sim.stimulus and
sim.stimulus.cancelled events carry the lane (portfolio worker index) that
emitted them, race mode's complete checker has a lane of its own, and a
line without a lane field reads as lane 0. Each
lane's GC pauses and stimulus deltas are subtracted from that lane's copy of
the stage's wall interval, and the stage's frames are the mean over the
lanes seen in the stage. So parallel workers whose pauses together exceed
the stage's wall time still leave a stage self-time, and a stage's frames
sum to its wall time at any thread count.

Stage attribution is approximate by design: the journal records completion
events, not begin/end pairs, so a stimulus delta includes whatever else the
worker did in that window. For single-threaded runs (--threads 1) the
approximation is exact up to journal-write overhead.

Usage:
    tools/journal2folded.py run.jsonl > run.folded
    tools/journal2folded.py run.jsonl -o run.folded
    tools/journal2folded.py run.jsonl --format speedscope -o run.speedscope.json

Malformed lines are skipped (the journal may have a half-written tail if
the run was killed); a journal with no flow.stage events yields no output
and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict


def read_events(path: str) -> list[dict]:
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # half-written tail of a killed run
            if isinstance(event, dict) and "ts_micros" in event:
                events.append(event)
    events.sort(key=lambda e: e["ts_micros"])
    return events


def fold(events: list[dict]) -> dict[str, float]:
    """Aggregate events into {stack: microseconds}."""
    # Stage intervals: each flow.stage marker opens a stage that the next
    # marker (or the flow.verdict / last event) closes.
    markers = [e for e in events if e.get("event") == "flow.stage"]
    if not markers:
        return {}
    end_ts = markers[-1]["ts_micros"]
    for event in events:
        if event.get("event") == "flow.verdict":
            end_ts = max(end_ts, event["ts_micros"])
    if events:
        end_ts = max(end_ts, events[-1]["ts_micros"])

    intervals = []  # (stage, begin, end)
    for i, marker in enumerate(markers):
        begin = marker["ts_micros"]
        end = markers[i + 1]["ts_micros"] if i + 1 < len(markers) else end_ts
        intervals.append((str(marker.get("stage", "?")), begin, end))

    def interval_at(ts: float) -> int | None:
        for index, (_, begin, end) in enumerate(intervals):
            if begin <= ts <= end:
                return index
        return None

    # Per stage interval, per lane: GC pauses (measured durations) and
    # stimulus completions (simulation stage only).
    lanes: list[dict] = [defaultdict(lambda: {"gc": [], "done": []})
                         for _ in intervals]
    for event in events:
        kind = event.get("event")
        if kind not in ("dd.gc", "sim.stimulus", "sim.stimulus.cancelled"):
            continue
        ts = event["ts_micros"]
        index = interval_at(ts)
        if index is None:
            continue
        lane = lanes[index][event.get("lane", 0)]
        if kind == "dd.gc":
            pause_us = float(event.get("pause_seconds", 0.0)) * 1e6
            lane["gc"].append((ts, pause_us))
        elif intervals[index][0] == "simulation":
            lane["done"].append(ts)

    folded: dict[str, float] = defaultdict(float)
    for (stage, begin, end), stage_lanes in zip(intervals, lanes):
        weight = 1.0 / max(1, len(stage_lanes))
        children = 0.0
        for lane in stage_lanes.values():
            gc = sum(pause for _, pause in lane["gc"])
            # stimulus runs: completion deltas, minus the GC pauses that
            # fell into the same window (they are already their own frame)
            stimulus = 0.0
            prev = begin
            for ts in lane["done"]:
                gc_inside = sum(pause for gc_ts, pause in lane["gc"]
                                if prev < gc_ts <= ts)
                stimulus += max(0.0, ts - prev - gc_inside)
                prev = ts
            folded[f"flow;{stage};dd.gc"] += weight * gc
            if lane["done"]:
                folded[f"flow;{stage};sim.stimulus"] += weight * stimulus
            children += weight * (gc + stimulus)
        folded[f"flow;{stage}"] += max(0.0, (end - begin) - children)

    fold_attribution(events, folded)
    return folded


def fold_attribution(events: list[dict], folded: dict[str, float]) -> None:
    """Second tree: attr.* events re-sliced into per-gate frames."""
    hotspot_by_checker: dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "attr.hotspot":
            continue
        checker = str(event.get("checker", "?"))
        side = str(event.get("side", "?"))
        gate = event.get("gate", "?")
        micros = float(event.get("wall_nanos", 0)) / 1e3
        if micros > 0:
            folded[f"attr;{checker};{side}:g{gate}"] += micros
            hotspot_by_checker[checker] += micros
    total_by_checker: dict[str, float] = defaultdict(float)
    for event in events:
        if event.get("event") != "attr.summary":
            continue
        checker = str(event.get("checker", "?"))
        total_by_checker[checker] += float(event.get("wall_nanos", 0)) / 1e3
    for checker, total in total_by_checker.items():
        other = total - hotspot_by_checker.get(checker, 0.0)
        if other > 0:
            folded[f"attr;{checker};other"] += other


def to_speedscope(folded: dict[str, float], name: str) -> dict:
    """Folded stacks as a speedscope 'sampled' profile (one sample per
    stack, weight = integer microseconds)."""
    frames: list[str] = []
    frame_index: dict[str, int] = {}
    samples: list[list[int]] = []
    weights: list[int] = []
    for stack in sorted(folded):
        micros = int(round(folded[stack]))
        if micros <= 0:
            continue
        sample = []
        for frame in stack.split(";"):
            if frame not in frame_index:
                frame_index[frame] = len(frames)
                frames.append(frame)
            sample.append(frame_index[frame])
        samples.append(sample)
        weights.append(micros)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": [{"name": f} for f in frames]},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }],
        "name": name,
        "exporter": "qsimec journal2folded",
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="qsimec journal (JSONL) -> folded stacks")
    parser.add_argument("journal", help="journal file written by --journal")
    parser.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=("folded", "speedscope"),
                        default="folded",
                        help="folded stacks (flamegraph.pl) or a speedscope"
                             " JSON profile (default: folded)")
    args = parser.parse_args()

    try:
        events = read_events(args.journal)
    except OSError as error:
        print(f"cannot read {args.journal}: {error}", file=sys.stderr)
        return 2

    folded = fold(events)
    if not folded:
        print("no flow.stage events in journal; nothing to fold",
              file=sys.stderr)
        return 1

    out = open(args.output, "w", encoding="utf-8") if args.output \
        else sys.stdout
    try:
        if args.format == "speedscope":
            json.dump(to_speedscope(folded, args.journal), out, indent=1)
            print(file=out)
        else:
            for stack in sorted(folded):
                micros = int(round(folded[stack]))
                if micros > 0:
                    print(f"{stack} {micros}", file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # downstream consumer (head, grep -m) closed the pipe early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
