// The offline artefact reader behind `qsimec report`: run journals and
// flight-recorder postmortem dumps in, Markdown or a self-contained HTML
// page out.
//
// `qsimec check --journal RUN.jsonl` / `qsimec batch --journal RUN.jsonl`
// leave behind a JSONL narrative; parseRunJournal folds one or more such
// files into a RunReport model — stage waterfall, tier routing with flow
// latency percentiles, verdict counts, the merged hotspot-gate table from
// attr.* events, batch cache/dedup stats, per-event-family duration
// percentiles (GC pauses included) and event counts. parsePostmortem reads a
// qsimec-postmortem-v1 dump (either writer of obs/postmortem.hpp) into a
// PostmortemReport. Both models render through one table writer.
//
// Journal parsing is forgiving: unknown events only increment counters,
// malformed lines are counted rather than fatal (journals may be truncated
// by crashes — that is precisely when a report is wanted). Dump parsing is
// strict, except that a dump without its end trailer parses and is flagged
// as truncated.

#pragma once

#include "obs/metrics.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace qsimec::obs {

/// Parsed journal model. Exposed (rather than hidden behind the renderers)
/// so tests can assert on the fold itself.
struct RunReport {
  /// One contiguous stage interval of a single-flow journal (micros are
  /// journal ts_micros values, i.e. relative to the journal epoch).
  struct StageSpan {
    std::string stage;
    double beginMicros{};
    double endMicros{};
  };
  /// One row of the merged hotspot table: attr.hotspot events aggregated by
  /// (checker, side, gate).
  struct Hotspot {
    std::string checker;
    std::string side;
    std::uint64_t gate{};
    std::uint64_t applications{};
    std::int64_t nodesDelta{};
    std::uint64_t computeLookups{};
    std::uint64_t computeHits{};
    std::uint64_t wallNanos{};
  };
  /// One aggregated trace-span family (from an optional Chrome trace file).
  struct SpanAggregate {
    std::string name;
    std::uint64_t count{};
    double totalMicros{};
    double maxMicros{};
  };

  std::size_t events{};
  std::size_t malformedLines{};
  std::map<std::string, std::uint64_t> eventCounts;

  /// Stage waterfall — populated only when the journal holds at most one
  /// flow (concurrent flows interleave stage events; `interleaved` is set
  /// and the per-stage counts in eventCounts remain the source of truth).
  std::vector<StageSpan> stages;
  bool interleaved{false};

  /// flow.verdict total_seconds by routed tier; each count is the number of
  /// flows the tier decided.
  std::map<std::string, HistogramSnapshot> tierSeconds;
  std::map<std::string, std::uint64_t> verdictCounts;
  std::vector<Hotspot> hotspots;
  /// Duration-carrying events by name: "seconds", "total_seconds",
  /// "pause_seconds" (dd.gc) or "wall_nanos", normalized to seconds.
  std::map<std::string, HistogramSnapshot> familySeconds;

  /// Batch rollup (from svc.batch.done), when the journal covers one.
  bool hasBatch{false};
  std::uint64_t pairs{};
  std::uint64_t cacheHits{};
  std::uint64_t cacheStores{};
  std::uint64_t deduped{};
  double batchSeconds{};
  /// Per-stimulus |1 - fidelity| deviations (sim.stimulus events).
  HistogramSnapshot stimulusDeviation;

  /// Aggregated spans of the optional trace file (empty without one).
  std::vector<SpanAggregate> traceSpans;
};

/// Parsed qsimec-postmortem-v1 dump.
struct PostmortemReport {
  struct Pair {
    std::string label;
    std::string fingerprint;
  };
  struct Thread {
    int slot{0};
    std::string label;
    bool active{false};
    std::uint64_t heartbeatAgeMicros{0};
    std::int64_t nodesLive{-1};
    std::int64_t uniqueFillPpm{-1};
    std::int64_t gateLeft{-1};
    std::int64_t gateRight{-1};
    std::uint64_t events{0};
    std::uint64_t eventsDropped{0};
  };
  struct Event {
    std::uint64_t seq{0};
    std::uint64_t tsMicros{0};
    int slot{-1};
    std::string kind;
    std::string name;
    std::int64_t a{0};
    std::int64_t b{0};
  };

  bool valid{false};
  std::string error; // "line N: what" when !valid
  std::string reason;
  std::string label;
  bool redacted{false};
  int signal{0};
  std::uint64_t eventsRecorded{0};
  std::uint64_t eventsDropped{0};
  bool complete{false}; // saw the {"type":"end"} trailer
  std::vector<Pair> pairs;
  std::vector<Thread> threads;
  std::vector<Event> events; // sorted by seq
};

struct RunReportOptions {
  enum class Format { Markdown, Html };
  Format format{Format::Markdown};
  /// Rows kept in the hotspot and trace-span tables.
  std::size_t topRows{10};
};

/// Which reader `lines` belong to: true when the first non-blank line is a
/// journal event (a JSON object with an "event" string) or there is none;
/// anything else is handed to parsePostmortem, which rejects what is not a
/// dump.
[[nodiscard]] bool isRunJournal(const std::vector<std::string>& lines);

/// Fold journal lines (one JSON object each; blank lines skipped, malformed
/// lines counted) into the report model.
[[nodiscard]] RunReport parseRunJournal(const std::vector<std::string>& lines);

/// Aggregate a Chrome trace-event JSON payload (Tracer::toChromeTraceJson)
/// into RunReport::traceSpans. Throws util::JsonParseError on malformed
/// trace text.
void attachTraceSummary(RunReport& report, std::string_view traceJson);

/// Parse a dump. Never throws: malformed input yields valid == false with
/// `error` naming the 1-based line.
[[nodiscard]] PostmortemReport
parsePostmortem(const std::vector<std::string>& lines);

/// Render a journal report (Markdown or a self-contained HTML page).
[[nodiscard]] std::string renderRunReport(const RunReport& report,
                                          const RunReportOptions& options = {});

/// Render a valid dump: header facts, active pairs, stall attribution
/// (oldest heartbeat), hotspot at death (largest live-node population and
/// its in-flight gate), per-thread table and event timeline.
[[nodiscard]] std::string renderRunReport(const PostmortemReport& report,
                                          const RunReportOptions& options = {});

} // namespace qsimec::obs
