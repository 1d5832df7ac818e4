// Postmortem dumps over the flight recorder: the `qsimec-postmortem-v1`
// JSONL schema and its two writers. The reader that renders a dump back
// (`qsimec report DUMP.jsonl`) is obs/run_report.hpp.
//
// A dump is JSONL with deterministic key order (fields are written in a
// fixed sequence, maps are ordered): a header line, zero or more
// {"type":"pair"} lines (the active pair notes), per-thread state lines,
// the merged last-N ring events, an optional metrics snapshot, and an
// {"type":"end"} trailer that doubles as a truncation check — a dump
// without it was cut short (e.g. the process died while writing).
//
// Two writers share the schema:
//   * renderPostmortem — the orderly path (timeout, stall, cancellation,
//     explicit request). Full-fidelity: the last 256 merged events sorted
//     by sequence number, metrics.
//   * the armed signal handler — SIGSEGV/SIGABRT. Async-signal-safe by
//     construction: it formats integers into stack buffers and write(2)s
//     them to a freshly opened fd; no allocation, no stdio, no locks. Ring
//     events are emitted per-slot unsorted (sorting needs allocation); the
//     reader orders by sequence number, so both writers parse the same.
//
// Redacted dumps exist for the determinism contract (byte-identical across
// thread counts, like ec::SerializeOptions::redactProfile): they keep only
// the schema header, the pair notes, and the Mark events the flow thread
// records at deterministic milestones — everything scheduling-dependent
// (timestamps, heartbeat ages, thread slots, sequence numbers, gauge
// samples) is dropped, not zeroed.

#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

#include <string>
#include <string_view>

namespace qsimec::obs {

inline constexpr std::string_view kPostmortemSchema = "qsimec-postmortem-v1";

struct PostmortemOptions {
  /// Why the dump was taken: "timeout", "stall", "cancelled", "signal",
  /// "complete", or "request".
  std::string reason{"request"};
  /// What was running ("check", "pair 3", a fuzz cell id).
  std::string label;
  /// Deterministic subset only (see file comment).
  bool redact{false};
  /// Final metrics snapshot to embed (orderly path only; optional).
  const MetricsSnapshot* metrics{nullptr};
};

/// Render a dump to a string (the orderly path).
[[nodiscard]] std::string renderPostmortem(const FlightRecorder& recorder,
                                           const PostmortemOptions& options = {});

/// renderPostmortem to a file; throws std::runtime_error on I/O failure.
void writePostmortemFile(const std::string& path,
                         const FlightRecorder& recorder,
                         const PostmortemOptions& options = {});

/// Install SIGSEGV/SIGABRT handlers that write `signalDumpPath(directory)`
/// from the recorder's rings before restoring the default disposition and
/// re-raising (so exit status still reflects the signal). The recorder must
/// outlive the armed window. One armed recorder per process; re-arming
/// replaces it.
void armSignalDump(const FlightRecorder* recorder,
                   const std::string& directory);
/// Restore the previous handlers and forget the recorder.
void disarmSignalDump();
/// Where an armed handler writes: DIR/postmortem-signal.jsonl.
[[nodiscard]] std::string signalDumpPath(const std::string& directory);

} // namespace qsimec::obs
