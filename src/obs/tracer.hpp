// Scoped-span tracing with Chrome trace_event export.
//
// A Tracer records nested timed spans (flow -> stage -> per-stimulus
// simulation -> DD GC) against a single steady-clock epoch and exports them
// as Chrome "trace_event" JSON — loadable in about:tracing or
// https://ui.perfetto.dev. Spans are "X" (complete) events; viewers infer
// nesting from interval containment, which ScopedSpan guarantees by
// construction.
//
// Instrumented code opens spans through obs::ScopedSpan (obs/context.hpp),
// which takes the whole observability Context: with no tracer attached its
// constructor/destructor and arg() reduce to a pointer test — no clock
// reads, no allocation — so permanent instrumentation costs nothing when no
// sink is attached (guarded by bench/micro_obs.cpp).
//
// Thread safety: span recording is internally synchronized, so worker
// threads (the parallel stimuli portfolio, the race-mode complete checker)
// may share one tracer. Each thread gets a stable `tid` (assigned in order
// of first span) and its own nesting-depth counter; the Chrome export emits
// the tid so per-thread lanes render correctly. Reading `events()` is only
// safe once every recording thread has been joined.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace qsimec::obs {

/// One key/value annotation of a span. `value` is pre-rendered; `quoted`
/// says whether export must wrap it in JSON quotes (strings) or emit it raw
/// (numbers).
struct SpanArg {
  std::string key;
  std::string value;
  bool quoted{true};
};

/// One time-series sample, recorded as a Chrome `"C"` (counter) event.
/// Viewers render all samples sharing a name as one counter track below the
/// span lanes — the obs::Sampler feeds these.
struct CounterEvent {
  std::string name;
  /// Sample instant, microseconds since the tracer's epoch.
  double tsMicros{};
  double value{};
};

struct SpanEvent {
  std::string name;
  std::string category;
  /// Start, microseconds since the tracer's epoch.
  double tsMicros{};
  /// Duration in microseconds; negative while the span is still open.
  double durMicros{-1.0};
  /// Nesting depth at begin (0 = root of its thread). Redundant with
  /// interval containment but convenient for tests and text dumps.
  int depth{};
  /// Recording thread, 1-based in order of first span (1 = the thread that
  /// traced first, typically the flow's coordinator).
  int tid{1};
  std::vector<SpanArg> args;
};

class Tracer {
public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Open a span; returns its index for endSpan/arg. Prefer ScopedSpan.
  std::size_t beginSpan(std::string_view name, std::string_view category);
  /// Close the span opened at `index` (stamps its duration).
  void endSpan(std::size_t index);

  void argString(std::size_t index, std::string_view key,
                 std::string_view value);
  void argNumber(std::size_t index, std::string_view key, double value);
  void argNumber(std::size_t index, std::string_view key,
                 std::uint64_t value);

  /// Record one counter sample (timestamped against the span epoch, so
  /// counter tracks line up with the span lanes in trace viewers). Safe to
  /// call from any thread — this is the Sampler's entry point.
  void counter(std::string_view name, double value);

  /// The recorded spans. Only call after recording threads have joined.
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    return events_;
  }
  /// The recorded counter samples. Only call after recording threads (and
  /// any Sampler) have stopped.
  [[nodiscard]] const std::vector<CounterEvent>& counterEvents()
      const noexcept {
    return counterEvents_;
  }
  /// Number of spans begun and not yet ended (across all threads).
  [[nodiscard]] int openSpans() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return openCount_;
  }

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome trace-event
  /// "JSON object format". Spans still open are exported as running until
  /// now.
  [[nodiscard]] std::string toChromeTraceJson() const;
  /// Write toChromeTraceJson() to `path` (throws std::runtime_error on I/O
  /// failure).
  void writeChromeTrace(const std::string& path) const;

private:
  [[nodiscard]] double nowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanEvent> events_;
  std::vector<CounterEvent> counterEvents_;
  std::unordered_map<std::thread::id, int> tidOf_;
  std::unordered_map<int, int> depthOf_; // keyed by tid
  int nextTid_{1};
  int openCount_{0};
};

} // namespace qsimec::obs
