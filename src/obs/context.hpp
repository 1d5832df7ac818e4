// The observability context handed through the equivalence-checking flow.
//
// A Context bundles the optional sinks — a Tracer for timed spans, a
// MetricsRegistry for named values, a Journal for the structured event log,
// and the FlightRecorder's rings and per-thread DD state cells (which the
// Sampler's probes also read). It is the one handle through which src/dd,
// src/ec and src/svc reach a sink: a dd::Package is attached to one, every
// span is opened against one, and the Context decides which sinks an event
// reaches. It also carries the ids that stamp every journal line built
// from it; a scope narrows them on its own copy.
// All sinks default to null; instrumented code calls the helpers
// unconditionally and pays one pointer test per sink when none is attached
// (the null fast path the bench guard in bench/micro_obs.cpp pins down).

#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace qsimec::obs {

struct Context {
  Tracer* tracer{nullptr};
  MetricsRegistry* metrics{nullptr};
  Journal* journal{nullptr};
  /// The always-on black box (obs/flight_recorder.hpp): span begin/end,
  /// journal-event names, gauge samples, and flow marks land in per-thread
  /// rings that postmortem dumps read on the failure paths, and the DD
  /// package keeps its thread's live-state cells current for the watchdog,
  /// the postmortems and the Sampler.
  FlightRecorder* flight{nullptr};
  /// Correlation ids, written after a journal line's header when set: the
  /// daemon request, the batch pair's manifest index, the worker lane.
  std::optional<std::uint64_t> requestId{};
  std::optional<std::uint64_t> pairId{};
  std::optional<std::uint64_t> lane{};

  void count(std::string_view name, std::uint64_t delta = 1) const {
    if (metrics != nullptr) {
      metrics->add(name, delta);
    }
  }
  void gauge(std::string_view name, double value) const {
    if (metrics != nullptr) {
      metrics->set(name, value);
    }
  }
  void observe(std::string_view name, double value) const {
    if (metrics != nullptr) {
      metrics->observe(name, value);
    }
  }
  /// Journal-line builder with this Context's ids; no-op (no clock read, no
  /// allocation) when no journal is attached. The event name is mirrored
  /// into the flight recorder so postmortems see journal activity even
  /// when the journal itself sinks to a file that died with the process.
  [[nodiscard]] JournalEvent log(JournalLevel level,
                                 std::string_view event) const {
    if (flight != nullptr) {
      flight->record(FlightEventKind::Journal, event,
                     static_cast<std::int64_t>(level));
    }
    return JournalEvent(*this, level, event);
  }
  /// Deterministic flow milestone (stage entry, verdict): recorded only by
  /// the flow's calling thread, so the Mark stream is identical across
  /// worker counts — the redacted-dump determinism contract rests on it.
  void flightMark(std::string_view name, std::int64_t a = 0,
                  std::int64_t b = 0) const noexcept {
    if (flight != nullptr) {
      flight->record(FlightEventKind::Mark, name, a, b);
    }
  }
};

/// RAII span: opens on construction, closes on destruction, in every span
/// sink the context carries — a Tracer span (with its args) and matching
/// span_begin/span_end flight-ring events (the name is copied into a fixed
/// buffer so the end event survives the caller's string). With neither
/// attached every member is a pointer test.
class ScopedSpan {
public:
  ScopedSpan(const Context& obs, std::string_view name,
             std::string_view category)
      : tracer_(obs.tracer), flight_(obs.flight) {
    if (tracer_ != nullptr) {
      index_ = tracer_->beginSpan(name, category);
    }
    if (flight_ != nullptr) {
      const std::size_t n = std::min(name.size(), sizeof(name_) - 1);
      name.copy(name_, n);
      name_[n] = '\0';
      flight_->record(FlightEventKind::SpanBegin, {name_, n});
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->endSpan(index_);
    }
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::SpanEnd, name_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) {
      tracer_->argString(index_, key, value);
    }
  }
  void arg(std::string_view key, double value) {
    if (tracer_ != nullptr) {
      tracer_->argNumber(index_, key, value);
    }
  }
  void arg(std::string_view key, std::uint64_t value) {
    if (tracer_ != nullptr) {
      tracer_->argNumber(index_, key, value);
    }
  }

private:
  Tracer* tracer_;
  FlightRecorder* flight_;
  std::size_t index_{0};
  char name_[FlightRecorder::kNameCapacity + 1]{};
};

} // namespace qsimec::obs
