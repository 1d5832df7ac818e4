// Structured run journal: one JSON object per line (JSONL).
//
// Where the Tracer answers "where did the time go" after the fact, the
// Journal is the narrative record of *what happened*: flow stage
// transitions, per-stimulus verdicts, race-mode cancellations, DD garbage
// collections. Every line is a self-contained JSON object with a fixed
// header (`ts_micros` against a steady-clock epoch, `level`, `event`)
// followed by the emitter's fields in call order — so identical event
// sequences serialize with identical key order, and `grep '"event":"sim.stimulus"'
// over a journal file is a stable interface.
//
// The ids the obs::Context carries follow the header as `request_id`,
// `pair_id` and `lane`. A journal only streams: it keeps no line in memory.
//
// Thread safety: committing a line takes a mutex (workers of the parallel
// portfolio and the race-mode complete checker share one journal); building
// a line is lock-free on the emitting thread. The null fast path mirrors
// ScopedSpan: a Context's journal may be null, and a JournalEvent built
// against a Context without one skips the clock read, the ids and all
// string work — one pointer test, guarded by bench/micro_obs.cpp.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace qsimec::obs {

enum class JournalLevel { Debug, Info, Warn, Error };

[[nodiscard]] constexpr std::string_view toString(JournalLevel l) noexcept {
  switch (l) {
  case JournalLevel::Debug:
    return "debug";
  case JournalLevel::Info:
    return "info";
  case JournalLevel::Warn:
    return "warn";
  case JournalLevel::Error:
    return "error";
  }
  return "?";
}

class Journal;
struct Context;

/// Builder for one journal line against the journal and ids of `obs`
/// (usually via Context::log; a no-op without a journal). Fields append in
/// call order; the destructor commits the finished line.
class JournalEvent {
public:
  JournalEvent(const Context& obs, JournalLevel level, std::string_view name);
  ~JournalEvent();
  JournalEvent(const JournalEvent&) = delete;
  JournalEvent& operator=(const JournalEvent&) = delete;

  JournalEvent& str(std::string_view key, std::string_view value);
  JournalEvent& num(std::string_view key, double value);
  JournalEvent& num(std::string_view key, std::uint64_t value);
  JournalEvent& flag(std::string_view key, bool value);

private:
  Journal* journal_;
  std::string line_;
};

class Journal {
public:
  using Clock = std::chrono::steady_clock;

  Journal() : epoch_(Clock::now()) {}

  /// Write every committed line to `os` (newline-terminated, flushed per
  /// line so a crash loses at most the line being written); without a
  /// stream a line is only counted. The journal never owns the stream; it
  /// must outlive the journal or be detached with nullptr first.
  void streamTo(std::ostream* os) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stream_ = os;
  }

  /// Lines committed so far.
  [[nodiscard]] std::size_t lineCount() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lineCount_;
  }

private:
  friend class JournalEvent;

  [[nodiscard]] double nowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void commit(const std::string& line);

  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::size_t lineCount_{0};
  std::ostream* stream_{nullptr};
};

} // namespace qsimec::obs
