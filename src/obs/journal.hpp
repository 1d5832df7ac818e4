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
// Thread safety: committing a line takes a mutex (workers of the parallel
// portfolio and the race-mode complete checker share one journal); building
// a line is lock-free on the emitting thread. The null fast path mirrors
// ScopedSpan: every instrumentation site holds a `Journal*` that may be
// null, and a JournalEvent built against null skips the clock read and all
// string work — one pointer test, guarded by bench/micro_obs.cpp.

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

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

/// Builder for one journal line. Obtained from Journal::event (or
/// constructed against nullptr for the no-op fast path); fields append in
/// call order; the destructor commits the finished line.
class JournalEvent {
public:
  JournalEvent(Journal* journal, JournalLevel level, std::string_view name);
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

  /// With `keepLines` false the journal keeps no line in memory: lines
  /// only reach the stream, so a long-lived process (the daemon) does not
  /// grow with every event it logs.
  explicit Journal(bool keepLines = true)
      : epoch_(Clock::now()), keepLines_(keepLines) {}

  /// Start a line: `{"ts_micros":...,"level":...,"event":...` plus whatever
  /// fields the returned builder appends. Committed when the builder dies.
  [[nodiscard]] JournalEvent event(JournalLevel level,
                                   std::string_view name) {
    return JournalEvent(this, level, name);
  }

  /// Mirror every committed line into `os` (newline-terminated, flushed per
  /// line so a crash loses at most the line being written). The journal
  /// never owns the stream; it must outlive the journal or be detached with
  /// nullptr first.
  void streamTo(std::ostream* os) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stream_ = os;
  }

  /// Lines kept in memory (all committed lines unless `keepLines` was off).
  [[nodiscard]] std::size_t lineCount() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_.size();
  }
  /// Copy of the committed lines (without trailing newlines).
  [[nodiscard]] std::vector<std::string> lines() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }
  /// All lines joined with '\n' (trailing newline included when non-empty).
  [[nodiscard]] std::string dump() const;

private:
  friend class JournalEvent;

  [[nodiscard]] double nowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void commit(std::string line);

  Clock::time_point epoch_;
  bool keepLines_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
  std::ostream* stream_{nullptr};
};

} // namespace qsimec::obs
