// The always-on flight recorder: bounded-overhead black-box diagnostics for
// the runs that never get to write a report.
//
// Every observability sink so far (tracer, journal, metrics, live gauges)
// assumes the run finishes cleanly enough to export. The FlightRecorder is
// the opposite bet: it continuously captures a compact binary form of what
// just happened — span begin/end, journal event names, DD gauge samples, GC
// pauses, the gate indices the alternating checker is consuming — into
// lock-free per-thread ring buffers of fixed capacity, drop-oldest. When a
// run times out, stalls, is cancelled, or dies on a fatal signal, the
// postmortem module (obs/postmortem.hpp) merges the rings by global
// sequence number into a `qsimec-postmortem-v1` JSONL dump.
//
// Concurrency model: each thread registers (lazily, on first record) for a
// private ring; the writer side is wait-free — one relaxed fetch_add on the
// global sequence counter plus plain stores into the thread's own slot,
// published with one release store of the ring head. Readers (the watchdog,
// the postmortem renderer, the async-signal-safe handler) only load atomics
// and copy POD events, so a dump can be taken from any thread at any time;
// events overwritten mid-copy are detectable by their sequence numbers.
//
// Cost contract, guarded by bench/micro_obs.cpp: a null `FlightRecorder*`
// in obs::Context costs one pointer test per instrumentation site; an
// active recorder stays within ~20 ns per recorded event (one TLS lookup,
// one coarse-clock read, one relaxed fetch_add, a 64-byte slot write). The
// clock is CLOCK_MONOTONIC_COARSE where available — kernel-tick resolution
// (a few ms), which is plenty for stall detection and event timelines but
// far cheaper than a fine clock read per event. The
// heartbeat paths (`beat`, `pollBeat`, `noteGate`) skip the ring entirely —
// a clock read plus relaxed stores — because the DD interrupt poll calls
// them every 1024 steps.
//
// The Watchdog is the consumer of the heartbeat side: a std::jthread that
// scans registered watch entries every few tens of milliseconds and
// declares a worker stalled once its heartbeat has been quiet for a
// configurable period (or a hard wall deadline passed), invoking the
// entry's callback off-lock so it may journal, dump, and cancel.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace qsimec::obs {

/// What one ring event describes. Values are part of the dump schema
/// (rendered as snake_case strings by toString below) — append, never
/// renumber.
enum class FlightEventKind : std::uint8_t {
  SpanBegin = 0, ///< a ScopedSpan opened (a = 0, b = 0)
  SpanEnd = 1,   ///< a ScopedSpan closed
  Journal = 2,   ///< a journal event committed (a = JournalLevel)
  Gauge = 3,     ///< DD gauge sample (a = live nodes, b = unique fill, ppm)
  Gc = 4,        ///< DD garbage collection (a = nodes reclaimed, b = micros)
  Gate = 5,      ///< checker consumed a gate (a = index, b = 0 left/1 right)
  Mark = 6,      ///< deterministic flow milestone (stage entry, verdict)
};

[[nodiscard]] constexpr std::string_view toString(FlightEventKind k) noexcept {
  switch (k) {
  case FlightEventKind::SpanBegin:
    return "span_begin";
  case FlightEventKind::SpanEnd:
    return "span_end";
  case FlightEventKind::Journal:
    return "journal";
  case FlightEventKind::Gauge:
    return "gauge";
  case FlightEventKind::Gc:
    return "gc";
  case FlightEventKind::Gate:
    return "gate";
  case FlightEventKind::Mark:
    return "mark";
  }
  return "?";
}

class FlightRecorder {
public:
  /// Event names are truncated to this many bytes (the trailing byte of the
  /// fixed array stays NUL so the signal-safe dump path may strlen).
  static constexpr std::size_t kNameCapacity = 23;

  /// One recorded event: 64 bytes of PODs, written by exactly one thread,
  /// read by dumpers without synchronization beyond the ring head. No
  /// member initializers: ring cells are allocated uninitialized, and
  /// readers only touch cells below the head, which record() has written.
  struct Event {
    std::uint64_t seq;
    std::uint64_t tsMicros;
    std::int64_t a;
    std::int64_t b;
    std::uint8_t kind;
    char name[kNameCapacity + 1];
  };

  struct Options {
    /// Ring capacity per thread, rounded up to a power of two.
    std::size_t eventsPerThread{2048};
    /// Registered-thread slots; threads beyond this record nothing (their
    /// events count into eventsDropped()).
    std::size_t maxThreads{32};
  };

  /// Per-thread slot: the ring plus the last-known liveness/DD state the
  /// watchdog and postmortem read. Atomics are relaxed single-writer; the
  /// ring head is the only release/acquire edge.
  struct alignas(64) ThreadRing {
    std::atomic<std::uint64_t> head{0};
    std::atomic<std::uint64_t> lastBeatMicros{0};
    std::atomic<std::int64_t> nodesLive{-1};
    std::atomic<std::int64_t> uniqueFillPpm{-1};
    /// Gate indices the owning checker is currently consuming (the
    /// attribution window's position): -1 until the first noteGate.
    std::atomic<std::int64_t> gateLeft{-1};
    std::atomic<std::int64_t> gateRight{-1};
    std::atomic<bool> inUse{false};
    std::atomic<bool> everUsed{false};
    /// 0 = unset, 1 = being written, 2 = published (read label then).
    std::atomic<std::uint32_t> labelState{0};
    char label[24]{};
    /// Owner-thread-only poll counter (throttles Gauge ring events).
    std::uint32_t pollCount{0};
    /// `capacity` cells; a cell's page is first touched when it is written.
    std::unique_ptr<Event[]> events;
  };

  /// Fixed slot for "which pair was active" notes — written by normal code,
  /// readable from the signal handler (fixed NUL-terminated buffers
  /// published behind an atomic state).
  static constexpr std::size_t kMaxPairNotes = 16;
  struct PairNote {
    std::atomic<std::uint32_t> state{0}; // 0 free, 1 writing, 2 active
    char label[48]{};
    char fingerprint[40]{};
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options options);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event to the calling thread's ring (registering the thread
  /// on first use) and refresh its heartbeat. Wait-free; never throws.
  void record(FlightEventKind kind, std::string_view name, std::int64_t a = 0,
              std::int64_t b = 0) noexcept;

  /// Heartbeat only: stamp the calling thread's last-beat clock.
  void beat() noexcept;

  /// The DD interrupt-poll feed: heartbeat + last-known package state, plus
  /// a Gauge ring event every 64th call (so gauge samples don't evict the
  /// interesting events from the bounded ring).
  void pollBeat(std::int64_t nodesLive, std::int64_t uniqueFillPpm) noexcept;

  /// Publish the gate indices the calling checker is about to apply (-1 =
  /// that side exhausted). Relaxed stores only.
  void noteGate(std::int64_t left, std::int64_t right) noexcept;

  /// Label the calling thread's slot for dumps ("worker", "race.complete").
  void labelThread(std::string_view label) noexcept;

  /// Force-register the calling thread, beat once, and return its heartbeat
  /// cell for Watchdog::watch. Null when all slots are taken.
  [[nodiscard]] const std::atomic<std::uint64_t>* heartbeatSlot() noexcept;

  /// Microseconds since this recorder's steady-clock epoch (the time base
  /// of every event and heartbeat).
  [[nodiscard]] std::uint64_t nowMicros() const noexcept;

  // --- pair notes ----------------------------------------------------------

  /// Mark a pair active (label + fingerprint hex land in every dump taken
  /// while the note is held). Returns kMaxPairNotes when the table is full
  /// (the note is then silently dropped; clearPair ignores that id).
  [[nodiscard]] std::size_t notePair(std::string_view label,
                                     std::string_view fingerprintHex) noexcept;
  void clearPair(std::size_t id) noexcept;

  // --- dump-side accessors (any thread; async-signal-safe) ----------------

  [[nodiscard]] std::size_t slotCount() const noexcept { return maxThreads_; }
  [[nodiscard]] const ThreadRing& slot(std::size_t i) const noexcept {
    return slots_[i];
  }
  [[nodiscard]] std::size_t eventCapacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const PairNote& pairNote(std::size_t i) const noexcept {
    return pairNotes_[i];
  }

  /// Total events ever recorded (sum of ring heads).
  [[nodiscard]] std::uint64_t eventsRecorded() const noexcept;
  /// Events lost to drop-oldest overwrites plus events from threads that
  /// found every slot taken.
  [[nodiscard]] std::uint64_t eventsDropped() const noexcept;
  /// Thread slots ever claimed.
  [[nodiscard]] std::size_t threadsRegistered() const noexcept;

private:
  [[nodiscard]] ThreadRing* ringForThisThread() noexcept;
  [[nodiscard]] ThreadRing* acquireSlot() noexcept;

  std::uint64_t epochMicros_;
  /// Process-unique identity of this recorder instance. The per-thread ring
  /// cache and the live-recorder registry key on this, never on `this`: a
  /// recorder constructed at a freed recorder's address must not revive the
  /// old cache entries (classic ABA).
  std::uint64_t id_;
  std::size_t maxThreads_;
  std::size_t capacity_; // power of two
  std::uint64_t mask_;
  std::unique_ptr<ThreadRing[]> slots_;
  std::unique_ptr<PairNote[]> pairNotes_;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> droppedUnregistered_{0};
};

/// The stall watchdog: one scanning jthread over registered heartbeat
/// cells. A watch entry fires at most once — when its heartbeat has been
/// quiet longer than `quietSeconds`, or `deadlineSeconds` of wall time
/// passed — and the callback runs on the watchdog thread with no lock held,
/// so it may journal, write a postmortem dump, set cancel flags, or call
/// watch/unwatch itself.
class Watchdog {
public:
  struct Options {
    /// Scan period. Stall detection latency is one period past the quiet
    /// window; 50 ms keeps test quiet-windows of a few hundred ms honest.
    std::chrono::milliseconds period{50};
  };

  struct StallInfo {
    std::uint64_t id{0};
    std::string label;
    /// "quiet" (heartbeat silence) or "deadline" (hard wall limit).
    std::string reason;
    std::uint64_t heartbeatAgeMicros{0};
    std::uint64_t runMicros{0};
  };
  using StallFn = std::function<void(const StallInfo&)>;

  /// The recorder supplies the clock heartbeats are stamped against.
  explicit Watchdog(const FlightRecorder& clock)
      : Watchdog(clock, Options{}) {}
  Watchdog(const FlightRecorder& clock, Options options);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Register a watch. `heartbeatMicros` must stay valid until unwatch (it
  /// lives in the recorder's thread slots, which outlive the watchdog in
  /// every integration). quietSeconds/deadlineSeconds <= 0 disable that
  /// trigger. Returns the entry id.
  std::uint64_t watch(std::string label,
                      const std::atomic<std::uint64_t>* heartbeatMicros,
                      double quietSeconds, double deadlineSeconds,
                      StallFn onStall);
  void unwatch(std::uint64_t id);

  [[nodiscard]] std::uint64_t stallsDeclared() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

private:
  struct Entry {
    std::uint64_t id{0};
    std::string label;
    const std::atomic<std::uint64_t>* heartbeat{nullptr};
    std::uint64_t startMicros{0};
    std::uint64_t quietMicros{0};
    std::uint64_t deadlineMicros{0};
    bool fired{false};
    StallFn onStall;
  };

  void loop(const std::stop_token& st);

  const FlightRecorder* clock_;
  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable_any cv_;
  std::vector<Entry> entries_;
  std::uint64_t nextId_{1};
  std::atomic<std::uint64_t> stalls_{0};
  std::jthread thread_; // last member: runs loop() over the fields above
};

} // namespace qsimec::obs
