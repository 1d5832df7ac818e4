#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <unordered_set>

namespace qsimec::obs {

namespace {

/// Monotonic microseconds since an arbitrary origin. The coarse clock costs
/// a few ns per read (vs ~25 ns for the fine one) at kernel-tick resolution
/// — the right trade for a per-event timestamp whose consumers (watchdog
/// quiet periods, postmortem timelines) work in tens of milliseconds. Event
/// *order* never depends on it; the global sequence number carries that.
std::uint64_t absoluteMicros() noexcept {
#if defined(__linux__) && defined(CLOCK_MONOTONIC_COARSE)
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC_COARSE, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1U;
  }
  return p;
}

// Live-recorder registry: a thread's cached ring pointer may outlive the
// recorder it belongs to (worker threads can outlive a short-lived
// recorder, and the main thread caches across recorder instances in
// tests). The thread-exit destructor and slot switches only dereference a
// cached ring after confirming its owner is still alive, under this mutex.
std::mutex& registryMutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<std::uint64_t>& liveRecorders() {
  // leaked intentionally: thread-exit destructors may run after static
  // teardown of this translation unit would have destroyed a plain member
  static auto* live = new std::unordered_set<std::uint64_t>();
  return *live;
}

/// Identity for recorder instances; never reused, so a recorder constructed
/// at a destroyed recorder's address cannot match its stale cache entries.
std::uint64_t nextRecorderId() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void releaseRing(std::uint64_t owner, FlightRecorder::ThreadRing* ring) {
  if (ring == nullptr) {
    return;
  }
  const std::lock_guard<std::mutex> lock(registryMutex());
  if (liveRecorders().count(owner) != 0) {
    ring->inUse.store(false, std::memory_order_release);
  }
}

struct TlsRef {
  std::uint64_t owner{0};
  FlightRecorder::ThreadRing* ring{nullptr};
  ~TlsRef() { releaseRing(owner, ring); }
};

thread_local TlsRef tRing; // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

void copyBounded(char* dst, std::size_t dstSize, std::string_view src) {
  const std::size_t n = std::min(src.size(), dstSize - 1);
  std::memcpy(dst, src.data(), n);
  std::memset(dst + n, 0, dstSize - n);
}

} // namespace

FlightRecorder::FlightRecorder(Options options)
    : epochMicros_(absoluteMicros()), id_(nextRecorderId()),
      maxThreads_(std::max<std::size_t>(options.maxThreads, 1)),
      capacity_(roundUpPow2(std::max<std::size_t>(options.eventsPerThread, 8))),
      mask_(capacity_ - 1), slots_(std::make_unique<ThreadRing[]>(maxThreads_)),
      pairNotes_(std::make_unique<PairNote[]>(kMaxPairNotes)) {
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    slots_[i].events = std::make_unique_for_overwrite<Event[]>(capacity_);
  }
  const std::lock_guard<std::mutex> lock(registryMutex());
  liveRecorders().insert(id_);
}

FlightRecorder::~FlightRecorder() {
  const std::lock_guard<std::mutex> lock(registryMutex());
  liveRecorders().erase(id_);
}

std::uint64_t FlightRecorder::nowMicros() const noexcept {
  const std::uint64_t abs = absoluteMicros();
  return abs > epochMicros_ ? abs - epochMicros_ : 0;
}

FlightRecorder::ThreadRing* FlightRecorder::acquireSlot() noexcept {
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    bool expected = false;
    if (!slots_[i].inUse.load(std::memory_order_relaxed) &&
        slots_[i].inUse.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
      ThreadRing& ring = slots_[i];
      // a reused slot keeps its event history (still part of the flight)
      // but sheds the previous owner's identity and DD state
      ring.nodesLive.store(-1, std::memory_order_relaxed);
      ring.uniqueFillPpm.store(-1, std::memory_order_relaxed);
      ring.gateLeft.store(-1, std::memory_order_relaxed);
      ring.gateRight.store(-1, std::memory_order_relaxed);
      ring.labelState.store(0, std::memory_order_relaxed);
      ring.pollCount = 0;
      ring.everUsed.store(true, std::memory_order_relaxed);
      ring.lastBeatMicros.store(nowMicros(), std::memory_order_relaxed);
      return &ring;
    }
  }
  return nullptr;
}

FlightRecorder::ThreadRing* FlightRecorder::ringForThisThread() noexcept {
  if (tRing.owner == id_) {
    return tRing.ring;
  }
  releaseRing(tRing.owner, tRing.ring);
  tRing.owner = id_;
  tRing.ring = acquireSlot();
  return tRing.ring;
}

void FlightRecorder::record(FlightEventKind kind, std::string_view name,
                            std::int64_t a, std::int64_t b) noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring == nullptr) {
    droppedUnregistered_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t ts = nowMicros();
  ring->lastBeatMicros.store(ts, std::memory_order_relaxed);
  const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
  Event& e = ring->events[h & mask_];
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  e.tsMicros = ts;
  e.a = a;
  e.b = b;
  e.kind = static_cast<std::uint8_t>(kind);
  copyBounded(e.name, sizeof(e.name), name);
  ring->head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::beat() noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring != nullptr) {
    ring->lastBeatMicros.store(nowMicros(), std::memory_order_relaxed);
  }
}

void FlightRecorder::pollBeat(std::int64_t nodesLive,
                              std::int64_t uniqueFillPpm, bool beat) noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring == nullptr) {
    return;
  }
  ring->nodesLive.store(nodesLive, std::memory_order_relaxed);
  ring->uniqueFillPpm.store(uniqueFillPpm, std::memory_order_relaxed);
  if (!beat) {
    return;
  }
  ring->lastBeatMicros.store(nowMicros(), std::memory_order_relaxed);
  if ((ring->pollCount++ & 63U) == 0) {
    record(FlightEventKind::Gauge, "dd.gauges", nodesLive, uniqueFillPpm);
  }
}

void FlightRecorder::noteGate(std::int64_t left, std::int64_t right) noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring == nullptr) {
    return;
  }
  ring->gateLeft.store(left, std::memory_order_relaxed);
  ring->gateRight.store(right, std::memory_order_relaxed);
}

void FlightRecorder::labelThread(std::string_view label) noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring == nullptr) {
    return;
  }
  ring->labelState.store(1, std::memory_order_relaxed);
  copyBounded(ring->label, sizeof(ring->label), label);
  ring->labelState.store(2, std::memory_order_release);
}

const std::atomic<std::uint64_t>* FlightRecorder::heartbeatSlot() noexcept {
  ThreadRing* ring = ringForThisThread();
  if (ring == nullptr) {
    return nullptr;
  }
  ring->lastBeatMicros.store(nowMicros(), std::memory_order_relaxed);
  return &ring->lastBeatMicros;
}

std::size_t FlightRecorder::notePair(std::string_view label,
                                     std::string_view fingerprintHex) noexcept {
  for (std::size_t i = 0; i < kMaxPairNotes; ++i) {
    std::uint32_t expected = 0;
    if (pairNotes_[i].state.compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel)) {
      copyBounded(pairNotes_[i].label, sizeof(pairNotes_[i].label), label);
      copyBounded(pairNotes_[i].fingerprint, sizeof(pairNotes_[i].fingerprint),
                  fingerprintHex);
      pairNotes_[i].state.store(2, std::memory_order_release);
      return i;
    }
  }
  return kMaxPairNotes;
}

void FlightRecorder::clearPair(std::size_t id) noexcept {
  if (id < kMaxPairNotes) {
    pairNotes_[id].state.store(0, std::memory_order_release);
  }
}

std::uint64_t FlightRecorder::eventsRecorded() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    total += slots_[i].head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t FlightRecorder::eventsDropped() const noexcept {
  std::uint64_t dropped = droppedUnregistered_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    const std::uint64_t h = slots_[i].head.load(std::memory_order_relaxed);
    if (h > capacity_) {
      dropped += h - capacity_;
    }
  }
  return dropped;
}

std::size_t FlightRecorder::threadsRegistered() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    if (slots_[i].everUsed.load(std::memory_order_relaxed)) {
      ++n;
    }
  }
  return n;
}

std::vector<FlightRecorder::HeartbeatAge>
FlightRecorder::heartbeatAges() const {
  std::vector<HeartbeatAge> ages;
  const std::uint64_t now = nowMicros();
  for (std::size_t i = 0; i < maxThreads_; ++i) {
    if (!slots_[i].everUsed.load(std::memory_order_relaxed)) {
      continue;
    }
    const std::uint64_t beat =
        slots_[i].lastBeatMicros.load(std::memory_order_relaxed);
    ages.push_back(HeartbeatAge{i, now > beat ? now - beat : 0});
  }
  return ages;
}

// --- Watchdog ---------------------------------------------------------------

Watchdog::Watchdog(const FlightRecorder& clock)
    : clock_(&clock),
      thread_([this](const std::stop_token& st) { loop(st); }) {}

Watchdog::~Watchdog() {
  thread_.request_stop();
  cv_.notify_all();
}

std::uint64_t Watchdog::watch(std::string label,
                              const std::atomic<std::uint64_t>* heartbeatMicros,
                              double quietSeconds, double deadlineSeconds,
                              StallFn onStall) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry entry;
  entry.id = nextId_++;
  entry.label = std::move(label);
  entry.heartbeat = heartbeatMicros;
  entry.startMicros = clock_->nowMicros();
  entry.quietMicros = quietSeconds > 0
                          ? static_cast<std::uint64_t>(quietSeconds * 1e6)
                          : 0;
  entry.deadlineMicros =
      deadlineSeconds > 0 ? static_cast<std::uint64_t>(deadlineSeconds * 1e6)
                          : 0;
  entry.onStall = std::move(onStall);
  const std::uint64_t id = entry.id;
  entries_.push_back(std::move(entry));
  return id;
}

void Watchdog::unwatch(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
}

void Watchdog::loop(const std::stop_token& st) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!st.stop_requested()) {
    cv_.wait_for(lock, st, kScanPeriod, [] { return false; });
    if (st.stop_requested()) {
      return;
    }
    const std::uint64_t now = clock_->nowMicros();
    std::vector<std::pair<StallFn, StallInfo>> fired;
    for (Entry& e : entries_) {
      if (e.fired || e.heartbeat == nullptr) {
        continue;
      }
      const std::uint64_t beat =
          std::max(e.startMicros, e.heartbeat->load(std::memory_order_relaxed));
      const std::uint64_t age = now > beat ? now - beat : 0;
      const std::uint64_t run = now > e.startMicros ? now - e.startMicros : 0;
      const char* reason = nullptr;
      if (e.quietMicros > 0 && age > e.quietMicros) {
        reason = "quiet";
      } else if (e.deadlineMicros > 0 && run > e.deadlineMicros) {
        reason = "deadline";
      }
      if (reason != nullptr) {
        e.fired = true;
        stalls_.fetch_add(1, std::memory_order_relaxed);
        if (e.onStall) {
          fired.emplace_back(e.onStall,
                             StallInfo{e.id, e.label, reason, age, run});
        }
      }
    }
    if (!fired.empty()) {
      lock.unlock();
      for (auto& [fn, info] : fired) {
        fn(info);
      }
      lock.lock();
    }
  }
}

} // namespace qsimec::obs
