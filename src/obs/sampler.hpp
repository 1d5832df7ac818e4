// Time-series sampling of live state on a background thread.
//
// The Tracer and MetricsRegistry capture end-of-run aggregates; the Sampler
// captures the *trajectory* — DD node population, unique-table fill,
// process RSS, stimuli completed — by polling registered probes from its own
// std::jthread at a fixed period while the check runs. Samples land in
// per-probe series, exportable as CSV and (when a Tracer is attached)
// mirrored into the trace as Chrome "C" counter events so Perfetto renders
// counter tracks beneath the `flow`/`checker.*` spans.
//
// Thread safety: probes are called from the sampler thread concurrently
// with the instrumented computation, so a probe must only read data that is
// safe to read cross-thread — in practice relaxed atomics. The DD probes
// read the flight recorder's per-thread cells (obs/flight_recorder.hpp),
// which every attached dd::Package refreshes from its interrupt poll and
// after each GC. Nothing here touches a hot path: a computation with no
// recorder attached pays one pointer test per poll.

#pragma once

#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qsimec::obs {

/// Resident-set size of this process in bytes (Linux: VmRSS from
/// /proc/self/status; 0 where unavailable). Safe to call from any thread —
/// the canonical process-level Sampler probe.
[[nodiscard]] double processRssBytes();

class Sampler {
public:
  struct Options {
    /// Poll period. The default keeps even sub-second checks at a few dozen
    /// samples; raise it for hour-long runs.
    std::chrono::milliseconds period{20};
    /// Hard cap per series so a forgotten sampler cannot grow unbounded
    /// (at the default period this is ~5.8 h of samples).
    std::size_t maxSamplesPerSeries{1U << 20U};
  };

  struct Sample {
    /// Microseconds since start() (the sampler's own epoch; the Tracer
    /// mirror uses the tracer's epoch instead so counters align with spans).
    double tsMicros{};
    double value{};
  };
  struct Series {
    std::string name;
    std::vector<Sample> samples;
  };

  Sampler() = default;
  explicit Sampler(Options options) : options_(options) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Register a probe polled once per period. Must be called before
  /// start(); the probe must be safe to call from the sampler thread while
  /// the instrumented computation runs (read atomics, not plain state).
  void addProbe(std::string name, std::function<double()> probe);

  /// Register the standard probes over `recorder`'s in-use thread slots
  /// that a package has published into: dd.nodes_live (their live nodes,
  /// summed) and dd.unique_fill (live / allocated, pooled across them), plus
  /// process.rss_bytes. The recorder must outlive the sampling.
  void addFlightProbes(const FlightRecorder& recorder);

  /// Mirror every sample into `tracer` as a Chrome "C" counter event. Call
  /// before start(); pass nullptr to detach.
  void attachTracer(Tracer* tracer) { tracer_ = tracer; }

  /// Launch the sampling thread. No-op when already running or when no
  /// probes are registered.
  void start();
  /// Take one final sample, stop the thread, join. Idempotent.
  void stop();
  [[nodiscard]] bool running() const noexcept { return thread_.joinable(); }

  /// The recorded series, one per probe in registration order. Only read
  /// after stop().
  [[nodiscard]] const std::vector<Series>& series() const noexcept {
    return series_;
  }
  /// Total samples across all series (thread-safe, approximate while
  /// running).
  [[nodiscard]] std::size_t sampleCount() const noexcept {
    return sampleCount_.load(std::memory_order_relaxed);
  }

  /// `ts_micros,probe,value` rows (header included), one per sample, series
  /// in registration order. Only call after stop().
  [[nodiscard]] std::string toCsv() const;
  /// Write toCsv() to `path` (throws std::runtime_error on I/O failure).
  void writeCsv(const std::string& path) const;

private:
  void sampleOnce(double tsMicros);
  void run(const std::stop_token& stop);

  Options options_;
  std::vector<std::function<double()>> probes_;
  std::vector<Series> series_;
  Tracer* tracer_{nullptr};
  std::atomic<std::size_t> sampleCount_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::mutex wakeMutex_;
  std::condition_variable_any wake_;
  std::jthread thread_;
};

} // namespace qsimec::obs
