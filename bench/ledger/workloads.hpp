// The four workloads of the layer ledger (bench/ledger/README.md says why
// each exists). All are closed loops with one client: the next op starts
// when the previous one has returned.
//
//   check-equivalent     one op = parse a Table Ib pair + EquivalenceChecking-
//                        Flow::run; every pair runs all stimuli and the
//                        complete check
//   check-nonequivalent  seven of those pairs with one replaced gate in G'
//                        per op; 99% of ops end at the first stimulus
//   batch-cold           one op = one BatchScheduler::run pass (2 threads,
//                        fresh verdict cache) over the 312-pair manifest
//   daemon-warm          one op = one 13-pair submit to an in-process daemon
//                        whose cache already holds every verdict

#pragma once

#include "recorder.hpp"

#include "obs/metrics.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace qsimec::ledger {

inline constexpr std::string_view kWorkloadNames[] = {
    "check-equivalent", "check-nonequivalent", "batch-cold", "daemon-warm"};

/// What the ops of one run did: their latencies, CPU time and verdict
/// checks.
struct OpLog {
  std::uint64_t ops{0};
  std::vector<double> latencies; // seconds, one per timed op
  double cpuSeconds{0.0};        // user + system over the timed ops
  std::uint64_t pairs{0};
  /// Ops with an inconclusive, timed-out, stalled or rejected outcome.
  std::uint64_t failed{0};
  /// Verdicts contradicting how the pair was built (each reported on
  /// stderr with its pair and seed).
  std::uint64_t wrong{0};
};

/// Thrown when set-up itself meets a wrong verdict (the daemon's priming
/// pass); the ledger exits 1.
class WrongVerdict : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Build every input from the seed, and the reference verdicts where the
  /// workload needs them. Untimed; runs once, first.
  virtual void prepare() = 0;

  /// The program calls made once before the first op (loading the pairs
  /// and building the flow; loading the manifest; constructing and
  /// starting the daemon on a cache file). Returns their seconds, which are
  /// reported as setup_s; runs several times.
  [[nodiscard]] virtual double setup() = 0;

  /// Run the ops of round `index`, timing each one into `log`.
  virtual void round(std::size_t index, OpLog& log) = 0;

  /// Round 0 again, traced: per op, the direct calls into each layer in the
  /// order of the flow's staged path, and the end-to-end call on the same
  /// op, in an order that rotates with `round` (the `round`-th traced
  /// round). Spans go to `spans`; returns the round's per-layer metrics.
  [[nodiscard]] virtual obs::MetricsSnapshot
  tracedRound(std::size_t round, SpanRecorder& spans, OpLog& log) = 0;
};

/// The workload called `name` at `seed`, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(std::string_view name,
                                                     std::uint64_t seed);

} // namespace qsimec::ledger
