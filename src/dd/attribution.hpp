// Per-gate cost attribution: which gate applications made the decision
// diagram grow.
//
// The paper's central observation is that equivalence checking lives or dies
// by the size of the *intermediate* DD — the alternating strategies win by
// keeping it near-identity. The package-level profile (dd/stats.hpp) only
// reports totals; the AttributionCollector here prices each individual gate
// application by diffing Package::costCounters() around it: live-node delta
// (growth caused, net of any GC the application triggered), unique/compute
// table traffic, and wall nanoseconds.
//
// Determinism contract: every counter except wallNanos is a pure function
// of the operation sequence executed on the package since its last
// resetComputationState(). The unique/compute tables hash stable serial
// ids (vNode::id, RealEntry::id), never addresses, so even the cache
// hit/eviction patterns — and with them transient node creation and GC
// timing — replay identically across processes and thread counts.
// wallNanos depends on scheduling; the checkers' redacted serialization
// drops it, plus (for schema stability with earlier recordings) the
// unique/compute table counters (see docs/profiling.md).
//
// Cost model: the collector is only consulted when attribution is enabled;
// a disabled checker holds a null collector pointer and pays one pointer
// test per gate (guarded by bench/micro_obs.cpp). Enabled, each gate costs
// two counter-block reads and two steady_clock reads.

#pragma once

#include "dd/stats.hpp"

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace qsimec::dd {

class Package;

/// Which gate stream an attributed application consumed: G (left) or G'
/// (right). The alternating checker applies left gates as DD(g)·M and right
/// gates as M·DD(g')†; the simulation portfolio simulates G as left and G'
/// as right.
enum class AttrSide : std::uint8_t { Left, Right };

[[nodiscard]] constexpr std::string_view toString(AttrSide s) noexcept {
  switch (s) {
  case AttrSide::Left:
    return "left";
  case AttrSide::Right:
    return "right";
  }
  return "?";
}

/// Aggregated cost of one gate (side + index into that side's elementary
/// gate stream), summed over however often it was applied — once in the
/// alternating checker, once per stimulus run in the portfolio.
struct GateCostSample {
  AttrSide side{AttrSide::Left};
  std::uint32_t gateIndex{};
  std::uint32_t applications{};
  /// Live-node change across the application (multiply + ref swap + GC):
  /// positive = the DD grew, negative = it collapsed.
  std::int64_t nodesDelta{};
  std::uint64_t uniqueLookups{};
  std::uint64_t uniqueHits{};
  std::uint64_t computeLookups{};
  std::uint64_t computeHits{};
  /// Wall time of the application. The only non-deterministic field —
  /// redacted by the byte-identity serialization mode.
  std::uint64_t wallNanos{};
};

/// Everything a finished collection run carries: dense per-gate samples
/// plus the run-level aggregates. Plain data, mergeable — the portfolio
/// merges one of these per stimulus run (logical prefix order) into the
/// final profile.
struct AttributionData {
  /// All samples with applications > 0, side-major (left before right),
  /// ascending gate index within a side.
  std::vector<GateCostSample> samples;
  std::uint64_t gatesApplied{};
  std::int64_t nodesDeltaTotal{};
  /// Live nodes when the first measured gate began (the trajectory base the
  /// per-gate deltas sum up from).
  std::int64_t nodesLiveStart{};
  /// Largest live-node count observed right after any measured gate.
  std::uint64_t peakNodesLive{};
  std::uint64_t wallNanosTotal{};

  [[nodiscard]] bool empty() const noexcept { return gatesApplied == 0; }

  /// Pool another run's data in: samples aggregate by (side, gateIndex),
  /// totals add, the peak takes the maximum. Keeps the side-major order.
  void mergeFrom(const AttributionData& other);
};

/// Collects GateCostSamples around gate applications on one Package. Usage:
/// beginGate() immediately before the apply, endGate(side, index)
/// immediately after (including the incRef/decRef swap and the amortized
/// garbageCollect() call, so reclaimed growth nets out). take() yields the
/// accumulated AttributionData and resets the collector for the next run.
class AttributionCollector {
public:
  explicit AttributionCollector(const Package& pkg) : pkg_(&pkg) {}

  void beginGate() noexcept;
  void endGate(AttrSide side, std::uint32_t gateIndex);

  /// Finished data, side-major/index-sorted; the collector is reset.
  [[nodiscard]] AttributionData take();

private:
  const Package* pkg_;
  CostCounters before_{};
  std::chrono::steady_clock::time_point startedAt_{};
  bool started_{false};
  bool sawFirstGate_{false};
  std::vector<GateCostSample> left_;
  std::vector<GateCostSample> right_;
  std::uint64_t gatesApplied_{0};
  std::int64_t nodesDeltaTotal_{0};
  std::int64_t nodesLiveStart_{0};
  std::uint64_t peakNodesLive_{0};
  std::uint64_t wallNanosTotal_{0};
};

} // namespace qsimec::dd
