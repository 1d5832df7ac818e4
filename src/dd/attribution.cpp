#include "dd/attribution.hpp"

#include "dd/package.hpp"

#include <algorithm>
#include <utility>

namespace qsimec::dd {

void AttributionData::mergeFrom(const AttributionData& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    nodesLiveStart = other.nodesLiveStart;
  }
  gatesApplied += other.gatesApplied;
  nodesDeltaTotal += other.nodesDeltaTotal;
  peakNodesLive = std::max(peakNodesLive, other.peakNodesLive);
  wallNanosTotal += other.wallNanosTotal;

  // merge-join on (side, gateIndex): both inputs are side-major and
  // index-sorted with one sample per key, so one linear pass keeps the
  // invariant
  const auto key = [](const GateCostSample& s) {
    return std::make_pair(static_cast<std::uint8_t>(s.side), s.gateIndex);
  };
  std::vector<GateCostSample> merged;
  merged.reserve(samples.size() + other.samples.size());
  auto mine = samples.begin();
  auto theirs = other.samples.begin();
  while (mine != samples.end() || theirs != other.samples.end()) {
    if (theirs == other.samples.end() ||
        (mine != samples.end() && key(*mine) < key(*theirs))) {
      merged.push_back(*mine++);
    } else if (mine == samples.end() || key(*theirs) < key(*mine)) {
      merged.push_back(*theirs++);
    } else {
      GateCostSample sum = *mine++;
      const GateCostSample& s = *theirs++;
      sum.applications += s.applications;
      sum.nodesDelta += s.nodesDelta;
      sum.uniqueLookups += s.uniqueLookups;
      sum.uniqueHits += s.uniqueHits;
      sum.computeLookups += s.computeLookups;
      sum.computeHits += s.computeHits;
      sum.wallNanos += s.wallNanos;
      merged.push_back(sum);
    }
  }
  samples = std::move(merged);
}

void AttributionCollector::beginGate() noexcept {
  before_ = pkg_->costCounters();
  startedAt_ = std::chrono::steady_clock::now();
  started_ = true;
  if (!sawFirstGate_) {
    nodesLiveStart_ = static_cast<std::int64_t>(before_.nodesLive);
    sawFirstGate_ = true;
  }
}

void AttributionCollector::endGate(AttrSide side, std::uint32_t gateIndex) {
  if (!started_) {
    return; // endGate without beginGate: ignore rather than misattribute
  }
  started_ = false;
  const auto elapsed = std::chrono::steady_clock::now() - startedAt_;
  const CostCounters after = pkg_->costCounters();

  std::vector<GateCostSample>& bucket =
      side == AttrSide::Left ? left_ : right_;
  if (bucket.size() <= gateIndex) {
    bucket.resize(static_cast<std::size_t>(gateIndex) + 1);
  }
  GateCostSample& sample = bucket[gateIndex];
  sample.side = side;
  sample.gateIndex = gateIndex;
  ++sample.applications;
  const std::int64_t delta = static_cast<std::int64_t>(after.nodesLive) -
                             static_cast<std::int64_t>(before_.nodesLive);
  sample.nodesDelta += delta;
  sample.uniqueLookups += after.uniqueLookups - before_.uniqueLookups;
  sample.uniqueHits += after.uniqueHits - before_.uniqueHits;
  sample.computeLookups += after.computeLookups - before_.computeLookups;
  sample.computeHits += after.computeHits - before_.computeHits;
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  sample.wallNanos += nanos;

  ++gatesApplied_;
  nodesDeltaTotal_ += delta;
  peakNodesLive_ = std::max(peakNodesLive_,
                            static_cast<std::uint64_t>(after.nodesLive));
  wallNanosTotal_ += nanos;
}

AttributionData AttributionCollector::take() {
  AttributionData data;
  data.samples.reserve(left_.size() + right_.size());
  for (const GateCostSample& s : left_) {
    if (s.applications > 0) {
      data.samples.push_back(s);
    }
  }
  for (const GateCostSample& s : right_) {
    if (s.applications > 0) {
      data.samples.push_back(s);
    }
  }
  data.gatesApplied = gatesApplied_;
  data.nodesDeltaTotal = nodesDeltaTotal_;
  data.nodesLiveStart = nodesLiveStart_;
  data.peakNodesLive = peakNodesLive_;
  data.wallNanosTotal = wallNanosTotal_;

  left_.clear();
  right_.clear();
  gatesApplied_ = 0;
  nodesDeltaTotal_ = 0;
  nodesLiveStart_ = 0;
  peakNodesLive_ = 0;
  wallNanosTotal_ = 0;
  started_ = false;
  sawFirstGate_ = false;
  return data;
}

} // namespace qsimec::dd
