// Unique table: hash-consing store ensuring structural sharing of DD nodes.
//
// Nodes are allocated from a chunked pool owned by the table and recycled via
// a free list. `lookup` takes a candidate node freshly filled by the caller;
// if a structurally identical node already exists the candidate is returned
// to the pool and the existing node handed back — this is what makes DD
// equality checks pointer comparisons.
//
// The bucket array is sized by demand: it starts small and doubles whenever
// the live population passes the bucket count, so a collection sweeps the
// table's high-water population rather than a fixed array. Bucket count
// never feeds a counter: at most one node in a chain matches a lookup, ids
// are assigned by insertion order, and GC thresholds are population-based.

#pragma once

#include "dd/hash_chains.hpp"
#include "dd/node.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace qsimec::dd {

/// Thrown when the configured node budget is exhausted (used by equivalence
/// checkers to convert runaway constructions into a clean "no result").
class ResourceLimitExceeded : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

template <class NodeT> class UniqueTable {
public:
  UniqueTable() : buckets_(std::size_t{1} << INITIAL_BUCKET_BITS, nullptr) {}
  UniqueTable(const UniqueTable&) = delete;
  UniqueTable& operator=(const UniqueTable&) = delete;

  /// Fetch a blank node from the pool. Caller fills `v` and `e` and must
  /// pass it to `lookup` (or `returnNode`) afterwards.
  NodeT* getNode() {
    if (freeList_ != nullptr) {
      NodeT* n = freeList_;
      freeList_ = n->next;
      n->next = nullptr;
      n->ref = 0;
      return n;
    }
    if (nodeLimit_ != 0 && allocated_ >= nodeLimit_) {
      throw ResourceLimitExceeded("DD node budget exhausted");
    }
    if (chunks_.empty() || chunkFill_ == CHUNK_SIZE) {
      chunks_.push_back(std::make_unique<NodeT[]>(CHUNK_SIZE));
      chunkFill_ = 0;
    }
    ++allocated_;
    return &chunks_.back()[chunkFill_++];
  }

  void returnNode(NodeT* n) noexcept {
    n->next = freeList_;
    freeList_ = n;
  }

  /// Hash-cons `candidate`: return the canonical node for its contents.
  NodeT* lookup(NodeT* candidate) {
    ++lookups_;
    const std::size_t key = bucketOf(candidate);
    for (NodeT* n = buckets_[key]; n != nullptr; n = n->next) {
      if (n->v == candidate->v && n->e == candidate->e) {
        ++hits_;
        returnNode(candidate);
        return n;
      }
    }
    candidate->id = nextId_++;
    candidate->next = buckets_[key];
    buckets_[key] = candidate;
    if (++liveNodes_ > peakLiveNodes_) {
      peakLiveNodes_ = liveNodes_;
    }
    if (liveNodes_ > buckets_.size()) {
      detail::doubleChains(buckets_, bucketBits_,
                           [this](const NodeT* n) { return bucketOf(n); });
    }
    return candidate;
  }

  /// Remove all nodes with ref == 0. Compute tables must be cleared
  /// beforehand (they hold raw pointers into this table). No weight
  /// bookkeeping is required here: a node only holds references on its
  /// children's weights while its own ref count is positive (see
  /// Package::incRefNode), so a collectible node has already released them.
  std::size_t garbageCollect() {
    std::size_t collected = 0;
    for (auto& bucket : buckets_) {
      NodeT** link = &bucket;
      while (*link != nullptr) {
        NodeT* n = *link;
        if (n->ref == 0) {
          *link = n->next;
          returnNode(n);
          ++collected;
        } else {
          link = &n->next;
        }
      }
    }
    liveNodes_ -= collected;
    if (liveNodes_ > gcThreshold_ / 2) {
      gcThreshold_ *= 2;
    }
    return collected;
  }

  [[nodiscard]] std::size_t liveNodes() const noexcept { return liveNodes_; }
  /// High-water mark of liveNodes() over the table's lifetime.
  [[nodiscard]] std::size_t peakLiveNodes() const noexcept {
    return peakLiveNodes_;
  }
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

  [[nodiscard]] bool possiblyNeedsCollection() const noexcept {
    return liveNodes_ > gcThreshold_;
  }

  /// 0 disables the limit.
  void setNodeLimit(std::size_t limit) noexcept { nodeLimit_ = limit; }

  /// Restore the GC trigger point to its construction-time value. The
  /// threshold doubles monotonically under load, so long-lived packages
  /// that interleave independent computations (the parallel stimuli
  /// portfolio) reset it between runs — otherwise *when* a mid-run
  /// collection fires would depend on what ran before.
  void resetGcThreshold() noexcept { gcThreshold_ = INITIAL_GC_THRESHOLD; }

  /// Restart the serial-id counter, but only when no node survives: a live
  /// node keeps its id, and handing the same id to a second node would break
  /// the compute-table keys' uniqueness. Called at the between-runs barrier
  /// (Package::resetComputationState) right after the forced collection, so
  /// every run replays the exact same id sequence — and with it the same
  /// table collisions — no matter which package or worker executes it.
  void resetIdsIfEmpty() noexcept {
    if (liveNodes_ == 0) {
      nextId_ = 1;
    }
  }

private:
  static constexpr std::size_t CHUNK_SIZE = 4096;
  static constexpr std::size_t INITIAL_GC_THRESHOLD = 262144;
  static constexpr unsigned INITIAL_BUCKET_BITS = 10;

  // Hashes serial ids, not addresses: bucket placement (and therefore probe
  // counts and insertion order) must not depend on where the allocator put a
  // node — see vNode::id.
  static std::uint64_t hash(const NodeT* n) noexcept {
    std::size_t h = static_cast<std::size_t>(n->v) * 0xff51afd7ed558ccdULL;
    for (const auto& edge : n->e) {
      h ^= (edge.p->id + 1) * 0x9e3779b97f4a7c15ULL;
      h ^= (edge.w.r->id + 1) * 0xc2b2ae3d27d4eb4fULL;
      h ^= (edge.w.i->id + 1) * 0x165667b19e3779f9ULL;
      h = (h << 7) | (h >> (sizeof(h) * 8 - 7));
    }
    return h;
  }

  // The top bucketBits_ bits of the multiplicatively spread hash: doubling
  // the table then splits bucket b into 2b and 2b + 1.
  [[nodiscard]] std::size_t bucketOf(const NodeT* n) const noexcept {
    return static_cast<std::size_t>((hash(n) * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - bucketBits_));
  }

  std::vector<NodeT*> buckets_;
  unsigned bucketBits_{INITIAL_BUCKET_BITS};
  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t chunkFill_{0};
  NodeT* freeList_{nullptr};

  std::size_t liveNodes_{0};
  std::size_t peakLiveNodes_{0};
  std::size_t allocated_{0};
  std::size_t lookups_{0};
  std::size_t hits_{0};
  std::size_t gcThreshold_{INITIAL_GC_THRESHOLD};
  std::size_t nodeLimit_{0};
  std::uint64_t nextId_{1}; // 0 is the terminal's id
};

} // namespace qsimec::dd
