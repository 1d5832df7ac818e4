// Canonicalization table for real numbers (the "complex table" of [26],
// split into its real constituents).
//
// Every edge weight in the decision-diagram package is a pair of pointers
// into this table. Looking up a value returns a canonical entry whose stored
// value is within TOLERANCE of the query, so that numerically equal weights
// become *pointer-equal* — the property node sharing and the compute-table
// caches rely on.
//
// Layout: values are binned into buckets of width BUCKET_WIDTH (much larger
// than the tolerance); the bucket id hashes into a power-of-two slot array
// with per-slot chains. Neighbouring buckets only need probing when the
// query lies within tolerance of a bucket boundary — essentially never, so
// the common case is a single slot probe. This is the hot path of the whole
// package.
//
// The slot array starts small and doubles whenever the live population
// passes the slot count, so a collection sweeps the high-water population,
// not a fixed array. Within a slot, entries of one bucket id stay
// newest-first across a doubling: lookup returns the first entry within
// tolerance, so that order decides which of two nearby values a query
// snaps to.
//
// A canonical entry interns to itself: lookup(e->value) == e for every live
// entry e. Within one bucket no two live entries lie within tolerance of
// each other (the lookup that would have allocated the second one finds the
// first), and a value's bucket is searched before any neighbour, so the
// search for e's own value can stop only at e. Package::makeVNode/makeMNode
// rely on this to return a child's weight as the top weight unlooked-up.
//
// Entries are reference counted: nodes stored in the unique tables hold
// references on their child edge weights, and top-level edges held by user
// code hold references via Package::incRef/decRef. Unreferenced entries are
// reclaimed by garbageCollect() (which the package only calls after clearing
// the compute tables, since those hold weak pointers).

#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace qsimec::dd {

struct RealEntry {
  double value{0.0};
  RealEntry* next{nullptr}; // slot chain
  std::int64_t bucket{0};   // bucket id (disambiguates chained slots)
  /// Stable serial number assigned at allocation (see vNode::id): the
  /// compute-table keys and the unique-table hash identify weights by this,
  /// never by address.
  std::uint64_t id{0};
  std::uint32_t ref{0};

  static constexpr std::uint32_t IMMORTAL =
      std::numeric_limits<std::uint32_t>::max();
};

class RealTable {
public:
  RealTable();
  RealTable(const RealTable&) = delete;
  RealTable& operator=(const RealTable&) = delete;

  /// Canonical entry for `val` (within tolerance). Inserts if absent.
  RealEntry* lookup(double val);

  /// Pre-interned constants. Immortal (never collected).
  [[nodiscard]] RealEntry* zero() noexcept { return zero_; }
  [[nodiscard]] RealEntry* one() noexcept { return one_; }
  [[nodiscard]] RealEntry* sqrt12() noexcept { return sqrt12_; }

  static void incRef(RealEntry* e) noexcept {
    if (e->ref != RealEntry::IMMORTAL) {
      ++e->ref;
    }
  }
  static void decRef(RealEntry* e) noexcept {
    if (e->ref != RealEntry::IMMORTAL) {
      --e->ref;
    }
  }

  /// Remove all entries with ref == 0. Caller must guarantee no weak
  /// pointers (compute-table entries) survive the call.
  std::size_t garbageCollect();

  [[nodiscard]] std::size_t size() const noexcept { return liveEntries_; }
  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

  /// True once enough entries accumulated that a collection is worthwhile.
  [[nodiscard]] bool possiblyNeedsCollection() const noexcept {
    return liveEntries_ > gcThreshold_;
  }

  /// Restore the GC trigger point to its construction-time value (see
  /// UniqueTable::resetGcThreshold).
  void resetGcThreshold() noexcept { gcThreshold_ = INITIAL_GC_THRESHOLD; }

  /// Restart the serial-id counter, but only when nothing beyond the
  /// pre-interned constants survives (see UniqueTable::resetIdsIfEmpty).
  void resetIdsIfEmpty() noexcept {
    if (liveEntries_ == baselineLiveEntries_) {
      nextId_ = baselineNextId_;
    }
  }

private:
  static constexpr std::size_t INITIAL_GC_THRESHOLD = 262144;
  static constexpr unsigned INITIAL_SLOT_BITS = 10;

  RealEntry* allocate(double val, std::int64_t bucket);
  [[nodiscard]] RealEntry* searchBucket(std::int64_t bucket,
                                        double val) const;
  void insert(RealEntry* e);

  // The top slotBits_ bits of the multiplicative hash: doubling the array
  // splits slot s into 2s and 2s + 1.
  [[nodiscard]] std::size_t slotOf(std::int64_t bucket) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(bucket) * 0x9e3779b97f4a7c15ULL) >>
        (64 - slotBits_));
  }

  std::vector<RealEntry*> slots_;
  unsigned slotBits_{INITIAL_SLOT_BITS};

  // chunked entry storage + free list (entries are never returned to the OS)
  std::vector<std::unique_ptr<RealEntry[]>> chunks_;
  std::size_t chunkFill_{0};
  std::size_t chunkSize_{4096};
  RealEntry* freeList_{nullptr};

  RealEntry* zero_{nullptr};
  RealEntry* one_{nullptr};
  RealEntry* sqrt12_{nullptr};

  std::size_t liveEntries_{0};
  std::size_t lookups_{0};
  std::size_t hits_{0};
  std::size_t gcThreshold_{INITIAL_GC_THRESHOLD};
  std::uint64_t nextId_{1};
  // state right after construction (the immortal constants), the floor
  // resetIdsIfEmpty() may rewind to
  std::size_t baselineLiveEntries_{0};
  std::uint64_t baselineNextId_{1};
};

} // namespace qsimec::dd
