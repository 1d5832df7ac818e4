#include "dd/real_table.hpp"

#include "dd/complex_value.hpp"
#include "dd/hash_chains.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace qsimec::dd {

namespace {
// Bucket width for binning. Must be comfortably larger than the numerical
// tolerance so that two values within tolerance always land in the same or
// an adjacent bucket — and adjacent-bucket probes are only needed when the
// query sits within tolerance of a bucket boundary.
constexpr double BUCKET_WIDTH = 1e-7;
constexpr double BUCKET_MAX = 9e11; // keep llround(val / BUCKET_WIDTH) in range

std::int64_t bucketOf(double val) noexcept {
  const double clamped = std::clamp(val, -BUCKET_MAX, BUCKET_MAX);
  return std::llround(clamped / BUCKET_WIDTH);
}
} // namespace

RealTable::RealTable()
    : slots_(std::size_t{1} << INITIAL_SLOT_BITS, nullptr) {
  zero_ = allocate(0.0, bucketOf(0.0));
  one_ = allocate(1.0, bucketOf(1.0));
  sqrt12_ = allocate(SQRT1_2, bucketOf(SQRT1_2));
  for (RealEntry* e : {zero_, one_, sqrt12_}) {
    e->ref = RealEntry::IMMORTAL;
    insert(e);
  }
  baselineLiveEntries_ = liveEntries_;
  baselineNextId_ = nextId_;
}

void RealTable::insert(RealEntry* e) {
  RealEntry*& head = slots_[slotOf(e->bucket)];
  e->next = head;
  head = e;
  if (++liveEntries_ > slots_.size()) {
    detail::doubleChains(slots_, slotBits_, [this](const RealEntry* entry) {
      return slotOf(entry->bucket);
    });
  }
}

RealEntry* RealTable::searchBucket(std::int64_t bucket, double val) const {
  for (RealEntry* e = slots_[slotOf(bucket)]; e != nullptr; e = e->next) {
    if (e->bucket == bucket && std::abs(e->value - val) <= TOLERANCE) {
      return e;
    }
  }
  return nullptr;
}

RealEntry* RealTable::lookup(double val) {
  ++lookups_;
  // Snap near-zeros to the canonical zero: cancellation residues must
  // collapse exactly for zero-suppressed edges to stay canonical. There is
  // deliberately NO corresponding snap-to-one: forcing cos(eps) -> 1 while
  // keeping its sine partner introduces errors *larger* than the tolerance,
  // which later arithmetic cannot reconcile — mathematically equal weights
  // then land in different entries and node sharing collapses (dramatic on
  // swap-routed QFT circuits). Near-one values instead intern like any
  // other value: all computation routes reproduce them to within a few ulp,
  // far inside the tolerance, so sharing is preserved.
  if (std::abs(val) <= TOLERANCE) {
    ++hits_;
    return zero_;
  }

  const std::int64_t bucket = bucketOf(val);
  if (RealEntry* e = searchBucket(bucket, val)) {
    ++hits_;
    return e;
  }
  // only probe a neighbour when the value is within tolerance of the
  // corresponding bucket boundary
  const double offset = val - static_cast<double>(bucket) * BUCKET_WIDTH;
  if (offset < -BUCKET_WIDTH / 2 + TOLERANCE) {
    if (RealEntry* e = searchBucket(bucket - 1, val)) {
      ++hits_;
      return e;
    }
  } else if (offset > BUCKET_WIDTH / 2 - TOLERANCE) {
    if (RealEntry* e = searchBucket(bucket + 1, val)) {
      ++hits_;
      return e;
    }
  }

  RealEntry* e = allocate(val, bucket);
  insert(e);
  return e;
}

RealEntry* RealTable::allocate(double val, std::int64_t bucket) {
  RealEntry* e = nullptr;
  if (freeList_ != nullptr) {
    e = freeList_;
    freeList_ = e->next;
  } else {
    if (chunks_.empty() || chunkFill_ == chunkSize_) {
      chunks_.push_back(std::make_unique<RealEntry[]>(chunkSize_));
      chunkFill_ = 0;
    }
    e = &chunks_.back()[chunkFill_++];
  }
  e->value = val;
  e->bucket = bucket;
  e->next = nullptr;
  e->id = nextId_++;
  e->ref = 0;
  return e;
}

std::size_t RealTable::garbageCollect() {
  std::size_t collected = 0;
  for (RealEntry*& slot : slots_) {
    RealEntry** link = &slot;
    while (*link != nullptr) {
      RealEntry* e = *link;
      if (e->ref == 0) {
        *link = e->next;
        e->next = freeList_;
        freeList_ = e;
        ++collected;
      } else {
        link = &e->next;
      }
    }
  }
  liveEntries_ -= collected;
  // If the table is still mostly live, collecting again soon is pointless —
  // back off so steady-state workloads do not thrash.
  if (liveEntries_ > gcThreshold_ / 2) {
    gcThreshold_ *= 2;
  }
  return collected;
}

} // namespace qsimec::dd
