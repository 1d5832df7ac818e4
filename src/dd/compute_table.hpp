// Lossy, direct-mapped operation caches ("compute tables").
//
// Each DD operation (add, multiply, kronecker, ...) memoizes results here.
// Keys identify nodes and weights by their stable serial ids (vNode::id,
// RealEntry::id) rather than addresses, so slot placement — and with it the
// collision/eviction pattern, the cache hit sequence, and every structural
// counter downstream — is a pure function of the operation sequence,
// independent of ASLR. Ids are never reused while a referent can be live
// (UniqueTable/RealTable only rewind their counters when empty), so id
// equality is as exact as pointer equality was. Results still hold raw
// node/real pointers, so every table must be cleared before the unique
// tables or the real table collect garbage.
//
// Clearing is O(1): every entry carries the epoch it was written in, and
// clear() just advances the table's epoch, so entries from before the last
// clear() stop matching. The entries stay in place, stale pointers and
// all, but are never returned again.
//
// Storage: the table behaves exactly like a 2^NBITS-slot direct-mapped
// cache, but stores only the slots that have been written. `slots_` maps a
// slot (hash & (SIZE - 1)) to a 1-based index into `entries_`, 0 meaning
// never written; it is allocated and zeroed on the first insert (4 bytes a
// slot). `entries_` holds one entry per written slot, appended in the
// order the slots were first written, and never shrinks. Every slot sees
// the same writes, evictions and epoch stamps as a full array would, so
// every hit and miss is the same. The first insert also reserves room for
// an entry per slot: that never initializes an entry, so the allocator
// maps pages only as entries are appended, and `entries_` never has to
// reallocate (no copies while a table fills, and a lookup's pointer stays
// put). A package's first operation thus touches only the index and the
// entries it writes, and a table it never writes to costs nothing.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qsimec::dd {

namespace detail {
inline std::size_t combineHash(std::size_t seed, std::uint64_t id) noexcept {
  return seed ^ (id * 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}
} // namespace detail

/// Key made of two node ids — used by operations whose top-level edge
/// weights can be factored out (multiplication, kronecker, inner product).
struct NodePairKey {
  std::uint64_t a{0};
  std::uint64_t b{0};

  [[nodiscard]] bool operator==(const NodePairKey&) const = default;
  [[nodiscard]] std::size_t hash() const noexcept {
    return detail::combineHash(detail::combineHash(0, a), b);
  }
};

/// Key made of a single node id (conjugate transpose).
struct NodeKey {
  std::uint64_t a{0};

  [[nodiscard]] bool operator==(const NodeKey&) const = default;
  [[nodiscard]] std::size_t hash() const noexcept {
    return detail::combineHash(0, a);
  }
};

/// Key made of two full edges (addition, where weights cannot be factored):
/// node ids plus real-entry ids of each weight.
struct EdgePairKey {
  std::uint64_t ap{0};
  std::uint64_t awr{0};
  std::uint64_t awi{0};
  std::uint64_t bp{0};
  std::uint64_t bwr{0};
  std::uint64_t bwi{0};

  [[nodiscard]] bool operator==(const EdgePairKey&) const = default;
  [[nodiscard]] std::size_t hash() const noexcept {
    std::size_t h = detail::combineHash(0, ap);
    h = detail::combineHash(h, awr);
    h = detail::combineHash(h, awi);
    h = detail::combineHash(h, bp);
    h = detail::combineHash(h, bwr);
    h = detail::combineHash(h, bwi);
    return h;
  }
};

template <class Key, class Result, std::size_t NBITS = 16> class ComputeTable {
public:
  static constexpr std::size_t SIZE = 1ULL << NBITS;

  void insert(const Key& key, const Result& result) {
    if (slots_.empty()) {
      slots_.resize(SIZE);
      entries_.reserve(SIZE);
    }
    std::uint32_t& index = slots_[key.hash() & (SIZE - 1)];
    if (index == 0) {
      entries_.push_back(Entry{key, result, epoch_});
      index = static_cast<std::uint32_t>(entries_.size());
      return;
    }
    Entry& e = entries_[index - 1];
    e.key = key;
    e.result = result;
    e.epoch = epoch_;
  }

  /// Returns nullptr on miss. The pointer is invalidated by the next insert
  /// into the same slot — consume immediately.
  [[nodiscard]] const Result* lookup(const Key& key) {
    ++lookups_;
    if (slots_.empty()) {
      return nullptr;
    }
    const std::uint32_t index = slots_[key.hash() & (SIZE - 1)];
    if (index == 0) {
      return nullptr;
    }
    const Entry& e = entries_[index - 1];
    if (e.epoch == epoch_ && e.key == key) {
      ++hits_;
      return &e.result;
    }
    return nullptr;
  }

  void clear() noexcept {
    if (++epoch_ == 0) {
      // wrapped: an entry stamped 2^32 clears ago would match again
      for (Entry& e : entries_) {
        e.epoch = 0;
      }
      epoch_ = 1;
    }
  }

  [[nodiscard]] std::size_t lookups() const noexcept { return lookups_; }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }

private:
  friend struct ComputeTableTestAccess; // defined by the unit tests only

  struct Entry {
    Key key{};
    Result result{};
    std::uint32_t epoch{0}; // 0: wiped by an epoch wrap
  };

  std::vector<std::uint32_t> slots_; // empty until the first insert
  std::vector<Entry> entries_;       // one per written slot, SIZE reserved
  std::uint32_t epoch_{1};
  std::size_t lookups_{0};
  std::size_t hits_{0};
};

} // namespace qsimec::dd
