// Thread-safe bounded cache of proven equivalence verdicts, keyed by
// (fingerprint(G), fingerprint(G'), config digest), with optional JSONL
// persistence — the memory of the batch checking service.
//
// Only *proofs* are cacheable: Equivalent / EquivalentUpToGlobalPhase (the
// complete check finished) and NotEquivalent (a counterexample in hand) hold
// for the circuit pair forever, independent of the machine, the thread
// count, or the timeout that happened to be configured when they were
// found. ProbablyEquivalent and NoInformation are statements about a
// *budget* ("the complete check did not finish in time"), not about the
// pair — caching them would freeze a timeout into a verdict that a retry
// with a larger budget could upgrade. InvalidInput is likewise never
// cached: it describes the files as parsed, and files change.
// docs/service.md carries the full safety argument.
//
// Eviction is cost-aware rather than pure LRU: every entry carries the
// wall-seconds its proof originally cost, and when the cache is full the
// *cheapest-to-reprove* entry goes first (among equal costs the one least
// recently stored or looked up, so the policy is deterministic and degrades
// to plain LRU when no costs are known — e.g. a cache loaded from v1
// lines). Losing a 0.01 s proof costs one re-check;
// losing a 300 s proof costs five minutes — under a long-lived daemon the
// expensive proofs are exactly the ones worth pinning. The cumulative cost
// thrown away is exposed as evictedSeconds() and published as the
// `svc.cache.evicted_seconds` metric.
//
// Persistence is a JSONL append log (`qsimec-cache-v2`, adding a "seconds"
// field to v1): load replays the file into the in-memory store (later lines
// win, corrupt lines are skipped and counted — a half-written tail from a
// killed run must not poison the store), and every store() appends one line
// to the attached stream. Every line is a self-contained JSON object
// parseable by util::parseJson. `qsimec-cache-v1` lines (no "seconds")
// still load — their cost is 0, i.e. first in line for eviction, which is
// the conservative reading of "cost unknown".
//
// In front of the proofs sits a byte front: a bounded map from a pair's
// bytes (the contentDigest of each file) to the two padded fingerprints they
// parsed into, so a pair whose files are unchanged is keyed without a parse.
// Identical bytes in the same format, parsed by the same lenient parser,
// give the same circuit, so a remembered fingerprint is the one a fresh
// parse would compute. The batch pre-pass remembers a pair only after its
// parse and fingerprint succeed; read and parse errors are never kept. The
// front is LRU-bounded at capacity() entries, and never persisted.

#pragma once

#include "ec/result.hpp"
#include "svc/fingerprint.hpp"

#include <cstddef>
#include <cstdint>
#include <istream>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

namespace qsimec::svc {

/// Identity of one checking task: both circuit fingerprints plus the digest
/// of the verdict-relevant configuration. Order matters — (G, G') and
/// (G', G) are distinct keys (their counterexample fidelities differ even
/// though the verdict agrees).
struct PairKey {
  Fingerprint g;
  Fingerprint gPrime;
  std::uint64_t configDigest{0};

  [[nodiscard]] bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  [[nodiscard]] std::size_t operator()(const PairKey& k) const noexcept {
    // the fingerprint words are already avalanche-mixed; xor with odd
    // multipliers keeps the lanes from cancelling
    return static_cast<std::size_t>(k.g.lo ^ (k.gPrime.lo * 0x9e3779b97f4a7c15ULL) ^
                                    (k.configDigest * 0xc2b2ae3d27d4eb4fULL));
  }
};

/// Identity of a pair's bytes: the contentDigest of each of its two files,
/// in manifest role order.
struct ByteKey {
  Fingerprint g;
  Fingerprint gPrime;

  [[nodiscard]] bool operator==(const ByteKey&) const = default;
};

struct ByteKeyHash {
  [[nodiscard]] std::size_t operator()(const ByteKey& k) const noexcept {
    return static_cast<std::size_t>(k.g.lo ^
                                    (k.gPrime.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// The padded fingerprints a pair's bytes parsed into: the circuit half of
/// its PairKey.
struct PairFingerprints {
  Fingerprint g;
  Fingerprint gPrime;
};

/// A cached proof: the verdict, the counterexample stimulus that proved
/// non-equivalence (absent for equivalence proofs), and the wall-seconds
/// the proof originally cost — the currency of the eviction policy.
struct CachedVerdict {
  ec::Equivalence equivalence{ec::Equivalence::NoInformation};
  std::optional<ec::Counterexample> counterexample;
  double proofSeconds{0.0};
};

/// True for the verdicts that are proofs (and therefore cacheable): both
/// equivalence flavours and NotEquivalent. Timeout-shaped outcomes
/// (ProbablyEquivalent, NoInformation) and InvalidInput are not.
[[nodiscard]] constexpr bool isCacheable(ec::Equivalence e) noexcept {
  return e == ec::Equivalence::Equivalent ||
         e == ec::Equivalence::EquivalentUpToGlobalPhase ||
         e == ec::Equivalence::NotEquivalent;
}

class VerdictCache {
public:
  explicit VerdictCache(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Look the key up, refreshing its recency among equal-cost entries.
  [[nodiscard]] std::optional<CachedVerdict> lookup(const PairKey& key);

  /// Insert (or refresh) a proof; silently ignores non-cacheable verdicts.
  /// Appends one JSONL line to the persistence stream if one is attached
  /// and the entry is new or changed.
  void store(const PairKey& key, const CachedVerdict& verdict);

  /// The fingerprints remembered for a pair's bytes, refreshing its LRU
  /// position.
  [[nodiscard]] std::optional<PairFingerprints> lookupBytes(const ByteKey& key);

  /// Remember what a pair's bytes parsed into; when the front is full, the
  /// least recently used pair goes.
  void rememberBytes(const ByteKey& key, const PairFingerprints& fingerprints);

  /// Replay a qsimec-cache-v2 (or legacy v1) JSONL stream into the cache
  /// (no persistence echo). Returns the number of entries loaded; malformed
  /// or wrong-schema lines are skipped and counted in corruptLines().
  std::size_t load(std::istream& is);

  /// load() from the file at `path`; a missing file is an empty cache (0).
  std::size_t loadFile(const std::string& path);

  /// Mirror every store() as one JSONL line into `os` (flushed per line).
  /// The stream is never owned; detach with nullptr before it dies.
  void persistTo(std::ostream* os);

  /// One qsimec-cache-v2 line (no trailing newline).
  [[nodiscard]] static std::string toJsonLine(const PairKey& key,
                                              const CachedVerdict& verdict);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const;
  /// Cumulative proof wall-seconds discarded by eviction — the re-proving
  /// debt this cache has incurred by being too small.
  [[nodiscard]] double evictedSeconds() const;
  [[nodiscard]] std::uint64_t corruptLines() const;

private:
  /// An entry's place in the eviction order: (proof seconds, last-touch
  /// tick). Ticks are unique, so every entry has its own rank.
  using Rank = std::pair<double, std::uint64_t>;
  struct Slot {
    CachedVerdict verdict;
    std::uint64_t tick{0};
  };
  using ByteEntry = std::pair<ByteKey, PairFingerprints>;

  void insertLocked(const PairKey& key, const CachedVerdict& verdict,
                    bool persist);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<PairKey, Slot, PairKeyHash> entries_;
  // begin() is the eviction victim: the cheapest proof, and among equal
  // costs the one least recently stored or looked up
  std::map<Rank, PairKey> evictionOrder_;
  std::uint64_t ticks_{0};
  std::list<ByteEntry> byteLru_; // front = most recently used
  std::unordered_map<ByteKey, std::list<ByteEntry>::iterator, ByteKeyHash>
      byteIndex_;
  std::ostream* persistStream_{nullptr};
  std::uint64_t evictions_{0};
  double evictedSeconds_{0.0};
  std::uint64_t corruptLines_{0};
};

} // namespace qsimec::svc
