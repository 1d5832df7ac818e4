// The batch checking service front-end: check a manifest of circuit pairs
// against one shared worker pool, with a verdict cache consulted before any
// checker work is dispatched.
//
// The manifest is JSONL — one pair per line:
//
//   {"g": "a.qasm", "gp": "b.qasm"}
//   {"g": "c.real", "gp": "d.qasm", "sims": 16, "timeout": 5, "seed": 7}
//
// with optional per-pair overrides of the base configuration (see
// docs/service.md for the full key list). Pairs are processed as follows:
// the scheduler walks the manifest in order on the calling thread, reads
// both files once, keys the pair — from the VerdictCache's byte front when
// the same bytes were keyed before, else by parsing and fingerprinting
// them — and consults the VerdictCache; hits are resolved immediately and
// only misses are dispatched to the ec::WorkerPool (and only they need
// their circuits parsed) — so a fully warm cache dispatches zero checker
// work, and with unchanged files parses nothing. Cache misses are
// additionally deduplicated within the batch: manifest entries sharing the
// (fingerprint(g), fingerprint(gp), configDigest) triple of an earlier
// entry are not dispatched at all — the first occurrence's verdict is
// fanned back out to them in manifest order once it resolves. Results are
// reported in manifest order regardless of completion order, and the
// redacted serialization of a batch is byte-identical for every thread
// count (the per-pair flow verdicts are deterministic by the parallelism
// contract, and the scheduler adds no ordering of its own).
//
// Observability: an attached obs::Context records a "svc.batch" root span
// with one "svc.pair" child span per pair (hits on the scheduler thread,
// misses on the worker that ran the flow, which nests the usual "flow"
// span), journal events svc.batch.start / svc.pair.start /
// svc.pair.cache_hit / svc.pair.verdict / svc.batch.done, and
// svc.cache.{hit,miss,store,digest_hit} counters published into the
// metrics registry by the scheduler thread after the pool drains (worker
// threads never touch the registry — it is not thread-safe).

#pragma once

#include "ec/flow.hpp"
#include "obs/context.hpp"
#include "svc/verdict_cache.hpp"

#include <atomic>
#include <cstddef>
#include <functional>
#include <istream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace qsimec::ec {
class WorkerPool;
} // namespace qsimec::ec

namespace qsimec::svc {

/// One manifest line: the two circuit files plus the (base + overrides)
/// configuration this pair is checked under.
struct BatchPairSpec {
  std::string gPath;
  std::string gPrimePath;
  ec::FlowConfiguration config;
};

struct BatchManifest {
  std::vector<BatchPairSpec> pairs;
};

/// Parse a JSONL manifest; every pair starts from a copy of `base` and
/// applies its per-pair overrides. Blank lines are skipped; malformed JSON,
/// missing "g"/"gp", or an unknown override key throw std::runtime_error
/// naming the offending line.
[[nodiscard]] BatchManifest parseManifest(std::istream& is,
                                          const ec::FlowConfiguration& base);

/// parseManifest() on the file at `path`; std::runtime_error if unreadable.
[[nodiscard]] BatchManifest loadManifestFile(const std::string& path,
                                             const ec::FlowConfiguration& base);

/// Per-pair result, reported in manifest order.
struct PairOutcome {
  std::size_t index{0};
  std::string gPath;
  std::string gPrimePath;
  ec::Equivalence equivalence{ec::Equivalence::NoInformation};
  std::optional<ec::Counterexample> counterexample;
  /// Verdict came from the cache; no checker work ran for this pair.
  bool cacheHit{false};
  /// Verdict was copied from an earlier manifest entry with the identical
  /// (fingerprint(g), fingerprint(gp), configDigest) triple — the dedup
  /// pre-pass dispatched only the first occurrence.
  bool deduped{false};
  /// Pair was cancelled (BatchScheduler::cancel) before or while running.
  bool cancelled{false};
  /// The stall watchdog declared this pair wedged (its worker heartbeat
  /// went quiet past BatchOptions::stallQuietSeconds, or the hard
  /// pairDeadlineSeconds passed) and resolved it as NoInformation so the
  /// rest of the batch could finish. `dumpRef` names the postmortem dump
  /// written at declaration time, when BatchOptions::postmortemDir is set.
  bool stalled{false};
  std::string dumpRef;
  bool completeTimedOut{false};
  std::size_t simulations{0};
  double seconds{0.0};
  /// Tier the flow routed the pair to and the pair's combined gate-set
  /// class (empty for cache hits and errors — no flow ran).
  std::string tier;
  std::string gateSet;
  /// Non-empty when the pair could not be checked at all (unreadable or
  /// unparseable file); equivalence is then InvalidInput.
  std::string error;
  /// Attribution rollup over the DD stages that ran (zero when attribution
  /// is disabled, the pair was a cache hit or dedup copy with none, or only
  /// non-DD tiers ran). Serialized unredacted only — like the timing
  /// fields, partial profiles of timed-out stages vary between runs.
  std::uint64_t attrGatesApplied{0};
  std::uint64_t attrPeakNodesLive{0};
  std::int64_t attrNodesDelta{0};
  std::uint64_t attrWallNanos{0};
};

/// Rows kept in BatchSummary::topExpensive.
inline constexpr std::size_t kTopExpensivePairs = 5;

/// One row of BatchSummary::topExpensive: a pair ranked by how hard it
/// worked the DD machinery (peak live nodes, then gates applied, then
/// manifest index — never wall time, so the ranking is deterministic).
struct ExpensivePairRef {
  std::size_t index{0};
  std::uint64_t peakNodesLive{0};
  std::uint64_t gatesApplied{0};
};

struct BatchSummary {
  std::size_t pairs{0};
  std::size_t equivalent{0};      // both equivalence flavours + probably
  std::size_t notEquivalent{0};
  std::size_t inconclusive{0};    // NoInformation or cancelled
  std::size_t invalid{0};
  std::size_t cacheHits{0};
  std::size_t cacheStores{0};
  /// Manifest entries resolved by copying an identical earlier entry's
  /// verdict (see PairOutcome::deduped).
  std::size_t deduped{0};
  /// Pairs the stall watchdog had to resolve (folded into inconclusive).
  std::size_t stalled{0};
  /// Pairs that actually reached a worker: pairs minus cache hits, dedup
  /// copies, cancellations-before-start, and parse failures. A fully warm
  /// cache makes this 0 — the daemon's warm-resubmission guarantee is
  /// asserted against this number.
  std::size_t dispatched{0};
  unsigned threads{1};
  double seconds{0.0};
  /// The kTopExpensivePairs most DD-expensive pairs of the batch, by
  /// attribution rollup. Empty when attribution was disabled.
  std::vector<ExpensivePairRef> topExpensive;
};

struct BatchResult {
  std::vector<PairOutcome> outcomes; // manifest order
  BatchSummary summary;
};

struct BatchOptions {
  /// Worker threads for dispatched pairs; 0 = one per hardware thread,
  /// capped at the number of pairs. Ignored when `pool` is set.
  unsigned threads{0};
  /// Optional *resident* worker pool (not owned). Null: the scheduler spins
  /// up a pool per run() — right for one-shot CLI batches. The daemon
  /// instead keeps one pool alive across requests and passes it here, so
  /// worker threads (and their flight-recorder slots) are created once per
  /// server lifetime, not once per request. The caller must not submit
  /// other work to the pool while run() is in flight — run() uses
  /// WorkerPool::wait() as its drain barrier.
  ec::WorkerPool* pool{nullptr};
  /// Optional shared verdict cache (not owned). Null: every pair is checked.
  VerdictCache* cache{nullptr};
  /// Invoked after every resolved pair as onPairDone(done, total) — calls
  /// are serialized but may come from any worker thread; keep it cheap.
  std::function<void(std::size_t, std::size_t)> onPairDone;
  /// Watchdog-backed stall containment for dispatched pairs. The per-pair
  /// timeout alone depends on the checker polling its cancel flag; these
  /// two do not — a worker whose flight-recorder heartbeat stays quiet for
  /// `stallQuietSeconds` (or that runs past `pairDeadlineSeconds` of wall
  /// time) has its pair resolved as NoInformation + stalled by the
  /// watchdog thread, its cancel flag set, and the batch carries on. 0
  /// disables each trigger. When both are 0 no watchdog thread is started.
  double stallQuietSeconds{0.0};
  double pairDeadlineSeconds{0.0};
  /// Directory for stall postmortem dumps (empty = no dumps). Each stalled
  /// pair writes postmortem-pair-<index>.jsonl and records the path in
  /// PairOutcome::dumpRef.
  std::string postmortemDir;
};

class BatchScheduler {
public:
  explicit BatchScheduler(BatchOptions options = {})
      : options_(std::move(options)) {}

  /// Check every pair of the manifest. Blocks until all pairs are resolved
  /// (verdict, cache hit, error, or cancellation).
  [[nodiscard]] BatchResult run(const BatchManifest& manifest,
                                const obs::Context& obs = {});

  /// Cancel the batch: pairs not yet started resolve as cancelled, in-flight
  /// pairs abandon at their next interrupt poll (both strategies of a
  /// race-mode pair observe the flag too).
  /// Callable from any thread while run() is in flight.
  void cancel();

private:
  BatchOptions options_;
  std::atomic<bool> cancelRequested_{false};
  std::mutex flagsMutex_;
  std::vector<std::atomic<bool>>* activeFlags_{nullptr};
};

/// Serialization of batch results: one "qsimec-batch-v1" JSONL line per
/// pair plus one summary line. Redaction drops what legitimately varies
/// between runs (wall-clock seconds, thread count, timeout flags); the rest
/// is bit-identical for a fixed manifest + cache state at every thread
/// count, which tests/test_svc.cpp compares byte-for-byte. verdictOnly
/// additionally drops provenance (cache_hit, deduped, simulations, tier…):
/// what remains — index, paths, verdict, counterexample — is identical
/// whether a pair was checked or answered from cache, which is the form the
/// daemon's warm-resubmission byte-identity guarantee is stated in.
struct BatchSerializeOptions {
  bool redact{false};
  bool verdictOnly{false};
};

[[nodiscard]] std::string toJsonLine(const PairOutcome& outcome,
                                     const BatchSerializeOptions& options = {});
[[nodiscard]] std::string toJsonLine(const BatchSummary& summary,
                                     const BatchSerializeOptions& options = {});

} // namespace qsimec::svc
