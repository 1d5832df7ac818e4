// JSON serialization of equivalence-checking results (for the CLI's --json
// mode and machine pipelines).

#pragma once

#include "ec/flow.hpp"
#include "ec/result.hpp"

#include <optional>
#include <string>
#include <string_view>

namespace qsimec::ec {

struct SerializeOptions {
  /// Drop everything that legitimately varies between runs of the same
  /// check — wall-clock timings, the DD package profile, the metrics
  /// rollup, and the worker-thread count. What remains (verdict,
  /// simulations, counterexample, flags) is bit-identical for a fixed
  /// configuration seed regardless of thread count or machine load; the
  /// determinism tests in tests/test_parallel.cpp compare exactly this.
  bool redactProfile{false};
  /// Emit only {"equivalence": ...}. This is the cross-*configuration*
  /// comparison mode: two flows over the same pair with different tier
  /// routing (prescreen on vs off) must agree on the verdict, but may
  /// legitimately differ in simulation counts and counterexample
  /// provenance (a stabilizer-tier witness is a stabilizer-state seed, a
  /// general-tier one a basis-state index). Implies redactProfile.
  bool verdictOnly{false};
};

[[nodiscard]] std::string toJson(const CheckResult& result,
                                 const SerializeOptions& options = {});
[[nodiscard]] std::string toJson(const FlowResult& result,
                                 const SerializeOptions& options = {});

/// The attribution object embedded in check/flow JSON. With
/// `redactNondeterministic` the wall_nanos fields and the cache counters
/// (unique/compute lookups and hits — their eviction patterns follow the
/// node address layout, which differs per package instance) are dropped;
/// the remainder is byte-identical across thread counts (the profile
/// itself is built over the logical sequential run prefix). Exposed for
/// the batch service and the report renderer.
[[nodiscard]] std::string toJson(const AttributionProfile& profile,
                                 bool redactNondeterministic);

/// The counterexample object embedded in check/flow JSON ("null" when
/// absent). Exposed for the batch service, whose cache and result lines
/// reuse the exact same shape.
[[nodiscard]] std::string toJson(const std::optional<Counterexample>& cex);

/// Inverse of toString(Equivalence), for readers of persisted results (the
/// batch service's verdict cache); std::nullopt on unknown spellings. The
/// StimuliKind inverse is ec::parseStimuliKind (ec/result.hpp).
[[nodiscard]] std::optional<Equivalence> parseEquivalence(std::string_view s);

} // namespace qsimec::ec
