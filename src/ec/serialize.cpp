#include "ec/serialize.hpp"

#include "analysis/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace qsimec::ec {

namespace {

std::string ddSummaryJson(const dd::PackageStats& stats) {
  util::JsonWriter json;
  json.beginObject()
      .field("peak_nodes_live", stats.peakNodesLive())
      .field("nodes_allocated", stats.vNodesAllocated + stats.mNodesAllocated)
      .field("gc_runs", stats.gcRuns)
      .field("gc_seconds", stats.gcSeconds)
      .field("gc_max_pause_seconds", stats.gcMaxPauseSeconds)
      .field("apply_ops", stats.addV.lookups + stats.addM.lookups +
                             stats.multMV.lookups + stats.multMM.lookups +
                             stats.kron.lookups + stats.conj.lookups +
                             stats.inner.lookups)
      .field("unique_hit_rate",
             dd::TableStats{stats.vUnique.lookups + stats.mUnique.lookups,
                            stats.vUnique.hits + stats.mUnique.hits}
                 .hitRate())
      .field("compute_hit_rate",
             dd::TableStats{stats.addV.lookups + stats.addM.lookups +
                                stats.multMV.lookups + stats.multMM.lookups +
                                stats.kron.lookups + stats.conj.lookups +
                                stats.inner.lookups,
                            stats.addV.hits + stats.addM.hits +
                                stats.multMV.hits + stats.multMM.hits +
                                stats.kron.hits + stats.conj.hits +
                                stats.inner.hits}
                 .hitRate())
      .endObject();
  return json.str();
}

} // namespace

std::string toJson(const AttributionProfile& profile,
                   bool redactNondeterministic) {
  // Redaction drops everything that is not a pure function of the logical
  // gate sequence: wall time (scheduling) and the unique/compute table
  // counters, whose hit and eviction patterns follow the node address
  // layout of the particular package instance.
  util::JsonWriter json;
  json.beginObject()
      .field("checker", profile.checker)
      .field("gates_applied", profile.gatesApplied)
      .field("nodes_delta_total", profile.nodesDeltaTotal)
      .field("nodes_live_start", profile.nodesLiveStart)
      .field("peak_nodes_live", profile.peakNodesLive)
      .field("advances_left", profile.advancesLeft)
      .field("advances_right", profile.advancesRight)
      .field("nodes_delta_left", profile.nodesDeltaLeft)
      .field("nodes_delta_right", profile.nodesDeltaRight);
  if (!redactNondeterministic) {
    json.field("wall_nanos", profile.wallNanosTotal);
  }
  json.beginArray("hotspots");
  for (const dd::GateCostSample& g : profile.hotspots) {
    json.beginObject()
        .field("side", toString(g.side))
        .field("gate", g.gateIndex)
        .field("applications", g.applications)
        .field("nodes_delta", g.nodesDelta);
    if (!redactNondeterministic) {
      json.field("unique_lookups", g.uniqueLookups)
          .field("unique_hits", g.uniqueHits)
          .field("compute_lookups", g.computeLookups)
          .field("compute_hits", g.computeHits)
          .field("wall_nanos", g.wallNanos);
    }
    json.endObject();
  }
  json.endArray();
  if (!profile.stimuli.empty()) {
    json.beginArray("stimuli");
    for (const StimulusCostSample& s : profile.stimuli) {
      json.beginObject()
          .field("run", s.runIndex)
          .field("gates_applied", s.gatesApplied)
          .field("nodes_delta", s.nodesDelta);
      if (!redactNondeterministic) {
        json.field("compute_lookups", s.computeLookups)
            .field("compute_hits", s.computeHits)
            .field("wall_nanos", s.wallNanos);
      }
      json.endObject();
    }
    json.endArray();
  }
  json.endObject();
  return json.str();
}

std::string toJson(const std::optional<Counterexample>& cex) {
  if (!cex) {
    return "null";
  }
  util::JsonWriter json;
  json.beginObject()
      .field("input", cex->input)
      .field("fidelity", cex->fidelity)
      .field("stimuli", toString(cex->stimuli))
      .endObject();
  return json.str();
}

std::optional<Equivalence> parseEquivalence(std::string_view s) {
  for (const Equivalence e :
       {Equivalence::Equivalent, Equivalence::EquivalentUpToGlobalPhase,
        Equivalence::NotEquivalent, Equivalence::ProbablyEquivalent,
        Equivalence::NoInformation, Equivalence::InvalidInput}) {
    if (s == toString(e)) {
      return e;
    }
  }
  return std::nullopt;
}

std::string toJson(const CheckResult& result, const SerializeOptions& options) {
  util::JsonWriter json;
  json.beginObject().field("equivalence", toString(result.equivalence));
  if (options.verdictOnly) {
    json.endObject();
    return json.str();
  }
  if (!options.redactProfile) {
    json.field("seconds", result.seconds);
  }
  json.field("simulations", result.simulations)
      .field("timed_out", result.timedOut)
      .field("cancelled", result.cancelled);
  if (!options.redactProfile) {
    json.field("num_threads", result.numThreads);
  }
  json.rawField("counterexample", toJson(result.counterexample));
  if (result.attribution) {
    json.rawField("attribution",
                  toJson(*result.attribution, options.redactProfile));
  }
  if (!options.redactProfile) {
    json.rawField("dd", ddSummaryJson(result.ddStats));
  }
  json.endObject();
  return json.str();
}

std::string toJson(const FlowResult& result, const SerializeOptions& options) {
  util::JsonWriter json;
  json.beginObject().field("equivalence", toString(result.equivalence));
  if (options.verdictOnly) {
    json.endObject();
    return json.str();
  }
  json.field("tier", toString(result.tier))
      .field("mode", toString(result.mode))
      .field("simulations", result.simulations)
      .field("stripped_prefix", result.strippedPrefix)
      .field("stripped_suffix", result.strippedSuffix)
      .field("merged_rotations", result.mergedRotations);
  if (!options.redactProfile) {
    json.field("preflight_seconds", result.preflightSeconds)
        .field("prescreen_seconds", result.prescreenSeconds)
        .field("simulation_seconds", result.simulationSeconds)
        .field("complete_seconds", result.completeSeconds)
        .field("total_seconds", result.totalSeconds())
        .field("num_threads", result.numThreads);
  }
  json.field("complete_timed_out", result.completeTimedOut)
      .field("simulation_timed_out", result.simulationTimedOut);
  if (result.mode == FlowMode::Race && !options.redactProfile) {
    // whether the loser also finished is timing-dependent, so the
    // cancellation flags and the winner are profile, not payload
    json.field("winner", toString(result.winner))
        .field("simulation_cancelled", result.simulationCancelled)
        .field("complete_cancelled", result.completeCancelled);
  }
  json.rawField("counterexample", toJson(result.counterexample))
      .rawField("diagnostics", analysis::toJson(result.diagnostics));
  // race mode under redaction drops attribution entirely: *whether* the
  // losing strategy got far enough to attach a profile before its
  // cancellation landed is timing-dependent, and byte-identity is the whole
  // point of the redacted mode
  if (result.mode != FlowMode::Race || !options.redactProfile) {
    if (result.simulationAttribution) {
      json.rawField(
          "simulation_attribution",
          toJson(*result.simulationAttribution, options.redactProfile));
    }
    if (result.completeAttribution) {
      json.rawField("complete_attribution",
                    toJson(*result.completeAttribution,
                           options.redactProfile));
    }
  }
  if (!options.redactProfile && result.profile) {
    json.rawField("profile", analysis::toJson(*result.profile));
  }
  if (!options.redactProfile) {
    json.rawField("metrics", obs::toJson(result.metrics));
  }
  json.endObject();
  return json.str();
}

} // namespace qsimec::ec
