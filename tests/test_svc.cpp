// Tests of the batch checking service (src/svc): circuit fingerprinting
// (format- and order-stability, parameter quantization), the VerdictCache
// (LRU, persistence, corruption tolerance, config-digest keying), and the
// BatchScheduler (manifest parsing, determinism across thread counts, warm
// cache dispatching zero checker work).

#include "ec/flow.hpp"
#include "ec/parallel.hpp"
#include "gen/qft.hpp"
#include "gen/revlib_like.hpp"
#include "io/parse.hpp"
#include "io/qasm.hpp"
#include "io/real.hpp"
#include "obs/metrics.hpp"
#include "svc/batch.hpp"
#include "svc/fingerprint.hpp"
#include "svc/verdict_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace qsimec;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- fingerprint

TEST(Fingerprint, StableAcrossFormatsAndNames) {
  // the same reversible circuit, written out as OpenQASM and as RevLib
  // .real, must fingerprint identically after parse-back — the name and
  // the on-disk syntax are not part of the identity
  ir::QuantumComputation qc(3, "original");
  qc.x(0);
  qc.cx(1, 0);
  qc.ccx(2, 1, 0);
  qc.x(2);

  const auto viaQasm = io::parseQasmString(io::toQasmString(qc), "as_qasm");
  const auto viaReal = io::parseRealString(io::toRealString(qc), "as_real");

  const svc::Fingerprint direct = svc::fingerprint(qc);
  EXPECT_EQ(direct, svc::fingerprint(viaQasm));
  EXPECT_EQ(direct, svc::fingerprint(viaReal));
}

TEST(Fingerprint, ParameterQuantizationEpsilon) {
  const auto withAngle = [](double theta) {
    ir::QuantumComputation qc(1, "rot");
    qc.rz(theta, 0);
    return svc::fingerprint(qc);
  };
  // below the documented epsilon: same quantization bucket, same identity
  EXPECT_EQ(withAngle(0.25), withAngle(0.25 + 4e-10));
  // past it: a genuinely different rotation
  EXPECT_NE(withAngle(0.25), withAngle(0.25 + 2e-9));
}

TEST(Fingerprint, OrderAndRoleSensitive) {
  // same gate multiset, different order
  ir::QuantumComputation ab(2, "ab");
  ab.x(0);
  ab.x(1);
  ir::QuantumComputation ba(2, "ba");
  ba.x(1);
  ba.x(0);
  EXPECT_NE(svc::fingerprint(ab), svc::fingerprint(ba));

  // same qubit pair, control and target swapped
  ir::QuantumComputation c01(2, "c01");
  c01.cx(0, 1);
  ir::QuantumComputation c10(2, "c10");
  c10.cx(1, 0);
  EXPECT_NE(svc::fingerprint(c01), svc::fingerprint(c10));

  // identical gates on a wider register are a different circuit
  ir::QuantumComputation narrow(2, "narrow");
  narrow.x(0);
  ir::QuantumComputation wide(3, "wide");
  wide.x(0);
  EXPECT_NE(svc::fingerprint(narrow), svc::fingerprint(wide));
}

TEST(Fingerprint, HexRoundTrip) {
  ir::QuantumComputation qc(2, "rt");
  qc.h(0);
  qc.cx(0, 1);
  const svc::Fingerprint fp = svc::fingerprint(qc);
  const auto parsed = svc::parseFingerprint(fp.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);

  EXPECT_FALSE(svc::parseFingerprint("not-hex").has_value());
  EXPECT_FALSE(svc::parseFingerprint("abc").has_value());
}

// The byte front's key: the same bytes in the same format digest alike;
// another format, one changed byte or one more (zero) byte digests apart.
TEST(Fingerprint, ContentDigestCoversFormatLengthAndBytes) {
  const std::string text = ".version 2.0\n.numvars 1\n.variables a\n";
  const svc::Fingerprint qasm =
      svc::contentDigest(io::CircuitFormat::Qasm, text);
  EXPECT_EQ(qasm, svc::contentDigest(io::CircuitFormat::Qasm, text));
  const svc::Fingerprint real =
      svc::contentDigest(io::CircuitFormat::Real, text);
  EXPECT_NE(qasm, real);
  EXPECT_NE(qasm.hi, real.hi);
  EXPECT_NE(qasm.lo, real.lo);
  EXPECT_NE(real, svc::contentDigest(io::CircuitFormat::Tfc, text));

  std::string flipped = text;
  flipped[20] ^= 1;
  EXPECT_NE(qasm, svc::contentDigest(io::CircuitFormat::Qasm, flipped));
  // the tail word is zero-filled, so only the length tells these apart
  const std::string padded = text + std::string(1, '\0');
  EXPECT_NE(qasm, svc::contentDigest(io::CircuitFormat::Qasm, padded));
  EXPECT_NE(svc::contentDigest(io::CircuitFormat::Qasm, ""),
            svc::contentDigest(io::CircuitFormat::Qasm, std::string(1, '\0')));
}

TEST(Fingerprint, ConfigDigestCoversVerdictRelevantFieldsOnly) {
  ec::FlowConfiguration base;
  const std::uint64_t digest = svc::configDigest(base);

  // verdict-relevant: more stimuli can find a counterexample a shorter run
  // would miss
  ec::FlowConfiguration moreSims = base;
  moreSims.simulation.maxSimulations += 1;
  EXPECT_NE(digest, svc::configDigest(moreSims));

  ec::FlowConfiguration otherSeed = base;
  otherSeed.simulation.seed += 1;
  EXPECT_NE(digest, svc::configDigest(otherSeed));

  // performance-only: the determinism contract says the verdict is
  // identical for every thread count, and a proof survives any timeout
  ec::FlowConfiguration moreThreads = base;
  moreThreads.simulation.numThreads = 7;
  EXPECT_EQ(digest, svc::configDigest(moreThreads));

  ec::FlowConfiguration otherTimeout = base;
  otherTimeout.complete.timeoutSeconds = 123.0;
  EXPECT_EQ(digest, svc::configDigest(otherTimeout));

  // pinned values: a digest change invalidates every qsimec-cache-v2 file
  EXPECT_EQ(digest, 0x65ada406815c3375ULL);
  ec::FlowConfiguration other;
  other.simulation.maxSimulations = 16;
  other.simulation.seed = 7;
  other.simulation.stimuli = ec::StimuliKind::RandomStabilizer;
  other.skipComplete = true;
  other.prescreen.enabled = false;
  other.prescreen.stabilizerStimuli = 4;
  EXPECT_EQ(svc::configDigest(other), 0x8129eebbfb2b5645ULL);
}

// --------------------------------------------------------------- VerdictCache

svc::PairKey keyFor(std::uint64_t a, std::uint64_t b,
                    std::uint64_t config = 1) {
  return svc::PairKey{svc::Fingerprint{a, a}, svc::Fingerprint{b, b}, config};
}

TEST(VerdictCache, LruEvictionRefreshesOnLookup) {
  svc::VerdictCache cache(2);
  const svc::CachedVerdict eq{ec::Equivalence::Equivalent, std::nullopt};
  cache.store(keyFor(1, 1), eq);
  cache.store(keyFor(2, 2), eq);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value()); // 1 is now freshest
  cache.store(keyFor(3, 3), eq);                       // evicts 2, not 1

  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(3, 3)).has_value());
}

TEST(VerdictCache, ByteFrontIsBoundedByCapacity) {
  svc::VerdictCache cache(2);
  const auto bytes = [](std::uint64_t a) {
    return svc::ByteKey{svc::Fingerprint{a, a}, svc::Fingerprint{a, a + 1}};
  };
  const auto fingerprints = [](std::uint64_t a) {
    return svc::PairFingerprints{svc::Fingerprint{a, 0},
                                 svc::Fingerprint{0, a}};
  };
  cache.rememberBytes(bytes(1), fingerprints(1));
  cache.rememberBytes(bytes(2), fingerprints(2));
  ASSERT_TRUE(cache.lookupBytes(bytes(1)).has_value()); // 1 is now freshest
  cache.rememberBytes(bytes(3), fingerprints(3));        // forgets 2, not 1

  EXPECT_FALSE(cache.lookupBytes(bytes(2)).has_value());
  for (const std::uint64_t a : {1U, 3U}) {
    const auto found = cache.lookupBytes(bytes(a));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->g, fingerprints(a).g);
    EXPECT_EQ(found->gPrime, fingerprints(a).gPrime);
  }
  // the front holds no proofs: the verdict side is untouched
  EXPECT_EQ(cache.size(), 0U);
}

TEST(VerdictCache, OnlyProofsAreCacheable) {
  svc::VerdictCache cache;
  cache.store(keyFor(1, 1),
              {ec::Equivalence::ProbablyEquivalent, std::nullopt});
  cache.store(keyFor(2, 2), {ec::Equivalence::NoInformation, std::nullopt});
  cache.store(keyFor(3, 3), {ec::Equivalence::InvalidInput, std::nullopt});
  EXPECT_EQ(cache.size(), 0U);

  cache.store(keyFor(4, 4),
              {ec::Equivalence::EquivalentUpToGlobalPhase, std::nullopt});
  cache.store(keyFor(5, 5),
              {ec::Equivalence::NotEquivalent,
               ec::Counterexample{3, 0.0, ec::StimuliKind::RandomProduct}});
  EXPECT_EQ(cache.size(), 2U);
}

TEST(VerdictCache, PersistenceRoundTrip) {
  std::ostringstream log;
  svc::VerdictCache cache;
  cache.persistTo(&log);
  cache.store(keyFor(1, 2, 7), {ec::Equivalence::Equivalent, std::nullopt});
  cache.store(keyFor(3, 4, 7),
              {ec::Equivalence::NotEquivalent,
               ec::Counterexample{21, 0.25, ec::StimuliKind::RandomStabilizer}});
  cache.persistTo(nullptr);

  svc::VerdictCache reloaded;
  std::istringstream replay(log.str());
  EXPECT_EQ(reloaded.load(replay), 2U);
  EXPECT_EQ(reloaded.corruptLines(), 0U);

  const auto eq = reloaded.lookup(keyFor(1, 2, 7));
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->equivalence, ec::Equivalence::Equivalent);
  EXPECT_FALSE(eq->counterexample.has_value());

  const auto ne = reloaded.lookup(keyFor(3, 4, 7));
  ASSERT_TRUE(ne.has_value());
  EXPECT_EQ(ne->equivalence, ec::Equivalence::NotEquivalent);
  ASSERT_TRUE(ne->counterexample.has_value());
  EXPECT_EQ(ne->counterexample->input, 21U);
  EXPECT_DOUBLE_EQ(ne->counterexample->fidelity, 0.25);
  EXPECT_EQ(ne->counterexample->stimuli, ec::StimuliKind::RandomStabilizer);
}

TEST(VerdictCache, WitnessSeedSurvivesAFileRoundTripExactly) {
  // a random-stabilizer witness seed is a full 64-bit value; 2^63 + 1 has
  // no exact double, so a reader that goes through one breaks the witness
  const std::uint64_t seed = (std::uint64_t{1} << 63U) + 1U;
  const auto path = std::filesystem::temp_directory_path() /
                    "qsimec_cache_exact_seed.jsonl";
  std::filesystem::remove(path);
  {
    std::ofstream file(path);
    svc::VerdictCache cache;
    cache.persistTo(&file);
    cache.store(keyFor(5, 6, 7),
                {ec::Equivalence::NotEquivalent,
                 ec::Counterexample{seed, 0.5,
                                    ec::StimuliKind::RandomStabilizer}});
    cache.persistTo(nullptr);
  }
  svc::VerdictCache reloaded;
  EXPECT_EQ(reloaded.loadFile(path.string()), 1U);
  const auto hit = reloaded.lookup(keyFor(5, 6, 7));
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->counterexample.has_value());
  EXPECT_EQ(hit->counterexample->input, seed);
  std::filesystem::remove(path);
}

TEST(VerdictCache, CorruptLinesAreSkippedAndCounted) {
  const std::string good = svc::VerdictCache::toJsonLine(
      keyFor(9, 9), {ec::Equivalence::Equivalent, std::nullopt});
  std::istringstream replay("this is not json\n" + good +
                            "\n{\"schema\":\"wrong-schema\"}\n"
                            "{\"schema\":\"qsimec-cache-v1\",\"g\":\"zz\"}\n"
                            "\n" // blank: skipped, not corrupt
                            + good.substr(0, good.size() / 2) + "\n");
  svc::VerdictCache cache;
  EXPECT_EQ(cache.load(replay), 1U);
  EXPECT_EQ(cache.corruptLines(), 4U);
  EXPECT_TRUE(cache.lookup(keyFor(9, 9)).has_value());
}

TEST(VerdictCache, ConfigDigestMismatchMisses) {
  svc::VerdictCache cache;
  cache.store(keyFor(1, 2, /*config=*/10),
              {ec::Equivalence::Equivalent, std::nullopt});
  EXPECT_FALSE(cache.lookup(keyFor(1, 2, /*config=*/11)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(1, 2, /*config=*/10)).has_value());
}

TEST(VerdictCache, CheapestProofIsEvictedFirst) {
  // recency would evict the 300 s proof (stored first = coldest); the
  // cost-aware policy keeps it and drops the 0.01 s one instead
  svc::VerdictCache cache(2);
  cache.store(keyFor(1, 1), {ec::Equivalence::Equivalent, std::nullopt, 300.0});
  cache.store(keyFor(2, 2), {ec::Equivalence::Equivalent, std::nullopt, 0.01});
  cache.store(keyFor(3, 3), {ec::Equivalence::Equivalent, std::nullopt, 5.0});

  EXPECT_EQ(cache.evictions(), 1U);
  EXPECT_DOUBLE_EQ(cache.evictedSeconds(), 0.01);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(3, 3)).has_value());

  // the next eviction takes the cheapest resident (the 5 s proof) to make
  // room for the newcomer, and the counter accumulates
  cache.store(keyFor(4, 4), {ec::Equivalence::Equivalent, std::nullopt, 1.0});
  EXPECT_EQ(cache.evictions(), 2U);
  EXPECT_DOUBLE_EQ(cache.evictedSeconds(), 0.01 + 5.0);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(3, 3)).has_value());
  EXPECT_TRUE(cache.lookup(keyFor(4, 4)).has_value());
}

TEST(VerdictCache, EqualCostsFallBackToLru) {
  // all costs unknown (0): the policy must degrade to exactly the old LRU
  // behaviour, lookup refresh included
  svc::VerdictCache cache(2);
  const svc::CachedVerdict eq{ec::Equivalence::Equivalent, std::nullopt};
  cache.store(keyFor(1, 1), eq);
  cache.store(keyFor(2, 2), eq);
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  cache.store(keyFor(3, 3), eq); // evicts 2, not the freshly-touched 1
  EXPECT_TRUE(cache.lookup(keyFor(1, 1)).has_value());
  EXPECT_FALSE(cache.lookup(keyFor(2, 2)).has_value());
}

// The eviction rule is: the cheapest proof goes first, and among equal
// costs the entry least recently stored or looked up. A reference model of
// that rule, a plain vector, agrees with the cache over a long seeded run
// of stores and lookups at a small capacity, with many equal costs.
TEST(VerdictCache, EvictionMatchesTheCostThenRecencyModel) {
  constexpr std::size_t kCapacity = 8;
  const std::array<double, 5> costs{0.0, 0.0, 0.01, 5.0, 300.0};
  struct ModelEntry {
    std::uint64_t id;
    svc::CachedVerdict verdict;
    std::uint64_t touched;
  };
  std::vector<ModelEntry> model;
  std::uint64_t clock = 0;
  std::uint64_t evictions = 0;
  double evictedSeconds = 0.0;
  svc::VerdictCache cache(kCapacity);
  std::mt19937_64 rng(2020);
  for (int step = 0; step < 10000; ++step) {
    SCOPED_TRACE(step);
    const std::uint64_t id = rng() % 24;
    const auto found =
        std::find_if(model.begin(), model.end(),
                     [id](const ModelEntry& e) { return e.id == id; });
    if (rng() % 2 == 0) {
      const auto hit = cache.lookup(keyFor(id, id));
      ASSERT_EQ(hit.has_value(), found != model.end());
      if (hit) {
        EXPECT_EQ(hit->equivalence, found->verdict.equivalence);
        EXPECT_EQ(hit->proofSeconds, found->verdict.proofSeconds);
        found->touched = ++clock;
      }
      continue;
    }
    const svc::CachedVerdict verdict{
        rng() % 2 == 0 ? ec::Equivalence::Equivalent
                       : ec::Equivalence::EquivalentUpToGlobalPhase,
        std::nullopt, costs[rng() % costs.size()]};
    cache.store(keyFor(id, id), verdict);
    if (found != model.end()) {
      *found = {id, verdict, ++clock};
      continue;
    }
    if (model.size() == kCapacity) {
      const auto victim = std::min_element(
          model.begin(), model.end(),
          [](const ModelEntry& a, const ModelEntry& b) {
            return std::pair{a.verdict.proofSeconds, a.touched} <
                   std::pair{b.verdict.proofSeconds, b.touched};
          });
      ++evictions;
      evictedSeconds += victim->verdict.proofSeconds;
      model.erase(victim);
    }
    model.push_back({id, verdict, ++clock});
  }
  EXPECT_EQ(cache.size(), model.size());
  EXPECT_EQ(cache.evictions(), evictions);
  EXPECT_EQ(cache.evictedSeconds(), evictedSeconds);
}

TEST(VerdictCache, ProofSecondsSurviveAVersionedRoundTrip) {
  std::ostringstream log;
  svc::VerdictCache cache;
  cache.persistTo(&log);
  cache.store(keyFor(1, 2, 7),
              {ec::Equivalence::Equivalent, std::nullopt, 12.5});
  cache.persistTo(nullptr);
  EXPECT_NE(log.str().find("\"schema\":\"qsimec-cache-v2\""),
            std::string::npos);
  EXPECT_NE(log.str().find("\"seconds\":12.5"), std::string::npos);

  svc::VerdictCache reloaded(2);
  std::istringstream replay(log.str());
  EXPECT_EQ(reloaded.load(replay), 1U);
  // the reloaded cost still protects the entry from a cheap newcomer
  reloaded.store(keyFor(3, 3), {ec::Equivalence::Equivalent, std::nullopt});
  reloaded.store(keyFor(4, 4), {ec::Equivalence::Equivalent, std::nullopt});
  EXPECT_TRUE(reloaded.lookup(keyFor(1, 2, 7)).has_value());
}

TEST(VerdictCache, V1LinesLoadWithZeroCost) {
  // a pre-cost cache file: same fields minus "seconds", v1 schema tag
  const std::string v1 =
      "{\"schema\":\"qsimec-cache-v1\""
      ",\"g\":\"00000000000000090000000000000009\""
      ",\"gp\":\"00000000000000090000000000000009\""
      ",\"config\":\"00000000000000000000000000000001\""
      ",\"verdict\":\"equivalent\",\"counterexample\":null}";
  svc::VerdictCache cache;
  std::istringstream replay(v1 + "\n");
  EXPECT_EQ(cache.load(replay), 1U);
  EXPECT_EQ(cache.corruptLines(), 0U);
  const auto entry = cache.lookup(keyFor(9, 9));
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->proofSeconds, 0.0); // cost unknown = cheapest
}

// ------------------------------------------------------------ BatchScheduler

class BatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("qsimec_svc_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    // three equivalent pairs (proof via the complete check), one
    // non-equivalent pair (proof via counterexample): all four verdicts
    // are cacheable, so a warm rerun needs zero checker work
    write("qft_a.qasm", gen::qft(3));
    write("qft_b.qasm", gen::qftAlternative(3));
    write("adder.real", gen::adderCircuit(4));
    write("inc.real", gen::incrementCircuit(4));
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write(const std::string& name, const ir::QuantumComputation& qc) {
    std::ofstream os(dir_ / name);
    if (name.ends_with(".real")) {
      io::writeReal(qc, os);
    } else {
      io::writeQasm(qc, os);
    }
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] std::string manifestText() const {
    return "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
           path("qft_b.qasm") + "\"}\n"
           "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
           path("adder.real") + "\"}\n"
           "\n" // blank lines are allowed
           "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
           path("inc.real") + "\", \"sims\": 16}\n"
           "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
           path("qft_a.qasm") + "\"}\n";
  }

  [[nodiscard]] svc::BatchManifest manifest() const {
    std::istringstream is(manifestText());
    ec::FlowConfiguration base;
    base.complete.timeoutSeconds = 60.0;
    return svc::parseManifest(is, base);
  }

  // Aggregate-initializing BatchOptions with a subset of fields trips
  // -Wmissing-field-initializers under -Werror builds; spell it out once.
  static svc::BatchOptions options(unsigned threads,
                                   svc::VerdictCache* cache = nullptr) {
    svc::BatchOptions o;
    o.threads = threads;
    o.cache = cache;
    return o;
  }

  /// A context whose metrics land in `registry`.
  static obs::Context metricsTo(obs::MetricsRegistry& registry) {
    obs::Context context;
    context.metrics = &registry;
    return context;
  }

  /// Counter `name` of `registry` (0 before its first add).
  static std::uint64_t counter(const obs::MetricsRegistry& registry,
                               const std::string& name) {
    const auto& counters = registry.snapshot().counters;
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  static std::string redactedLines(const svc::BatchResult& result) {
    std::string out;
    for (const auto& outcome : result.outcomes) {
      out += svc::toJsonLine(outcome, {.redact = true});
      out += '\n';
    }
    out += svc::toJsonLine(result.summary, {.redact = true});
    out += '\n';
    return out;
  }

  fs::path dir_;
};

TEST_F(BatchTest, ManifestParsing) {
  const svc::BatchManifest m = manifest();
  ASSERT_EQ(m.pairs.size(), 4U);
  EXPECT_EQ(m.pairs[0].gPath, path("qft_a.qasm"));
  EXPECT_EQ(m.pairs[2].config.simulation.maxSimulations, 16U);
  EXPECT_EQ(m.pairs[0].config.simulation.maxSimulations, 10U); // base
  EXPECT_DOUBLE_EQ(m.pairs[1].config.complete.timeoutSeconds, 60.0);
}

TEST_F(BatchTest, ManifestErrorsNameTheLine) {
  ec::FlowConfiguration base;
  {
    std::istringstream is("{\"g\": \"a\", \"gp\": \"b\"}\nnot json\n");
    EXPECT_THROW(
        {
          try {
            (void)svc::parseManifest(is, base);
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
            throw;
          }
        },
        std::runtime_error);
  }
  {
    std::istringstream is("{\"g\": \"a\", \"gp\": \"b\", \"bogus\": 1}\n");
    EXPECT_THROW((void)svc::parseManifest(is, base), std::runtime_error);
  }
  {
    std::istringstream is("{\"g\": \"a\"}\n");
    EXPECT_THROW((void)svc::parseManifest(is, base), std::runtime_error);
  }
  for (const auto& [key, message] :
       {std::pair{"stimuli", "unknown stimuli kind: bogus"},
        std::pair{"strategy", "unknown strategy: bogus"},
        // the retired rewriting stage's key is as unknown as any other
        std::pair{"rewriting", "manifest line 1: unknown key: rewriting"}}) {
    std::istringstream is(std::string("{\"g\": \"a\", \"gp\": \"b\", \"") +
                          key + "\": \"bogus\"}\n");
    try {
      (void)svc::parseManifest(is, base);
      ADD_FAILURE() << key << ": expected a manifest error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(BatchTest, VerdictsMatchIndividualChecksInManifestOrder) {
  const svc::BatchManifest m = manifest();
  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 4U);
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    EXPECT_EQ(result.outcomes[i].index, i);
    const auto loadFile = [](const std::string& p) {
      return p.ends_with(".real") ? io::parseRealFile(p)
                                  : io::parseQasmFile(p);
    };
    const ec::FlowResult solo =
        ec::EquivalenceCheckingFlow(m.pairs[i].config)
            .run(loadFile(m.pairs[i].gPath), loadFile(m.pairs[i].gPrimePath));
    EXPECT_EQ(result.outcomes[i].equivalence, solo.equivalence)
        << "pair " << i;
    EXPECT_EQ(result.outcomes[i].counterexample.has_value(),
              solo.counterexample.has_value());
    if (result.outcomes[i].counterexample && solo.counterexample) {
      EXPECT_EQ(result.outcomes[i].counterexample->input,
                solo.counterexample->input);
    }
  }
}

TEST_F(BatchTest, RedactedSerializationIsIdenticalAcrossThreadCounts) {
  const svc::BatchManifest m = manifest();
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    svc::BatchScheduler scheduler(options(threads));
    const std::string lines = redactedLines(scheduler.run(m));
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "threads=" << threads;
    }
  }
}

TEST_F(BatchTest, WarmCacheRerunDispatchesZeroCheckerWork) {
  const svc::BatchManifest m = manifest();
  svc::VerdictCache cache;

  svc::BatchScheduler cold(options(2, &cache));
  const svc::BatchResult first = cold.run(m);
  EXPECT_EQ(first.summary.cacheHits, 0U);
  EXPECT_EQ(first.summary.cacheStores, m.pairs.size());

  obs::MetricsRegistry metrics;
  obs::Context obsContext;
  obsContext.metrics = &metrics;
  svc::BatchScheduler warm(options(8, &cache));
  const svc::BatchResult second = warm.run(m, obsContext);

  // every pair answered from the cache: zero dispatches, and the metrics
  // counter agrees
  EXPECT_EQ(second.summary.cacheHits, m.pairs.size());
  EXPECT_EQ(second.summary.cacheStores, 0U);
  const auto& counters = metrics.snapshot().counters;
  const auto hit = counters.find("svc.cache.hit");
  ASSERT_NE(hit, counters.end());
  EXPECT_EQ(hit->second, m.pairs.size());
  const auto miss = counters.find("svc.cache.miss");
  ASSERT_NE(miss, counters.end());
  EXPECT_EQ(miss->second, 0U);

  // verdicts are the same answers the cold run produced
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    EXPECT_EQ(second.outcomes[i].equivalence, first.outcomes[i].equivalence);
    EXPECT_TRUE(second.outcomes[i].cacheHit);
  }
}

TEST_F(BatchTest, DuplicateManifestEntriesAreDeduplicated) {
  // the same (fingerprint, fingerprint, configDigest) triple three times:
  // only the first occurrence is dispatched; the verdict fans out to the
  // other two in manifest order
  const std::string text =
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n";
  std::istringstream is(text);
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest m = svc::parseManifest(is, base);

  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 4U);
  EXPECT_EQ(result.summary.deduped, 2U);
  EXPECT_FALSE(result.outcomes[0].deduped);
  EXPECT_TRUE(result.outcomes[1].deduped);
  EXPECT_FALSE(result.outcomes[2].deduped);
  EXPECT_TRUE(result.outcomes[3].deduped);
  // the copied verdict matches the representative's, tier and all
  for (const std::size_t dup : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_EQ(result.outcomes[dup].equivalence,
              result.outcomes[0].equivalence);
    EXPECT_EQ(result.outcomes[dup].tier, result.outcomes[0].tier);
    EXPECT_EQ(result.outcomes[dup].gateSet, result.outcomes[0].gateSet);
  }
}

TEST_F(BatchTest, DifferentConfigOverridesDefeatDeduplication) {
  // the same circuit pair under different verdict-relevant overrides must
  // NOT be coalesced — the configDigest keeps the triples apart
  const std::string text =
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\", \"sims\": 16}\n";
  std::istringstream is(text);
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest m = svc::parseManifest(is, base);

  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);
  ASSERT_EQ(result.outcomes.size(), 2U);
  EXPECT_EQ(result.summary.deduped, 0U);
  EXPECT_FALSE(result.outcomes[1].deduped);
}

TEST_F(BatchTest, DedupedBatchSerializationIsStableAcrossThreadCounts) {
  const std::string text =
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n"
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n";
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  std::string reference;
  for (const unsigned threads : {1U, 2U, 8U}) {
    std::istringstream is(text);
    const svc::BatchManifest m = svc::parseManifest(is, base);
    svc::BatchScheduler scheduler(options(threads));
    const std::string lines = redactedLines(scheduler.run(m));
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "threads=" << threads;
    }
  }
}

TEST_F(BatchTest, UnreadableFileYieldsInvalidInputAndBatchContinues) {
  ec::FlowConfiguration base;
  std::istringstream is("{\"g\": \"" + path("nope.qasm") + "\", \"gp\": \"" +
                        path("qft_a.qasm") + "\"}\n"
                        "{\"g\": \"" + path("adder.real") +
                        "\", \"gp\": \"" + path("adder.real") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, base);
  svc::BatchScheduler scheduler(options(1));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 2U);
  EXPECT_EQ(result.outcomes[0].equivalence, ec::Equivalence::InvalidInput);
  EXPECT_FALSE(result.outcomes[0].error.empty());
  EXPECT_EQ(result.outcomes[1].equivalence, ec::Equivalence::Equivalent);
  EXPECT_EQ(result.summary.invalid, 1U);
  EXPECT_EQ(result.summary.equivalent, 1U);
}

// A width past ir::Qubit's range is bad input at its declaring line, even
// though the batch pre-pass parses leniently; the other pairs still run.
TEST_F(BatchTest, TooWideCircuitYieldsInvalidInputAndBatchContinues) {
  std::ofstream(dir_ / "wide.qasm")
      << "OPENQASM 2.0;\nqreg q[70000];\nx q[65537];\n";
  std::ofstream(dir_ / "wide.real") << ".version 2.0\n.numvars 65537\n";
  ec::FlowConfiguration base;
  std::istringstream is(
      "{\"g\": \"" + path("wide.qasm") + "\", \"gp\": \"" +
      path("qft_a.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("wide.real") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, base);
  svc::BatchScheduler scheduler(options(2));
  const svc::BatchResult result = scheduler.run(m);

  ASSERT_EQ(result.outcomes.size(), 3U);
  for (const std::size_t i : {0U, 2U}) {
    EXPECT_EQ(result.outcomes[i].equivalence, ec::Equivalence::InvalidInput);
    EXPECT_NE(result.outcomes[i].error.find("(line 2)"), std::string::npos)
        << result.outcomes[i].error;
    EXPECT_NE(result.outcomes[i].error.find("65536 qubits"), std::string::npos)
        << result.outcomes[i].error;
  }
  EXPECT_EQ(result.outcomes[1].equivalence, ec::Equivalence::Equivalent);
  EXPECT_EQ(result.summary.invalid, 2U);
  EXPECT_EQ(result.summary.equivalent, 1U);
}

// ------------------------------------------------------------ byte front

// A warm rerun keys every pair from its bytes: no parse, one digest hit per
// pair, and the same redacted lines as the cold run.
TEST_F(BatchTest, WarmRerunIsKeyedFromTheBytesWithoutAParse) {
  const svc::BatchManifest m = manifest();
  svc::VerdictCache cache;
  obs::MetricsRegistry coldMetrics;
  obs::Context coldObs;
  coldObs.metrics = &coldMetrics;
  const svc::BatchResult cold =
      svc::BatchScheduler(options(2, &cache)).run(m, coldObs);
  EXPECT_EQ(coldMetrics.snapshot().counters.at("svc.cache.digest_hit"), 0U);

  obs::MetricsRegistry warmMetrics;
  obs::Context warmObs;
  warmObs.metrics = &warmMetrics;
  const svc::BatchResult warm =
      svc::BatchScheduler(options(2, &cache)).run(m, warmObs);
  EXPECT_EQ(warmMetrics.snapshot().counters.at("svc.cache.digest_hit"),
            m.pairs.size());
  EXPECT_EQ(warm.summary.cacheHits, m.pairs.size());
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    EXPECT_EQ(svc::toJsonLine(warm.outcomes[i],
                              {.redact = true, .verdictOnly = true}),
              svc::toJsonLine(cold.outcomes[i],
                              {.redact = true, .verdictOnly = true}));
  }
}

// The front keys bytes, not paths or sizes: a file rewritten in place with
// as many bytes gets a verdict of its own.
TEST_F(BatchTest, FileRewrittenAtTheSameSizeGetsAFreshVerdict) {
  const std::string head = "OPENQASM 2.0;\nqreg q[1];\n";
  std::ofstream(dir_ / "one.qasm") << head << "x q[0];\n";
  std::ofstream(dir_ / "two.qasm") << head << "x q[0];\n";
  std::istringstream is("{\"g\": \"" + path("one.qasm") + "\", \"gp\": \"" +
                        path("two.qasm") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, {});
  svc::VerdictCache cache;
  obs::MetricsRegistry metrics;
  const svc::BatchResult before =
      svc::BatchScheduler(options(1, &cache)).run(m, metricsTo(metrics));
  ASSERT_EQ(before.outcomes[0].equivalence, ec::Equivalence::Equivalent);

  const auto size = fs::file_size(dir_ / "one.qasm");
  std::ofstream(dir_ / "one.qasm") << head << "z q[0];\n";
  ASSERT_EQ(fs::file_size(dir_ / "one.qasm"), size);
  const svc::BatchResult after =
      svc::BatchScheduler(options(1, &cache)).run(m, metricsTo(metrics));
  EXPECT_EQ(after.outcomes[0].equivalence, ec::Equivalence::NotEquivalent);
  EXPECT_FALSE(after.outcomes[0].cacheHit);
  EXPECT_EQ(after.summary.dispatched, 1U);
  EXPECT_EQ(counter(metrics, "svc.cache.digest_hit"), 0U);
}

// Only successes are remembered: a pair that fails to parse is read and
// parsed on every run and reports the text of a file-by-file parse; a
// parse error of g also comes before a read error of gp.
TEST_F(BatchTest, ParseErrorPairIsNeverRememberedAndKeepsItsText) {
  std::ofstream(dir_ / "bad.qasm")
      << "OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n";
  std::string expected;
  try {
    (void)io::parseCircuitFile(path("bad.qasm"), {.validate = false});
  } catch (const std::exception& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  std::istringstream is("{\"g\": \"" + path("bad.qasm") + "\", \"gp\": \"" +
                        path("qft_a.qasm") + "\"}\n"
                        "{\"g\": \"" + path("bad.qasm") + "\", \"gp\": \"" +
                        path("missing.qasm") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, {});
  svc::VerdictCache cache;
  obs::MetricsRegistry metrics;
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    const svc::BatchResult result =
        svc::BatchScheduler(options(1, &cache)).run(m, metricsTo(metrics));
    for (const svc::PairOutcome& outcome : result.outcomes) {
      EXPECT_EQ(outcome.equivalence, ec::Equivalence::InvalidInput);
      EXPECT_EQ(outcome.error, expected);
    }
  }
  EXPECT_EQ(counter(metrics, "svc.cache.digest_hit"), 0U);
}

// With room for two pairs and three distinct ones cycling through, the
// front forgets every pair before it comes round again; each verdict is
// still the one a cacheless run gives.
TEST_F(BatchTest, ByteFrontWithinCapacityKeepsEveryVerdict) {
  const std::string text =
      "{\"g\": \"" + path("qft_a.qasm") + "\", \"gp\": \"" +
      path("qft_b.qasm") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("adder.real") + "\"}\n";
  std::istringstream is(text);
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  const svc::BatchManifest m = svc::parseManifest(is, base);
  const auto verdictLines = [](const svc::BatchResult& result) {
    std::vector<std::string> lines;
    for (const svc::PairOutcome& outcome : result.outcomes) {
      lines.push_back(
          svc::toJsonLine(outcome, {.redact = true, .verdictOnly = true}));
    }
    return lines;
  };
  const std::vector<std::string> reference =
      verdictLines(svc::BatchScheduler(options(1)).run(m));

  svc::VerdictCache cache(2);
  obs::MetricsRegistry metrics;
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(run);
    EXPECT_EQ(verdictLines(svc::BatchScheduler(options(2, &cache))
                               .run(m, metricsTo(metrics))),
              reference);
    EXPECT_LE(cache.size(), 2U);
  }
  EXPECT_EQ(counter(metrics, "svc.cache.digest_hit"), 0U);
}

// A manifest tripled with byte-identical copies under new paths: the copies
// are keyed from the bytes and deduplicated, and the redacted lines are the
// same at every thread count, with the front or without it.
TEST_F(BatchTest, ByteIdenticalCopiesDedupAlikeAtEveryThreadCount) {
  for (const char* copy : {"c1_", "c2_"}) {
    for (const char* name :
         {"qft_a.qasm", "qft_b.qasm", "adder.real", "inc.real"}) {
      fs::copy_file(dir_ / name, dir_ / (std::string(copy) + name));
    }
  }
  const auto pairLine = [this](const std::string& g, const std::string& gp) {
    return "{\"g\": \"" + path(g) + "\", \"gp\": \"" + path(gp) + "\"}\n";
  };
  std::string text;
  for (const std::string copy : {"", "c1_", "c2_"}) {
    text += pairLine(copy + "qft_a.qasm", copy + "qft_b.qasm");
    text += pairLine(copy + "adder.real", copy + "adder.real");
    text += pairLine(copy + "adder.real", copy + "inc.real");
    text += pairLine(copy + "qft_a.qasm", copy + "qft_a.qasm");
  }
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  std::string reference;
  for (const bool front : {false, true}) {
    for (const unsigned threads : {1U, 2U, 4U}) {
      SCOPED_TRACE(std::to_string(threads) + (front ? " front" : ""));
      std::istringstream is(text);
      const svc::BatchManifest m = svc::parseManifest(is, base);
      ASSERT_EQ(m.pairs.size(), 12U);
      EXPECT_EQ(m.pairs[4].gPath, path("c1_qft_a.qasm"));
      svc::VerdictCache cache;
      obs::MetricsRegistry metrics;
      const svc::BatchResult result =
          svc::BatchScheduler(options(threads, front ? &cache : nullptr))
              .run(m, metricsTo(metrics));
      EXPECT_EQ(result.summary.deduped, 8U);
      EXPECT_EQ(result.summary.dispatched, 4U);
      EXPECT_EQ(counter(metrics, "svc.cache.digest_hit"), front ? 8U : 0U);
      std::string lines;
      for (const svc::PairOutcome& outcome : result.outcomes) {
        lines += svc::toJsonLine(outcome, {.redact = true});
        lines += '\n';
      }
      // the summary's cache_stores differs with and without a cache
      if (reference.empty()) {
        reference = lines;
      } else {
        EXPECT_EQ(lines, reference);
      }
    }
  }
}

// ------------------------------------------------------- overlapped pre-pass

// The scheduler submits each miss as soon as it is keyed, so workers check
// while the pre-pass keys the rest; the classification must still be the
// serial pre-pass's. The manifest mixes repeats, an unreadable pair and
// pairs whose verdicts a previous batch already stored.
TEST_F(BatchTest, OverlappedPrePassClassifiesAlikeAtEveryThreadCount) {
  const auto pairLine = [this](const std::string& g, const std::string& gp) {
    return "{\"g\": \"" + path(g) + "\", \"gp\": \"" + path(gp) + "\"}\n";
  };
  const std::string primer = pairLine("adder.real", "adder.real") +
                             pairLine("qft_b.qasm", "qft_a.qasm");
  const std::string text =
      pairLine("qft_a.qasm", "qft_b.qasm") +   // dispatched
      pairLine("adder.real", "adder.real") +   // primed: a hit
      pairLine("missing.qasm", "qft_a.qasm") + // invalid
      pairLine("qft_a.qasm", "qft_b.qasm") +   // deduped onto 0
      pairLine("adder.real", "inc.real") +     // dispatched
      pairLine("qft_b.qasm", "qft_a.qasm") +   // primed: a hit
      pairLine("adder.real", "inc.real") +     // deduped onto 4
      pairLine("adder.real", "adder.real") +   // primed: a hit
      pairLine("qft_a.qasm", "qft_a.qasm");    // dispatched
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  std::string reference;
  for (const unsigned threads : {1U, 2U, 4U}) {
    SCOPED_TRACE(threads);
    svc::VerdictCache cache;
    std::istringstream primerIs(primer);
    (void)svc::BatchScheduler(options(1, &cache))
        .run(svc::parseManifest(primerIs, base));
    std::istringstream is(text);
    const svc::BatchResult result =
        svc::BatchScheduler(options(threads, &cache))
            .run(svc::parseManifest(is, base));
    EXPECT_EQ(result.summary.cacheHits, 3U);
    EXPECT_EQ(result.summary.deduped, 2U);
    EXPECT_EQ(result.summary.dispatched, 3U);
    EXPECT_EQ(result.summary.cacheStores, 3U);
    EXPECT_EQ(result.summary.invalid, 1U);
    for (const std::size_t i : {1U, 5U, 7U}) {
      EXPECT_TRUE(result.outcomes[i].cacheHit) << i;
    }
    for (const std::size_t i : {3U, 6U}) {
      EXPECT_TRUE(result.outcomes[i].deduped) << i;
    }
    const std::string lines = redactedLines(result);
    if (reference.empty()) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference);
    }
  }
}

// A repeat keyed after its representative's verdict committed is still a
// dedup, never a hit on the store that verdict made. The done callback of
// the unreadable pair holds the pre-pass (it runs on the scheduler thread)
// long enough for the representative to be checked first.
TEST_F(BatchTest, RepeatKeyedAfterItsRepresentativeCommittedIsDeduped) {
  std::istringstream is(
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n"
      "{\"g\": \"" + path("missing.qasm") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n"
      "{\"g\": \"" + path("adder.real") + "\", \"gp\": \"" +
      path("inc.real") + "\"}\n");
  const svc::BatchManifest m = svc::parseManifest(is, {});
  svc::VerdictCache cache;
  svc::BatchOptions o = options(2, &cache);
  const std::thread::id scheduler = std::this_thread::get_id();
  bool held = false;
  o.onPairDone = [scheduler, &held](std::size_t, std::size_t) {
    if (std::this_thread::get_id() == scheduler && !held) {
      held = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  };
  obs::MetricsRegistry metrics;
  const svc::BatchResult result =
      svc::BatchScheduler(o).run(m, metricsTo(metrics));
  EXPECT_EQ(result.outcomes[0].equivalence, ec::Equivalence::NotEquivalent);
  EXPECT_EQ(result.outcomes[1].equivalence, ec::Equivalence::InvalidInput);
  EXPECT_TRUE(result.outcomes[2].deduped);
  EXPECT_FALSE(result.outcomes[2].cacheHit);
  EXPECT_EQ(result.outcomes[2].equivalence, ec::Equivalence::NotEquivalent);
  EXPECT_EQ(result.summary.cacheHits, 0U);
  EXPECT_EQ(result.summary.deduped, 1U);
  EXPECT_EQ(result.summary.dispatched, 1U);
  EXPECT_EQ(result.summary.cacheStores, 1U);
  EXPECT_EQ(counter(metrics, "svc.cache.hit"), 0U);
  // the repeat looked up, and missed; the unreadable pair never looked up
  EXPECT_EQ(counter(metrics, "svc.cache.miss"), 2U);
}

// Stores made while the pre-pass runs are held until it ends: a verdict
// checked early cannot evict, from a cache with room for two, a primed
// entry a later pair hits. The unreadable pair's done callback holds the
// pre-pass so that, without the hold, the early store would land first.
TEST_F(BatchTest, SmallCacheCountsAlikeAtOneAndFourThreads) {
  const auto pairLine = [this](const std::string& g, const std::string& gp) {
    return "{\"g\": \"" + path(g) + "\", \"gp\": \"" + path(gp) + "\"}\n";
  };
  const std::string primer = pairLine("adder.real", "adder.real") +
                             pairLine("qft_a.qasm", "qft_a.qasm");
  const std::string text = pairLine("adder.real", "inc.real") +
                           pairLine("missing.qasm", "inc.real") +
                           pairLine("adder.real", "adder.real") +
                           pairLine("qft_a.qasm", "qft_a.qasm") +
                           pairLine("adder.real", "inc.real") +
                           pairLine("qft_a.qasm", "qft_b.qasm");
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  std::vector<svc::BatchSummary> summaries;
  std::vector<std::string> lines;
  for (const unsigned threads : {1U, 4U}) {
    SCOPED_TRACE(threads);
    svc::VerdictCache cache(2);
    std::istringstream primerIs(primer);
    (void)svc::BatchScheduler(options(1, &cache))
        .run(svc::parseManifest(primerIs, base));
    ASSERT_EQ(cache.size(), 2U);
    svc::BatchOptions o = options(threads, &cache);
    const std::thread::id scheduler = std::this_thread::get_id();
    bool held = false;
    o.onPairDone = [scheduler, &held](std::size_t, std::size_t) {
      if (std::this_thread::get_id() == scheduler && !held) {
        held = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
    };
    std::istringstream is(text);
    const svc::BatchResult result =
        svc::BatchScheduler(o).run(svc::parseManifest(is, base));
    summaries.push_back(result.summary);
    lines.push_back(redactedLines(result));
    EXPECT_EQ(cache.size(), 2U);
  }
  for (const svc::BatchSummary& summary : summaries) {
    EXPECT_EQ(summary.cacheHits, 2U);
    EXPECT_EQ(summary.deduped, 1U);
    EXPECT_EQ(summary.dispatched, 2U);
    EXPECT_EQ(summary.cacheStores, 2U);
  }
  EXPECT_EQ(lines[0], lines[1]);
}

// cancel() raised while the pre-pass runs: the pairs already submitted
// finish or abandon, every later pair resolves as cancelled, each pair is
// reported done once, and run() returns with no job left running, on an
// own pool and on a resident one alike.
TEST_F(BatchTest, CancelDuringThePrePassResolvesEveryPair) {
  const auto pairLine = [this](const std::string& g, const std::string& gp) {
    return "{\"g\": \"" + path(g) + "\", \"gp\": \"" + path(gp) + "\"}\n";
  };
  std::string text = pairLine("qft_a.qasm", "qft_b.qasm") +
                     pairLine("adder.real", "inc.real") +
                     pairLine("missing.qasm", "inc.real");
  for (int i = 0; i < 6; ++i) {
    text += pairLine("adder.real", "adder.real");
    text += pairLine("qft_b.qasm", "qft_a.qasm");
  }
  ec::FlowConfiguration base;
  base.complete.timeoutSeconds = 60.0;
  ec::WorkerPool resident(3);
  for (const bool own : {true, false}) {
    SCOPED_TRACE(own ? "own pool" : "resident pool");
    std::istringstream is(text);
    const svc::BatchManifest m = svc::parseManifest(is, base);
    svc::BatchOptions o = options(4);
    if (!own) {
      o.pool = &resident;
    }
    std::vector<std::size_t> reported;
    svc::BatchScheduler* target = nullptr;
    const std::thread::id scheduler = std::this_thread::get_id();
    o.onPairDone = [&](std::size_t done, std::size_t) {
      reported.push_back(done);
      if (std::this_thread::get_id() == scheduler && target != nullptr) {
        target->cancel(); // the unreadable pair is the first resolved here
        target = nullptr;
      }
    };
    svc::BatchScheduler batch(o);
    target = &batch;
    const svc::BatchResult result = batch.run(m);
    ASSERT_EQ(result.outcomes.size(), m.pairs.size());
    EXPECT_EQ(result.outcomes[2].equivalence, ec::Equivalence::InvalidInput);
    for (std::size_t i = 3; i < m.pairs.size(); ++i) {
      EXPECT_TRUE(result.outcomes[i].cancelled) << i;
    }
    for (const std::size_t i : {0U, 1U}) {
      const svc::PairOutcome& outcome = result.outcomes[i];
      EXPECT_TRUE(outcome.cancelled ||
                  outcome.equivalence != ec::Equivalence::NoInformation)
          << i;
    }
    EXPECT_EQ(result.summary.dispatched, 2U);
    std::vector<std::size_t> expected(m.pairs.size());
    std::iota(expected.begin(), expected.end(), std::size_t{1});
    EXPECT_EQ(reported, expected);
  }
}

} // namespace
