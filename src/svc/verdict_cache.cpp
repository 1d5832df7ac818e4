#include "svc/verdict_cache.hpp"

#include "ec/serialize.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <fstream>
#include <string>

namespace qsimec::svc {

std::optional<CachedVerdict> VerdictCache::lookup(const PairKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second); // refresh recency
  // refresh the cost index too: reinsertion lands at the back of its cost
  // bucket, so among equal costs the victim is the least recently used
  eraseCostLocked(it->second->second.proofSeconds, key);
  costIndex_.emplace(it->second->second.proofSeconds, key);
  return it->second->second;
}

void VerdictCache::store(const PairKey& key, const CachedVerdict& verdict) {
  if (!isCacheable(verdict.equivalence)) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  insertLocked(key, verdict, /*persist=*/true);
  ++stores_;
}

void VerdictCache::eraseCostLocked(double seconds, const PairKey& key) {
  const auto [lo, hi] = costIndex_.equal_range(seconds);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == key) {
      costIndex_.erase(it);
      return;
    }
  }
}

void VerdictCache::insertLocked(const PairKey& key,
                                const CachedVerdict& verdict, bool persist) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    eraseCostLocked(it->second->second.proofSeconds, key);
    it->second->second = verdict;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    if (lru_.size() >= capacity_) {
      // cheapest-to-reprove goes first; among equal costs the bucket is
      // kept in LRU order (lookup refreshes), so the victim is the least
      // recently used of the cheapest — deterministic either way
      const auto victim = costIndex_.begin();
      const auto victimEntry = index_.find(victim->second);
      evictedSeconds_ += victim->first;
      lru_.erase(victimEntry->second);
      index_.erase(victimEntry);
      costIndex_.erase(victim);
      ++evictions_;
    }
    lru_.emplace_front(key, verdict);
    index_.emplace(key, lru_.begin());
  }
  costIndex_.emplace(verdict.proofSeconds, key);
  if (persist && persistStream_ != nullptr) {
    *persistStream_ << toJsonLine(key, verdict) << '\n' << std::flush;
  }
}

std::optional<PairFingerprints> VerdictCache::lookupBytes(const ByteKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = byteIndex_.find(key);
  if (it == byteIndex_.end()) {
    return std::nullopt;
  }
  ++digestHits_;
  byteLru_.splice(byteLru_.begin(), byteLru_, it->second);
  return it->second->second;
}

void VerdictCache::rememberBytes(const ByteKey& key,
                                 const PairFingerprints& fingerprints) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = byteIndex_.find(key); it != byteIndex_.end()) {
    it->second->second = fingerprints;
    byteLru_.splice(byteLru_.begin(), byteLru_, it->second);
    return;
  }
  if (byteLru_.size() >= capacity_) {
    byteIndex_.erase(byteLru_.back().first);
    byteLru_.pop_back();
  }
  byteLru_.emplace_front(key, fingerprints);
  byteIndex_.emplace(key, byteLru_.begin());
}

std::size_t VerdictCache::load(std::istream& is) {
  std::size_t loaded = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue; // blank line, not corruption
    }
    try {
      const util::JsonValue doc = util::parseJson(line);
      const std::string& schema = doc.at("schema").asString();
      if (schema != "qsimec-cache-v2" && schema != "qsimec-cache-v1") {
        throw util::JsonParseError("wrong schema");
      }
      const auto g = parseFingerprint(doc.at("g").asString());
      const auto gPrime = parseFingerprint(doc.at("gp").asString());
      const auto config = parseFingerprint(doc.at("config").asString());
      const auto verdict = ec::parseEquivalence(doc.at("verdict").asString());
      if (!g || !gPrime || !config || !verdict || !isCacheable(*verdict)) {
        throw util::JsonParseError("bad field");
      }
      CachedVerdict entry;
      entry.equivalence = *verdict;
      // v1 lines carry no cost: load them as 0 seconds — "cost unknown"
      // reads as cheapest-to-reprove, the conservative choice
      if (const util::JsonValue* seconds = doc.find("seconds");
          seconds != nullptr && !seconds->isNull()) {
        entry.proofSeconds = std::max(0.0, seconds->asNumber());
      }
      const util::JsonValue& cex = doc.at("counterexample");
      if (!cex.isNull()) {
        const auto stimuli =
            ec::parseStimuliKind(cex.at("stimuli").asString());
        if (!stimuli) {
          throw util::JsonParseError("bad stimuli kind");
        }
        entry.counterexample = ec::Counterexample{
            cex.at("input").asUint(), cex.at("fidelity").asNumber(), *stimuli};
      }
      // "config" doubles as the low fingerprint lane of the digest word;
      // the key stores it as the 64-bit digest
      const std::lock_guard<std::mutex> lock(mutex_);
      insertLocked(PairKey{*g, *gPrime, config->lo}, entry,
                   /*persist=*/false);
      ++loaded;
    } catch (const util::JsonParseError&) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++corruptLines_;
    }
  }
  return loaded;
}

std::size_t VerdictCache::loadFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return 0; // a cache that does not exist yet is simply empty
  }
  return load(is);
}

void VerdictCache::persistTo(std::ostream* os) {
  const std::lock_guard<std::mutex> lock(mutex_);
  persistStream_ = os;
}

std::string VerdictCache::toJsonLine(const PairKey& key,
                                     const CachedVerdict& verdict) {
  // "config" is padded to the same 32-hex shape as the fingerprints so one
  // parser (parseFingerprint) reads all three identity fields back
  util::JsonWriter json;
  json.beginObject()
      .field("schema", "qsimec-cache-v2")
      .field("g", key.g.hex())
      .field("gp", key.gPrime.hex())
      .field("config", Fingerprint{0, key.configDigest}.hex())
      .field("verdict", ec::toString(verdict.equivalence))
      .field("seconds", verdict.proofSeconds)
      .rawField("counterexample", ec::toJson(verdict.counterexample))
      .endObject();
  return json.str();
}

std::size_t VerdictCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}
std::uint64_t VerdictCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}
std::uint64_t VerdictCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}
std::uint64_t VerdictCache::stores() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stores_;
}
std::uint64_t VerdictCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}
double VerdictCache::evictedSeconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictedSeconds_;
}
std::uint64_t VerdictCache::corruptLines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return corruptLines_;
}
std::uint64_t VerdictCache::digestHits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return digestHits_;
}

} // namespace qsimec::svc
