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
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  // a lookup refreshes the entry's recency: same cost, newest tick
  Slot& slot = it->second;
  auto node = evictionOrder_.extract({slot.verdict.proofSeconds, slot.tick});
  slot.tick = ++ticks_;
  node.key().second = slot.tick;
  evictionOrder_.insert(std::move(node));
  return slot.verdict;
}

void VerdictCache::store(const PairKey& key, const CachedVerdict& verdict) {
  if (!isCacheable(verdict.equivalence)) {
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  insertLocked(key, verdict, /*persist=*/true);
}

void VerdictCache::insertLocked(const PairKey& key,
                                const CachedVerdict& verdict, bool persist) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    evictionOrder_.erase({it->second.verdict.proofSeconds, it->second.tick});
    it->second = Slot{verdict, ++ticks_};
  } else {
    if (entries_.size() >= capacity_) {
      const auto victim = evictionOrder_.begin();
      evictedSeconds_ += victim->first.first;
      entries_.erase(victim->second);
      evictionOrder_.erase(victim);
      ++evictions_;
    }
    it = entries_.emplace(key, Slot{verdict, ++ticks_}).first;
  }
  evictionOrder_.emplace(Rank{verdict.proofSeconds, it->second.tick}, key);
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
  return entries_.size();
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

} // namespace qsimec::svc
