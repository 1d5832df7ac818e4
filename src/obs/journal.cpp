#include "obs/journal.hpp"

#include "obs/context.hpp"
#include "util/json.hpp"

#include <cmath>
#include <cstdio>

namespace qsimec::obs {

namespace {

void appendNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null"; // NaN/inf have no JSON spelling
    return;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

void appendKey(std::string& out, std::string_view key) {
  out += ",\"";
  util::appendJsonEscaped(out, key);
  out += "\":";
}

} // namespace

JournalEvent::JournalEvent(const Context& obs, JournalLevel level,
                           std::string_view name)
    : journal_(obs.journal) {
  if (journal_ == nullptr) {
    return; // null fast path: no clock read, no allocation
  }
  line_ = "{\"ts_micros\":";
  appendNumber(line_, journal_->nowMicros());
  line_ += ",\"level\":\"";
  line_ += toString(level);
  line_ += "\",\"event\":\"";
  util::appendJsonEscaped(line_, name);
  line_ += '"';
  if (obs.requestId) {
    num("request_id", *obs.requestId);
  }
  if (obs.pairId) {
    num("pair_id", *obs.pairId);
  }
  if (obs.lane) {
    num("lane", *obs.lane);
  }
}

JournalEvent::~JournalEvent() {
  if (journal_ != nullptr) {
    line_ += '}';
    journal_->commit(line_);
  }
}

JournalEvent& JournalEvent::str(std::string_view key, std::string_view value) {
  if (journal_ != nullptr) {
    appendKey(line_, key);
    line_ += '"';
    util::appendJsonEscaped(line_, value);
    line_ += '"';
  }
  return *this;
}

JournalEvent& JournalEvent::num(std::string_view key, double value) {
  if (journal_ != nullptr) {
    appendKey(line_, key);
    appendNumber(line_, value);
  }
  return *this;
}

JournalEvent& JournalEvent::num(std::string_view key, std::uint64_t value) {
  if (journal_ != nullptr) {
    appendKey(line_, key);
    line_ += std::to_string(value);
  }
  return *this;
}

JournalEvent& JournalEvent::flag(std::string_view key, bool value) {
  if (journal_ != nullptr) {
    appendKey(line_, key);
    line_ += value ? "true" : "false";
  }
  return *this;
}

void Journal::commit(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++lineCount_;
  if (stream_ != nullptr) {
    *stream_ << line << '\n';
    stream_->flush();
  }
}

} // namespace qsimec::obs
