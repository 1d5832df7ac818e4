#include "obs/journal.hpp"

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

JournalEvent::JournalEvent(Journal* journal, JournalLevel level,
                           std::string_view name)
    : journal_(journal) {
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
}

JournalEvent::~JournalEvent() {
  if (journal_ != nullptr) {
    line_ += '}';
    journal_->commit(std::move(line_));
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

void Journal::commit(std::string line) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stream_ != nullptr) {
    *stream_ << line << '\n';
    stream_->flush();
  }
  if (keepLines_) {
    lines_.push_back(std::move(line));
  }
}

std::string Journal::dump() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const std::string& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

} // namespace qsimec::obs
