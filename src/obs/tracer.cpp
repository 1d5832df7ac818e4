#include "obs/tracer.hpp"

#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace qsimec::obs {

namespace {

/// Microsecond values with nanosecond resolution; enough precision that
/// span ordering survives serialization of hour-long traces.
std::string formatMicros(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

std::string formatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

} // namespace

std::size_t Tracer::beginSpan(std::string_view name,
                              std::string_view category) {
  SpanEvent event;
  event.name = std::string(name);
  event.category = std::string(category);
  event.tsMicros = nowMicros();

  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] =
      tidOf_.try_emplace(std::this_thread::get_id(), nextTid_);
  if (inserted) {
    ++nextTid_;
  }
  event.tid = it->second;
  event.depth = depthOf_[event.tid]++;
  ++openCount_;
  events_.push_back(std::move(event));
  return events_.size() - 1;
}

void Tracer::endSpan(std::size_t index) {
  const double now = nowMicros();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index >= events_.size() || events_[index].durMicros >= 0.0) {
    return;
  }
  SpanEvent& event = events_[index];
  event.durMicros = now - event.tsMicros;
  if (event.durMicros < 0.0) {
    event.durMicros = 0.0; // clock granularity paranoia
  }
  if (int& depth = depthOf_[event.tid]; depth > 0) {
    --depth;
  }
  if (openCount_ > 0) {
    --openCount_;
  }
}

void Tracer::argString(std::size_t index, std::string_view key,
                       std::string_view value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index < events_.size()) {
    events_[index].args.push_back(
        SpanArg{std::string(key), std::string(value), true});
  }
}

void Tracer::argNumber(std::size_t index, std::string_view key,
                       double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index < events_.size()) {
    events_[index].args.push_back(
        SpanArg{std::string(key), formatNumber(value), false});
  }
}

void Tracer::argNumber(std::size_t index, std::string_view key,
                       std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (index < events_.size()) {
    events_[index].args.push_back(
        SpanArg{std::string(key), std::to_string(value), false});
  }
}

void Tracer::counter(std::string_view name, double value) {
  if (!std::isfinite(value)) {
    return; // a NaN/inf sample would render the export invalid JSON
  }
  CounterEvent event;
  event.name = std::string(name);
  event.tsMicros = nowMicros();
  event.value = value;
  const std::lock_guard<std::mutex> lock(mutex_);
  counterEvents_.push_back(std::move(event));
}

std::string Tracer::toChromeTraceJson() const {
  const double now = nowMicros();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& event : events_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    util::appendJsonEscaped(out, event.name);
    out += "\",\"cat\":\"";
    util::appendJsonEscaped(out, event.category);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    out += formatMicros(event.tsMicros);
    out += ",\"dur\":";
    const double dur = event.durMicros >= 0.0
                           ? event.durMicros
                           : std::max(0.0, now - event.tsMicros);
    out += formatMicros(dur);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool firstArg = true;
      for (const SpanArg& arg : event.args) {
        if (!firstArg) {
          out += ',';
        }
        firstArg = false;
        out += '"';
        util::appendJsonEscaped(out, arg.key);
        out += "\":";
        if (arg.quoted) {
          out += '"';
          util::appendJsonEscaped(out, arg.value);
          out += '"';
        } else {
          out += arg.value;
        }
      }
      out += '}';
    }
    out += '}';
  }
  // Counter samples ride along as "C" events on tid 0 — viewers group them
  // by name into counter tracks below the span lanes.
  for (const CounterEvent& event : counterEvents_) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"";
    util::appendJsonEscaped(out, event.name);
    out += "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":";
    out += formatMicros(event.tsMicros);
    out += ",\"args\":{\"value\":";
    out += formatNumber(event.value);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  os << toChromeTraceJson() << "\n";
  if (!os) {
    throw std::runtime_error("failed writing trace file: " + path);
  }
}

} // namespace qsimec::obs
