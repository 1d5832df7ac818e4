// In-memory span recorder of the ledger's traced run. Spans are recorded by
// the ledger around its own calls into the program's layers (nothing inside
// the program is instrumented), kept in memory, and written out once at exit
// as Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev).

#pragma once

#include "util/json.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qsimec::ledger {

class SpanRecorder {
public:
  struct Span {
    std::string name;
    double start{0.0}; // seconds since the recorder was created
    double end{0.0};
    int parent{-1}; // index into spans(), -1 for a root
    std::uint64_t op{0};
  };

  /// Open a span nested in the innermost open one.
  void open(std::string name, std::uint64_t op) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0.0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
  }

  /// Close the innermost open span and return its duration in seconds.
  double close() {
    Span& span = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    span.end = now();
    return span.end - span.start;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (duration minus the time covered by direct children) summed
  /// per span name over spans[from, end). Children of one span never
  /// overlap: the ledger calls the layers one after another.
  [[nodiscard]] std::map<std::string, double>
  selfSeconds(std::size_t from = 0) const {
    std::vector<double> self(spans_.size() - from);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      self[i - from] += spans_[i].end - spans_[i].start;
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(from)) {
        self[static_cast<std::size_t>(parent) - from] -=
            spans_[i].end - spans_[i].start;
      }
    }
    std::map<std::string, double> byName;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      byName[spans_[i].name] += self[i - from];
    }
    return byName;
  }

  /// Chrome trace_event JSON: one complete ("X") event per span, timed in
  /// whole microseconds, with the op id and parent index as args.
  [[nodiscard]] std::string chromeTrace() const {
    const auto micros = [](double seconds) {
      return static_cast<std::int64_t>(std::llround(seconds * 1e6));
    };
    util::JsonWriter json;
    json.beginObject().beginArray("traceEvents");
    for (const Span& span : spans_) {
      util::JsonWriter args;
      args.beginObject()
          .field("op", span.op)
          .field("parent", span.parent)
          .endObject();
      json.beginObject()
          .field("name", span.name)
          .field("ph", "X")
          .field("ts", micros(span.start))
          .field("dur", micros(span.end - span.start))
          .field("pid", 1)
          .field("tid", 1)
          .rawField("args", args.str())
          .endObject();
    }
    json.endArray().field("displayTimeUnit", "ms").endObject();
    return json.str();
  }

private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_{
      std::chrono::steady_clock::now()};
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// A span that closes at the end of its scope, or earlier via close().
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t op)
      : recorder_(recorder) {
    recorder_.open(std::move(name), op);
  }
  ~ScopedSpan() {
    if (open_) {
      recorder_.close();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double close() {
    open_ = false;
    return recorder_.close();
  }

private:
  SpanRecorder& recorder_;
  bool open_{true};
};

} // namespace qsimec::ledger
