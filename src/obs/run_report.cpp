#include "obs/run_report.hpp"

#include "obs/postmortem.hpp"
#include "util/json_parse.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <tuple>

namespace qsimec::obs {

namespace {

std::string fmt(double value, int decimals = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string fmtCompact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

const util::JsonValue* findNumber(const util::JsonValue& obj,
                                  std::string_view key) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->kind() == util::JsonValue::Kind::Number)
             ? v
             : nullptr;
}

const std::string* findString(const util::JsonValue& obj,
                              std::string_view key) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->kind() == util::JsonValue::Kind::String)
             ? &v->asString()
             : nullptr;
}

/// The duration a journal event carries, in seconds (see
/// RunReport::familySeconds for the fields read, first match wins).
std::optional<double> durationSeconds(const util::JsonValue& event) {
  for (const std::string_view key :
       {"seconds", "total_seconds", "pause_seconds"}) {
    if (const util::JsonValue* v = findNumber(event, key)) {
      return v->asNumber();
    }
  }
  if (const util::JsonValue* v = findNumber(event, "wall_nanos")) {
    return v->asNumber() / 1e9;
  }
  return std::nullopt;
}

/// Either-format table/section writer: both report models render through
/// one code path into Markdown or a minimal self-contained HTML page.
class ReportBuilder {
public:
  ReportBuilder(bool html, std::string_view title) : html_(html) {
    if (html_) {
      out_ << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
           << "<title>" << escape(title) << "</title><style>"
           << "body{font-family:sans-serif;margin:2em;}"
           << "table{border-collapse:collapse;margin:1em 0;}"
           << "td,th{border:1px solid #999;padding:0.3em 0.6em;"
           << "text-align:right;}th{background:#eee;}"
           << "td:first-child,th:first-child{text-align:left;}"
           << "</style></head><body>\n"
           << "<h1>" << escape(title) << "</h1>\n";
    } else {
      out_ << "# " << title << "\n\n";
    }
  }

  void heading(std::string_view text) {
    if (html_) {
      out_ << "<h2>" << escape(text) << "</h2>\n";
    } else {
      out_ << "## " << text << "\n\n";
    }
  }

  void para(std::string_view text) {
    if (html_) {
      out_ << "<p>" << escape(text) << "</p>\n";
    } else {
      out_ << text << "\n\n";
    }
  }

  void bullets(const std::vector<std::string>& items) {
    if (html_) {
      out_ << "<ul>";
      for (const std::string& item : items) {
        out_ << "<li>" << escape(item) << "</li>";
      }
      out_ << "</ul>\n";
      return;
    }
    for (const std::string& item : items) {
      out_ << "- " << item << '\n';
    }
    out_ << '\n';
  }

  void table(const std::vector<std::string>& header,
             const std::vector<std::vector<std::string>>& rows) {
    if (html_) {
      out_ << "<table><tr>";
      for (const std::string& h : header) {
        out_ << "<th>" << escape(h) << "</th>";
      }
      out_ << "</tr>\n";
      for (const auto& row : rows) {
        out_ << "<tr>";
        for (const std::string& cell : row) {
          out_ << "<td>" << escape(cell) << "</td>";
        }
        out_ << "</tr>\n";
      }
      out_ << "</table>\n";
      return;
    }
    const auto line = [this](const std::vector<std::string>& cells) {
      out_ << '|';
      for (const std::string& cell : cells) {
        out_ << ' ' << cell << " |";
      }
      out_ << '\n';
    };
    line(header);
    std::vector<std::string> rule(header.size(), "---");
    line(rule);
    for (const auto& row : rows) {
      line(row);
    }
    out_ << '\n';
  }

  [[nodiscard]] std::string finish() {
    if (html_) {
      out_ << "</body></html>\n";
    }
    return out_.str();
  }

private:
  static std::string escape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out += c;
      }
    }
    return out;
  }

  bool html_;
  std::ostringstream out_;
};

std::vector<std::string> histRow(std::string key,
                                 const HistogramSnapshot& hist) {
  return {std::move(key),
          std::to_string(hist.count),
          fmtCompact(hist.mean()),
          fmtCompact(hist.percentile(0.50)),
          fmtCompact(hist.percentile(0.90)),
          fmtCompact(hist.percentile(0.99))};
}

/// One histogram row per key; `what` names the key column.
void histTable(ReportBuilder& out, std::string_view what,
               const std::map<std::string, HistogramSnapshot>& hists) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& [key, hist] : hists) {
    rows.push_back(histRow(key, hist));
  }
  out.table({std::string(what), "count", "mean", "p50", "p90", "p99"}, rows);
}

bool isHtml(const RunReportOptions& options) {
  return options.format == RunReportOptions::Format::Html;
}

} // namespace

bool isRunJournal(const std::vector<std::string>& lines) {
  const auto first =
      std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
        return line.find_first_not_of(" \t\r") != std::string::npos;
      });
  if (first == lines.end()) {
    return true;
  }
  try {
    const util::JsonValue doc = util::parseJson(*first);
    return doc.isObject() && findString(doc, "event") != nullptr;
  } catch (const util::JsonParseError&) {
    return false;
  }
}

RunReport parseRunJournal(const std::vector<std::string>& lines) {
  RunReport report;
  std::size_t flowStarts = 0;
  bool stageOpen = false;
  std::map<std::tuple<std::string, std::string, std::uint64_t>,
           RunReport::Hotspot>
      hotspots;
  std::map<std::string, std::uint64_t> flowVerdicts;
  std::map<std::string, std::uint64_t> pairVerdicts;

  for (const std::string& line : lines) {
    if (line.empty()) {
      continue;
    }
    util::JsonValue event;
    try {
      event = util::parseJson(line);
    } catch (const util::JsonParseError&) {
      ++report.malformedLines;
      continue;
    }
    if (!event.isObject()) {
      ++report.malformedLines;
      continue;
    }
    const std::string* name = findString(event, "event");
    if (name == nullptr) {
      ++report.malformedLines;
      continue;
    }
    ++report.events;
    ++report.eventCounts[*name];
    const util::JsonValue* ts = findNumber(event, "ts_micros");
    const double micros = ts != nullptr ? ts->asNumber() : 0.0;
    const std::optional<double> seconds = durationSeconds(event);
    if (seconds) {
      report.familySeconds[*name].observe(*seconds);
    }

    if (*name == "flow.start") {
      ++flowStarts;
      if (flowStarts > 1) {
        report.interleaved = true;
        report.stages.clear();
        stageOpen = false;
      }
    } else if (*name == "flow.stage") {
      if (const std::string* stage = findString(event, "stage");
          stage != nullptr && !report.interleaved) {
        if (stageOpen) {
          report.stages.back().endMicros = micros;
        }
        report.stages.push_back(RunReport::StageSpan{*stage, micros, micros});
        stageOpen = true;
      }
    } else if (*name == "flow.verdict") {
      if (!report.interleaved && stageOpen) {
        report.stages.back().endMicros = micros;
        stageOpen = false;
      }
      if (const std::string* outcome = findString(event, "outcome")) {
        ++flowVerdicts[*outcome];
      }
      if (const std::string* tier = findString(event, "tier");
          tier != nullptr && seconds) {
        report.tierSeconds[*tier].observe(*seconds);
      }
    } else if (*name == "svc.pair.verdict") {
      if (const std::string* outcome = findString(event, "outcome")) {
        ++pairVerdicts[*outcome];
      }
    } else if (*name == "sim.stimulus") {
      if (const util::JsonValue* dev = findNumber(event, "deviation")) {
        report.stimulusDeviation.observe(dev->asNumber());
      }
    } else if (*name == "attr.hotspot") {
      const std::string* checker = findString(event, "checker");
      const std::string* side = findString(event, "side");
      const util::JsonValue* gate = findNumber(event, "gate");
      if (checker == nullptr || side == nullptr || gate == nullptr) {
        continue;
      }
      RunReport::Hotspot& h =
          hotspots[std::make_tuple(*checker, *side, gate->asUint())];
      h.checker = *checker;
      h.side = *side;
      h.gate = gate->asUint();
      if (const util::JsonValue* v = findNumber(event, "applications")) {
        h.applications += v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "nodes_delta")) {
        h.nodesDelta += static_cast<std::int64_t>(v->asNumber());
      }
      if (const util::JsonValue* v = findNumber(event, "compute_lookups")) {
        h.computeLookups += v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "compute_hits")) {
        h.computeHits += v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "wall_nanos")) {
        h.wallNanos += v->asUint();
      }
    } else if (*name == "svc.batch.done") {
      report.hasBatch = true;
      if (const util::JsonValue* v = findNumber(event, "pairs")) {
        report.pairs = v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "cache_hits")) {
        report.cacheHits = v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "cache_stores")) {
        report.cacheStores = v->asUint();
      }
      if (const util::JsonValue* v = findNumber(event, "deduped")) {
        report.deduped = v->asUint();
      }
      report.batchSeconds = seconds.value_or(0.0);
    }
  }

  // batch journals report per-pair verdicts (they cover cache hits and
  // deduplicated pairs too); single-flow journals the flow verdict
  report.verdictCounts =
      pairVerdicts.empty() ? std::move(flowVerdicts) : std::move(pairVerdicts);

  report.hotspots.reserve(hotspots.size());
  for (auto& [key, h] : hotspots) {
    report.hotspots.push_back(std::move(h));
  }
  std::sort(report.hotspots.begin(), report.hotspots.end(),
            [](const RunReport::Hotspot& a, const RunReport::Hotspot& b) {
              if (a.nodesDelta != b.nodesDelta) {
                return a.nodesDelta > b.nodesDelta;
              }
              if (a.computeLookups != b.computeLookups) {
                return a.computeLookups > b.computeLookups;
              }
              return std::tie(a.checker, a.side, a.gate) <
                     std::tie(b.checker, b.side, b.gate);
            });
  return report;
}

void attachTraceSummary(RunReport& report, std::string_view traceJson) {
  const util::JsonValue doc = util::parseJson(traceJson);
  std::map<std::string, RunReport::SpanAggregate> spans;
  for (const util::JsonValue& ev : doc.at("traceEvents").elements()) {
    if (!ev.isObject()) {
      continue;
    }
    const std::string* ph = findString(ev, "ph");
    const std::string* name = findString(ev, "name");
    const util::JsonValue* dur = findNumber(ev, "dur");
    if (ph == nullptr || *ph != "X" || name == nullptr || dur == nullptr) {
      continue;
    }
    RunReport::SpanAggregate& agg = spans[*name];
    agg.name = *name;
    ++agg.count;
    agg.totalMicros += dur->asNumber();
    agg.maxMicros = std::max(agg.maxMicros, dur->asNumber());
  }
  report.traceSpans.clear();
  report.traceSpans.reserve(spans.size());
  for (auto& [name, agg] : spans) {
    report.traceSpans.push_back(std::move(agg));
  }
  std::sort(report.traceSpans.begin(), report.traceSpans.end(),
            [](const RunReport::SpanAggregate& a,
               const RunReport::SpanAggregate& b) {
              if (a.totalMicros != b.totalMicros) {
                return a.totalMicros > b.totalMicros;
              }
              return a.name < b.name;
            });
}

namespace {

std::int64_t asInt64(const util::JsonValue& v) {
  return static_cast<std::int64_t>(v.asNumber());
}

void parseDumpLine(PostmortemReport& report, const util::JsonValue& doc,
                   bool firstLine) {
  if (firstLine) {
    const util::JsonValue* schema = doc.find("schema");
    if (schema == nullptr || schema->asString() != kPostmortemSchema) {
      throw util::JsonParseError("not a qsimec-postmortem-v1 dump");
    }
    report.reason = doc.at("reason").asString();
    report.label = doc.at("label").asString();
    report.redacted = doc.at("redacted").asBool();
    if (const util::JsonValue* v = doc.find("signal")) {
      report.signal = static_cast<int>(v->asNumber());
    }
    if (const util::JsonValue* v = doc.find("events_recorded")) {
      report.eventsRecorded = v->asUint();
    }
    if (const util::JsonValue* v = doc.find("events_dropped")) {
      report.eventsDropped = v->asUint();
    }
    return;
  }
  const std::string& type = doc.at("type").asString();
  if (type == "pair") {
    report.pairs.push_back(PostmortemReport::Pair{
        doc.at("label").asString(), doc.at("fingerprint").asString()});
  } else if (type == "thread") {
    PostmortemReport::Thread t;
    t.slot = static_cast<int>(doc.at("slot").asNumber());
    if (const util::JsonValue* v = doc.find("label")) {
      t.label = v->asString();
    }
    t.active = doc.at("active").asBool();
    t.heartbeatAgeMicros = doc.at("heartbeat_age_micros").asUint();
    t.nodesLive = asInt64(doc.at("nodes_live"));
    t.uniqueFillPpm = asInt64(doc.at("unique_fill_ppm"));
    t.gateLeft = asInt64(doc.at("gate_left"));
    t.gateRight = asInt64(doc.at("gate_right"));
    t.events = doc.at("events").asUint();
    t.eventsDropped = doc.at("events_dropped").asUint();
    report.threads.push_back(std::move(t));
  } else if (type == "event") {
    PostmortemReport::Event e;
    if (const util::JsonValue* v = doc.find("seq")) {
      e.seq = v->asUint();
    }
    if (const util::JsonValue* v = doc.find("ts_micros")) {
      e.tsMicros = v->asUint();
    }
    if (const util::JsonValue* v = doc.find("slot")) {
      e.slot = static_cast<int>(v->asNumber());
    }
    e.kind = doc.at("kind").asString();
    e.name = doc.at("name").asString();
    e.a = asInt64(doc.at("a"));
    if (const util::JsonValue* v = doc.find("b")) {
      e.b = asInt64(*v);
    }
    report.events.push_back(std::move(e));
  } else if (type == "metrics") {
    // the embedded snapshot must parse, but the report does not render it
    if (const util::JsonValue* data = doc.find("data")) {
      (void)parseMetricsSnapshot(*data);
    }
  } else if (type == "end") {
    report.complete = true;
  } else {
    throw util::JsonParseError("unknown line type: " + type);
  }
}

} // namespace

PostmortemReport parsePostmortem(const std::vector<std::string>& lines) {
  PostmortemReport report;
  bool sawHeader = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    try {
      const util::JsonValue doc = util::parseJson(lines[i]);
      if (!doc.isObject()) {
        throw util::JsonParseError("expected a JSON object");
      }
      parseDumpLine(report, doc, !sawHeader);
    } catch (const std::exception& e) {
      report.error = "line " + std::to_string(i + 1) + ": " + e.what();
      return report;
    }
    sawHeader = true;
  }
  if (!sawHeader) {
    report.error = "empty dump";
    return report;
  }
  std::stable_sort(report.events.begin(), report.events.end(),
                   [](const PostmortemReport::Event& a,
                      const PostmortemReport::Event& b) {
                     return a.seq < b.seq;
                   });
  report.valid = true;
  return report;
}

std::string renderRunReport(const RunReport& report,
                            const RunReportOptions& options) {
  ReportBuilder out(isHtml(options), "qsimec run report");
  out.para("journal events: " + std::to_string(report.events) +
           (report.malformedLines > 0
                ? " (malformed lines skipped: " +
                      std::to_string(report.malformedLines) + ")"
                : ""));

  out.heading("Stage waterfall");
  if (report.interleaved) {
    out.para("Multiple flows interleave in this journal; see the flow.start "
             "and flow.stage rows under Event counts instead of a "
             "waterfall.");
  } else if (report.stages.empty()) {
    out.para("No stage events in this journal.");
  } else {
    std::vector<std::vector<std::string>> rows;
    for (const RunReport::StageSpan& s : report.stages) {
      rows.push_back({s.stage, fmt(s.beginMicros / 1000.0),
                      fmt((s.endMicros - s.beginMicros) / 1000.0)});
    }
    out.table({"stage", "start (ms)", "duration (ms)"}, rows);
  }

  out.heading("Tier routing (flow seconds)");
  if (report.tierSeconds.empty()) {
    out.para("No tier events in this journal.");
  } else {
    histTable(out, "tier", report.tierSeconds);
  }

  out.heading("Verdicts");
  if (report.verdictCounts.empty()) {
    out.para("No verdict events in this journal.");
  } else {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [verdict, count] : report.verdictCounts) {
      rows.push_back({verdict, std::to_string(count)});
    }
    out.table({"verdict", "count"}, rows);
  }

  out.heading("Hotspot gates");
  if (report.hotspots.empty()) {
    out.para("No attribution events in this journal (attribution disabled, "
             "or no journal-attached checker ran).");
  } else {
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0;
         i < report.hotspots.size() && i < options.topRows; ++i) {
      const RunReport::Hotspot& h = report.hotspots[i];
      const double hitRate =
          h.computeLookups == 0
              ? 0.0
              : static_cast<double>(h.computeHits) /
                    static_cast<double>(h.computeLookups);
      rows.push_back({h.checker + "/" + h.side,
                      std::to_string(h.gate),
                      std::to_string(h.applications),
                      std::to_string(h.nodesDelta),
                      std::to_string(h.computeLookups),
                      fmt(hitRate, 2),
                      fmt(static_cast<double>(h.wallNanos) / 1e6)});
    }
    out.table({"checker/side", "gate", "applications", "nodes Δ",
               "compute lookups", "hit rate", "wall (ms)"},
              rows);
  }

  if (report.hasBatch) {
    out.heading("Batch cache and deduplication");
    out.table({"pairs", "cache hits", "cache stores", "deduped",
               "wall (s)"},
              {{std::to_string(report.pairs), std::to_string(report.cacheHits),
                std::to_string(report.cacheStores),
                std::to_string(report.deduped), fmt(report.batchSeconds)}});
  }

  out.heading("Latency by event family (seconds)");
  if (report.familySeconds.empty()) {
    out.para("No duration-carrying events in this journal.");
  } else {
    histTable(out, "event", report.familySeconds);
  }

  if (report.stimulusDeviation.count > 0) {
    out.heading("Stimulus fidelity deviations");
    histTable(out, "metric", {{"deviation", report.stimulusDeviation}});
  }

  out.heading("Event counts");
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [name, count] : report.eventCounts) {
      rows.push_back({name, std::to_string(count)});
    }
    out.table({"event", "count"}, rows);
  }

  if (!report.traceSpans.empty()) {
    out.heading("Trace spans");
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0;
         i < report.traceSpans.size() && i < options.topRows; ++i) {
      const RunReport::SpanAggregate& s = report.traceSpans[i];
      rows.push_back({s.name, std::to_string(s.count),
                      fmt(s.totalMicros / 1000.0), fmt(s.maxMicros / 1000.0)});
    }
    out.table({"span", "count", "total (ms)", "max (ms)"}, rows);
  }

  return out.finish();
}

std::string renderRunReport(const PostmortemReport& r,
                            const RunReportOptions& options) {
  ReportBuilder out(isHtml(options), "qsimec postmortem");
  std::vector<std::string> facts{"reason: " + r.reason};
  if (!r.label.empty()) {
    facts.push_back("label: " + r.label);
  }
  if (r.signal != 0) {
    facts.push_back("signal: " + std::to_string(r.signal));
  }
  facts.push_back(std::string("redacted: ") + (r.redacted ? "true" : "false"));
  if (!r.redacted) {
    facts.push_back("events recorded: " + std::to_string(r.eventsRecorded) +
                    " (dropped: " + std::to_string(r.eventsDropped) + ")");
  }
  if (!r.complete) {
    facts.push_back("WARNING: dump is truncated (no end marker)");
  }
  out.bullets(facts);

  if (!r.pairs.empty()) {
    out.heading("Active pairs");
    std::vector<std::vector<std::string>> rows;
    for (const PostmortemReport::Pair& p : r.pairs) {
      rows.push_back({p.label, p.fingerprint});
    }
    out.table({"pair", "fingerprint"}, rows);
  }

  if (!r.threads.empty()) {
    // stall attribution: the quietest heartbeat is the prime suspect
    const PostmortemReport::Thread* oldest = &r.threads.front();
    const PostmortemReport::Thread* hotspot = &r.threads.front();
    for (const PostmortemReport::Thread& t : r.threads) {
      if (t.heartbeatAgeMicros > oldest->heartbeatAgeMicros) {
        oldest = &t;
      }
      if (t.nodesLive > hotspot->nodesLive) {
        hotspot = &t;
      }
    }
    const auto slotName = [](const PostmortemReport::Thread& t) {
      return std::to_string(t.slot) +
             (t.label.empty() ? "" : " (" + t.label + ")");
    };
    out.heading("Stall attribution");
    out.para("Oldest heartbeat: slot " + slotName(*oldest) + ", quiet for " +
             std::to_string(oldest->heartbeatAgeMicros) + " us");
    out.heading("Hotspot at death");
    out.para("Slot " + slotName(*hotspot) + ": " +
             std::to_string(hotspot->nodesLive) +
             " live nodes, in-flight gate left=" +
             std::to_string(hotspot->gateLeft) +
             " right=" + std::to_string(hotspot->gateRight));
    out.heading("Threads");
    std::vector<std::vector<std::string>> rows;
    for (const PostmortemReport::Thread& t : r.threads) {
      rows.push_back({std::to_string(t.slot), t.label,
                      t.active ? "yes" : "no",
                      std::to_string(t.heartbeatAgeMicros),
                      std::to_string(t.nodesLive),
                      std::to_string(t.uniqueFillPpm),
                      std::to_string(t.gateLeft), std::to_string(t.gateRight),
                      std::to_string(t.events),
                      std::to_string(t.eventsDropped)});
    }
    out.table({"slot", "label", "active", "heartbeat age (us)", "nodes live",
               "fill (ppm)", "gate L", "gate R", "events", "dropped"},
              rows);
  }

  if (!r.events.empty()) {
    out.heading("Timeline (" + std::to_string(r.events.size()) + " events)");
    std::vector<std::vector<std::string>> rows;
    for (const PostmortemReport::Event& e : r.events) {
      rows.push_back({std::to_string(e.seq), std::to_string(e.tsMicros),
                      std::to_string(e.slot), e.kind, e.name,
                      std::to_string(e.a), std::to_string(e.b)});
    }
    out.table({"seq", "t (us)", "slot", "kind", "name", "a", "b"}, rows);
  }
  return out.finish();
}

} // namespace qsimec::obs
