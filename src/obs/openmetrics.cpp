#include "obs/openmetrics.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>

namespace qsimec::obs {

namespace {

/// Shortest round-trip decimal representation (std::to_chars), with the
/// OpenMetrics spellings for the non-finite values.
std::string formatValue(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, ptr) : std::string("0");
}

bool isNameStart(char c) {
  return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_' ||
         c == ':';
}

bool isNameChar(char c) {
  return isNameStart(c) || (std::isdigit(static_cast<unsigned char>(c)) != 0);
}

bool isValidName(std::string_view name) {
  if (name.empty() || !isNameStart(name.front())) {
    return false;
  }
  for (const char c : name) {
    if (!isNameChar(c)) {
      return false;
    }
  }
  return true;
}

/// Accepts decimal floats plus the OpenMetrics non-finite spellings.
bool isValidValue(std::string_view value) {
  if (value.empty()) {
    return false;
  }
  if (value == "+Inf" || value == "-Inf" || value == "Inf" ||
      value == "NaN") {
    return true;
  }
  const std::string copy(value);
  char* end = nullptr;
  std::strtod(copy.c_str(), &end);
  return end != nullptr && *end == '\0' && end != copy.c_str();
}

double parseValue(std::string_view value) {
  if (value == "+Inf" || value == "Inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (value == "-Inf") {
    return -std::numeric_limits<double>::infinity();
  }
  if (value == "NaN") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(std::string(value).c_str(), nullptr);
}

/// The family name a snapshot key renders under, collision-disambiguated
/// (two dotted names may sanitize identically).
class FamilyNamer {
public:
  explicit FamilyNamer(std::string prefix) : prefix_(std::move(prefix)) {}

  std::string resolve(std::string_view rawName) {
    std::string base = prefix_.empty() ? std::string() : prefix_ + '_';
    base += sanitizeMetricName(rawName);
    std::string name = base;
    for (std::size_t n = 2; !used_.insert(name).second; ++n) {
      name = base;
      name += '_';
      name += std::to_string(n);
    }
    return name;
  }

private:
  std::string prefix_;
  std::set<std::string> used_;
};

void writeMeta(std::ostringstream& out, const std::string& family,
               std::string_view type, std::string_view rawName) {
  out << "# TYPE " << family << ' ' << type << '\n';
  out << "# HELP " << family << " qsimec " << type << ' ' << rawName << '\n';
}

} // namespace

std::string sanitizeMetricName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() &&
      std::isdigit(static_cast<unsigned char>(name.front())) != 0) {
    out.push_back('_');
  }
  for (const char c : name) {
    out.push_back(isNameChar(c) ? c : '_');
  }
  if (out.empty()) {
    out.push_back('_');
  }
  return out;
}

std::string renderOpenMetrics(const MetricsSnapshot& snapshot,
                              const OpenMetricsOptions& options) {
  std::ostringstream out;
  FamilyNamer namer(options.prefix.empty()
                        ? std::string{}
                        : sanitizeMetricName(options.prefix));

  for (const auto& [name, value] : snapshot.counters) {
    const std::string family = namer.resolve(name);
    writeMeta(out, family, "counter", name);
    out << family << "_total " << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string family = namer.resolve(name);
    writeMeta(out, family, "gauge", name);
    out << family << ' ' << formatValue(value) << '\n';
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string family = namer.resolve(name);
    writeMeta(out, family, "histogram", name);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < HistogramSnapshot::kBucketCount; ++i) {
      if (hist.buckets[i] == 0) {
        continue;
      }
      cumulative += hist.buckets[i];
      out << family << "_bucket{le=\""
          << formatValue(HistogramSnapshot::bucketUpperBound(i)) << "\"} "
          << cumulative << '\n';
    }
    // the +Inf bucket always closes the series at the total count — also
    // for legacy snapshots whose explicit buckets undercount
    out << family << "_bucket{le=\"+Inf\"} " << hist.count << '\n';
    out << family << "_sum " << formatValue(hist.sum) << '\n';
    out << family << "_count " << hist.count << '\n';
  }
  out << "# EOF\n";
  return out.str();
}

std::vector<OpenMetricsIssue> validateOpenMetrics(std::string_view text) {
  std::vector<OpenMetricsIssue> issues;
  const auto issue = [&issues](std::size_t line, std::string message) {
    issues.push_back(OpenMetricsIssue{line, std::move(message)});
  };

  std::map<std::string, std::string, std::less<>> familyTypes;
  // per histogram family: last cumulative bucket value, last le bound,
  // whether the +Inf bucket closed the series, and the closing count
  struct HistState {
    double lastLe = -std::numeric_limits<double>::infinity();
    std::uint64_t lastBucket = 0;
    bool sawInf = false;
    std::uint64_t infValue = 0;
  };
  std::map<std::string, HistState, std::less<>> histograms;
  bool sawEof = false;

  std::size_t lineNo = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineNo;
    if (line.empty()) {
      continue;
    }
    if (sawEof) {
      issue(lineNo, "content after # EOF");
      break;
    }

    if (line.front() == '#') {
      if (line == "# EOF") {
        sawEof = true;
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t space = rest.find(' ');
        if (space == std::string_view::npos) {
          issue(lineNo, "malformed TYPE line");
          continue;
        }
        const std::string_view family = rest.substr(0, space);
        const std::string_view type = rest.substr(space + 1);
        if (!isValidName(family)) {
          issue(lineNo, "invalid metric family name in TYPE");
          continue;
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped" && type != "info") {
          issue(lineNo, "unknown metric type '" + std::string(type) + "'");
          continue;
        }
        if (!familyTypes.emplace(family, type).second) {
          issue(lineNo,
                "duplicate TYPE for family '" + std::string(family) + "'");
        }
        continue;
      }
      if (line.rfind("# HELP ", 0) == 0) {
        continue;
      }
      issue(lineNo, "unknown comment directive");
      continue;
    }

    // sample line: name[{labels}] value
    std::size_t nameEnd = 0;
    while (nameEnd < line.size() && isNameChar(line[nameEnd])) {
      ++nameEnd;
    }
    const std::string_view name = line.substr(0, nameEnd);
    if (!isValidName(name)) {
      issue(lineNo, "invalid sample name");
      continue;
    }
    std::string_view rest = line.substr(nameEnd);
    std::string_view labels;
    if (!rest.empty() && rest.front() == '{') {
      const std::size_t close = rest.find('}');
      if (close == std::string_view::npos) {
        issue(lineNo, "unterminated label set");
        continue;
      }
      labels = rest.substr(1, close - 1);
      rest = rest.substr(close + 1);
    }
    if (rest.empty() || rest.front() != ' ') {
      issue(lineNo, "missing sample value");
      continue;
    }
    const std::string_view value = rest.substr(1);
    if (!isValidValue(value)) {
      issue(lineNo, "invalid sample value '" + std::string(value) + "'");
      continue;
    }

    // resolve the declared family this sample belongs to
    std::string family(name);
    std::string suffix;
    for (const std::string_view candidate :
         {std::string_view{"_total"}, std::string_view{"_bucket"},
          std::string_view{"_sum"}, std::string_view{"_count"},
          std::string_view{"_created"}}) {
      if (name.size() > candidate.size() &&
          name.substr(name.size() - candidate.size()) == candidate) {
        const std::string_view base =
            name.substr(0, name.size() - candidate.size());
        if (familyTypes.find(base) != familyTypes.end()) {
          family = std::string(base);
          suffix = std::string(candidate);
          break;
        }
      }
    }
    const auto typeIt = familyTypes.find(family);
    if (typeIt == familyTypes.end()) {
      issue(lineNo, "sample '" + std::string(name) +
                        "' has no preceding TYPE metadata");
      continue;
    }
    const std::string& type = typeIt->second;
    if (type == "counter" && suffix != "_total" && suffix != "_created") {
      issue(lineNo, "counter sample must use the _total suffix");
      continue;
    }
    if (type == "gauge" && !suffix.empty()) {
      issue(lineNo, "gauge sample must not carry a suffix");
      continue;
    }
    if (type == "histogram") {
      HistState& state = histograms[family];
      if (suffix == "_bucket") {
        constexpr std::string_view lePrefix = "le=\"";
        if (labels.rfind(lePrefix, 0) != 0 || labels.back() != '"') {
          issue(lineNo, "histogram bucket without le label");
          continue;
        }
        const std::string_view leText =
            labels.substr(lePrefix.size(),
                          labels.size() - lePrefix.size() - 1);
        if (!isValidValue(leText)) {
          issue(lineNo, "invalid le bound '" + std::string(leText) + "'");
          continue;
        }
        const double le = parseValue(leText);
        if (le <= state.lastLe) {
          issue(lineNo, "histogram le bounds not increasing");
        }
        state.lastLe = le;
        const auto bucketValue =
            static_cast<std::uint64_t>(parseValue(value));
        if (bucketValue < state.lastBucket) {
          issue(lineNo, "histogram bucket counts not cumulative");
        }
        state.lastBucket = bucketValue;
        if (std::isinf(le) && le > 0) {
          state.sawInf = true;
          state.infValue = bucketValue;
        }
      } else if (suffix == "_count") {
        const auto countValue =
            static_cast<std::uint64_t>(parseValue(value));
        if (!state.sawInf) {
          issue(lineNo, "histogram _count before le=\"+Inf\" bucket");
        } else if (countValue != state.infValue) {
          issue(lineNo, "histogram _count disagrees with +Inf bucket");
        }
      } else if (suffix != "_sum" && suffix != "_created") {
        issue(lineNo, "unexpected histogram sample suffix");
      }
    }
  }

  if (!sawEof) {
    issue(lineNo == 0 ? 1 : lineNo, "missing terminating # EOF");
  }
  for (const auto& [family, state] : histograms) {
    if (!state.sawInf) {
      issue(lineNo, "histogram '" + family + "' missing le=\"+Inf\" bucket");
    }
  }
  return issues;
}

} // namespace qsimec::obs
