// The layer ledger: one benchmark harness for the check, batch and daemon
// paths, timed end to end (untraced runs) and layer by layer (--traced).
//
//   ledger --workload NAME [--seed N] [--seconds S] [--traced]
//          [--trace-out FILE] [--json-out FILE] [--dir DIR]
//
// Prints one `name value unit` line per metric and exits 0; exits 1 if any
// verdict contradicts how its pair was built, 2 on a usage error, an unfit
// build (assertions on, or sanitizers) or a failed set-up. All inputs are
// written to and read from DIR (default ledger-work), which the ledger
// enters first. bench/ledger/README.md has the metric catalog.

#include "inputs.hpp"
#include "recorder.hpp"
#include "workloads.hpp"

#include "obs/bench_report.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(memory_sanitizer)
#define QSIMEC_LEDGER_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QSIMEC_LEDGER_SANITIZED 1
#endif

using namespace qsimec;
using namespace qsimec::ledger;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{15.0};
  bool traced{false};
  std::string traceOut;
  std::string jsonOut;
  std::string dir{"ledger-work"};
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--traced] "
               "[--trace-out FILE] [--json-out FILE] [--dir DIR]\n"
               "workloads:",
               argv0);
  for (const std::string_view name : kWorkloadNames) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      usage(argv[0]);
    }
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (flag == "--workload") {
        args.workload = value(i);
      } else if (flag == "--seed") {
        args.seed = std::stoull(value(i));
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value(i));
      } else if (flag == "--traced") {
        args.traced = true;
      } else if (flag == "--trace-out") {
        args.traceOut = std::filesystem::absolute(value(i)).string();
      } else if (flag == "--json-out") {
        args.jsonOut = std::filesystem::absolute(value(i)).string();
      } else if (flag == "--dir") {
        args.dir = value(i);
      } else {
        usage(argv[0]);
      }
    }
  } catch (const std::logic_error&) { // stoull / stod on a malformed number
    usage(argv[0]);
  }
  if (args.workload.empty()) {
    usage(argv[0]);
  }
  return args;
}

/// Linear interpolation between closest ranks (q in [0, 1]).
double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// host.calib_ms of the host the end-to-end times are expressed at (a
/// 4-vCPU Xeon VM; see README.md).
constexpr double kReferenceCalibMs = 12.0;

/// One calibration sample, in ms: a fixed single-thread loop that inserts
/// 40,000 splitmix64 keys into a std::unordered_map, looks up 160,000, and
/// sorts 60,000 doubles. It allocates, hashes, branches and misses the
/// caches as the program does, in code that is not the program's, so it
/// follows most of the slow and fast phases of a shared host (README.md,
/// "Host-normalized times") and none of the changes to qsimec.
double calibrationSample() {
  static volatile std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 40'000; ++i) {
    table[mix(i)] = i;
  }
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 160'000; ++i) {
    if (const auto it = table.find(mix(i % 60'000)); it != table.end()) {
      sum += it->second;
    }
  }
  std::vector<double> values(60'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(mix(i) >> 11);
  }
  std::sort(values.begin(), values.end());
  sink = sink ^ sum ^ static_cast<std::uint64_t>(values[values.size() / 2]);
  return 1e3 * secondsSince(start);
}

/// Calibration samples taken between rounds (or set-ups), at most every
/// quarter second. A round's host scale is the reference over the mean of
/// the samples just before and just after it.
class HostSpeed {
public:
  /// Take a sample if the last one is a quarter second old.
  void maybeSample() {
    if (samples_.empty() || secondsSince(last_) >= 0.25) {
      sample();
    }
  }

  void sample() {
    samples_.push_back(calibrationSample());
    last_ = std::chrono::steady_clock::now();
  }

  /// Index of the newest sample.
  [[nodiscard]] std::size_t latest() const { return samples_.size() - 1; }

  /// kReferenceCalibMs over the mean of samples i and i + 1: what a time
  /// measured between them is multiplied by.
  [[nodiscard]] double scaleAfter(std::size_t i) const {
    return 2.0 * kReferenceCalibMs / (samples_[i] + samples_[i + 1]);
  }

  /// kReferenceCalibMs over the median of samples [from, latest()].
  [[nodiscard]] double scaleSince(std::size_t from) const {
    return kReferenceCalibMs /
           median({samples_.begin() + static_cast<std::ptrdiff_t>(from),
                   samples_.end()});
  }

  [[nodiscard]] double medianMs() const { return median(samples_); }

private:
  std::vector<double> samples_;
  std::chrono::steady_clock::time_point last_;
};

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer catalog a traced run prints (README.md: metric catalog).
constexpr MetricSpec kLayerMetrics[] = {
    {"io.parse_s", "s"},
    {"io.bytes", "count"},
    {"analysis.preflight_s", "s"},
    {"analysis.prescreen_s", "s"},
    {"analysis.tier_static", "count"},
    {"analysis.tier_stabilizer", "count"},
    {"analysis.tier_general", "count"},
    {"analysis.stripped_ops", "count"},
    {"ec.stabilizer_s", "s"},
    {"ec.stabilizer_phase_probes", "count"},
    {"ec.simulation_s", "s"},
    {"ec.simulation_runs", "count"},
    {"ec.counterexamples", "count"},
    {"ec.runs_per_counterexample", "ratio"},
    {"dd.sim.gc_s", "s"},
    {"dd.sim.gc_runs", "count"},
    {"dd.sim.apply_steps", "count"},
    {"dd.sim.compute_hit_rate", "ratio"},
    {"dd.sim.unique_hit_rate", "ratio"},
    {"dd.sim.nodes_allocated", "count"},
    {"dd.sim.peak_nodes", "nodes"},
    {"dd.gate_build_s", "s"},
    {"dd.gate_rebuild_share", "ratio"},
    {"ec.complete_s", "s"},
    {"ec.complete_timeouts", "count"},
    {"dd.complete.apply_steps", "count"},
    {"dd.complete.compute_hit_rate", "ratio"},
    {"dd.complete.peak_nodes", "nodes"},
    {"dd.complete.gc_s", "s"},
    {"ec.flow_s", "s"},
    {"ec.flow_overhead_s", "s"},
    {"obs.attribution_s", "s"},
    {"svc.manifest_s", "s"},
    {"svc.fingerprint_s", "s"},
    {"svc.cache_lookup_s", "s"},
    {"svc.cache_store_s", "s"},
    {"svc.serialize_s", "s"},
    {"svc.cache_hits", "count"},
    {"svc.dispatched", "count"},
    {"svc.deduped", "count"},
    {"svc.dedup_share", "ratio"},
    {"svc.batch_s", "s"},
    {"svc.batch_overhead_s", "s"},
    {"daemon.roundtrip_ms", "ms"},
    {"daemon.engine_ms", "ms"},
    {"daemon.overhead_ms", "ms"},
    {"daemon.rejected", "count"},
    {"ledger.ops", "count"},
    {"ledger.e2e_s", "s"},
    {"ledger.replica_s", "s"},
    {"ledger.unattributed_frac", "ratio"},
    {"ledger.trace_overhead_frac", "ratio"},
};

double valueOf(const obs::MetricsSnapshot& m, const std::string& name) {
  if (const auto it = m.counters.find(name); it != m.counters.end()) {
    return static_cast<double>(it->second);
  }
  if (const auto it = m.gauges.find(name); it != m.gauges.end()) {
    return it->second;
  }
  return 0.0;
}

void printMetric(const char* name, double value, const char* unit) {
  std::printf("%s %.12g %s\n", name, value, unit);
}

/// Run whole rounds until `seconds` have passed (at least one), so every
/// run sees the same mix of ops. Each end-to-end statistic is computed per
/// round, once as measured (raw.*) and once at the reference host speed
/// (the round's value times its host scale), and the median over rounds is
/// reported: the host's contention comes in bursts that slow a few rounds,
/// which a median over rounds shrugs off, and in phases of minutes, which
/// the scale mostly takes out.
obs::MetricsSnapshot runUntraced(Workload& workload, double seconds,
                                 OpLog& log, HostSpeed& host) {
  struct Round {
    double rate;     // pairs per second of op time
    double cpuPerOp; // seconds
    double p50;      // seconds
    double p90;
    std::size_t sampleBefore;
  };
  std::vector<Round> rounds;
  const auto start = std::chrono::steady_clock::now();
  do {
    host.maybeSample();
    const std::size_t firstOp = log.latencies.size();
    const std::uint64_t pairsBefore = log.pairs;
    const double cpuBefore = log.cpuSeconds;
    workload.round(rounds.size(), log);
    const std::vector<double> latencies(log.latencies.begin() + firstOp,
                                        log.latencies.end());
    double opSeconds = 0.0;
    for (const double s : latencies) {
      opSeconds += s;
    }
    rounds.push_back(Round{
        static_cast<double>(log.pairs - pairsBefore) / opSeconds,
        (log.cpuSeconds - cpuBefore) / static_cast<double>(latencies.size()),
        percentile(latencies, 0.50), percentile(latencies, 0.90),
        host.latest()});
  } while (secondsSince(start) < seconds);
  host.sample(); // the sample after the last round

  obs::MetricsSnapshot m;
  for (const bool scaled : {false, true}) {
    std::vector<double> rates;
    std::vector<double> cpuPerOp;
    std::vector<double> p50;
    std::vector<double> p90;
    for (const Round& r : rounds) {
      const double scale = scaled ? host.scaleAfter(r.sampleBefore) : 1.0;
      rates.push_back(r.rate / scale);
      cpuPerOp.push_back(r.cpuPerOp * scale);
      p50.push_back(r.p50 * scale);
      p90.push_back(r.p90 * scale);
    }
    const std::string prefix = scaled ? "" : "raw.";
    m.gauges[prefix + "pairs_per_s"] = median(rates);
    m.gauges[prefix + "cpu_ms_per_op"] = 1e3 * median(cpuPerOp);
    m.gauges[prefix + "latency_p50_ms"] = 1e3 * median(p50);
    m.gauges[prefix + "latency_p90_ms"] = 1e3 * median(p90);
  }
  return m;
}

/// Run traced rounds until `seconds` have passed (at least one). Every
/// round repeats round 0, so its counters must match the first round's
/// exactly; gauges are averaged over the rounds.
obs::MetricsSnapshot runTraced(Workload& workload, double seconds,
                               SpanRecorder& spans, OpLog& log) {
  const auto start = std::chrono::steady_clock::now();
  obs::MetricsSnapshot first;
  std::map<std::string, double, std::less<>> gaugeSums;
  std::size_t rounds = 0;
  do {
    const obs::MetricsSnapshot m = workload.tracedRound(rounds, spans, log);
    if (rounds == 0) {
      first = m;
    } else if (m.counters != first.counters) {
      std::fprintf(stderr, "ledger: counters drifted between identical traced "
                           "rounds\n");
      ++log.wrong;
    }
    for (const auto& [name, value] : m.gauges) {
      gaugeSums[name] += value;
    }
    ++rounds;
  } while (secondsSince(start) < seconds);
  for (auto& [name, sum] : gaugeSums) {
    first.gauges[name] = sum / static_cast<double>(rounds);
  }
  return first;
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
  os << text << "\n";
}

/// Merge this workload's record into the qsimec-bench-v1 report at `path`
/// (the schema `qsimec bench-diff` reads), keeping the other workloads'
/// records already there, in catalog order.
void writeJsonReport(const std::string& path, const Args& args,
                     const obs::MetricsSnapshot& metrics, bool correct) {
  std::map<std::string, obs::BenchReportRecord, std::less<>> records;
  if (std::filesystem::exists(path)) {
    for (obs::BenchReportRecord& r : obs::loadBenchReport(path).records) {
      records[r.name] = std::move(r);
    }
  }
  records[args.workload] = obs::BenchReportRecord{
      args.workload, 0, 0, 0, correct ? "correct" : "wrong", metrics};

  std::string rows = "[";
  for (const std::string_view name : kWorkloadNames) {
    const auto it = records.find(name);
    if (it == records.end()) {
      continue;
    }
    if (rows.size() > 1) {
      rows += ',';
    }
    util::JsonWriter row;
    row.beginObject()
        .field("name", it->second.name)
        .field("qubits", 0)
        .field("gates_g", 0)
        .field("gates_g_prime", 0)
        .field("outcome", it->second.outcome)
        .rawField("metrics", obs::toJson(it->second.metrics))
        .endObject();
    rows += row.str();
  }
  rows += ']';
  util::JsonWriter json;
  json.beginObject()
      .field("compiler", __VERSION__)
      .field("schema", "qsimec-bench-v1")
      .field("harness", "ledger")
      .field("timeout_seconds", 30.0)
      .field("simulations", 10)
      .field("seed", args.seed)
      .field("threads", 1)
      .field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("paper_scale", false)
      .rawField("results", rows)
      .endObject();
  writeFile(path, json.str());
}

} // namespace

int main(int argc, char** argv) {
#if !defined(NDEBUG) || defined(QSIMEC_LEDGER_SANITIZED)
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "ledger: built with assertions or sanitizers; timings "
                       "would not describe the program (configure with "
                       "-DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#else
  const Args args = parseArgs(argc, argv);
  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.seed);
  if (!workload) {
    usage(argv[0]);
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const unsigned hardwareConcurrency = std::thread::hardware_concurrency();
  std::printf("# ledger workload=%s seed=%llu seconds=%g traced=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.traced ? 1 : 0);
  std::printf("# host nproc=%ld hardware_concurrency=%u compiler=%s\n", nproc,
              hardwareConcurrency, __VERSION__);
  OpLog log;
  SpanRecorder spans;
  HostSpeed host;
  obs::MetricsSnapshot metrics;
  std::vector<double> setupSeconds;
  double setupScale = 1.0;
  try {
    std::filesystem::create_directories(args.dir);
    std::filesystem::current_path(args.dir);
    workload->prepare();
    // Set-up is timed on its own (setup_s), so work moved into it shows.
    // It runs at least five times and for at least a second; the median
    // is reported, at the reference host speed of the samples taken in
    // between.
    host.sample();
    const std::size_t firstSetupSample = host.latest();
    const auto setupStart = std::chrono::steady_clock::now();
    while (setupSeconds.size() < 5 || secondsSince(setupStart) < 1.0) {
      host.maybeSample();
      setupSeconds.push_back(workload->setup());
    }
    host.sample();
    setupScale = host.scaleSince(firstSetupSample);
    metrics = args.traced ? runTraced(*workload, args.seconds, spans, log)
                          : runUntraced(*workload, args.seconds, log, host);
  } catch (const WrongVerdict& e) {
    std::fprintf(stderr, "ledger: wrong verdict: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }

  const double calibMs = host.medianMs();
  const double failureRate =
      static_cast<double>(log.failed) / static_cast<double>(log.ops);
  metrics.gauges["raw.setup_s"] = median(setupSeconds);
  metrics.gauges["setup_s"] = median(setupSeconds) * setupScale;
  metrics.gauges["peak_rss_mb"] = peakRssMb();
  metrics.gauges["failure_rate"] = failureRate;
  metrics.gauges["host.calib_ms"] = calibMs;
  metrics.gauges["host.nproc"] = static_cast<double>(nproc);
  metrics.gauges["host.hardware_concurrency"] = hardwareConcurrency;
  if (args.traced) {
    metrics.counters["ledger.failed"] = log.failed;
    metrics.counters["ledger.wrong"] = log.wrong;
    for (const MetricSpec& spec : kLayerMetrics) {
      printMetric(spec.name, valueOf(metrics, spec.name), spec.unit);
    }
  } else {
    auto& g = metrics.gauges;
    // an untraced run's op count depends on the clock: a gauge, not a
    // deterministic counter
    g["ledger.ops"] = static_cast<double>(log.ops);
    g["ledger.failed"] = static_cast<double>(log.failed);
    g["ledger.wrong"] = static_cast<double>(log.wrong);
    for (const char* prefix : {"", "raw."}) {
      const std::string p = prefix;
      printMetric((p + "pairs_per_s").c_str(), g[p + "pairs_per_s"], "pairs/s");
      printMetric((p + "latency_p50_ms").c_str(), g[p + "latency_p50_ms"], "ms");
      printMetric((p + "latency_p90_ms").c_str(), g[p + "latency_p90_ms"], "ms");
      printMetric((p + "cpu_ms_per_op").c_str(), g[p + "cpu_ms_per_op"], "ms");
    }
  }
  printMetric("setup_s", metrics.gauges["setup_s"], "s");
  printMetric("raw.setup_s", metrics.gauges["raw.setup_s"], "s");
  printMetric("peak_rss_mb", metrics.gauges["peak_rss_mb"], "MB");
  printMetric("failure_rate", failureRate, "ratio");
  printMetric("ledger.attempted", static_cast<double>(log.ops), "count");
  printMetric("ledger.failed", static_cast<double>(log.failed), "count");
  printMetric("ledger.wrong", static_cast<double>(log.wrong), "count");
  printMetric("host.calib_ms", calibMs, "ms");
  printMetric("host.nproc", static_cast<double>(nproc), "count");
  printMetric("host.hardware_concurrency", hardwareConcurrency, "count");

  try {
    if (!args.jsonOut.empty()) {
      writeJsonReport(args.jsonOut, args, metrics, log.wrong == 0);
    }
    if (!args.traceOut.empty()) {
      writeFile(args.traceOut, spans.chromeTrace());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
  return log.wrong == 0 ? 0 : 1;
#endif
}
