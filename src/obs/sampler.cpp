#include "obs/sampler.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace qsimec::obs {

double processRssBytes() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      // "VmRSS:   123456 kB"
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb * 1024.0;
    }
  }
#endif
  return 0.0;
}

void Sampler::addProbe(std::string name, std::function<double()> probe) {
  if (running()) {
    throw std::logic_error("Sampler::addProbe while running");
  }
  probes_.push_back(std::move(probe));
  series_.push_back(Series{std::move(name), {}});
}

namespace {

/// (live nodes, unique-table fill) pooled over the in-use slots a package
/// has published into (nodesLive >= 0). A slot's allocated count comes back
/// as live * 1e6 / ppm; the ppm cell is floored, so that count is never
/// below the true one and the fill stays in [0, 1]. A slot at 0 ppm has no
/// recoverable count and stays out of the fill.
std::pair<double, double> pooledDdState(const FlightRecorder& recorder) {
  double live = 0.0;
  double fillLive = 0.0;
  double allocated = 0.0;
  for (std::size_t i = 0; i < recorder.slotCount(); ++i) {
    const FlightRecorder::ThreadRing& ring = recorder.slot(i);
    const auto nodes =
        static_cast<double>(ring.nodesLive.load(std::memory_order_relaxed));
    if (!ring.inUse.load(std::memory_order_relaxed) || nodes < 0.0) {
      continue;
    }
    live += nodes;
    const auto ppm =
        static_cast<double>(ring.uniqueFillPpm.load(std::memory_order_relaxed));
    if (ppm > 0.0) {
      fillLive += nodes;
      allocated += nodes * 1e6 / ppm;
    }
  }
  return {live, allocated > 0.0 ? fillLive / allocated : 0.0};
}

} // namespace

void Sampler::addFlightProbes(const FlightRecorder& recorder) {
  const FlightRecorder* r = &recorder;
  addProbe("dd.nodes_live", [r] { return pooledDdState(*r).first; });
  addProbe("dd.unique_fill", [r] { return pooledDdState(*r).second; });
  addProbe("process.rss_bytes", [] { return processRssBytes(); });
}

void Sampler::start() {
  if (running() || probes_.empty()) {
    return;
  }
  epoch_ = std::chrono::steady_clock::now();
  thread_ = std::jthread([this](const std::stop_token& stop) { run(stop); });
}

void Sampler::stop() {
  if (!running()) {
    return;
  }
  thread_.request_stop();
  wake_.notify_all();
  thread_.join();
  thread_ = std::jthread();
}

void Sampler::run(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    const double ts = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
    sampleOnce(ts);
    std::unique_lock<std::mutex> lock(wakeMutex_);
    wake_.wait_for(lock, stop, options_.period, [] { return false; });
  }
  // final sample so short-lived runs always record their end state
  const double ts = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - epoch_)
                        .count();
  sampleOnce(ts);
}

void Sampler::sampleOnce(double tsMicros) {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    Series& series = series_[i];
    if (series.samples.size() >= options_.maxSamplesPerSeries) {
      continue;
    }
    const double value = probes_[i]();
    if (!std::isfinite(value)) {
      continue;
    }
    series.samples.push_back(Sample{tsMicros, value});
    sampleCount_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->counter(series.name, value);
    }
  }
}

std::string Sampler::toCsv() const {
  std::string out = "ts_micros,probe,value\n";
  char buffer[128];
  for (const Series& series : series_) {
    for (const Sample& sample : series.samples) {
      std::snprintf(buffer, sizeof(buffer), "%.3f,%s,%.17g\n", sample.tsMicros,
                    series.name.c_str(), sample.value);
      out += buffer;
    }
  }
  return out;
}

void Sampler::writeCsv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open sample file: " + path);
  }
  os << toCsv();
  if (!os) {
    throw std::runtime_error("failed writing sample file: " + path);
  }
}

} // namespace qsimec::obs
