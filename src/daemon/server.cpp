#include "daemon/server.hpp"

#include "obs/openmetrics.hpp"
#include "util/deadline.hpp"
#include "util/json.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace qsimec::daemon {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

namespace {

/// Bound on waiting for a connected client to finish sending its request;
/// a wedged client must not wedge the acceptor.
constexpr double kClientIoTimeoutSeconds = 10.0;

std::string okLine() {
  util::JsonWriter json;
  json.beginObject()
      .field("schema", kProtocolSchema)
      .field("ok", true)
      .endObject();
  return json.str();
}

/// Best-effort write of one response line; a client that hung up between
/// sending its request and reading the reply is not an error.
void tryWriteLine(const Socket& socket, const std::string& line) {
  if (!socket.valid()) {
    return;
  }
  try {
    writeAll(socket, line + "\n");
  } catch (const std::exception&) {
  }
}

/// The registry's value of counter `name` (0 before its first add).
std::uint64_t counterOf(const obs::MetricsRegistry& metrics,
                        std::string_view name) {
  const auto& counters = metrics.snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

/// A submitted manifest, parsed at admission; a parse error leaves the
/// manifest empty and its message in `error`.
svc::BatchManifest parseSubmitted(std::istream& is,
                                  const ec::FlowConfiguration& base,
                                  std::string& error) {
  try {
    return svc::parseManifest(is, base);
  } catch (const std::exception& e) {
    error = e.what();
    return {};
  }
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), cache_(options_.cacheCapacity) {
  if (options_.socketPath.empty()) {
    throw std::runtime_error("daemon requires a socket path");
  }
  if (!options_.cachePath.empty()) {
    cache_.loadFile(options_.cachePath);
    cacheStream_.open(options_.cachePath, std::ios::app);
    if (!cacheStream_) {
      throw std::runtime_error("cannot open cache file for append: " +
                               options_.cachePath);
    }
    cache_.persistTo(&cacheStream_);
  }
  if (!options_.journalPath.empty()) {
    journalStream_.open(options_.journalPath, std::ios::app);
    if (!journalStream_) {
      throw std::runtime_error("cannot open journal file: " +
                               options_.journalPath);
    }
    journal_.streamTo(&journalStream_);
    obs_.journal = &journal_;
  }
}

Daemon::~Daemon() {
  requestShutdown();
  for (std::thread* t : {&acceptThread_, &engineThread_, &spoolThread_}) {
    if (t->joinable()) {
      t->join();
    }
  }
  cache_.persistTo(nullptr);
}

void Daemon::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (started_) {
      return;
    }
    started_ = true;
  }
  const unsigned threads =
      options_.threads != 0 ? options_.threads : ec::defaultThreadCount();
  pool_.emplace(threads, &flight_);
  listenSocket_ = listenUnix(options_.socketPath);
  if (!options_.spoolDir.empty()) {
    for (const char* sub : {"in", "work", "out", "done", "failed"}) {
      fs::create_directories(fs::path(options_.spoolDir) / sub);
    }
  }
  if (!options_.postmortemDir.empty()) {
    fs::create_directories(options_.postmortemDir);
  }
  startedAt_ = std::chrono::steady_clock::now();
  obs_.log(obs::JournalLevel::Info, "daemon.start")
      .str("socket", options_.socketPath)
      .str("spool", options_.spoolDir)
      .num("threads", static_cast<std::uint64_t>(threads))
      .num("cache_entries", static_cast<std::uint64_t>(cache_.size()));
  acceptThread_ = std::thread([this] { acceptLoop(); });
  engineThread_ = std::thread([this] { engineLoop(); });
  if (!options_.spoolDir.empty()) {
    spoolThread_ = std::thread([this] { spoolLoop(); });
  }
}

void Daemon::run() {
  start();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return engineDone_; });
  }
  for (std::thread* t : {&acceptThread_, &spoolThread_, &engineThread_}) {
    if (t->joinable()) {
      t->join();
    }
  }
  // All admitted work is answered; make the warmth durable and let go of
  // the append stream before it is destroyed.
  cache_.persistTo(nullptr);
  if (cacheStream_.is_open()) {
    cacheStream_.flush();
  }
  obs_.log(obs::JournalLevel::Info, "daemon.stop")
      .num("completed", completedRequests())
      .num("rejected", rejectedRequests())
      .num("cache_entries", static_cast<std::uint64_t>(cache_.size()));
}

void Daemon::requestShutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      return;
    }
    draining_ = true;
    enginePaused_ = false; // a drain overrides a pause
  }
  cv_.notify_all();
  obs_.log(obs::JournalLevel::Info, "daemon.drain")
      .str("socket", options_.socketPath);
}

void Daemon::pauseEngine() {
  const std::lock_guard<std::mutex> lock(mutex_);
  enginePaused_ = true;
}

void Daemon::resumeEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    enginePaused_ = false;
  }
  cv_.notify_all();
}

std::uint64_t Daemon::completedRequests() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counterOf(metrics_, "daemon.requests.completed");
}

std::uint64_t Daemon::rejectedRequests() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return counterOf(metrics_, "daemon.requests.rejected");
}

std::string Daemon::statusJson() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return statusJsonLocked();
}

// --------------------------------------------------------------------------
// acceptor

void Daemon::acceptLoop() {
  while (true) {
    if (options_.stopFlag != nullptr &&
        options_.stopFlag->load(std::memory_order_relaxed)) {
      requestShutdown();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) {
        break;
      }
    }
    pollfd pfd{listenSocket_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100); // re-check stop flags 10x/second
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (rc == 0) {
      continue;
    }
    Socket connection(::accept4(listenSocket_.fd(), nullptr, nullptr,
                                SOCK_CLOEXEC));
    if (!connection.valid()) {
      continue;
    }
    handleConnection(std::move(connection));
  }
  // Stop advertising: close and remove the socket file so new clients get
  // a crisp connection error instead of an unanswered connect.
  listenSocket_.close();
  ::unlink(options_.socketPath.c_str());
}

void Daemon::handleConnection(Socket connection) {
  std::string request;
  try {
    request = readAll(connection, kClientIoTimeoutSeconds);
  } catch (const std::exception&) {
    return; // wedged or vanished client; admission was never reached
  }
  const std::size_t newline = request.find('\n');
  const std::string headerLine =
      newline == std::string::npos ? request : request.substr(0, newline);
  RequestHeader header;
  try {
    header = parseRequestHeader(headerLine);
  } catch (const std::exception& e) {
    tryWriteLine(connection, errorLine("bad-request", e.what()));
    return;
  }
  switch (header.op) {
  case RequestOp::Ping:
    tryWriteLine(connection, okLine());
    return;
  case RequestOp::Status: {
    std::string status;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      status = statusJsonLocked();
    }
    tryWriteLine(connection, status);
    return;
  }
  case RequestOp::Metrics: {
    std::string text;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      text = metricsTextLocked();
    }
    try {
      writeAll(connection, text);
    } catch (const std::exception&) {
    }
    return;
  }
  case RequestOp::Shutdown:
    tryWriteLine(connection, okLine());
    connection.close();
    requestShutdown();
    return;
  case RequestOp::Submit:
    break;
  }
  PendingRequest pending;
  pending.header = header;
  std::istringstream manifest(
      newline == std::string::npos ? std::string() : request.substr(newline + 1));
  std::string manifestError;
  pending.manifest = parseSubmitted(manifest, options_.base, manifestError);
  pending.connection = std::move(connection);
  // on rejection tryEnqueue writes the error line on the connection itself
  (void)tryEnqueue(std::move(pending), manifestError);
}

bool Daemon::tryEnqueue(PendingRequest&& request,
                        const std::string& manifestError) {
  const bool fromSpool = !request.spoolName.empty();
  std::string rejection;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!manifestError.empty()) {
      // refused whatever the queue holds: resubmitting cannot help it
      rejection = errorLine("manifest", manifestError);
    } else if (draining_) {
      rejection = errorLine("draining", "server is draining; resubmit later");
    } else if (queue_.size() >= options_.maxQueueDepth) {
      rejection = errorLine(
          "overload", "queue full (depth " + std::to_string(queue_.size()) +
                          ", max " + std::to_string(options_.maxQueueDepth) +
                          ")");
    }
    if (rejection.empty()) {
      request.id = nextRequestId_++;
      request.enqueuedAt = std::chrono::steady_clock::now();
      tallyLocked(request.header.client, [](obs::MetricsRegistry& m) {
        m.add("daemon.requests.accepted");
      });
      obs::Context requestObs = obs_;
      requestObs.requestId = request.id;
      const std::string client = request.header.client;
      const int priority = request.header.priority;
      // The admission line goes out *before* the request becomes visible to
      // the engine: the engine is the only writer afterwards, so the
      // response stream is always ack-then-results, and a --no-wait client
      // gets its answer without waiting for the queue. The line is a few
      // dozen bytes into an empty socket buffer — it cannot block.
      tryWriteLine(request.connection, acceptedLine());
      queue_.push_back(std::move(request));
      cv_.notify_all();
      requestObs.log(obs::JournalLevel::Info, "daemon.request.accepted")
          .str("client", client)
          .num("priority", static_cast<std::uint64_t>(priority))
          .str("source", fromSpool ? "spool" : "socket")
          .num("queued", static_cast<std::uint64_t>(queue_.size()));
      return true;
    }
    tallyLocked(request.header.client, [](obs::MetricsRegistry& m) {
      m.add("daemon.requests.rejected");
    });
  }
  obs_.log(obs::JournalLevel::Warn, "daemon.request.rejected")
      .str("client", request.header.client)
      .str("line", rejection);
  tryWriteLine(request.connection, rejection);
  return false;
}

// --------------------------------------------------------------------------
// engine

obs::MetricsRegistry& Daemon::clientRowLocked(const std::string& name) {
  const std::size_t namedRows =
      clients_.size() - clients_.count(kOverflowClient);
  if (namedRows < kMaxClientRows || clients_.contains(name)) {
    return clients_[name];
  }
  return clients_[kOverflowClient];
}

std::deque<Daemon::PendingRequest>::iterator Daemon::pickNextLocked() {
  const auto now = std::chrono::steady_clock::now();
  const auto effective = [&](const PendingRequest& r) {
    int priority = r.header.priority;
    if (options_.agingSeconds > 0) {
      const double waited =
          std::chrono::duration<double>(now - r.enqueuedAt).count();
      priority -= static_cast<int>(waited / options_.agingSeconds);
    }
    return std::max(0, priority);
  };
  auto best = queue_.begin();
  int bestPriority = effective(*best);
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    const int p = effective(*it);
    // FIFO within a level: the queue is in admission order, so only a
    // strictly more urgent request may overtake
    if (p < bestPriority) {
      best = it;
      bestPriority = p;
    }
  }
  return best;
}

void Daemon::engineLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (queue_.empty() || (enginePaused_ && !draining_)) {
      if (draining_ && queue_.empty()) {
        break;
      }
      cv_.wait_for(lock, 250ms); // re-evaluates aging and the drain flag
      continue;
    }
    const auto it = pickNextLocked();
    PendingRequest request = std::move(*it);
    queue_.erase(it);
    activeRequest_ = true;
    activeClient_ = request.header.client;
    lock.unlock();
    processRequest(request);
    lock.lock();
    activeRequest_ = false;
    activeClient_.clear();
    cv_.notify_all();
  }
  engineDone_ = true;
  lock.unlock();
  cv_.notify_all();
}

void Daemon::processRequest(PendingRequest& request) {
  const util::Stopwatch watch;
  obs::Context requestObs = obs_;
  requestObs.requestId = request.id;
  requestObs.log(obs::JournalLevel::Info, "daemon.request.start")
      .str("client", request.header.client);

  svc::BatchOptions batchOptions;
  batchOptions.pool = &*pool_;
  batchOptions.cache = &cache_;
  batchOptions.stallQuietSeconds = options_.stallQuietSeconds;
  batchOptions.pairDeadlineSeconds = options_.pairDeadlineSeconds;
  batchOptions.postmortemDir = options_.postmortemDir;
  // The scheduler publishes metrics from its own thread post-drain; give it
  // a private registry and fold that into the server-lifetime one under the
  // daemon lock (MetricsRegistry itself is not thread-safe).
  obs::MetricsRegistry requestMetrics;
  obs::Context obs = requestObs;
  obs.metrics = &requestMetrics;
  obs.flight = &flight_;
  svc::BatchScheduler scheduler(batchOptions);
  svc::BatchResult result = scheduler.run(request.manifest, obs);

  const svc::BatchSerializeOptions serialize{request.header.redact,
                                             request.header.redact};
  std::vector<std::string> lines;
  lines.reserve(result.outcomes.size() + 1);
  for (const svc::PairOutcome& outcome : result.outcomes) {
    lines.push_back(toJsonLine(outcome, serialize));
  }
  lines.push_back(toJsonLine(result.summary, serialize));

  // Bookkeeping happens *before* the response is released: a client that
  // fires `qsimec status` the moment its submit returns must already see
  // this request in the counters.
  const double seconds = watch.seconds();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tallyLocked(request.header.client, [&](obs::MetricsRegistry& m) {
      m.merge(requestMetrics.snapshot());
      m.add("daemon.requests.completed");
    });
    RequestRecord record;
    record.id = request.id;
    record.client = request.header.client;
    record.priority = request.header.priority;
    record.source = request.spoolName.empty() ? "socket" : "spool";
    record.pairs = result.summary.pairs;
    record.notEquivalent = result.summary.notEquivalent;
    record.cacheHits = result.summary.cacheHits;
    record.dispatched = result.summary.dispatched;
    record.seconds = seconds;
    recent_.push_front(std::move(record));
    while (recent_.size() > 16) {
      recent_.pop_back();
    }
  }

  // Journaled before the response too: a client that stops the daemon the
  // moment its submit returns must not get a `daemon.drain` line ahead of
  // this request's `done`.
  requestObs.log(obs::JournalLevel::Info, "daemon.request.done")
      .str("client", request.header.client)
      .num("pairs", static_cast<std::uint64_t>(result.summary.pairs))
      .num("cache_hits",
           static_cast<std::uint64_t>(result.summary.cacheHits))
      .num("dispatched",
           static_cast<std::uint64_t>(result.summary.dispatched))
      .num("seconds", seconds);

  if (request.connection.valid()) {
    std::string payload; // the admission line went out at enqueue time
    for (const std::string& line : lines) {
      payload += line;
      payload += '\n';
    }
    try {
      writeAll(request.connection, payload);
    } catch (const std::exception&) {
      // the client stopped waiting; the work (and the cache warmth) remains
    }
    request.connection.close();
  } else {
    respondSpool(request, lines);
  }
}

// --------------------------------------------------------------------------
// spool

void Daemon::spoolLoop() {
  const fs::path in = fs::path(options_.spoolDir) / "in";
  const fs::path work = fs::path(options_.spoolDir) / "work";
  const fs::path failed = fs::path(options_.spoolDir) / "failed";
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock,
                   std::chrono::duration<double>(
                       std::max(options_.spoolPollSeconds, 0.05)),
                   [this] { return draining_; });
      if (draining_) {
        return;
      }
    }
    std::vector<fs::path> files;
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(in, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end()); // deterministic intake order
    for (const fs::path& file : files) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (draining_ || queue_.size() >= options_.maxQueueDepth) {
          break; // a full queue leaves files in place: natural backpressure
        }
      }
      std::ifstream is(file);
      if (!is) {
        continue;
      }
      PendingRequest request;
      request.header.op = RequestOp::Submit;
      request.header.client = "spool";
      request.header.priority = kDefaultPriority;
      std::string manifestError;
      request.manifest = parseSubmitted(is, options_.base, manifestError);
      is.close();
      request.spoolName = file.filename().string();
      if (!manifestError.empty()) {
        // refused at intake: quarantined with the reason beside it
        (void)tryEnqueue(std::move(request), manifestError);
        std::ofstream(failed / (file.stem().string() + ".error.txt"))
            << manifestError << '\n';
        fs::rename(file, failed / file.filename(), ec);
        continue;
      }
      // claim the file before enqueueing: once the request is visible to
      // the engine it may finish (and move work/ -> done/) at any moment
      fs::rename(file, work / file.filename(), ec);
      if (ec) {
        continue;
      }
      if (!tryEnqueue(std::move(request), /*manifestError=*/{})) {
        // raced to full between the check and the enqueue: unclaim so the
        // file is retried on a later sweep
        fs::rename(work / file.filename(), file, ec);
        break;
      }
    }
  }
}

void Daemon::respondSpool(const PendingRequest& request,
                          const std::vector<std::string>& lines) {
  const fs::path spool(options_.spoolDir);
  const fs::path workFile = spool / "work" / request.spoolName;
  const fs::path stem = fs::path(request.spoolName).stem();
  std::error_code ec;
  std::ofstream out(spool / "out" / (stem.string() + ".results.jsonl"));
  for (const std::string& line : lines) {
    out << line << '\n';
  }
  out.close();
  fs::rename(workFile, spool / "done" / request.spoolName, ec);
}

// --------------------------------------------------------------------------
// status / metrics

std::string Daemon::statusJsonLocked() const {
  const double uptime = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - startedAt_)
                            .count();
  util::JsonWriter json;
  json.beginObject()
      .field("schema", "qsimec-daemon-status-v1")
      .field("state", draining_ ? "draining" : "running")
      .field("uptime_seconds", uptime);

  util::JsonWriter queue;
  queue.beginObject()
      .field("depth", static_cast<std::uint64_t>(queue_.size()))
      .field("active", activeRequest_)
      .field("active_client", activeClient_)
      .field("paused", enginePaused_);
  queue.beginArray("by_priority");
  for (int p = 0; p < kPriorities; ++p) {
    std::uint64_t depth = 0;
    for (const PendingRequest& r : queue_) {
      if (r.header.priority == p) {
        ++depth;
      }
    }
    queue.value(depth);
  }
  queue.endArray().endObject();
  json.rawField("queue", queue.str());

  util::JsonWriter admission;
  admission.beginObject()
      .field("max_depth", static_cast<std::uint64_t>(options_.maxQueueDepth))
      .field("rejected", counterOf(metrics_, "daemon.requests.rejected"))
      .endObject();
  json.rawField("admission", admission.str());

  util::JsonWriter requests;
  requests.beginObject()
      .field("accepted", counterOf(metrics_, "daemon.requests.accepted"))
      .field("completed", counterOf(metrics_, "daemon.requests.completed"))
      .endObject();
  json.rawField("requests", requests.str());

  util::JsonWriter pairs;
  pairs.beginObject()
      .field("total", counterOf(metrics_, "svc.pairs"))
      .field("cache_hits", counterOf(metrics_, "svc.cache.hit"))
      .field("dispatched", counterOf(metrics_, "svc.pairs.dispatched"))
      .field("stalled", counterOf(metrics_, "svc.pairs.stalled"))
      .endObject();
  json.rawField("pairs", pairs.str());

  util::JsonWriter cacheJson;
  cacheJson.beginObject()
      .field("size", static_cast<std::uint64_t>(cache_.size()))
      .field("capacity", static_cast<std::uint64_t>(cache_.capacity()))
      .field("hits", counterOf(metrics_, "svc.cache.hit"))
      .field("misses", counterOf(metrics_, "svc.cache.miss"))
      .field("stores", counterOf(metrics_, "svc.cache.store"))
      .field("evictions", cache_.evictions())
      .field("evicted_seconds", cache_.evictedSeconds())
      .field("digest_hits", counterOf(metrics_, "svc.cache.digest_hit"))
      .endObject();
  json.rawField("cache", cacheJson.str());

  util::JsonWriter clientsJson;
  clientsJson.beginObject();
  // the totals' counter names, read from each row's registry
  for (const auto& [name, row] : clients_) {
    util::JsonWriter one;
    one.beginObject()
        .field("requests", counterOf(row, "daemon.requests.completed"))
        .field("pairs", counterOf(row, "svc.pairs"))
        .field("cache_hits", counterOf(row, "svc.cache.hit"))
        .field("dispatched", counterOf(row, "svc.pairs.dispatched"))
        .field("rejected", counterOf(row, "daemon.requests.rejected"))
        .endObject();
    clientsJson.rawField(name, one.str());
  }
  clientsJson.endObject();
  json.rawField("clients", clientsJson.str());

  // watchdog view: how stale each ever-used worker heartbeat slot is; a
  // healthy idle pool reads large ages only while nothing is dispatched
  json.beginArray("heartbeat_age_micros");
  for (const obs::FlightRecorder::HeartbeatAge& heartbeat :
       flight_.heartbeatAges()) {
    json.value(heartbeat.ageMicros);
  }
  json.endArray();

  json.beginArray("recent");
  for (const RequestRecord& record : recent_) {
    util::JsonWriter one;
    one.beginObject()
        .field("id", record.id)
        .field("client", record.client)
        .field("priority", static_cast<std::int64_t>(record.priority))
        .field("source", record.source)
        .field("pairs", static_cast<std::uint64_t>(record.pairs))
        .field("not_equivalent",
               static_cast<std::uint64_t>(record.notEquivalent))
        .field("cache_hits", static_cast<std::uint64_t>(record.cacheHits))
        .field("dispatched", static_cast<std::uint64_t>(record.dispatched))
        .field("seconds", record.seconds)
        .endObject();
    json.rawValue(one.str());
  }
  json.endArray();

  json.endObject();
  return json.str();
}

std::string Daemon::metricsTextLocked() const {
  // scrape-time gauges ride on a copy so the const view stays honest
  obs::MetricsSnapshot snapshot = metrics_.snapshot();
  snapshot.gauges["daemon.queue.depth"] =
      static_cast<double>(queue_.size());
  snapshot.gauges["daemon.uptime_seconds"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    startedAt_)
          .count();
  snapshot.gauges["svc.cache.size"] = static_cast<double>(cache_.size());
  snapshot.gauges["svc.cache.evicted_seconds"] = cache_.evictedSeconds();
  return obs::renderOpenMetrics(snapshot);
}

} // namespace qsimec::daemon
